//===- Value.cpp - LSS elaboration & simulation values ---------------------===//

#include "interp/Value.h"

#include "types/Type.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace liberty;
using namespace liberty::interp;

namespace {

using detail::Payload;

struct StringPayload : Payload {
  explicit StringPayload(std::string S) : S(std::move(S)) {}
  std::string S;
};
struct ArrayPayload : Payload {
  explicit ArrayPayload(std::vector<Value> Elems) : Elems(std::move(Elems)) {}
  std::vector<Value> Elems;
};
struct StructPayload : Payload {
  explicit StructPayload(std::vector<std::pair<std::string, Value>> Fields)
      : Fields(std::move(Fields)) {}
  std::vector<std::pair<std::string, Value>> Fields;
};
struct PortPayload : Payload {
  explicit PortPayload(PortHandle H) : H(std::move(H)) {}
  PortHandle H;
};

std::atomic<uint64_t> CowCopiedEntries{0};

// Returned by the const accessors on a kind mismatch in release builds, so
// a mismatched read sees an empty value, never another kind's payload.
const std::string EmptyString;
const std::vector<Value> EmptyElems;
const std::vector<std::pair<std::string, Value>> EmptyFields;
const PortHandle EmptyPort;

} // namespace

Value Value::makeString(std::string V) {
  auto *P = new StringPayload(std::move(V));
  P->Reflexive = true;
  return Value(Kind::String, P);
}

Value Value::makeArray(std::vector<Value> Elems) {
  auto *P = new ArrayPayload(std::move(Elems));
  P->Reflexive = std::all_of(P->Elems.begin(), P->Elems.end(),
                             [](const Value &E) { return E.isReflexive(); });
  return Value(Kind::Array, P);
}

Value Value::makeStruct(std::vector<std::pair<std::string, Value>> Fields) {
  auto *P = new StructPayload(std::move(Fields));
  P->Reflexive =
      std::all_of(P->Fields.begin(), P->Fields.end(),
                  [](const auto &F) { return F.second.isReflexive(); });
  return Value(Kind::Struct, P);
}

Value Value::makePort(PortHandle H) {
  auto *P = new PortPayload(std::move(H));
  P->Reflexive = true; // Compared by identity fields: never NaN.
  return Value(Kind::Port, P);
}

bool Value::isReflexive() const {
  if (hasPayload())
    return W.P->Reflexive;
  return !(K == Kind::Float && W.F != W.F);
}

void Value::release() {
  if (--W.P->Refs != 0)
    return;
  switch (K) {
  case Kind::String:
    delete static_cast<StringPayload *>(W.P);
    break;
  case Kind::Array:
    delete static_cast<ArrayPayload *>(W.P);
    break;
  case Kind::Struct:
    delete static_cast<StructPayload *>(W.P);
    break;
  case Kind::Port:
    delete static_cast<PortPayload *>(W.P);
    break;
  default:
    assert(false && "release of an inline value");
  }
}

Payload *Value::unshare() {
  // Only this Value can reach a payload whose count is 1, so no other
  // thread can start sharing it concurrently.
  if (W.P->Refs == 1)
    return W.P;
  Payload *Copy = nullptr;
  uint64_t Entries = 1;
  switch (K) {
  case Kind::String:
    Copy = new StringPayload(static_cast<StringPayload *>(W.P)->S);
    break;
  case Kind::Array: {
    auto *A = new ArrayPayload(static_cast<ArrayPayload *>(W.P)->Elems);
    Entries = A->Elems.size();
    Copy = A;
    break;
  }
  case Kind::Struct: {
    auto *S = new StructPayload(static_cast<StructPayload *>(W.P)->Fields);
    Entries = S->Fields.size();
    Copy = S;
    break;
  }
  case Kind::Port:
    Copy = new PortPayload(static_cast<PortPayload *>(W.P)->H);
    break;
  default:
    assert(false && "unshare of an inline value");
    return W.P;
  }
  Copy->Reflexive = W.P->Reflexive;
  CowCopiedEntries += Entries;
  release();
  W.P = Copy;
  return Copy;
}

uint64_t Value::getCowCopiedEntries() {
  return CowCopiedEntries;
}

bool Value::isData() const {
  switch (K) {
  case Kind::Int:
  case Kind::Bool:
  case Kind::Float:
  case Kind::String:
  case Kind::Array:
  case Kind::Struct:
    return true;
  default:
    return false;
  }
}

double Value::getNumeric() const {
  assert((K == Kind::Int || K == Kind::Float) && "not a numeric value");
  if (K == Kind::Int)
    return static_cast<double>(W.I);
  return K == Kind::Float ? W.F : 0.0;
}

const std::string &Value::getString() const {
  assert(K == Kind::String && "not a string value");
  return K == Kind::String ? static_cast<StringPayload *>(W.P)->S
                           : EmptyString;
}

const std::vector<Value> &Value::getElems() const {
  assert(K == Kind::Array && "not an array value");
  return K == Kind::Array ? static_cast<ArrayPayload *>(W.P)->Elems
                          : EmptyElems;
}

std::vector<Value> &Value::getElemsMutable() {
  assert(K == Kind::Array && "not an array value");
  Payload *P = unshare();
  P->Reflexive = false; // The caller may store a NaN.
  return static_cast<ArrayPayload *>(P)->Elems;
}

const std::vector<std::pair<std::string, Value>> &Value::getFields() const {
  assert(K == Kind::Struct && "not a struct value");
  return K == Kind::Struct ? static_cast<StructPayload *>(W.P)->Fields
                           : EmptyFields;
}

std::vector<std::pair<std::string, Value>> &Value::getFieldsMutable() {
  assert(K == Kind::Struct && "not a struct value");
  Payload *P = unshare();
  P->Reflexive = false; // The caller may store a NaN.
  return static_cast<StructPayload *>(P)->Fields;
}

const Value *Value::getField(const std::string &Name) const {
  for (const auto &[FieldName, FieldValue] : getFields())
    if (FieldName == Name)
      return &FieldValue;
  return nullptr;
}

Value *Value::getFieldMutable(const std::string &Name) {
  for (auto &[FieldName, FieldValue] : getFieldsMutable())
    if (FieldName == Name)
      return &FieldValue;
  return nullptr;
}

netlist::InstanceNode *Value::getInstance() const {
  assert(K == Kind::InstanceRef && "not an instance reference");
  return K == Kind::InstanceRef ? W.Inst : nullptr;
}

const PortHandle &Value::getPort() const {
  assert(K == Kind::Port && "not a port handle");
  return K == Kind::Port ? static_cast<PortPayload *>(W.P)->H : EmptyPort;
}

PortHandle &Value::getPortMutable() {
  assert(K == Kind::Port && "not a port handle");
  return static_cast<PortPayload *>(unshare())->H;
}

bool Value::equalsSlow(const Value &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Unset:
    return true;
  case Kind::Int:
    return W.I == Other.W.I;
  case Kind::Bool:
    return W.B == Other.W.B;
  case Kind::Float:
    return W.F == Other.W.F;
  case Kind::String:
    return getString() == Other.getString();
  case Kind::Array: {
    // Element-wise even when the payload is shared: a NaN element keeps
    // an array unequal to itself.
    const auto &Elems = getElems(), &OtherElems = Other.getElems();
    if (Elems.size() != OtherElems.size())
      return false;
    for (unsigned I = 0; I != Elems.size(); ++I)
      if (!Elems[I].equals(OtherElems[I]))
        return false;
    return true;
  }
  case Kind::Struct: {
    const auto &Fields = getFields(), &OtherFields = Other.getFields();
    if (Fields.size() != OtherFields.size())
      return false;
    for (unsigned I = 0; I != Fields.size(); ++I)
      if (Fields[I].first != OtherFields[I].first ||
          !Fields[I].second.equals(OtherFields[I].second))
        return false;
    return true;
  }
  case Kind::InstanceRef:
    return W.Inst == Other.W.Inst;
  case Kind::Port: {
    const PortHandle &Handle = getPort(), &OtherHandle = Other.getPort();
    return Handle.Inst == OtherHandle.Inst && Handle.Port == OtherHandle.Port &&
           Handle.Index == OtherHandle.Index;
  }
  }
  return false;
}

bool Value::conformsTo(const types::Type *Ty) const {
  using types::Type;
  switch (Ty->getKind()) {
  case Type::Kind::Int:
    return K == Kind::Int;
  case Type::Kind::Bool:
    return K == Kind::Bool;
  case Type::Kind::Float:
    // Integer literals are accepted where a float is expected; the paper's
    // Figure 5 writes `parameter initial_state = 0:int`, and the analogous
    // float parameters are commonly defaulted with integer literals.
    return K == Kind::Float || K == Kind::Int;
  case Type::Kind::String:
    return K == Kind::String;
  case Type::Kind::Array: {
    if (K != Kind::Array)
      return false;
    const auto &Elems = getElems();
    if (Ty->getArraySize() >= 0 &&
        static_cast<int64_t>(Elems.size()) != Ty->getArraySize())
      return false;
    for (const Value &E : Elems)
      if (!E.conformsTo(Ty->getElem()))
        return false;
    return true;
  }
  case Type::Kind::Struct: {
    if (K != Kind::Struct)
      return false;
    const auto &Fields = getFields();
    const auto &FieldTys = Ty->getFields();
    if (Fields.size() != FieldTys.size())
      return false;
    for (unsigned I = 0; I != Fields.size(); ++I)
      if (Fields[I].first != FieldTys[I].first ||
          !Fields[I].second.conformsTo(FieldTys[I].second))
        return false;
    return true;
  }
  case Type::Kind::Var:
    return isData(); // Polymorphic slot accepts any data value.
  case Type::Kind::Disjunct:
    for (const types::Type *Alt : Ty->getAlternatives())
      if (conformsTo(Alt))
        return true;
    return false;
  }
  return false;
}

Value Value::defaultFor(const types::Type *Ty) {
  using types::Type;
  switch (Ty->getKind()) {
  case Type::Kind::Int:
    return makeInt(0);
  case Type::Kind::Bool:
    return makeBool(false);
  case Type::Kind::Float:
    return makeFloat(0.0);
  case Type::Kind::String:
    return makeString("");
  case Type::Kind::Array: {
    std::vector<Value> Elems;
    int64_t N = Ty->getArraySize() < 0 ? 0 : Ty->getArraySize();
    Elems.reserve(N);
    for (int64_t I = 0; I != N; ++I)
      Elems.push_back(defaultFor(Ty->getElem()));
    return makeArray(std::move(Elems));
  }
  case Type::Kind::Struct: {
    std::vector<std::pair<std::string, Value>> Fields;
    for (const auto &[Name, FieldTy] : Ty->getFields())
      Fields.emplace_back(Name, defaultFor(FieldTy));
    return makeStruct(std::move(Fields));
  }
  case Type::Kind::Var:
  case Type::Kind::Disjunct:
    return makeInt(0); // Unresolved polymorphism defaults like int.
  }
  return Value();
}

std::string Value::str() const {
  switch (K) {
  case Kind::Unset:
    return "<unset>";
  case Kind::Int:
    return std::to_string(W.I);
  case Kind::Bool:
    return W.B ? "true" : "false";
  case Kind::Float: {
    std::ostringstream OS;
    OS << W.F;
    return OS.str();
  }
  case Kind::String:
    return "\"" + getString() + "\"";
  case Kind::Array: {
    const auto &Elems = getElems();
    std::string S = "[";
    for (unsigned I = 0; I != Elems.size(); ++I) {
      if (I)
        S += ", ";
      S += Elems[I].str();
    }
    return S + "]";
  }
  case Kind::Struct: {
    const auto &Fields = getFields();
    std::string S = "{";
    for (unsigned I = 0; I != Fields.size(); ++I) {
      if (I)
        S += ", ";
      S += Fields[I].first + ": " + Fields[I].second.str();
    }
    return S + "}";
  }
  case Kind::InstanceRef:
    return "<instance>";
  case Kind::Port: {
    const PortHandle &Handle = getPort();
    return "<port " + Handle.Port +
           (Handle.hasIndex() ? "[" + std::to_string(Handle.Index) + "]" : "") +
           ">";
  }
  }
  return "<invalid>";
}
