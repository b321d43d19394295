//===- Serializer.cpp - Stable netlist artifact round-trip -------------------===//

#include "netlist/Serializer.h"

#include "support/FaultInjection.h"

#include "interp/Value.h"
#include "lss/AST.h"
#include "types/Type.h"
#include "types/TypeContext.h"
#include "types/TypeIO.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace liberty;
using namespace liberty::netlist;
using interp::Value;

//===----------------------------------------------------------------------===//
// Token escaping
//===----------------------------------------------------------------------===//

/// Bytes that may appear raw in an escaped token. Everything else —
/// notably whitespace, '%', and the value/record delimiters ',[]{}="' —
/// becomes %XX. Type texts (letters, digits, '[]'-free? no: arrays!) are
/// escaped like any other payload, so a whole type rendering is one token.
static bool isRawByte(unsigned char C) {
  if (std::isalnum(C))
    return true;
  switch (C) {
  case '_': case '.': case '#': case '\'': case '-': case '+': case '/':
  case ':': case ';': case '(': case ')': case '|': case '<': case '>':
  case '!': case '*': case '@': case '^': case '~': case '?': case '$':
  case '&':
    return true;
  default:
    return false;
  }
}

std::string liberty::netlist::artifactEscape(const std::string &S) {
  // Empty strings need a non-empty rendering or the token disappears at
  // line-splitting time. "%_" cannot be produced by ordinary escaping
  // ('%' is always followed by two uppercase hex digits), so it is free
  // to serve as the empty-string sentinel.
  if (S.empty())
    return "%_";
  static const char *Hex = "0123456789ABCDEF";
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    if (isRawByte(C)) {
      Out.push_back(char(C));
    } else {
      Out.push_back('%');
      Out.push_back(Hex[C >> 4]);
      Out.push_back(Hex[C & 15]);
    }
  }
  return Out;
}

static int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  return -1;
}

bool liberty::netlist::artifactUnescape(std::string_view S,
                                        std::string &Out) {
  Out.clear();
  if (S == "%_")
    return true;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '%') {
      Out.push_back(S[I]);
      continue;
    }
    if (I + 2 >= S.size())
      return false;
    int Hi = hexDigit(S[I + 1]), Lo = hexDigit(S[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out.push_back(char((Hi << 4) | Lo));
    I += 2;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Value encoding
//===----------------------------------------------------------------------===//

/// Renders a data value as one raw (pre-escape) token. Returns false on
/// elaboration-only kinds (InstanceRef, Port), which cannot round-trip.
static bool encodeValue(const Value &V, std::string &Out) {
  switch (V.getKind()) {
  case Value::Kind::Unset:
    Out += 'u';
    return true;
  case Value::Kind::Int:
    Out += 'i';
    Out += std::to_string(V.getInt());
    return true;
  case Value::Kind::Bool:
    Out += V.getBool() ? "b1" : "b0";
    return true;
  case Value::Kind::Float: {
    // Bit-exact: the IEEE754 pattern as 16 hex digits. Decimal or even %a
    // renderings risk platform drift; bits do not.
    uint64_t Bits;
    double D = V.getFloat();
    static_assert(sizeof(Bits) == sizeof(D));
    std::memcpy(&Bits, &D, sizeof(Bits));
    char Buf[20];
    std::snprintf(Buf, sizeof(Buf), "f%016llx", (unsigned long long)Bits);
    Out += Buf;
    return true;
  }
  case Value::Kind::String:
    Out += 's';
    Out += artifactEscape(V.getString());
    return true;
  case Value::Kind::Array: {
    Out += "a[";
    bool First = true;
    for (const Value &E : V.getElems()) {
      if (!First)
        Out += ',';
      First = false;
      if (!encodeValue(E, Out))
        return false;
    }
    Out += ']';
    return true;
  }
  case Value::Kind::Struct: {
    Out += "t{";
    bool First = true;
    for (const auto &[Name, F] : V.getFields()) {
      if (!First)
        Out += ',';
      First = false;
      Out += artifactEscape(Name);
      Out += '=';
      if (!encodeValue(F, Out))
        return false;
    }
    Out += '}';
    return true;
  }
  case Value::Kind::InstanceRef:
  case Value::Kind::Port:
    return false;
  }
  return false;
}

namespace {

/// Recursive-descent reader over an encoded value token.
class ValueReader {
public:
  explicit ValueReader(const std::string &Text) : Text(Text) {}

  bool read(Value &Out) { return readValue(Out, 0) && Pos == Text.size(); }

private:
  static constexpr unsigned MaxDepth = 100;

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  /// Reads escaped-string bytes up to a structural delimiter.
  bool readEscaped(std::string &Out) {
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != ',' && Text[Pos] != ']' &&
           Text[Pos] != '}' && Text[Pos] != '=')
      ++Pos;
    return artifactUnescape(
        std::string_view(Text).substr(Start, Pos - Start), Out);
  }

  bool readValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return false;
    switch (peek()) {
    case 'u':
      ++Pos;
      Out = Value();
      return true;
    case 'i': {
      ++Pos;
      size_t Start = Pos;
      if (peek() == '-')
        ++Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos == Start)
        return false;
      Out = Value::makeInt(
          std::strtoll(Text.substr(Start, Pos - Start).c_str(), nullptr, 10));
      return true;
    }
    case 'b':
      ++Pos;
      if (peek() != '0' && peek() != '1')
        return false;
      Out = Value::makeBool(Text[Pos++] == '1');
      return true;
    case 'f': {
      ++Pos;
      if (Pos + 16 > Text.size())
        return false;
      uint64_t Bits = 0;
      for (unsigned I = 0; I != 16; ++I) {
        int D = hexDigit(Text[Pos + I]);
        if (D < 0)
          return false;
        Bits = (Bits << 4) | unsigned(D);
      }
      Pos += 16;
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      Out = Value::makeFloat(D);
      return true;
    }
    case 's': {
      ++Pos;
      std::string S;
      if (!readEscaped(S))
        return false;
      Out = Value::makeString(std::move(S));
      return true;
    }
    case 'a': {
      ++Pos;
      if (!consume('['))
        return false;
      std::vector<Value> Elems;
      if (!consume(']')) {
        do {
          Value E;
          if (!readValue(E, Depth + 1))
            return false;
          Elems.push_back(std::move(E));
        } while (consume(','));
        if (!consume(']'))
          return false;
      }
      Out = Value::makeArray(std::move(Elems));
      return true;
    }
    case 't': {
      ++Pos;
      if (!consume('{'))
        return false;
      std::vector<std::pair<std::string, Value>> Fields;
      if (!consume('}')) {
        do {
          std::string Name;
          Value F;
          if (!readEscaped(Name) || !consume('=') ||
              !readValue(F, Depth + 1))
            return false;
          Fields.emplace_back(std::move(Name), std::move(F));
        } while (consume(','));
        if (!consume('}'))
          return false;
      }
      Out = Value::makeStruct(std::move(Fields));
      return true;
    }
    default:
      return false;
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

static void emitLoc(std::ostringstream &OS, SourceLoc Loc) {
  OS << ' ' << Loc.BufferId << ' ' << Loc.Offset;
}

namespace {

/// Extends the shared token emitter with type rendering ("-" for null).
///
/// Type variables are renamed on the way out: every distinct Var becomes
/// "<hint>#<seq>" where <hint> is the source-level name (the VarName up to
/// its first '#') and <seq> is an artifact-wide first-use counter. The
/// in-memory VarId is a process-global allocation counter, so it drifts
/// between compiles that mint a different number of variables beforehand —
/// notably an incremental recompile, which deserializes the previous
/// netlist into the same TypeContext before elaborating. First-use order,
/// by contrast, is a pure function of the netlist's record order, so the
/// emitted bytes are identical whenever the structures are (and the reload
/// fixpoint becomes structural: parseTypeText re-mints variables in
/// exactly this order).
struct TokenEmitter : ArtifactTokenEmitter {
  explicit TokenEmitter(ArtifactStrTableBuilder *T) {
    Tab = T;
  }
  std::string type(const types::Type *T) const {
    return T ? tok(renderType(T)) : std::string("-");
  }

  std::string renderType(const types::Type *T) const {
    using types::Type;
    switch (T->getKind()) {
    case Type::Kind::Int:
      return "int";
    case Type::Kind::Bool:
      return "bool";
    case Type::Kind::Float:
      return "float";
    case Type::Kind::String:
      return "string";
    case Type::Kind::Var: {
      auto [It, Inserted] = VarNames.emplace(T->getVarId(), std::string());
      if (Inserted) {
        const std::string &Name = T->getVarName();
        It->second = Name.substr(0, Name.find('#')) + "#" +
                     std::to_string(VarNames.size() - 1);
      }
      return "'" + It->second;
    }
    case Type::Kind::Array:
      return renderType(T->getElem()) + "[" +
             std::to_string(T->getArraySize()) + "]";
    case Type::Kind::Struct: {
      std::string S = "struct{";
      for (const auto &[Name, FieldTy] : T->getFields())
        S += Name + ":" + renderType(FieldTy) + ";";
      return S + "}";
    }
    case Type::Kind::Disjunct: {
      std::string S = "(";
      const auto &Alts = T->getAlternatives();
      for (unsigned I = 0; I != Alts.size(); ++I) {
        if (I)
          S += "|";
        S += renderType(Alts[I]);
      }
      return S + ")";
    }
    }
    return "<invalid>";
  }

private:
  /// VarId -> canonical artifact name, in first-use order.
  mutable std::map<uint32_t, std::string> VarNames;
};

} // namespace

/// Per-instance records, emitted right after the instance's own line (and,
/// for the root, right after the header).
static bool emitInstanceBody(std::ostringstream &OS, const InstanceNode &Inst,
                             const TokenEmitter &E) {
  for (const auto &[Name, V] : Inst.Params) {
    std::string Enc;
    if (!encodeValue(V, Enc))
      return false;
    OS << "param " << E.tok(Name) << ' ' << E.tok(Enc) << '\n';
  }
  for (const auto &[Name, UV] : Inst.Userpoints) {
    OS << "userpoint " << E.tok(Name) << ' ' << (UV.IsDefault ? 1 : 0);
    emitLoc(OS, UV.Loc);
    unsigned NArgs = UV.Sig ? unsigned(UV.Sig->Args.size()) : 0;
    OS << ' ' << NArgs;
    for (unsigned I = 0; I != NArgs; ++I)
      OS << ' ' << E.tok(UV.Sig->Args[I].first);
    OS << ' ' << E.tok(UV.Code) << '\n';
  }
  for (const std::string &Ev : Inst.Events)
    OS << "event " << E.tok(Ev) << '\n';
  for (const RuntimeVar &RV : Inst.RuntimeVars) {
    std::string Enc;
    if (!encodeValue(RV.Init, Enc))
      return false;
    OS << "var " << E.tok(RV.Name);
    emitLoc(OS, RV.Loc);
    OS << ' ' << E.tok(Enc) << '\n';
  }
  for (const Port &P : Inst.Ports) {
    // v2 shortens the high-frequency records: "p"/"i"/"c" keywords and a
    // numeric direction. Ports dominate artifact line counts, so the two
    // spellings are worth the reader accepting both.
    OS << (E.Tab ? "p " : "port ") << E.tok(P.Name) << ' '
       << (E.Tab ? (P.isInput() ? "0" : "1") : (P.isInput() ? "in" : "out"))
       << ' ' << P.Width << ' ' << (P.WidthInferred ? 1 : 0);
    emitLoc(OS, P.Loc);
    OS << ' ' << E.type(P.Scheme) << ' ' << E.type(P.Resolved) << '\n';
  }
  for (const auto &[LHS, RHS] : Inst.ExtraConstraints)
    OS << "constrain " << E.type(LHS) << ' ' << E.type(RHS) << '\n';
  return true;
}

bool liberty::netlist::serializeNetlist(
    const Netlist &NL, const std::set<std::string> &LibraryModules,
    unsigned NumUserAnnotations, const std::vector<Diagnostic> &Diags,
    std::string &Out, unsigned FormatVersion) {
  if (FormatVersion < 1 || FormatVersion > CurrentLSSNLVersion)
    return false;
  if (faultShouldFail("serialize.netlist"))
    return false; // Injected stream failure: artifact just isn't cached.
  ArtifactStrTableBuilder Tab;
  TokenEmitter E(FormatVersion >= 2 ? &Tab : nullptr);

  // The body is rendered first so the v2 string table (first-use order)
  // is complete before the header is written.
  std::ostringstream OS;
  OS << "annotations " << NumUserAnnotations << '\n';
  for (const std::string &M : LibraryModules)
    OS << "libmodule " << E.tok(M) << '\n';
  for (const Diagnostic &D : Diags) {
    // Errors are never serialized: only clean compiles are cached.
    if (D.Level == DiagLevel::Error)
      return false;
    OS << "diag " << (D.Level == DiagLevel::Warning ? 1 : 0);
    emitLoc(OS, D.Loc);
    OS << ' ' << E.tok(D.Message) << '\n';
  }

  // Instances reference each other by dense InstanceNode::Id — the
  // creation-order index the netlist itself maintains, so no per-serialize
  // pointer map is needed. CacheTest pins the id/order agreement.
  const auto &Instances = NL.getInstances();

  // Root (index 0) carries no instance line of its own.
  if (!emitInstanceBody(OS, *Instances.front(), E))
    return false;
  for (size_t I = 1; I != Instances.size(); ++I) {
    const InstanceNode &Inst = *Instances[I];
    if (Inst.Id != I || !Inst.Parent || Inst.Parent->Id >= Inst.Id)
      return false; // Parents always precede children in creation order.
    OS << (E.Tab ? "i " : "instance ") << Inst.Parent->Id << ' '
       << E.tok(Inst.Name) << ' '
       << E.tok(Inst.ModuleName) << ' ' << E.opt(Inst.BehaviorId) << ' '
       << Inst.NumTypeVars;
    emitLoc(OS, Inst.Loc);
    OS << '\n';
    if (!emitInstanceBody(OS, Inst, E))
      return false;
  }

  for (const auto &Conn : NL.getConnections()) {
    auto EndpointIdx = [&](const PortRef &R) {
      return R.Inst ? int64_t(R.Inst->Id) : int64_t(-1);
    };
    OS << (E.Tab ? "c " : "conn ") << EndpointIdx(Conn->From) << ' '
       << E.opt(Conn->From.Port)
       << ' ' << Conn->From.Index << ' ' << EndpointIdx(Conn->To) << ' '
       << E.opt(Conn->To.Port) << ' ' << Conn->To.Index;
    emitLoc(OS, Conn->Loc);
    OS << ' ' << E.type(Conn->Annotation) << '\n';
  }
  OS << "end\n";

  std::ostringstream Head;
  Head << "LSSNL " << FormatVersion << '\n';
  if (FormatVersion >= 2) {
    Head << "strtab " << Tab.strings().size() << '\n';
    for (const std::string &S : Tab.strings())
      Head << "s " << artifactEscape(S) << '\n';
  }
  Out = Head.str() + OS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Deserialization
//===----------------------------------------------------------------------===//

// The field splitter/decoder moved to the public header as
// netlist::ArtifactLineReader so other artifact parsers (infer/Solution)
// share one hardened implementation.
using LineReader = liberty::netlist::ArtifactLineReader;
using FieldDecoder = liberty::netlist::ArtifactFieldDecoder<LineReader>;

static bool decodeValue(const FieldDecoder &F, size_t I, Value &Out) {
  std::string Enc;
  if (!F.str(I, Enc))
    return false;
  return ValueReader(Enc).read(Out);
}

bool liberty::netlist::artifactEncodeValue(const interp::Value &V,
                                           std::string &Out) {
  return encodeValue(V, Out);
}

bool liberty::netlist::artifactDecodeValue(const std::string &Text,
                                           interp::Value &Out) {
  return ValueReader(Text).read(Out);
}

/// Decodes a type token ("-" -> null) through the artifact-wide VarMap.
/// For v2 input, \p Memo caches decoded types by string-table id: equal
/// ids are the same text, and parseTypeText is idempotent for a given
/// (text, VarMap) — variables resolve through the shared VarMap — so
/// repeated references (the common case: a design has few distinct port
/// schemes) skip the parse entirely. This is what makes the v2 warm load
/// measurably faster than v1, not just smaller (bench_ir pins it).
static bool decodeType(const FieldDecoder &F, size_t I,
                       types::TypeContext &TC,
                       std::map<std::string, const types::Type *> &VarMap,
                       std::vector<const types::Type *> &Memo,
                       const types::Type *&Out) {
  Out = nullptr;
  if (I < F.L.size() && F.L.raw(I) == "-")
    return true;
  uint32_t Id = UINT32_MAX;
  if (F.Table && F.L.u32(I, Id) && Id < Memo.size() && Memo[Id]) {
    Out = Memo[Id];
    return true;
  }
  std::string Text;
  if (!F.str(I, Text))
    return false;
  Out = types::parseTypeText(Text, TC, VarMap);
  if (Out && F.Table && Id < Memo.size())
    Memo[Id] = Out;
  return Out != nullptr;
}

SerializedCompile
liberty::netlist::deserializeNetlist(const std::string &Text,
                                     types::TypeContext &TC) {
  SerializedCompile Result;
  auto Fail = [&] {
    Result = SerializedCompile();
    return std::move(Result);
  };
  if (faultShouldFail("deserialize.netlist"))
    return Fail(); // Injected stream failure: caller recompiles.

  size_t LinePos = 0;
  auto nextLine = [&](std::string_view &Line) {
    if (LinePos >= Text.size())
      return false;
    size_t E = Text.find('\n', LinePos);
    if (E == std::string::npos) {
      Line = std::string_view(Text).substr(LinePos);
      LinePos = Text.size();
    } else {
      Line = std::string_view(Text).substr(LinePos, E - LinePos);
      LinePos = E + 1;
    }
    return true;
  };

  std::string_view Line;
  unsigned Version;
  if (!nextLine(Line))
    return Fail();
  if (Line == "LSSNL 1")
    Version = 1;
  else if (Line == "LSSNL 2")
    Version = 2;
  else
    return Fail();

  // v2: the header string table precedes all records.
  std::vector<std::string> Strtab;
  if (Version >= 2) {
    if (!nextLine(Line))
      return Fail();
    LineReader H(Line);
    uint32_t N;
    if (H.size() != 2 || H.raw(0) != "strtab" || !H.u32(1, N))
      return Fail();
    // Each table line is at least 3 bytes, so a count beyond the input
    // size is malformed (and would otherwise let a fuzzed header force a
    // huge reserve).
    if (size_t(N) > Text.size())
      return Fail();
    Strtab.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      if (!nextLine(Line))
        return Fail();
      LineReader S(Line);
      std::string Str;
      if (S.size() != 2 || S.raw(0) != "s" || !S.str(1, Str))
        return Fail();
      Strtab.push_back(std::move(Str));
    }
  }

  auto NL = std::make_unique<Netlist>();
  InstanceNode *Cur = NL->getRoot();
  std::map<std::string, const types::Type *> VarMap;
  // Per-table-id type decode cache (v2 only; stays empty for v1).
  std::vector<const types::Type *> TypeMemo(Strtab.size(), nullptr);
  bool SawEnd = false;

  while (nextLine(Line)) {
    if (Line.empty())
      return Fail();
    LineReader L(Line);
    if (L.size() == 0)
      return Fail();
    FieldDecoder F{L, Version >= 2 ? &Strtab : nullptr};
    std::string_view Kind = L.raw(0);

    if (Kind == "end") {
      SawEnd = true;
      break;
    } else if (Kind == "annotations") {
      int64_t N;
      if (!L.i64(1, N) || N < 0 || L.size() != 2)
        return Fail();
      Result.NumUserAnnotations = unsigned(N);
    } else if (Kind == "libmodule") {
      std::string Name;
      if (!F.str(1, Name) || L.size() != 2)
        return Fail();
      Result.LibraryModules.insert(std::move(Name));
    } else if (Kind == "diag") {
      int64_t Level;
      Diagnostic D;
      if (L.size() != 5 || !L.i64(1, Level) || Level < 0 || Level > 1 ||
          !L.loc(2, D.Loc) || !F.str(4, D.Message))
        return Fail();
      D.Level = Level == 1 ? DiagLevel::Warning : DiagLevel::Note;
      Result.Diags.push_back(std::move(D));
    } else if (Kind == "instance" || Kind == "i") {
      int64_t ParentIdx, NTV;
      std::string Name, ModuleName, Behavior;
      SourceLoc Loc;
      if (L.size() != 8 || !L.i64(1, ParentIdx) || !F.str(2, Name) ||
          !F.str(3, ModuleName) || !F.optStr(4, Behavior) ||
          !L.i64(5, NTV) || NTV < 0 || !L.loc(6, Loc))
        return Fail();
      const auto &Instances = NL->getInstances();
      if (ParentIdx < 0 || size_t(ParentIdx) >= Instances.size())
        return Fail();
      Cur = NL->createInstance(Instances[size_t(ParentIdx)].get(),
                               std::move(Name), nullptr, Loc);
      Cur->ModuleName = std::move(ModuleName);
      Cur->BehaviorId = std::move(Behavior);
      Cur->NumTypeVars = unsigned(NTV);
    } else if (Kind == "param") {
      std::string Name;
      Value V;
      if (L.size() != 3 || !F.str(1, Name) || !decodeValue(F, 2, V))
        return Fail();
      Cur->Params.emplace(std::move(Name), std::move(V));
    } else if (Kind == "userpoint") {
      int64_t IsDefault, NArgs;
      std::string Name;
      UserpointValue UV;
      if (L.size() < 6 || !F.str(1, Name) || !L.i64(2, IsDefault) ||
          !L.loc(3, UV.Loc) || !L.i64(5, NArgs) || NArgs < 0 ||
          L.size() != size_t(7 + NArgs))
        return Fail();
      std::vector<std::string> Args;
      for (int64_t I = 0; I != NArgs; ++I) {
        std::string A;
        if (!F.str(size_t(6 + I), A))
          return Fail();
        Args.push_back(std::move(A));
      }
      if (!F.str(size_t(6 + NArgs), UV.Code))
        return Fail();
      UV.IsDefault = IsDefault != 0;
      UV.Sig = NL->createUserpointSig(std::move(Args));
      Cur->Userpoints.emplace(std::move(Name), std::move(UV));
    } else if (Kind == "event") {
      std::string Name;
      if (L.size() != 2 || !F.str(1, Name))
        return Fail();
      Cur->Events.push_back(std::move(Name));
    } else if (Kind == "var") {
      RuntimeVar RV;
      if (L.size() != 5 || !F.str(1, RV.Name) || !L.loc(2, RV.Loc) ||
          !decodeValue(F, 4, RV.Init))
        return Fail();
      Cur->RuntimeVars.push_back(std::move(RV));
    } else if (Kind == "port" || Kind == "p") {
      Port P;
      int64_t Width, WInf;
      std::string_view Dir;
      if (L.size() != 9 || !F.str(1, P.Name) ||
          ((Dir = L.raw(2)) != "in" && Dir != "out" && Dir != "0" &&
           Dir != "1") ||
          !L.i64(3, Width) || Width < 0 || !L.i64(4, WInf) ||
          !L.loc(5, P.Loc) || !decodeType(F, 7, TC, VarMap, TypeMemo, P.Scheme) ||
          !decodeType(F, 8, TC, VarMap, TypeMemo, P.Resolved))
        return Fail();
      P.Dir = (Dir == "in" || Dir == "0") ? PortDirection::In
                                          : PortDirection::Out;
      P.Width = int(Width);
      P.WidthInferred = WInf != 0;
      Cur->Ports.push_back(std::move(P));
    } else if (Kind == "constrain") {
      const types::Type *LHS, *RHS;
      if (L.size() != 3 || !decodeType(F, 1, TC, VarMap, TypeMemo, LHS) ||
          !decodeType(F, 2, TC, VarMap, TypeMemo, RHS) || !LHS || !RHS)
        return Fail();
      Cur->ExtraConstraints.emplace_back(LHS, RHS);
    } else if (Kind == "conn" || Kind == "c") {
      int64_t FromIdx, FromIndex, ToIdx, ToIndex;
      std::string FromPort, ToPort;
      SourceLoc Loc;
      const types::Type *Annotation;
      if (L.size() != 10 || !L.i64(1, FromIdx) || !F.optStr(2, FromPort) ||
          !L.i64(3, FromIndex) || !L.i64(4, ToIdx) || !F.optStr(5, ToPort) ||
          !L.i64(6, ToIndex) || !L.loc(7, Loc) ||
          !decodeType(F, 9, TC, VarMap, TypeMemo, Annotation))
        return Fail();
      const auto &Instances = NL->getInstances();
      auto Resolve = [&](int64_t Idx, InstanceNode *&Out) {
        if (Idx == -1) {
          Out = nullptr;
          return true;
        }
        if (Idx < 0 || size_t(Idx) >= Instances.size())
          return false;
        Out = Instances[size_t(Idx)].get();
        return true;
      };
      Connection *C = NL->createConnection(Loc);
      if (!Resolve(FromIdx, C->From.Inst) || !Resolve(ToIdx, C->To.Inst))
        return Fail();
      C->From.Port = std::move(FromPort);
      C->From.Index = int(FromIndex);
      C->To.Port = std::move(ToPort);
      C->To.Index = int(ToIndex);
      C->Annotation = Annotation;
    } else {
      return Fail();
    }
  }
  if (!SawEnd)
    return Fail();

  Result.NL = std::move(NL);
  return Result;
}
