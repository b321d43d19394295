//===- Value.h - LSS elaboration & simulation values ------------*- C++ -*-===//
///
/// \file
/// The dynamic value representation shared by the elaboration interpreter
/// (compile-time LSS execution) and the BSL runtime (userpoint execution and
/// signal values). Plain data kinds (Int/Bool/Float/String/Array/Struct)
/// flow on simulated wires; InstanceRef and PortHandle exist only at
/// elaboration time.
///
/// Layout: a Value is a kind tag plus one 8-byte word (16 bytes in all).
/// Int/Bool/Float/InstanceRef live inline in the word. String/Array/
/// Struct/Port keep their contents in a heap payload that copies of the
/// Value share through an atomic reference count, so copying any Value is
/// O(1). A payload is immutable while shared: the `*Mutable` accessors
/// first give this Value its own copy of the payload if another Value
/// still refers to it (copy-on-write), so writing through one Value never
/// changes another.
///
/// Equality: two Values sharing one payload are equal without a walk when
/// the payload is Reflexive (it holds no NaN float at any depth), which
/// is what lets the simulator compare a re-sent struct bus in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_VALUE_H
#define LIBERTY_INTERP_VALUE_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace liberty {

namespace netlist {
class InstanceNode;
}

namespace types {
class Type;
class TypeContext;
}

namespace interp {

/// An elaboration-time reference to a port, possibly narrowed to a single
/// port instance by an index. `OnSelf` distinguishes the current module's
/// own ports from a sub-instance's ports.
struct PortHandle {
  netlist::InstanceNode *Inst = nullptr;
  std::string Port;
  int Index = -1; ///< -1 while no port instance has been selected.
  bool OnSelf = false;

  bool hasIndex() const { return Index >= 0; }
};

namespace detail {
/// Common header of the shared String/Array/Struct/Port payloads.
struct Payload {
  std::atomic<uint32_t> Refs{1};
  /// Set when the contents hold no NaN float at any depth, so a Value is
  /// equal to any other Value sharing this payload. Set at construction
  /// (makeString/makePort always, makeArray/makeStruct after a scan) and
  /// cleared by the `*Mutable` accessors, which may write a NaN.
  bool Reflexive = false;
};
} // namespace detail

class Value {
public:
  enum class Kind : uint8_t {
    Unset,
    Int,
    Bool,
    Float,
    String,
    Array,
    Struct,
    InstanceRef,
    Port,
  };

  Value() noexcept { W.I = 0; }
  Value(const Value &O) noexcept : K(O.K), W(O.W) {
    if (hasPayload())
      ++W.P->Refs;
  }
  Value(Value &&O) noexcept : K(O.K), W(O.W) {
    O.K = Kind::Unset;
    O.W.I = 0;
  }
  Value &operator=(const Value &O) noexcept {
    Value Tmp(O);
    swap(Tmp);
    return *this;
  }
  Value &operator=(Value &&O) noexcept {
    // Take O before releasing our payload: O may live inside it.
    Value Tmp(std::move(O));
    swap(Tmp);
    return *this;
  }
  ~Value() {
    if (hasPayload())
      release();
  }

  static Value makeInt(int64_t V) {
    Value R(Kind::Int);
    R.W.I = V;
    return R;
  }
  static Value makeBool(bool V) {
    Value R(Kind::Bool);
    R.W.B = V;
    return R;
  }
  static Value makeFloat(double V) {
    Value R(Kind::Float);
    R.W.F = V;
    return R;
  }
  static Value makeInstanceRef(netlist::InstanceNode *Inst) {
    Value R(Kind::InstanceRef);
    R.W.Inst = Inst;
    return R;
  }
  static Value makeString(std::string V);
  static Value makeArray(std::vector<Value> Elems);
  static Value makeStruct(std::vector<std::pair<std::string, Value>> Fields);
  static Value makePort(PortHandle H);

  Kind getKind() const { return K; }
  bool isUnset() const { return K == Kind::Unset; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isFloat() const { return K == Kind::Float; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isStruct() const { return K == Kind::Struct; }
  bool isInstanceRef() const { return K == Kind::InstanceRef; }
  bool isPort() const { return K == Kind::Port; }
  /// True for the kinds that may flow on simulated wires.
  bool isData() const;

  // The scalar accessors assert the kind; a mismatched read in a release
  // build yields zero/false, never another kind's bits.
  int64_t getInt() const {
    assert(K == Kind::Int && "not an int value");
    return K == Kind::Int ? W.I : 0;
  }
  bool getBool() const {
    assert(K == Kind::Bool && "not a bool value");
    return K == Kind::Bool && W.B;
  }
  double getFloat() const {
    assert(K == Kind::Float && "not a float value");
    return K == Kind::Float ? W.F : 0.0;
  }

  /// In-place integer store: when this value is already an Int, only the
  /// inline word is updated. The simulation engines' hot path for integer
  /// wires; observationally identical to assigning makeInt(V).
  void setInt(int64_t V) {
    if (K == Kind::Int) {
      W.I = V;
      return;
    }
    *this = makeInt(V);
  }
  /// Numeric accessor that widens Int to double.
  double getNumeric() const;
  const std::string &getString() const;

  const std::vector<Value> &getElems() const;
  /// Copy-on-write: unshares the payload first if another Value holds it.
  std::vector<Value> &getElemsMutable();

  const std::vector<std::pair<std::string, Value>> &getFields() const;
  /// Copy-on-write, like getElemsMutable().
  std::vector<std::pair<std::string, Value>> &getFieldsMutable();
  /// Returns the field named \p Name, or null if absent.
  const Value *getField(const std::string &Name) const;
  /// Copy-on-write, like getElemsMutable(); null if absent.
  Value *getFieldMutable(const std::string &Name);

  netlist::InstanceNode *getInstance() const;
  const PortHandle &getPort() const;
  /// Copy-on-write, like getElemsMutable().
  PortHandle &getPortMutable();

  /// Structural equality on data kinds (Unset equals Unset; InstanceRef and
  /// Port compare by identity). O(1) when both sides hold the same inline
  /// non-NaN word or share one Reflexive payload; element-wise otherwise,
  /// so a NaN anywhere keeps a value unequal to itself.
  bool equals(const Value &Other) const {
    if (identical(Other) &&
        (hasPayload() ? W.P->Reflexive : !(K == Kind::Float && W.F != W.F)))
      return true;
    return equalsSlow(Other);
  }

  /// Same kind and same word: equal inline bits or one shared payload.
  /// Stricter than equals() (0.0 and -0.0 are not identical) and blind to
  /// NaN (a NaN is identical to itself); for callers that only need to
  /// know that a store would change nothing.
  bool identical(const Value &Other) const {
    return K == Other.K && W.I == Other.W.I;
  }

  /// True if this data value conforms to ground type \p Ty.
  bool conformsTo(const types::Type *Ty) const;

  /// A default value (zero/false/empty) of ground type \p Ty.
  static Value defaultFor(const types::Type *Ty);

  /// Renders the value for diagnostics and collectors.
  std::string str() const;

  /// Test-only: the number of payload entries (array elements, struct
  /// fields, one per string or port) copied so far, process-wide, by
  /// copy-on-write unsharing. Counted only on the unsharing path.
  static uint64_t getCowCopiedEntries();

private:
  /// An inline kind whose word the caller fills in.
  explicit Value(Kind NewKind) noexcept : K(NewKind) { W.I = 0; }
  /// A shared kind owning the fresh payload \p P.
  Value(Kind NewKind, detail::Payload *P) noexcept : K(NewKind) { W.P = P; }
  /// True for String/Array/Struct/Port: one bit per Kind enumerator.
  bool hasPayload() const {
    constexpr unsigned PayloadKinds =
        1u << unsigned(Kind::String) | 1u << unsigned(Kind::Array) |
        1u << unsigned(Kind::Struct) | 1u << unsigned(Kind::Port);
    return (PayloadKinds >> unsigned(K)) & 1u;
  }
  void swap(Value &O) noexcept {
    std::swap(K, O.K);
    std::swap(W, O.W);
  }
  /// Drops this Value's reference to its payload (freeing it if last).
  void release();
  /// The element-wise comparison behind equals().
  bool equalsSlow(const Value &Other) const;
  /// True if this value holds no NaN float at any depth.
  bool isReflexive() const;
  /// Makes the payload exclusively this Value's and returns it.
  detail::Payload *unshare();

  Kind K = Kind::Unset;
  union Word {
    int64_t I;
    double F;
    bool B;
    netlist::InstanceNode *Inst;
    detail::Payload *P;
  } W;
};

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_VALUE_H
