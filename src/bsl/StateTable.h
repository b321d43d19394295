//===- StateTable.h - Dense per-instance runtime state ----------*- C++ -*-===//
///
/// \file
/// The per-instance runtime-state store behind BehaviorContext::state()
/// and BSL runtime variables (paper Section 4.3). Historically a
/// std::map<std::string, Value>; lowered to a build-time-resolved slot
/// table so the simulation hot path reads state through a dense index
/// instead of a string compare per access.
///
/// Slots are created by name (bind) and never removed. Their values live
/// in a SlotPool that the simulator owns and shares across every
/// instance's table, so an instance costs no pool allocation of its own;
/// the pool is pointer-stable, so Value pointers handed out (state(),
/// findState) stay valid for the lifetime of the pool — including across
/// reset(), which blanks the values but keeps every slot identity.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_BSL_STATETABLE_H
#define LIBERTY_BSL_STATETABLE_H

#include "interp/Value.h"

#include <deque>
#include <string>
#include <vector>

namespace liberty {
namespace bsl {

/// Backing store for state slots. Deque growth at the back never moves
/// existing elements, so slot pointers are stable.
using SlotPool = std::deque<interp::Value>;

class StateTable {
public:
  /// A table whose slots live in \p Pool, which must outlive it.
  explicit StateTable(SlotPool &Pool) : Pool(&Pool) {}

  /// The slot named \p Name, or -1 if it was never bound.
  int find(const std::string &Name) const {
    for (size_t I = 0; I != NumSlots; ++I)
      if (rec(I).Name == Name)
        return int(I);
    return -1;
  }

  /// Finds or creates (as Unset) the slot named \p Name. Slot ids are
  /// stable for the lifetime of the table.
  int bind(const std::string &Name) {
    int Id = find(Name);
    if (Id >= 0)
      return Id;
    Slot S{Name, &Pool->emplace_back()};
    if (NumSlots == 0)
      First = std::move(S);
    else
      More.push_back(std::move(S));
    return int(NumSlots++);
  }

  interp::Value &slot(int Id) { return *rec(size_t(Id)).V; }
  const interp::Value &slot(int Id) const { return *rec(size_t(Id)).V; }

  /// Pointer to the named slot's value, or null if unbound. The pointer
  /// stays valid as slots are added and across reset().
  interp::Value *lookup(const std::string &Name) {
    int Id = find(Name);
    return Id < 0 ? nullptr : rec(size_t(Id)).V;
  }

  /// Convenience accessor with map-like semantics (find-or-create).
  interp::Value &operator[](const std::string &Name) {
    return slot(bind(Name));
  }

  /// Blanks every value to Unset, keeping all slot identities (so ids and
  /// cached Value pointers survive a simulator reset).
  void resetValues() {
    for (size_t I = 0; I != NumSlots; ++I)
      *rec(I).V = interp::Value();
  }

  size_t size() const { return NumSlots; }
  const std::string &name(int Id) const { return rec(size_t(Id)).Name; }

private:
  struct Slot {
    std::string Name;
    interp::Value *V = nullptr;
  };
  const Slot &rec(size_t I) const { return I == 0 ? First : More[I - 1]; }

  // Most instances bind one slot, so the first is stored inline and only
  // later ones allocate.
  Slot First;
  std::vector<Slot> More;
  size_t NumSlots = 0;
  SlotPool *Pool;
};

} // namespace bsl
} // namespace liberty

#endif // LIBERTY_BSL_STATETABLE_H
