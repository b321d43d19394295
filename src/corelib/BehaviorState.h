//===- BehaviorState.h - State of the kernel-lowered behaviors --*- C++ -*-===//
///
/// \file
/// The state and per-cycle steps of the stateful corelib behaviors that the
/// compiled kernel lowers (sim/KernelBuilder): queue, source and
/// bool_source. Each behavior's LeafBehavior owns exactly one of these
/// structs, and both the behavior (through BehaviorContext) and the
/// kernel op (over dense net ids) run the same inline steps on it, so the
/// two engines cannot drift apart and there is no second copy of the state
/// to keep in sync. The kernel finds a behavior's struct by behavior id
/// through the accessors at the bottom, after simulator reset() has run
/// init(); init() re-initializes the struct in place, so the pointer
/// survives every later reset().
///
/// reg and delay need nothing here: their only state is the "held" slot
/// of the instance's StateTable, which the kernel reads directly.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_CORELIB_BEHAVIORSTATE_H
#define LIBERTY_CORELIB_BEHAVIORSTATE_H

#include "interp/Value.h"

#include <cstdint>
#include <deque>
#include <string>

namespace liberty {

namespace bsl {
class LeafBehavior;
}

namespace corelib {

/// One step of the 64-bit LCG that source and bool_source draw from.
inline uint64_t lcgNext(uint64_t X) {
  return X * 6364136223846793005ULL + 1442695040888963407ULL;
}

//===----------------------------------------------------------------------===//
// corelib/queue
//===----------------------------------------------------------------------===//

struct QueueState {
  std::deque<interp::Value> Q;
  size_t Depth = 4;
  /// evaluate() sent the front this cycle (so endOfTimestep may dequeue).
  bool SentThisCycle = false;
};

/// The queue's declared events, in the names its collectors see.
enum class QueueEvent : uint8_t { Dequeue, Full, Enqueue };
const std::string &queueEventName(QueueEvent E);

/// The state half of the queue's evaluate(): the value to send on out[0]
/// this cycle, or null when the queue is empty.
inline const interp::Value *queueFront(QueueState &S) {
  S.SentThisCycle = !S.Q.empty();
  return S.SentThisCycle ? &S.Q.front() : nullptr;
}

/// The queue's endOfTimestep(): dequeue the front sent this cycle unless
/// stalled, then per input port instance in index order enqueue the value
/// present on it, or report it as dropped when the queue is full.
/// \p Input(I) returns in[I]'s value or null; \p Emit(Event, Payload) is
/// called once per declared event, in order.
template <class InputFn, class EmitFn>
inline void queueEndOfTimestep(QueueState &S, bool Stalled, int NumIn,
                               InputFn &&Input, EmitFn &&Emit) {
  if (S.SentThisCycle && !Stalled) {
    Emit(QueueEvent::Dequeue, S.Q.front());
    S.Q.pop_front();
  }
  for (int I = 0; I != NumIn; ++I) {
    const interp::Value *V = Input(I);
    if (!V)
      continue;
    if (S.Q.size() >= S.Depth) {
      Emit(QueueEvent::Full, *V);
      continue;
    }
    S.Q.push_back(*V);
    Emit(QueueEvent::Enqueue, *V);
  }
}

//===----------------------------------------------------------------------===//
// corelib/source
//===----------------------------------------------------------------------===//

struct SourceState {
  enum class Pattern : uint8_t { Counter, Const, Random };
  Pattern Pat = Pattern::Counter;
  uint64_t Rng = 1;
  int64_t ConstVal = 0;
  int64_t Range = 0; ///< > 0: values are reduced modulo Range.
  bool FloatOut = false; ///< The out port resolved to float.
  /// The instance carries a (non-empty) generate userpoint, which wins
  /// over the pattern; such a source is never lowered.
  bool HasGenerate = false;
};

/// The pattern value for \p Cycle (advancing the RNG for "random").
inline int64_t sourceNext(SourceState &S, uint64_t Cycle) {
  int64_t N;
  if (S.Pat == SourceState::Pattern::Const) {
    N = S.ConstVal;
  } else if (S.Pat == SourceState::Pattern::Random) {
    S.Rng = lcgNext(S.Rng);
    N = static_cast<int64_t>(S.Rng >> 40);
  } else {
    N = static_cast<int64_t>(Cycle);
  }
  if (S.Range > 0)
    N = ((N % S.Range) + S.Range) % S.Range;
  return N;
}

//===----------------------------------------------------------------------===//
// corelib/bool_source
//===----------------------------------------------------------------------===//

struct BoolSourceState {
  enum class Pattern : uint8_t { Toggle, ConstTrue, ConstFalse, Random };
  Pattern Pat = Pattern::Toggle;
  uint64_t Rng = 1;
};

/// The pattern value for \p Cycle (advancing the RNG for "random").
inline bool boolSourceNext(BoolSourceState &S, uint64_t Cycle) {
  switch (S.Pat) {
  case BoolSourceState::Pattern::ConstTrue:
    return true;
  case BoolSourceState::Pattern::ConstFalse:
    return false;
  case BoolSourceState::Pattern::Random:
    S.Rng = lcgNext(S.Rng);
    return (S.Rng >> 40) & 1;
  case BoolSourceState::Pattern::Toggle:
    break;
  }
  return Cycle % 2 == 1;
}

//===----------------------------------------------------------------------===//
// Lookup by behavior
//===----------------------------------------------------------------------===//

/// The state of \p B when it is the corelib behavior of that kind, else
/// null (the caller then keeps the generic path).
QueueState *queueStateOf(bsl::LeafBehavior &B);
SourceState *sourceStateOf(bsl::LeafBehavior &B);
BoolSourceState *boolSourceStateOf(bsl::LeafBehavior &B);

} // namespace corelib
} // namespace liberty

#endif // LIBERTY_CORELIB_BEHAVIORSTATE_H
