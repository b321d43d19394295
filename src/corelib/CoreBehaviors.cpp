//===- CoreBehaviors.cpp - Generic library component behaviors ---------------===//
///
/// The LSS declarations and C++ behaviors of the generic (non-CPU) library
/// components: sources, sinks, delays, registers, arithmetic, routing,
/// arbitration, queues, and storage.
///
//===----------------------------------------------------------------------===//

#include "corelib/CoreLib.h"

#include "bsl/BehaviorRegistry.h"
#include "corelib/BehaviorState.h"
#include "corelib/TraceGen.h"
#include "types/Type.h"

#include <mutex>

using namespace liberty;
using namespace liberty::corelib;
using namespace liberty::bsl;
using interp::Value;

// Defined in CpuBehaviors.cpp.
namespace liberty {
namespace corelib {
namespace detail {
void registerCpuBehaviors(BehaviorRegistry &R);
void registerCoreBehaviorsImpl();
}
} // namespace corelib
} // namespace liberty

//===----------------------------------------------------------------------===//
// LSS module declarations for the whole library
//===----------------------------------------------------------------------===//

static const char CoreLibraryLss[] = R"LSS(
// ---------------------------------------------------------------------------
// The Liberty standard component library.
// Sources and sinks.
// ---------------------------------------------------------------------------

module const_source {
  parameter value = 0:int;
  outport out: int;
  tar_file = "corelib/const_source";
};

module counter_source {
  parameter start = 0:int;
  parameter stride = 1:int;
  outport out: int;
  tar_file = "corelib/counter_source";
};

// A generic data generator. Overloaded over int and float; the produced
// value may be customized with the generate userpoint.
module source {
  parameter pattern = "counter":string;   // counter | const | random
  parameter value = 0:int;
  parameter seed = 1:int;
  parameter range = 0:int;                // >0: values are taken modulo range
  parameter generate : userpoint(cycle:int => int) = "";
  outport out: 'a;
  // float is deliberately the first alternative: a naive inference order
  // guesses it, discovers the mismatch only at the far end of the
  // constraint list, and backtracks exponentially — the failure mode the
  // paper's heuristics eliminate (Section 5).
  constrain 'a : (float | int);
  tar_file = "corelib/source";
};

module sink {
  inport in: 'a;
  event received;
  tar_file = "corelib/sink";
};

// Boolean stimulus for control inputs (branch outcomes, stalls, enables).
module bool_source {
  parameter pattern = "toggle":string;   // toggle | const_true | const_false | random
  parameter seed = 7:int;
  outport out: bool;
  tar_file = "corelib/bool_source";
};

// ---------------------------------------------------------------------------
// State elements.
// ---------------------------------------------------------------------------

// The single-cycle delay element of Figure 5 (int-typed, always driving).
module delay {
  parameter initial_state = 0:int;
  inport in: int;
  outport out: int;
  tar_file = "corelib/delay.tar";
};

// A polymorphic register with an optional enable (unconnected-port
// semantics: with en unconnected the register is always enabled).
module reg {
  inport in: 'a;
  inport en: bool;
  outport out: 'a;
  tar_file = "corelib/reg";
};

// A pipeline latch over a whole bus: in and out must have equal widths.
module pipe_latch {
  inport in: 'a;
  outport out: 'a;
  inport stall: bool;
  LSS_assert(in.width == out.width, "pipe_latch bus widths must match");
  tar_file = "corelib/pipe_latch";
};

// ---------------------------------------------------------------------------
// Arithmetic (overloaded over int and float — component overloading).
// ---------------------------------------------------------------------------

module adder {
  inport in1: 'a;
  inport in2: 'a;
  outport out: 'a;
  constrain 'a : (int | float);
  tar_file = "corelib/adder";
};

module alu {
  parameter op = "add":string;   // add | sub | mul | div | min | max
  inport a: 'a;
  inport b: 'a;
  outport out: 'a;
  constrain 'a : (int | float);
  tar_file = "corelib/alu";
};

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

module mux {
  inport in: 'a;
  inport sel: int;
  outport out: 'a;
  tar_file = "corelib/mux";
};

module demux {
  inport in: 'a;
  inport sel: int;
  outport out: 'a;
  tar_file = "corelib/demux";
};

// Broadcasts in[0] to every out instance.
module fanout {
  inport in: 'a;
  outport out: 'a;
  tar_file = "corelib/fanout";
};

// N-to-1 arbiter with a userpoint arbitration policy (default round
// robin). policy receives a bitmask of requesting inputs, the previously
// granted index, and the width, and returns the granted index.
module arbiter {
  inport in: 'a;
  outport out: 'a;
  parameter policy : userpoint(mask:int, last:int, width:int => int) =
    "var i:int;
     for (i = 1; i <= width; i = i + 1) {
       var c:int;
       c = (last + i) % width;
       if (bit(mask, c) == 1) { return c; }
     }
     return -1;";
  event grant;
  tar_file = "corelib/arbiter";
};

// ---------------------------------------------------------------------------
// Buffering and storage.
// ---------------------------------------------------------------------------

module queue {
  parameter depth = 4:int;
  inport in: 'a;
  inport stall: bool;
  outport out: 'a;
  event enqueue;
  event dequeue;
  event full;
  tar_file = "corelib/queue";
};

module memory {
  parameter size = 1024:int;
  inport raddr: int;
  outport rdata: 'a;
  inport waddr: int;
  inport wdata: 'a;
  LSS_assert(raddr.width == rdata.width, "memory read port widths differ");
  LSS_assert(waddr.width == wdata.width, "memory write port widths differ");
  tar_file = "corelib/memory";
};

// A register file with use-based-specialized read/write port counts: the
// number of ports is whatever the enclosing model connects.
module regfile {
  parameter nregs = 32:int;
  inport raddr: int;
  outport rdata: 'a;
  inport waddr: int;
  inport wdata: 'a;
  LSS_assert(raddr.width == rdata.width, "regfile read port widths differ");
  LSS_assert(waddr.width == wdata.width, "regfile write port widths differ");
  tar_file = "corelib/regfile";
};

// ---------------------------------------------------------------------------
// Microarchitecture components (behaviors in CpuBehaviors.cpp).
// ---------------------------------------------------------------------------

module cache {
  parameter sets = 64:int;
  parameter ways = 4:int;
  parameter repl = "lru":string;    // lru | fifo | random
  parameter miss_latency = 10:int;
  inport addr: int;
  outport ready: bool;
  outport mem_addr: int;            // optional next-level request port
  event hit;
  event miss;
  LSS_assert(addr.width == ready.width, "cache port widths differ");
  tar_file = "corelib/cache";
};

// Branch predictor with optional BTB functionality: the paper's use-based
// specialization example — BTB state exists only when branch_target is
// connected.
module branch_pred {
  parameter entries = 256:int;
  inport pc: int;
  outport pred: bool;
  outport branch_target: int;
  inport resolve_pc: int;
  inport resolve_taken: bool;
  inport resolve_target: int;
  event lookup;
  event mispredict;
  tar_file = "corelib/branch_pred";
};

// Trace-driven fetch unit producing µRISC instruction tokens.
module fetch {
  parameter num_instrs = 1000:int;
  parameter seed = 42:int;
  parameter mem_frac = 30:int;
  parameter branch_frac = 15:int;
  inport stall: bool;
  outport instr: struct{pc:int; op:int; dest:int; src1:int; src2:int; lat:int};
  event fetched;
  tar_file = "corelib/fetch";
};

// One-cycle decode latch (token pass-through).
module decode {
  inport instr: 'a;
  outport uop: 'a;
  inport stall: bool;
  LSS_assert(instr.width == uop.width, "decode widths differ");
  tar_file = "corelib/decode";
};

// Issue window with a scoreboard; dispatches to one port per functional
// unit. inorder selects in-order vs out-of-order issue.
module issue {
  parameter window = 8:int;
  parameter inorder = true:bool;
  inport uop: 'a;
  inport fu_busy: bool;
  inport complete: 'a;
  outport dispatch: 'a;
  outport stall: bool;
  event issue_stall;
  tar_file = "corelib/issue";
};

// A (pipelined or blocking) functional unit with configurable latency.
module fu {
  parameter latency = 1:int;
  parameter pipelined = true:bool;
  inport uop: 'a;
  outport done: 'a;
  outport busy: bool;
  tar_file = "corelib/fu";
};

// Retire unit: counts completed instructions.
module rob {
  inport done: 'a;
  outport retired: int;
  event retire;
  tar_file = "corelib/rob";
};
)LSS";

const char *liberty::corelib::getCoreLibraryLss() { return CoreLibraryLss; }

std::vector<std::string> liberty::corelib::getLibraryModuleNames() {
  return {"const_source", "counter_source", "source", "sink", "bool_source",
          "delay",        "reg",            "pipe_latch", "adder",
          "alu",          "mux",            "demux",      "fanout",
          "arbiter",      "queue",          "memory",     "regfile",
          "cache",        "branch_pred",    "fetch",      "decode",
          "issue",        "fu",             "rob"};
}

//===----------------------------------------------------------------------===//
// Generic behaviors
//===----------------------------------------------------------------------===//

namespace {

int64_t paramInt(BehaviorContext &Ctx, const char *Name, int64_t Default) {
  const Value *V = Ctx.getParam(Name);
  return V && V->isInt() ? V->getInt() : Default;
}

std::string paramString(BehaviorContext &Ctx, const char *Name,
                        const char *Default) {
  const Value *V = Ctx.getParam(Name);
  return V && V->isString() ? V->getString() : Default;
}

/// True if the (optional) stall port reads true this cycle.
bool stallAsserted(BehaviorContext &Ctx, const char *Port = "stall") {
  if (Ctx.getWidth(Port) == 0)
    return false;
  const Value *V = Ctx.getInput(Port, 0);
  return V && V->isBool() && V->getBool();
}

/// Bound-id twin for behaviors that resolved the stall port in init().
bool stallAsserted(BehaviorContext &Ctx, int Port) {
  if (Ctx.getWidth(Port) == 0)
    return false;
  const Value *V = Ctx.getInput(Port, 0);
  return V && V->isBool() && V->getBool();
}

// Behaviors bind their ports (and hot state slots) once in init() and use
// the dense ids on the per-cycle path; parameters that cannot change after
// elaboration are cached there too.

class ConstSource : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Out = Ctx.bindPort("out");
    Val = Value::makeInt(paramInt(Ctx, "value", 0));
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      Ctx.setOutput(Out, I, Val);
  }
  // Output depends only on a parameter (constant per run), so the
  // selective engine may carry it forward after the first cycle.
  bool hasPureEvaluate() const override { return true; }

private:
  int Out = -1;
  Value Val;
};

class CounterSource : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    Out = Ctx.bindPort("out");
    Start = paramInt(Ctx, "start", 0);
    Stride = paramInt(Ctx, "stride", 1);
  }
  void evaluate(BehaviorContext &Ctx) override {
    int64_t V = Start + Stride * static_cast<int64_t>(Ctx.getCycle());
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      Ctx.setOutput(Out, I, Value::makeInt(V));
  }

private:
  int Out = -1;
  int64_t Start = 0;
  int64_t Stride = 1;
};

class GenericSource : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    S = SourceState();
    S.Rng = static_cast<uint64_t>(paramInt(Ctx, "seed", 1));
    Out = Ctx.bindPort("out");
    std::string Pattern = paramString(Ctx, "pattern", "counter");
    S.Pat = Pattern == "const"    ? SourceState::Pattern::Const
            : Pattern == "random" ? SourceState::Pattern::Random
                                  : SourceState::Pattern::Counter;
    S.ConstVal = paramInt(Ctx, "value", 0);
    S.Range = paramInt(Ctx, "range", 0);
    // Adapt to the inferred port type (type-dependent BSL fragment).
    const types::Type *Ty = Ctx.getPortType("out");
    S.FloatOut = Ty && Ty->getKind() == types::Type::Kind::Float;
    S.HasGenerate = Ctx.hasUserpoint(generateName());
  }
  void evaluate(BehaviorContext &Ctx) override {
    // A customized generate userpoint wins; otherwise follow the pattern.
    Value V;
    if (S.HasGenerate)
      V = Ctx.callUserpoint(
          generateName(),
          {Value::makeInt(static_cast<int64_t>(Ctx.getCycle()))});
    if (V.isUnset())
      V = Value::makeInt(sourceNext(S, Ctx.getCycle()));
    if (S.FloatOut && V.isInt())
      V = Value::makeFloat(static_cast<double>(V.getInt()));
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      Ctx.setOutput(Out, I, V);
  }

  SourceState S;

private:
  static const std::string &generateName() {
    static const std::string Name = "generate";
    return Name;
  }

  int Out = -1;
};

class BoolSource : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    S = BoolSourceState();
    S.Rng = static_cast<uint64_t>(paramInt(Ctx, "seed", 7)) * 2654435761u + 1;
    Out = Ctx.bindPort("out");
    std::string Pattern = paramString(Ctx, "pattern", "toggle");
    S.Pat = Pattern == "const_true"    ? BoolSourceState::Pattern::ConstTrue
            : Pattern == "const_false" ? BoolSourceState::Pattern::ConstFalse
            : Pattern == "random"      ? BoolSourceState::Pattern::Random
                                       : BoolSourceState::Pattern::Toggle;
  }
  void evaluate(BehaviorContext &Ctx) override {
    bool B = boolSourceNext(S, Ctx.getCycle());
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      Ctx.setOutput(Out, I, Value::makeBool(B));
  }

  BoolSourceState S;

private:
  int Out = -1;
};

class Sink : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Received = Ctx.bindState("received");
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int I = 0, W = Ctx.getWidth(In); I != W; ++I) {
      const Value *V = Ctx.getInput(In, I);
      if (!V)
        continue;
      Value &Count = Ctx.state(Received);
      Count = Value::makeInt(Count.isInt() ? Count.getInt() + 1 : 1);
      Ctx.emitEvent("received", *V);
    }
  }

private:
  int In = -1;
  int Received = -1;
};

class Delay : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    // State slots are pointer-stable, so the hot path can cache the slot
    // across cycles (re-acquired on every reset).
    In = Ctx.bindPort("in");
    Out = Ctx.bindPort("out");
    Held = &Ctx.state("held");
    *Held = Value::makeInt(paramInt(Ctx, "initial_state", 0));
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      Ctx.setOutput(Out, I, *Held);
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    if (const Value *V = Ctx.getInput(In, 0))
      *Held = *V;
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  int In = -1;
  int Out = -1;
  Value *Held = nullptr;
};

class Reg : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    En = Ctx.bindPort("en");
    Out = Ctx.bindPort("out");
    HeldId = Ctx.bindState("held");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value &Held = Ctx.state(HeldId);
    if (Held.isData())
      for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
        Ctx.setOutput(Out, I, Held);
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    if (Ctx.getWidth(En) > 0) {
      const Value *EnV = Ctx.getInput(En, 0);
      if (!EnV || !EnV->isBool() || !EnV->getBool())
        return; // Disabled: hold.
    }
    if (const Value *V = Ctx.getInput(In, 0))
      Ctx.state(HeldId) = *V;
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  int In = -1;
  int En = -1;
  int Out = -1;
  int HeldId = -1;
};

class PipeLatch : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Out = Ctx.bindPort("out");
    Stall = Ctx.bindPort("stall");
    Held.assign(Ctx.getWidth(Out), Value());
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
      if (I < static_cast<int>(Held.size()) && Held[I].isData())
        Ctx.setOutput(Out, I, Held[I]);
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    if (stallAsserted(Ctx, Stall))
      return;
    for (int I = 0, W = Ctx.getWidth(In); I != W; ++I) {
      if (I >= static_cast<int>(Held.size()))
        break;
      const Value *V = Ctx.getInput(In, I);
      Held[I] = V ? *V : Value();
    }
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

private:
  int In = -1;
  int Out = -1;
  int Stall = -1;
  std::vector<Value> Held;
};

/// Numeric add working on either int or float operands.
static Value numericAdd(const Value &A, const Value &B) {
  if (A.isInt() && B.isInt())
    return Value::makeInt(A.getInt() + B.getInt());
  return Value::makeFloat(A.getNumeric() + B.getNumeric());
}

class Adder : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In1 = Ctx.bindPort("in1");
    In2 = Ctx.bindPort("in2");
    Out = Ctx.bindPort("out");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value *A = Ctx.getInput(In1, 0);
    const Value *B = Ctx.getInput(In2, 0);
    if (A && B)
      Ctx.setOutput(Out, 0, numericAdd(*A, *B));
  }
  bool hasPureEvaluate() const override { return true; }

private:
  int In1 = -1;
  int In2 = -1;
  int Out = -1;
};

class Alu : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    APort = Ctx.bindPort("a");
    BPort = Ctx.bindPort("b");
    Out = Ctx.bindPort("out");
    Op = paramString(Ctx, "op", "add");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value *A = Ctx.getInput(APort, 0);
    if (!A)
      return;
    if (Ctx.getWidth(BPort) == 0) { // Unary configuration.
      Ctx.setOutput(Out, 0, *A);
      return;
    }
    const Value *B = Ctx.getInput(BPort, 0);
    if (!B)
      return;
    bool Ints = A->isInt() && B->isInt();
    auto AsF = [](const Value &V) { return V.getNumeric(); };
    Value R;
    if (Op == "add")
      R = numericAdd(*A, *B);
    else if (Op == "sub")
      R = Ints ? Value::makeInt(A->getInt() - B->getInt())
               : Value::makeFloat(AsF(*A) - AsF(*B));
    else if (Op == "mul")
      R = Ints ? Value::makeInt(A->getInt() * B->getInt())
               : Value::makeFloat(AsF(*A) * AsF(*B));
    else if (Op == "div") {
      if (Ints)
        R = Value::makeInt(B->getInt() == 0 ? 0 : A->getInt() / B->getInt());
      else
        R = Value::makeFloat(AsF(*B) == 0 ? 0 : AsF(*A) / AsF(*B));
    } else if (Op == "min")
      R = Ints ? Value::makeInt(std::min(A->getInt(), B->getInt()))
               : Value::makeFloat(std::min(AsF(*A), AsF(*B)));
    else if (Op == "max")
      R = Ints ? Value::makeInt(std::max(A->getInt(), B->getInt()))
               : Value::makeFloat(std::max(AsF(*A), AsF(*B)));
    else
      R = numericAdd(*A, *B);
    Ctx.setOutput(Out, 0, R);
  }
  bool hasPureEvaluate() const override { return true; }

private:
  int APort = -1;
  int BPort = -1;
  int Out = -1;
  std::string Op;
};

class Mux : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Sel = Ctx.bindPort("sel");
    Out = Ctx.bindPort("out");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value *SelV = Ctx.getInput(Sel, 0);
    if (!SelV || !SelV->isInt())
      return;
    int64_t S = SelV->getInt();
    if (S < 0 || S >= Ctx.getWidth(In))
      return;
    if (const Value *V = Ctx.getInput(In, static_cast<int>(S)))
      Ctx.setOutput(Out, 0, *V);
  }
  bool hasPureEvaluate() const override { return true; }

private:
  int In = -1;
  int Sel = -1;
  int Out = -1;
};

class Demux : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Sel = Ctx.bindPort("sel");
    Out = Ctx.bindPort("out");
  }
  void evaluate(BehaviorContext &Ctx) override {
    const Value *SelV = Ctx.getInput(Sel, 0);
    const Value *V = Ctx.getInput(In, 0);
    if (!SelV || !SelV->isInt() || !V)
      return;
    int64_t S = SelV->getInt();
    if (S >= 0 && S < Ctx.getWidth(Out))
      Ctx.setOutput(Out, static_cast<int>(S), *V);
  }
  bool hasPureEvaluate() const override { return true; }

private:
  int In = -1;
  int Sel = -1;
  int Out = -1;
};

class Fanout : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Out = Ctx.bindPort("out");
  }
  void evaluate(BehaviorContext &Ctx) override {
    if (const Value *V = Ctx.getInput(In, 0))
      for (int I = 0, W = Ctx.getWidth(Out); I != W; ++I)
        Ctx.setOutput(Out, I, *V);
  }
  bool hasPureEvaluate() const override { return true; }

private:
  int In = -1;
  int Out = -1;
};

class Arbiter : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    In = Ctx.bindPort("in");
    Out = Ctx.bindPort("out");
    Last = Ctx.bindState("last");
    Ctx.state(Last) = Value::makeInt(-1);
  }
  void evaluate(BehaviorContext &Ctx) override {
    int W = std::min(Ctx.getWidth(In), 62);
    int64_t Mask = 0;
    for (int I = 0; I != W; ++I)
      if (Ctx.getInput(In, I))
        Mask |= int64_t(1) << I;
    if (!Mask)
      return;
    Value Idx = Ctx.callUserpoint(
        "policy", {Value::makeInt(Mask), Ctx.state(Last),
                   Value::makeInt(W)});
    if (!Idx.isInt() || Idx.getInt() < 0 || Idx.getInt() >= W)
      return;
    int Granted = static_cast<int>(Idx.getInt());
    if (const Value *V = Ctx.getInput(In, Granted)) {
      Ctx.setOutput(Out, 0, *V);
      Ctx.state(Last) = Value::makeInt(Granted);
      Ctx.emitEvent("grant", Value::makeInt(Granted));
    }
  }

private:
  int In = -1;
  int Out = -1;
  int Last = -1;
};

class Queue : public LeafBehavior {
public:
  void init(BehaviorContext &Ctx) override {
    S.Q.clear();
    S.SentThisCycle = false;
    S.Depth =
        static_cast<size_t>(std::max<int64_t>(1, paramInt(Ctx, "depth", 4)));
    In = Ctx.bindPort("in");
    Stall = Ctx.bindPort("stall");
    Out = Ctx.bindPort("out");
    Occupancy = Ctx.bindState("occupancy");
  }
  void evaluate(BehaviorContext &Ctx) override {
    if (const Value *Front = queueFront(S))
      Ctx.setOutput(Out, 0, *Front);
    Ctx.state(Occupancy) = Value::makeInt(static_cast<int64_t>(S.Q.size()));
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    queueEndOfTimestep(
        S, stallAsserted(Ctx, Stall), Ctx.getWidth(In),
        [&](int I) { return Ctx.getInput(In, I); },
        [&](QueueEvent E, const Value &V) {
          Ctx.emitEvent(queueEventName(E), V);
        });
  }
  bool readsCombinationally(const std::string &) const override {
    return false;
  }

  QueueState S;

private:
  int In = -1;
  int Stall = -1;
  int Out = -1;
  int Occupancy = -1;
};

/// Shared implementation of memory and regfile: combinational reads,
/// sequential writes, use-based-specialized port counts.
class StorageArray : public LeafBehavior {
public:
  explicit StorageArray(const char *SizeParam, int64_t DefaultSize)
      : SizeParam(SizeParam), DefaultSize(DefaultSize) {}

  void init(BehaviorContext &Ctx) override {
    Size = std::max<int64_t>(1, paramInt(Ctx, SizeParam, DefaultSize));
    Cells.assign(static_cast<size_t>(Size), Value::makeInt(0));
    RAddr = Ctx.bindPort("raddr");
    RData = Ctx.bindPort("rdata");
    WAddr = Ctx.bindPort("waddr");
    WData = Ctx.bindPort("wdata");
  }
  void evaluate(BehaviorContext &Ctx) override {
    for (int R = 0, W = Ctx.getWidth(RAddr); R != W; ++R) {
      const Value *A = Ctx.getInput(RAddr, R);
      if (!A || !A->isInt())
        continue;
      int64_t Addr = ((A->getInt() % Size) + Size) % Size;
      Ctx.setOutput(RData, R, Cells[static_cast<size_t>(Addr)]);
    }
  }
  void endOfTimestep(BehaviorContext &Ctx) override {
    for (int Wp = 0, W = Ctx.getWidth(WAddr); Wp != W; ++Wp) {
      const Value *A = Ctx.getInput(WAddr, Wp);
      const Value *D = Ctx.getInput(WData, Wp);
      if (!A || !A->isInt() || !D)
        continue;
      int64_t Addr = ((A->getInt() % Size) + Size) % Size;
      Cells[static_cast<size_t>(Addr)] = *D;
    }
  }
  bool readsCombinationally(const std::string &Port) const override {
    return Port == "raddr"; // Writes are sequential.
  }

private:
  const char *SizeParam;
  int64_t DefaultSize;
  int64_t Size = 1;
  std::vector<Value> Cells;
  int RAddr = -1;
  int RData = -1;
  int WAddr = -1;
  int WData = -1;
};

} // namespace

const std::string &liberty::corelib::queueEventName(QueueEvent E) {
  static const std::string Names[] = {"dequeue", "full", "enqueue"};
  return Names[static_cast<unsigned>(E)];
}

// dynamic_cast rather than trusting the id: a behavior re-registered under
// a corelib id simply stays on the generic path.
QueueState *liberty::corelib::queueStateOf(LeafBehavior &B) {
  auto *Q = dynamic_cast<Queue *>(&B);
  return Q ? &Q->S : nullptr;
}

SourceState *liberty::corelib::sourceStateOf(LeafBehavior &B) {
  auto *Src = dynamic_cast<GenericSource *>(&B);
  return Src ? &Src->S : nullptr;
}

BoolSourceState *liberty::corelib::boolSourceStateOf(LeafBehavior &B) {
  auto *Src = dynamic_cast<BoolSource *>(&B);
  return Src ? &Src->S : nullptr;
}

void liberty::corelib::registerCoreBehaviors() {
  // call_once, not a check-then-register probe: concurrent batch compiles
  // (CompileService) may race here, and BehaviorRegistry has no lock.
  static std::once_flag Registered;
  std::call_once(Registered, [] { detail::registerCoreBehaviorsImpl(); });
}

void liberty::corelib::detail::registerCoreBehaviorsImpl() {
  BehaviorRegistry &R = BehaviorRegistry::global();
  if (R.contains("corelib/delay.tar"))
    return; // Already registered.
  R.registerBehavior("corelib/const_source",
                     [] { return std::make_unique<ConstSource>(); });
  R.registerBehavior("corelib/counter_source",
                     [] { return std::make_unique<CounterSource>(); });
  R.registerBehavior("corelib/source",
                     [] { return std::make_unique<GenericSource>(); });
  R.registerBehavior("corelib/sink", [] { return std::make_unique<Sink>(); });
  R.registerBehavior("corelib/bool_source",
                     [] { return std::make_unique<BoolSource>(); });
  R.registerBehavior("corelib/delay.tar",
                     [] { return std::make_unique<Delay>(); });
  R.registerBehavior("corelib/reg", [] { return std::make_unique<Reg>(); });
  R.registerBehavior("corelib/pipe_latch",
                     [] { return std::make_unique<PipeLatch>(); });
  R.registerBehavior("corelib/adder",
                     [] { return std::make_unique<Adder>(); });
  R.registerBehavior("corelib/alu", [] { return std::make_unique<Alu>(); });
  R.registerBehavior("corelib/mux", [] { return std::make_unique<Mux>(); });
  R.registerBehavior("corelib/demux",
                     [] { return std::make_unique<Demux>(); });
  R.registerBehavior("corelib/fanout",
                     [] { return std::make_unique<Fanout>(); });
  R.registerBehavior("corelib/arbiter",
                     [] { return std::make_unique<Arbiter>(); });
  R.registerBehavior("corelib/queue",
                     [] { return std::make_unique<Queue>(); });
  R.registerBehavior("corelib/memory", [] {
    return std::make_unique<StorageArray>("size", 1024);
  });
  R.registerBehavior("corelib/regfile", [] {
    return std::make_unique<StorageArray>("nregs", 32);
  });
  detail::registerCpuBehaviors(R);
}
