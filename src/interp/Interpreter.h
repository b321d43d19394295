//===- Interpreter.h - Compile-time LSS elaboration -------------*- C++ -*-===//
///
/// \file
/// The elaboration interpreter: executes LSS module bodies at compile time
/// to build the static netlist, implementing the paper's novel evaluation
/// semantics (Section 6.2).
///
/// The 7-tuple machine state (M, Is, L, A, B, e, S) maps onto this
/// implementation as follows:
///   M  — the netlist::Netlist under construction
///   Is — InstStack, the stack of instances whose bodies are deferred
///   L  — BodyState::E, the lexical environment of the running body
///   A  — InstanceNode::APendingAssigns/APendingConns of the instance whose
///        body is running (recorded by its parent, consumed by parameter
///        and port declarations — use-based specialization)
///   B  — the same pending lists on *child* nodes while the parent runs
///        (extract(c.n, B) is implicit in this distribution)
///   e/S — the C++ call stack walking the AST
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INTERP_INTERPRETER_H
#define LIBERTY_INTERP_INTERPRETER_H

#include "interp/Value.h"
#include "lss/AST.h"
#include "netlist/Netlist.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace liberty {
namespace interp {

class Interpreter {
public:
  struct Options {
    /// Abort elaboration after this many statement/expression steps
    /// (guards against non-terminating compile-time loops).
    uint64_t MaxSteps = 100000000;
    /// Abort after creating this many instances.
    uint64_t MaxInstances = 1000000;
    // Note: the error cap is no longer per-interpreter. Elaboration stops
    // when the shared DiagnosticEngine's limit is reached
    // (DiagnosticEngine::setMaxErrors / lssc --max-errors).
  };

  Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags);
  Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags, Options Opts);

  /// Registers the module declarations of \p File. Duplicate module names
  /// are diagnosed.
  void addModules(const lss::SpecFile &File);

  /// Returns the registered module with the given name, or null.
  const lss::ModuleDecl *lookupModule(const std::string &Name) const;

  /// Elaborates \p TopLevel (the system description S0) into a netlist.
  /// Always returns a netlist; callers must check Diags.hasErrors().
  std::unique_ptr<netlist::Netlist> run(const std::vector<lss::Stmt *> &TopLevel);

  /// Replay support for incremental recompilation (docs/INCREMENTAL.md).
  /// When set, run() consults the hook before evaluating each body (the
  /// synthetic root included). Returning true means the hook reproduced the
  /// body's effects (params, ports, connections, child shells) from a
  /// cached netlist, so the interpreter skips evaluating it; returning
  /// false evaluates the body normally. Child instances the hook creates
  /// via replayChild() defer their own bodies through the normal
  /// instantiation stack, so clean and dirty subtrees interleave on the
  /// exact schedule a cold elaboration would use.
  using ReplayHook = std::function<bool(netlist::InstanceNode *)>;
  void setReplayHook(ReplayHook H) { Replay = std::move(H); }

  /// Creates a child shell under \p Parent exactly as an `instance`
  /// statement would (module lookup, instance cap, LIFO stack push).
  /// Returns null — without diagnosing — if the module is unknown (the
  /// caller falls back to a full recompile) and with the usual diagnostic
  /// if the instance cap tripped. Only meaningful inside a replay hook.
  netlist::InstanceNode *replayChild(netlist::InstanceNode *Parent,
                                     const std::string &Name,
                                     const std::string &ModuleName,
                                     SourceLoc Loc);

  /// The netlist under construction. Valid only while run() is executing —
  /// i.e. from inside a replay hook, which needs it to clone connections
  /// and re-own userpoint signatures.
  netlist::Netlist *getNetlistUnderConstruction() { return NL; }

  /// Creation-index window of one evaluated (or replayed) body: the
  /// half-open ranges of connections created and diagnostics emitted while
  /// it ran, as indices into the netlist's connection list and the
  /// diagnostic engine's list. Bodies run one at a time, so each body's
  /// connections (and its children, via the instance list) form contiguous
  /// creation-order spans — the invariant incremental splicing relies on.
  struct BodyWindow {
    uint32_t ConnBegin = 0, ConnEnd = 0;
    uint32_t DiagBegin = 0, DiagEnd = 0;
  };
  /// One (instance, window) entry per body run() evaluated, in evaluation
  /// order (root first).
  const std::vector<std::pair<netlist::InstanceNode *, BodyWindow>> &
  getBodyWindows() const {
    return BodyWindows;
  }

  /// Hierarchical paths in body-evaluation order — the pop order of the
  /// instantiation stack, used by the semantics tests (Figure 13).
  const std::vector<std::string> &getProcessingOrder() const {
    return ProcessingOrder;
  }

  /// Messages produced by the print() builtin during elaboration.
  const std::vector<std::string> &getPrintLog() const { return PrintLog; }

  /// Total statement/expression steps executed (used by benches).
  uint64_t getSteps() const { return Steps; }

private:
  enum class Flow { Normal, Break, Continue };

  /// Lexical environment of one module body.
  struct Env {
    std::vector<std::map<std::string, Value>> Scopes;

    void push() { Scopes.emplace_back(); }
    void pop() { Scopes.pop_back(); }
    Value *lookup(const std::string &Name);
    void define(const std::string &Name, Value V) {
      Scopes.back()[Name] = std::move(V);
    }
  };

  /// All state for the body currently being evaluated.
  struct BodyState {
    netlist::InstanceNode *Node = nullptr;
    Env E;
    /// Per-instance type-variable map shared by all the body's ports.
    std::map<std::string, const types::Type *> VarMap;
    std::set<std::string> DeclaredParams;
    std::set<std::string> DeclaredPorts;
    /// Auto-index counters for unindexed internal uses of own ports.
    std::map<std::string, int> SelfPortAutoIdx;
    /// (own port, connection offset) pairs already warned about as beyond
    /// the port's width: one warning per statement, not per loop trip.
    std::set<std::pair<std::string, uint32_t>> WarnedBeyondWidth;
  };

  void evalBody(netlist::InstanceNode *Node,
                const std::vector<lss::Stmt *> &Body);

  Flow execStmt(BodyState &BS, const lss::Stmt *S);
  Flow execBlockBody(BodyState &BS, const std::vector<lss::Stmt *> &Body);
  void execParamDecl(BodyState &BS, const lss::ParamDeclStmt *S);
  void execPortDecl(BodyState &BS, const lss::PortDeclStmt *S);
  void execInstanceDecl(BodyState &BS, const lss::InstanceDeclStmt *S);
  void execVarDecl(BodyState &BS, const lss::VarDeclStmt *S);
  void execAssign(BodyState &BS, const lss::AssignStmt *S);
  void execConnect(BodyState &BS, const lss::ConnectStmt *S);

  Value evalExpr(BodyState &BS, const lss::Expr *E);
  /// Evaluates \p E by reference: an Ident/Index/Member chain yields a
  /// pointer into the environment (or into an element of a value held in
  /// \p Tmp), so indexing never copies its base; any other expression is
  /// evaluated into \p Tmp. Evaluation order, diagnostics and step counts
  /// are exactly evalExpr's. The pointer stays valid until the environment
  /// or \p Tmp next changes; this relies on the invariant that evaluating
  /// an expression never mutates the environment (only statements do).
  const Value *evalRef(BodyState &BS, const lss::Expr *E, Value &Tmp);
  Value evalCall(BodyState &BS, const lss::CallExpr *E);
  Value *resolveLValue(BodyState &BS, const lss::Expr *E);

  /// Creates one sub-instance, pushes it on the instantiation stack, and
  /// returns it (null on error).
  netlist::InstanceNode *makeInstance(BodyState &BS, const std::string &Name,
                                      const std::string &ModuleName,
                                      SourceLoc Loc);

  /// Creates a connection between two endpoint handles, recording pending
  /// resolutions on child endpoints (the B context).
  void makeConnection(BodyState &BS, const PortHandle &From,
                      const PortHandle &To, const lss::TypeExpr *Annotation,
                      SourceLoc Loc);

  /// Resolves one endpoint that refers to the current module's own port.
  void resolveSelfEndpoint(BodyState &BS, netlist::Connection *Conn,
                           bool IsFrom, const PortHandle &H, SourceLoc Loc);

  /// Converts a syntactic type in the current body's scope (type variables
  /// shared per instance; extents evaluated in the environment).
  const types::Type *convertType(BodyState &BS, const lss::TypeExpr *TE);

  /// True once elaboration must stop (step limit or error budget).
  bool aborted();

  types::TypeContext &TC;
  DiagnosticEngine &Diags;
  Options Opts;

  std::map<std::string, const lss::ModuleDecl *> ModuleTable;
  /// Deterministic registration order, for printing and stats.
  std::vector<const lss::ModuleDecl *> ModuleOrder;

  netlist::Netlist *NL = nullptr;
  std::vector<netlist::InstanceNode *> InstStack;
  ReplayHook Replay;
  std::vector<std::pair<netlist::InstanceNode *, BodyWindow>> BodyWindows;
  std::vector<std::string> ProcessingOrder;
  std::vector<std::string> PrintLog;
  uint64_t Steps = 0;
  uint64_t NumInstances = 0;
  bool Aborted = false;
};

} // namespace interp
} // namespace liberty

#endif // LIBERTY_INTERP_INTERPRETER_H
