//===- Interpreter.cpp - Compile-time LSS elaboration -----------------------===//

#include "interp/Interpreter.h"

#include "interp/ExprEvaluator.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace liberty;
using namespace liberty::interp;
using namespace liberty::lss;

Interpreter::Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags)
    : TC(TC), Diags(Diags) {}

Interpreter::Interpreter(types::TypeContext &TC, DiagnosticEngine &Diags,
                         Options Opts)
    : TC(TC), Diags(Diags), Opts(Opts) {}

void Interpreter::addModules(const SpecFile &File) {
  for (ModuleDecl *M : File.Modules) {
    auto [It, Inserted] = ModuleTable.emplace(M->getName(), M);
    if (!Inserted) {
      Diags.error(M->getLoc(),
                  "redefinition of module '" + M->getName() + "'");
      continue;
    }
    ModuleOrder.push_back(M);
  }
}

const ModuleDecl *Interpreter::lookupModule(const std::string &Name) const {
  auto It = ModuleTable.find(Name);
  return It == ModuleTable.end() ? nullptr : It->second;
}

Value *Interpreter::Env::lookup(const std::string &Name) {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return &Found->second;
  }
  return nullptr;
}

bool Interpreter::aborted() {
  if (Aborted)
    return true;
  if (Steps > Opts.MaxSteps) {
    Diags.error(SourceLoc(), "elaboration step limit exceeded; "
                             "non-terminating compile-time loop?");
    Aborted = true;
  } else if (Diags.errorLimitReached()) {
    // Shared --max-errors cap: stop elaborating new instances; the engine
    // has already noted the cut for the user.
    Aborted = true;
  }
  return Aborted;
}

std::unique_ptr<netlist::Netlist>
Interpreter::run(const std::vector<Stmt *> &TopLevel) {
  auto Result = std::make_unique<netlist::Netlist>();
  NL = Result.get();
  InstStack.clear();
  BodyWindows.clear();
  ProcessingOrder.clear();

  // Evaluates (or replays) one body, recording its connection/diagnostic
  // creation window. Windows are recorded uniformly for evaluated and
  // replayed bodies so an incremental compile can re-serialize a complete
  // dependency artifact afterwards.
  auto RunBody = [&](netlist::InstanceNode *Node,
                     const std::vector<Stmt *> &Body) {
    BodyWindow W;
    W.ConnBegin = uint32_t(NL->getConnections().size());
    W.DiagBegin = uint32_t(Diags.getDiagnostics().size());
    if (Replay && Replay(Node))
      ProcessingOrder.push_back(Node->Path.empty() ? "<top>" : Node->Path);
    else
      evalBody(Node, Body);
    W.ConnEnd = uint32_t(NL->getConnections().size());
    W.DiagEnd = uint32_t(Diags.getDiagnostics().size());
    BodyWindows.emplace_back(Node, W);
  };

  // The top level is the body of the synthetic root instance.
  RunBody(NL->getRoot(), TopLevel);

  // Pop and evaluate deferred instance bodies (LIFO, Section 6.2).
  while (!InstStack.empty() && !aborted()) {
    netlist::InstanceNode *Node = InstStack.back();
    InstStack.pop_back();
    assert(Node->Module && "deferred instance without a module");
    RunBody(Node, Node->Module->getBody());
  }

  NL = nullptr;
  return Result;
}

netlist::InstanceNode *Interpreter::replayChild(netlist::InstanceNode *Parent,
                                                const std::string &Name,
                                                const std::string &ModuleName,
                                                SourceLoc Loc) {
  const ModuleDecl *M = lookupModule(ModuleName);
  if (!M)
    return nullptr; // Caller aborts the replay; a cold compile diagnoses.
  if (++NumInstances > Opts.MaxInstances) {
    if (!Aborted)
      Diags.error(Loc, "instance limit exceeded");
    Aborted = true;
    return nullptr;
  }
  netlist::InstanceNode *Child = NL->createInstance(Parent, Name, M, Loc);
  InstStack.push_back(Child);
  return Child;
}

void Interpreter::evalBody(netlist::InstanceNode *Node,
                           const std::vector<Stmt *> &Body) {
  ProcessingOrder.push_back(Node->Path.empty() ? "<top>" : Node->Path);

  BodyState BS;
  BS.Node = Node;
  BS.E.push();

  for (const Stmt *S : Body) {
    if (aborted())
      return;
    Flow F = execStmt(BS, S);
    if (F != Flow::Normal) {
      Diags.error(S->getLoc(), "break/continue outside of a loop");
      return;
    }
  }

  Node->NumTypeVars = BS.VarMap.size();

  // A-context leftovers: the paper's check that no assignments or
  // connections were made to non-existent parameters or ports (A = Ø).
  for (netlist::PendingAssign &PA : Node->APendingAssigns) {
    if (PA.Consumed)
      continue;
    // The system userpoints init/end_of_timestep exist on every module
    // without declaration (Section 4.3).
    if ((PA.Field == "init" || PA.Field == "end_of_timestep") &&
        PA.V.isString()) {
      netlist::UserpointValue UV;
      UV.Sig = nullptr;
      UV.Code = PA.V.getString();
      UV.Loc = PA.Loc;
      Node->Userpoints[PA.Field] = std::move(UV);
      PA.Consumed = true;
      continue;
    }
    Diags.error(PA.Loc, "no parameter named '" + PA.Field + "' on module '" +
                            (Node->Module ? Node->Module->getName() : "?") +
                            "' (instance '" + Node->Path + "')");
  }
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Consumed)
      continue;
    Diags.error(PC.Loc, "no port named '" + PC.Port + "' on module '" +
                            (Node->Module ? Node->Module->getName() : "?") +
                            "' (instance '" + Node->Path + "')");
  }
}

Interpreter::Flow Interpreter::execBlockBody(BodyState &BS,
                                             const std::vector<Stmt *> &Body) {
  BS.E.push();
  Flow Result = Flow::Normal;
  for (const Stmt *S : Body) {
    if (aborted())
      break;
    Result = execStmt(BS, S);
    if (Result != Flow::Normal)
      break;
  }
  BS.E.pop();
  return Result;
}

Interpreter::Flow Interpreter::execStmt(BodyState &BS, const Stmt *S) {
  ++Steps;
  switch (S->getKind()) {
  case Stmt::Kind::ParamDecl:
    execParamDecl(BS, cast<ParamDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::PortDecl:
    execPortDecl(BS, cast<PortDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::InstanceDecl:
    execInstanceDecl(BS, cast<InstanceDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::VarDecl:
    execVarDecl(BS, cast<VarDeclStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::EventDecl:
    BS.Node->Events.push_back(cast<EventDeclStmt>(S)->getName());
    return Flow::Normal;
  case Stmt::Kind::Constrain: {
    const auto *C = cast<ConstrainStmt>(S);
    const types::Type *Var;
    auto It = BS.VarMap.find(C->getVarName());
    if (It != BS.VarMap.end()) {
      Var = It->second;
    } else {
      Var = TC.freshVar(C->getVarName());
      BS.VarMap.emplace(C->getVarName(), Var);
    }
    const types::Type *Scheme = convertType(BS, C->getScheme());
    if (Scheme)
      BS.Node->ExtraConstraints.emplace_back(Var, Scheme);
    return Flow::Normal;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Value CondV = evalExpr(BS, I->getCond());
    std::optional<bool> Cond = asCondition(CondV, I->getCond()->getLoc(), Diags);
    if (!Cond)
      return Flow::Normal;
    if (*Cond)
      return execStmt(BS, I->getThen());
    if (I->getElse())
      return execStmt(BS, I->getElse());
    return Flow::Normal;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    BS.E.push();
    if (F->getInit())
      execStmt(BS, F->getInit());
    while (!aborted()) {
      ++Steps;
      if (F->getCond()) {
        Value CondV = evalExpr(BS, F->getCond());
        std::optional<bool> Cond =
            asCondition(CondV, F->getCond()->getLoc(), Diags);
        if (!Cond || !*Cond)
          break;
      }
      Flow BodyFlow = execStmt(BS, F->getBody());
      if (BodyFlow == Flow::Break)
        break;
      if (F->getStep())
        execStmt(BS, F->getStep());
    }
    BS.E.pop();
    return Flow::Normal;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (!aborted()) {
      ++Steps;
      Value CondV = evalExpr(BS, W->getCond());
      std::optional<bool> Cond =
          asCondition(CondV, W->getCond()->getLoc(), Diags);
      if (!Cond || !*Cond)
        break;
      Flow BodyFlow = execStmt(BS, W->getBody());
      if (BodyFlow == Flow::Break)
        break;
    }
    return Flow::Normal;
  }
  case Stmt::Kind::Block:
    return execBlockBody(BS, cast<BlockStmt>(S)->getBody());
  case Stmt::Kind::Assign:
    execAssign(BS, cast<AssignStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::Connect:
    execConnect(BS, cast<ConnectStmt>(S));
    return Flow::Normal;
  case Stmt::Kind::ExprStmt:
    evalExpr(BS, cast<ExprStmt>(S)->getExpr());
    return Flow::Normal;
  case Stmt::Kind::Return:
    Diags.error(S->getLoc(),
                "'return' is only valid inside BSL userpoint code");
    return Flow::Normal;
  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  }
  return Flow::Normal;
}

const types::Type *Interpreter::convertType(BodyState &BS,
                                            const TypeExpr *TE) {
  auto EvalSize = [&](const Expr *E) -> std::optional<int64_t> {
    Value V = evalExpr(BS, const_cast<Expr *>(E));
    if (!V.isInt())
      return std::nullopt;
    return V.getInt();
  };
  return TC.convert(TE, BS.VarMap, EvalSize, Diags);
}

void Interpreter::execParamDecl(BodyState &BS, const ParamDeclStmt *S) {
  netlist::InstanceNode *Node = BS.Node;
  const std::string &Name = S->getName();
  if (!BS.DeclaredParams.insert(Name).second) {
    Diags.error(S->getLoc(), "redeclaration of parameter '" + Name + "'");
    return;
  }

  // Consult the A context for a use-site value (use-based specialization:
  // the parameter value arrives from the instantiating body).
  const Value *UseValue = nullptr;
  SourceLoc UseLoc;
  for (netlist::PendingAssign &PA : Node->APendingAssigns) {
    if (PA.Field != Name)
      continue;
    if (UseValue)
      Diags.warning(PA.Loc, "parameter '" + Name + "' assigned more than "
                            "once; the last assignment wins");
    PA.Consumed = true;
    UseValue = &PA.V;
    UseLoc = PA.Loc;
  }

  if (S->isUserpoint()) {
    netlist::UserpointValue UV;
    UV.Sig = S->getUserpointSig();
    UV.Loc = S->getLoc();
    if (UseValue) {
      if (!UseValue->isString()) {
        Diags.error(UseLoc, "userpoint parameter '" + Name +
                                "' requires a BSL code string");
        return;
      }
      UV.Code = UseValue->getString();
    } else if (S->getDefault()) {
      Value Def = evalExpr(BS, S->getDefault());
      if (!Def.isString()) {
        Diags.error(S->getLoc(), "default of userpoint parameter '" + Name +
                                     "' must be a BSL code string");
        return;
      }
      UV.Code = Def.getString();
      UV.IsDefault = true;
    } else {
      Diags.error(S->getLoc(),
                  "userpoint parameter '" + Name + "' on instance '" +
                      Node->Path + "' has no value and no default");
      return;
    }
    // The code string is also visible in the body so it can be forwarded
    // to sub-instance userpoints (Figure 12, line 10).
    BS.E.define(Name, Value::makeString(UV.Code));
    Node->Userpoints[Name] = std::move(UV);
    return;
  }

  const types::Type *DeclTy = convertType(BS, S->getType());
  if (!DeclTy)
    return;

  Value V;
  if (UseValue) {
    V = *UseValue;
  } else if (S->getDefault()) {
    V = evalExpr(BS, S->getDefault());
  } else {
    Diags.error(S->getLoc(), "parameter '" + Name + "' on instance '" +
                                 Node->Path + "' has no value and no default");
    return;
  }
  if (!V.conformsTo(DeclTy)) {
    Diags.error(UseValue ? UseLoc : S->getLoc(),
                "value " + V.str() + " does not match type " + DeclTy->str() +
                    " of parameter '" + Name + "'");
    return;
  }
  BS.E.define(Name, V);
  Node->Params[Name] = std::move(V);
}

/// Fills in a connection endpoint and checks direction legality for a
/// child-port endpoint resolved during the child's own port declaration.
static void resolveChildEndpoint(netlist::PendingConn &PC,
                                 netlist::InstanceNode *Node,
                                 const netlist::Port &P, int Index,
                                 DiagnosticEngine &Diags) {
  // The From side of a connection carries data out of the child; the To
  // side carries data in.
  if (PC.IsFrom && P.isInput())
    Diags.error(PC.Loc, "inport '" + P.Name + "' of instance '" + Node->Path +
                            "' cannot be a connection source");
  if (!PC.IsFrom && !P.isInput())
    Diags.error(PC.Loc, "outport '" + P.Name + "' of instance '" +
                            Node->Path + "' cannot be a connection target");
  netlist::PortRef &Ref = PC.IsFrom ? PC.Conn->From : PC.Conn->To;
  Ref.Inst = Node;
  Ref.Port = P.Name;
  Ref.Index = Index;
  PC.Consumed = true;
}

void Interpreter::execPortDecl(BodyState &BS, const PortDeclStmt *S) {
  netlist::InstanceNode *Node = BS.Node;
  const std::string &Name = S->getName();
  if (!BS.DeclaredPorts.insert(Name).second) {
    Diags.error(S->getLoc(), "redeclaration of port '" + Name + "'");
    return;
  }

  netlist::Port P;
  P.Name = Name;
  P.Dir = S->isInput() ? netlist::PortDirection::In
                       : netlist::PortDirection::Out;
  P.Loc = S->getLoc();
  P.AnnotationTE = S->getType();
  P.Scheme = convertType(BS, S->getType());

  // Consume the A context's recorded connections to this port, assigning
  // port-instance indices: explicit indices are honored, unindexed
  // connections get the next free slot (Section 4.2).
  std::set<int> Used;
  int MaxIdx = -1;
  // First pass: explicit indices.
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Port != Name || PC.Consumed || PC.ExplicitIndex < 0)
      continue;
    // Repeating an explicit index is fan-out for an outport (one driver,
    // many readers) but multiple drivers for an inport.
    if (!Used.insert(PC.ExplicitIndex).second && P.isInput())
      Diags.warning(PC.Loc, "inport instance " + Name + "[" +
                                std::to_string(PC.ExplicitIndex) +
                                "] connected more than once");
    MaxIdx = std::max(MaxIdx, PC.ExplicitIndex);
    resolveChildEndpoint(PC, Node, P, PC.ExplicitIndex, Diags);
  }
  // Second pass: inferred indices.
  int Cursor = 0;
  for (netlist::PendingConn &PC : Node->APendingConns) {
    if (PC.Port != Name || PC.Consumed)
      continue;
    while (Used.count(Cursor))
      ++Cursor;
    Used.insert(Cursor);
    MaxIdx = std::max(MaxIdx, Cursor);
    resolveChildEndpoint(PC, Node, P, Cursor, Diags);
  }

  P.Width = MaxIdx + 1;
  P.WidthInferred = true;
  Node->Ports.push_back(P);

  // The port name is visible in the body; `name.width` reads the inferred
  // width like any other parameter.
  PortHandle H;
  H.Inst = Node;
  H.Port = Name;
  H.OnSelf = true;
  BS.E.define(Name, Value::makePort(H));
}

void Interpreter::execInstanceDecl(BodyState &BS, const InstanceDeclStmt *S) {
  if (BS.E.lookup(S->getName())) {
    Diags.error(S->getLoc(), "redefinition of name '" + S->getName() + "'");
    return;
  }
  netlist::InstanceNode *Child =
      makeInstance(BS, S->getName(), S->getModuleName(), S->getLoc());
  if (!Child)
    return;
  BS.E.define(S->getName(), Value::makeInstanceRef(Child));
}

netlist::InstanceNode *Interpreter::makeInstance(BodyState &BS,
                                                 const std::string &Name,
                                                 const std::string &ModuleName,
                                                 SourceLoc Loc) {
  const ModuleDecl *M = lookupModule(ModuleName);
  if (!M) {
    Diags.error(Loc, "unknown module '" + ModuleName + "'");
    return nullptr;
  }
  if (++NumInstances > Opts.MaxInstances) {
    if (!Aborted)
      Diags.error(Loc, "instance limit exceeded");
    Aborted = true;
    return nullptr;
  }
  netlist::InstanceNode *Child = NL->createInstance(BS.Node, Name, M, Loc);
  InstStack.push_back(Child);
  return Child;
}

void Interpreter::execVarDecl(BodyState &BS, const VarDeclStmt *S) {
  if (S->isRuntime()) {
    // Runtime variables are simulation state (Section 4.3): evaluate the
    // initializer now, but expose the name only to BSL code.
    netlist::RuntimeVar RV;
    RV.Name = S->getName();
    RV.Loc = S->getLoc();
    if (S->getInit()) {
      RV.Init = evalExpr(BS, S->getInit());
      if (!RV.Init.isData()) {
        Diags.error(S->getLoc(), "runtime variable initializer must be a "
                                 "data value");
        return;
      }
    } else {
      RV.Init = Value::makeInt(0);
    }
    BS.Node->RuntimeVars.push_back(std::move(RV));
    return;
  }

  Value V;
  if (S->getInit()) {
    V = evalExpr(BS, S->getInit());
  } else {
    // Default-initialize by declared type where that makes sense.
    const TypeExpr *TE = S->getType();
    if (isa<InstanceRefTypeExpr>(TE)) {
      V = Value(); // Unset until assigned.
    } else if (const auto *ATE = dyn_cast<ArrayTypeExpr>(TE)) {
      (void)ATE;
      V = Value::makeArray({});
    } else if (const auto *BTE = dyn_cast<BasicTypeExpr>(TE)) {
      switch (BTE->getBasicKind()) {
      case BasicTypeExpr::Basic::Int:
        V = Value::makeInt(0);
        break;
      case BasicTypeExpr::Basic::Bool:
        V = Value::makeBool(false);
        break;
      case BasicTypeExpr::Basic::Float:
        V = Value::makeFloat(0.0);
        break;
      case BasicTypeExpr::Basic::String:
        V = Value::makeString("");
        break;
      }
    } else {
      V = Value();
    }
  }
  BS.E.define(S->getName(), std::move(V));
}

void Interpreter::execAssign(BodyState &BS, const AssignStmt *S) {
  Value RHS = evalExpr(BS, S->getRHS());

  // Case 1: plain identifier.
  if (const auto *Id = dyn_cast<IdentExpr>(S->getLHS())) {
    if (Value *Slot = BS.E.lookup(Id->getName())) {
      if (Slot->isPort()) {
        Diags.error(S->getLoc(),
                    "cannot assign to port '" + Id->getName() + "'");
        return;
      }
      *Slot = std::move(RHS);
      return;
    }
    // Undeclared identifier: defines an internal parameter / new variable.
    // tar_file is the distinguished internal parameter naming the leaf
    // behavior (Figure 5, line 6).
    if (Id->getName() == "tar_file") {
      if (!RHS.isString()) {
        Diags.error(S->getLoc(), "tar_file must be a string");
        return;
      }
      BS.Node->BehaviorId = RHS.getString();
      return;
    }
    BS.E.define(Id->getName(), std::move(RHS));
    return;
  }

  // Case 2: sub-instance field — record a potential parameter assignment
  // in the B context (consumed when the child's body runs).
  if (const auto *M = dyn_cast<MemberExpr>(S->getLHS())) {
    Value Tmp;
    const Value *Base = evalRef(BS, M->getBase(), Tmp);
    if (Base->isInstanceRef()) {
      netlist::InstanceNode *Child = Base->getInstance();
      if (Child->Parent != BS.Node) {
        Diags.error(S->getLoc(),
                    "can only parameterize direct sub-instances");
        return;
      }
      netlist::PendingAssign PA;
      PA.Field = M->getMember();
      PA.V = std::move(RHS);
      PA.Loc = S->getLoc();
      Child->APendingAssigns.push_back(std::move(PA));
      return;
    }
    // Fall through to struct-field lvalue below.
  }

  // Case 3: compound lvalue into local storage (array elem, struct field).
  if (Value *Slot = resolveLValue(BS, S->getLHS())) {
    *Slot = std::move(RHS);
    return;
  }
  Diags.error(S->getLoc(), "invalid assignment target");
}

Value *Interpreter::resolveLValue(BodyState &BS, const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::Ident: {
    return BS.E.lookup(cast<IdentExpr>(E)->getName());
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value *Base = resolveLValue(BS, I->getBase());
    if (!Base || !Base->isArray())
      return nullptr;
    Value Idx = evalExpr(BS, I->getIndex());
    if (!Idx.isInt())
      return nullptr;
    auto &Elems = Base->getElemsMutable();
    int64_t N = Idx.getInt();
    if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
      Diags.error(E->getLoc(), "array index " + std::to_string(N) +
                                   " out of bounds (size " +
                                   std::to_string(Elems.size()) + ")");
      return nullptr;
    }
    return &Elems[N];
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    Value *Base = resolveLValue(BS, M->getBase());
    if (!Base || !Base->isStruct())
      return nullptr;
    Value *Field = Base->getFieldMutable(M->getMember());
    if (!Field)
      Diags.error(E->getLoc(), "no field named '" + M->getMember() + "'");
    return Field;
  }
  default:
    return nullptr;
  }
}

void Interpreter::execConnect(BodyState &BS, const ConnectStmt *S) {
  Value FromV = evalExpr(BS, S->getFrom());
  Value ToV = evalExpr(BS, S->getTo());
  if (!FromV.isPort() || !ToV.isPort()) {
    if (!FromV.isUnset() && !ToV.isUnset())
      Diags.error(S->getLoc(), "both sides of '->' must be ports");
    return;
  }
  makeConnection(BS, FromV.getPort(), ToV.getPort(), S->getAnnotation(),
                 S->getLoc());
}

void Interpreter::makeConnection(BodyState &BS, const PortHandle &From,
                                 const PortHandle &To,
                                 const TypeExpr *Annotation, SourceLoc Loc) {
  netlist::Connection *Conn = NL->createConnection(Loc);
  if (Annotation)
    Conn->Annotation = convertType(BS, Annotation);

  auto HandleEndpoint = [&](const PortHandle &H, bool IsFrom) {
    if (H.OnSelf) {
      resolveSelfEndpoint(BS, Conn, IsFrom, H, Loc);
      return;
    }
    netlist::PendingConn PC;
    PC.Conn = Conn;
    PC.IsFrom = IsFrom;
    PC.Port = H.Port;
    PC.ExplicitIndex = H.Index;
    PC.Loc = Loc;
    H.Inst->APendingConns.push_back(std::move(PC));
  };
  HandleEndpoint(From, /*IsFrom=*/true);
  HandleEndpoint(To, /*IsFrom=*/false);
}

void Interpreter::resolveSelfEndpoint(BodyState &BS,
                                      netlist::Connection *Conn, bool IsFrom,
                                      const PortHandle &H, SourceLoc Loc) {
  netlist::Port *P = BS.Node->findPort(H.Port);
  if (!P) {
    Diags.error(Loc, "use of undeclared port '" + H.Port + "'");
    return;
  }
  // Inside a module body, the module's own inport sources data into the
  // interior and its own outport sinks data from the interior.
  if (IsFrom && !P->isInput())
    Diags.error(Loc, "own outport '" + H.Port +
                         "' cannot source an internal connection");
  if (!IsFrom && P->isInput())
    Diags.error(Loc, "own inport '" + H.Port +
                         "' cannot be the target of an internal connection");
  int Index = H.Index;
  if (Index < 0)
    Index = BS.SelfPortAutoIdx[H.Port]++;
  // The port's width counts the enclosing module's connections to it
  // (Section 4.2), so an internal use past it has no port instance to
  // attach to. Unconnected port instances are legal, so this is only a
  // warning; the simulator drops the endpoint.
  if (Index >= P->Width &&
      BS.WarnedBeyondWidth.emplace(H.Port, Loc.Offset).second) {
    const std::string Endpoint =
        BS.Node->Path + "." + H.Port + "[" + std::to_string(Index) + "]";
    Diags.warning(Loc, "connection endpoint '" + Endpoint +
                           "' is beyond the width " +
                           std::to_string(P->Width) + " of port '" + H.Port +
                           "' and is dropped");
    Diags.note(P->Loc, "port '" + H.Port + "' of instance '" +
                           BS.Node->Path +
                           "' is declared here; its width counts the "
                           "connections the enclosing module makes to it");
  }
  netlist::PortRef &Ref = IsFrom ? Conn->From : Conn->To;
  Ref.Inst = BS.Node;
  Ref.Port = H.Port;
  Ref.Index = Index;
}

const Value *Interpreter::evalRef(BodyState &BS, const Expr *E, Value &Tmp) {
  // A computed result goes into Tmp. The argument is built before Tmp is
  // overwritten, so it may still read a base that lives in Tmp.
  auto Result = [&Tmp](Value V) {
    Tmp = std::move(V);
    return &Tmp;
  };
  switch (E->getKind()) {
  case Expr::Kind::Ident: {
    ++Steps;
    const auto *Id = cast<IdentExpr>(E);
    if (Value *V = BS.E.lookup(Id->getName()))
      return V;
    Diags.error(E->getLoc(), "use of undefined name '" + Id->getName() + "'");
    return Result(Value());
  }
  case Expr::Kind::Member: {
    ++Steps;
    const auto *M = cast<MemberExpr>(E);
    const Value *Base = evalRef(BS, M->getBase(), Tmp);
    if (Base->isPort()) {
      const PortHandle &H = Base->getPort();
      if (M->getMember() == "width") {
        if (!H.OnSelf) {
          Diags.error(E->getLoc(), "a port's width is only available inside "
                                   "its own module body");
          return Result(Value());
        }
        const netlist::Port *P = BS.Node->findPort(H.Port);
        assert(P && "self port handle without declared port");
        return Result(Value::makeInt(P->Width));
      }
      Diags.error(E->getLoc(),
                  "unknown port attribute '" + M->getMember() + "'");
      return Result(Value());
    }
    if (Base->isInstanceRef()) {
      // A sub-instance member in expression position denotes one of its
      // ports (whose existence is verified when the child's body runs).
      PortHandle H;
      H.Inst = Base->getInstance();
      H.Port = M->getMember();
      H.OnSelf = false;
      return Result(Value::makePort(std::move(H)));
    }
    if (Base->isStruct()) {
      if (const Value *F = Base->getField(M->getMember()))
        return F;
      Diags.error(E->getLoc(), "no field named '" + M->getMember() + "'");
      return Result(Value());
    }
    if (!Base->isUnset())
      Diags.error(E->getLoc(), "cannot access member '" + M->getMember() +
                                   "' of " + Base->str());
    return Result(Value());
  }
  case Expr::Kind::Index: {
    ++Steps;
    const auto *I = cast<IndexExpr>(E);
    const Value *Base = evalRef(BS, I->getBase(), Tmp);
    Value Idx = evalExpr(BS, I->getIndex());
    if (!Idx.isInt()) {
      if (!Idx.isUnset())
        Diags.error(I->getIndex()->getLoc(), "index must be an int");
      return Result(Value());
    }
    int64_t N = Idx.getInt();
    if (Base->isArray()) {
      const auto &Elems = Base->getElems();
      if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
        Diags.error(E->getLoc(), "array index " + std::to_string(N) +
                                     " out of bounds (size " +
                                     std::to_string(Elems.size()) + ")");
        return Result(Value());
      }
      return &Elems[N];
    }
    if (Base->isPort()) {
      PortHandle H = Base->getPort();
      if (H.hasIndex()) {
        Diags.error(E->getLoc(), "port instance already selected");
        return Result(Value());
      }
      if (N < 0) {
        Diags.error(E->getLoc(), "port instance index must be non-negative");
        return Result(Value());
      }
      H.Index = static_cast<int>(N);
      return Result(Value::makePort(std::move(H)));
    }
    if (!Base->isUnset())
      Diags.error(E->getLoc(), "cannot index " + Base->str());
    return Result(Value());
  }
  default:
    return Result(evalExpr(BS, E));
  }
}

Value Interpreter::evalExpr(BodyState &BS, const Expr *E) {
  if (isa<IdentExpr>(E) || isa<MemberExpr>(E) || isa<IndexExpr>(E)) {
    Value Tmp;
    const Value *V = evalRef(BS, E, Tmp);
    if (V == &Tmp)
      return Tmp;
    return *V;
  }
  ++Steps;
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return Value::makeInt(cast<IntLitExpr>(E)->getValue());
  case Expr::Kind::FloatLit:
    return Value::makeFloat(cast<FloatLitExpr>(E)->getValue());
  case Expr::Kind::StringLit:
    return Value::makeString(cast<StringLitExpr>(E)->getValue());
  case Expr::Kind::BoolLit:
    return Value::makeBool(cast<BoolLitExpr>(E)->getValue());
  case Expr::Kind::Ident:
  case Expr::Kind::Member:
  case Expr::Kind::Index:
    break; // Evaluated by evalRef above.
  case Expr::Kind::Call:
    return evalCall(BS, cast<CallExpr>(E));
  case Expr::Kind::NewInstanceArray: {
    const auto *N = cast<NewInstanceArrayExpr>(E);
    Value SizeV = evalExpr(BS, N->getSizeExpr());
    Value NameV = evalExpr(BS, N->getNameExpr());
    if (!SizeV.isInt() || SizeV.getInt() < 0) {
      Diags.error(E->getLoc(), "instance array size must be a non-negative "
                               "int");
      return Value();
    }
    if (!NameV.isString()) {
      Diags.error(E->getLoc(), "instance array base name must be a string");
      return Value();
    }
    std::vector<Value> Refs;
    int64_t Count = SizeV.getInt();
    Refs.reserve(Count);
    for (int64_t I = 0; I != Count; ++I) {
      std::string Name =
          NameV.getString() + "[" + std::to_string(I) + "]";
      netlist::InstanceNode *Child =
          makeInstance(BS, Name, N->getModuleName(), E->getLoc());
      if (!Child)
        return Value();
      Refs.push_back(Value::makeInstanceRef(Child));
    }
    return Value::makeArray(std::move(Refs));
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value A = evalExpr(BS, U->getOperand());
    if (A.isUnset())
      return Value();
    return applyUnary(U->getOp(), A, E->getLoc(), Diags);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Value L = evalExpr(BS, B->getLHS());
    if (L.isUnset())
      return Value();
    // Short-circuit evaluation for the logical operators.
    if (B->getOp() == BinaryOp::And && L.isBool() && !L.getBool())
      return Value::makeBool(false);
    if (B->getOp() == BinaryOp::Or && L.isBool() && L.getBool())
      return Value::makeBool(true);
    Value R = evalExpr(BS, B->getRHS());
    if (R.isUnset())
      return Value();
    return applyBinary(B->getOp(), L, R, E->getLoc(), Diags);
  }
  }
  return Value();
}

Value Interpreter::evalCall(BodyState &BS, const CallExpr *E) {
  std::vector<Value> Args;
  Args.reserve(E->getArgs().size());
  for (const Expr *Arg : E->getArgs())
    Args.push_back(evalExpr(BS, Arg));

  const std::string &Name = E->getCallee();

  if (Name == "LSS_connect_bus") {
    // LSS_connect_bus(x, y, z): for (i = 0; i < z; i++) x[i] -> y[i];
    // (Figure 10.)
    if (Args.size() != 3 || !Args[0].isPort() || !Args[1].isPort() ||
        !Args[2].isInt()) {
      Diags.error(E->getLoc(),
                  "LSS_connect_bus(from, to, width) expects two ports and "
                  "an int");
      return Value();
    }
    if (Args[0].getPort().hasIndex() || Args[1].getPort().hasIndex()) {
      Diags.error(E->getLoc(),
                  "LSS_connect_bus endpoints must be whole ports");
      return Value();
    }
    int64_t W = Args[2].getInt();
    for (int64_t I = 0; I != W; ++I) {
      PortHandle From = Args[0].getPort();
      PortHandle To = Args[1].getPort();
      From.Index = static_cast<int>(I);
      To.Index = static_cast<int>(I);
      makeConnection(BS, From, To, /*Annotation=*/nullptr, E->getLoc());
    }
    return Value();
  }
  if (Name == "LSS_assert") {
    if (Args.size() < 1 || Args.size() > 2 || !Args[0].isBool()) {
      Diags.error(E->getLoc(), "LSS_assert(cond [, message]) expects a bool");
      return Value();
    }
    if (!Args[0].getBool()) {
      std::string Msg = Args.size() == 2 && Args[1].isString()
                            ? Args[1].getString()
                            : "LSS_assert failed";
      Diags.error(E->getLoc(), "assertion failed on instance '" +
                                   BS.Node->Path + "': " + Msg);
    }
    return Value();
  }
  if (Name == "LSS_error") {
    std::string Msg = !Args.empty() && Args[0].isString()
                          ? Args[0].getString()
                          : "explicit error";
    Diags.error(E->getLoc(), Msg);
    return Value();
  }
  if (Name == "print") {
    std::string Line;
    for (const Value &V : Args)
      Line += V.isString() ? V.getString() : V.str();
    PrintLog.push_back(std::move(Line));
    return Value();
  }

  if (std::optional<Value> R =
          applyCommonBuiltin(Name, Args, E->getLoc(), Diags))
    return *R;

  Diags.error(E->getLoc(), "unknown function '" + Name + "'");
  return Value();
}
