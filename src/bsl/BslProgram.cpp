//===- BslProgram.cpp - Userpoint BSL programs -------------------------------===//

#include "bsl/BslProgram.h"

#include "interp/ExprEvaluator.h"
#include "lss/Parser.h"
#include "support/Casting.h"

#include <cassert>

using namespace liberty;
using namespace liberty::bsl;
using namespace liberty::lss;
using interp::Value;

std::unique_ptr<BslProgram> BslProgram::compile(const std::string &Code,
                                                const std::string &BufferName,
                                                SourceMgr &SM,
                                                DiagnosticEngine &Diags) {
  unsigned ErrorsBefore = Diags.getNumErrors();
  uint32_t BufferId = SM.addBuffer(BufferName, Code);
  std::unique_ptr<BslProgram> P(new BslProgram());
  Parser Parse(BufferId, P->Ctx, Diags);
  P->Body = Parse.parseBslBody();
  if (Diags.getNumErrors() != ErrorsBefore)
    return nullptr;
  return P;
}

namespace {

enum class Flow { Normal, Break, Continue, Returned };

/// One BSL execution: local scopes layered over the BslEnv.
class BslExec {
public:
  BslExec(BslEnv &Env, DiagnosticEngine &Diags) : Env(Env), Diags(Diags) {
    Scopes.emplace_back();
  }

  Value execBody(const std::vector<Stmt *> &Body) {
    for (const Stmt *S : Body) {
      Flow F = exec(S);
      if (Steps > MaxSteps) {
        Diags.error(S->getLoc(), "userpoint exceeded its step budget");
        break;
      }
      if (F == Flow::Returned)
        break;
    }
    return ReturnValue;
  }

private:
  Flow exec(const Stmt *S);
  Value eval(const Expr *E);
  /// Evaluates an Ident/Index/Member chain by reference into the locals,
  /// arguments, runtime variables or parameters (any other expression
  /// into \p Tmp), counting steps exactly as eval() does. Sound because
  /// evaluating an expression never mutates that environment.
  const Value *evalRef(const Expr *E, Value &Tmp);
  Value *lookup(const std::string &Name);
  Value *resolveLValue(const Expr *E);

  BslEnv &Env;
  DiagnosticEngine &Diags;
  std::vector<std::map<std::string, Value>> Scopes;
  Value ReturnValue;
  uint64_t Steps = 0;
  static constexpr uint64_t MaxSteps = 10000000;
};

} // namespace

Value *BslExec::lookup(const std::string &Name) {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return &Found->second;
  }
  auto ArgIt = Env.Args.find(Name);
  if (ArgIt != Env.Args.end())
    return &ArgIt->second;
  if (Env.RuntimeVars)
    if (Value *RV = Env.RuntimeVars->lookup(Name))
      return RV;
  if (Env.Params) {
    auto PIt = Env.Params->find(Name);
    if (PIt != Env.Params->end())
      return const_cast<Value *>(&PIt->second);
  }
  return nullptr;
}

Value *BslExec::resolveLValue(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::Ident:
    return lookup(cast<IdentExpr>(E)->getName());
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value *Base = resolveLValue(I->getBase());
    if (!Base || !Base->isArray())
      return nullptr;
    Value Idx = eval(I->getIndex());
    if (!Idx.isInt())
      return nullptr;
    auto &Elems = Base->getElemsMutable();
    int64_t N = Idx.getInt();
    if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
      Diags.error(E->getLoc(), "array index out of bounds in userpoint");
      return nullptr;
    }
    return &Elems[N];
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    Value *Base = resolveLValue(M->getBase());
    if (!Base || !Base->isStruct())
      return nullptr;
    return Base->getFieldMutable(M->getMember());
  }
  default:
    return nullptr;
  }
}

Flow BslExec::exec(const Stmt *S) {
  ++Steps;
  if (Steps > MaxSteps)
    return Flow::Returned;
  switch (S->getKind()) {
  case Stmt::Kind::VarDecl: {
    const auto *V = cast<VarDeclStmt>(S);
    Value Init = V->getInit() ? eval(V->getInit()) : Value::makeInt(0);
    Scopes.back()[V->getName()] = std::move(Init);
    return Flow::Normal;
  }
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    Value RHS = eval(A->getRHS());
    if (const auto *Id = dyn_cast<IdentExpr>(A->getLHS())) {
      if (Value *Slot = lookup(Id->getName())) {
        *Slot = std::move(RHS);
        return Flow::Normal;
      }
      Scopes.back()[Id->getName()] = std::move(RHS);
      return Flow::Normal;
    }
    if (Value *Slot = resolveLValue(A->getLHS())) {
      *Slot = std::move(RHS);
      return Flow::Normal;
    }
    Diags.error(S->getLoc(), "invalid assignment target in userpoint");
    return Flow::Normal;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Value CondV = eval(I->getCond());
    std::optional<bool> Cond =
        interp::asCondition(CondV, I->getCond()->getLoc(), Diags);
    if (!Cond)
      return Flow::Normal;
    if (*Cond)
      return exec(I->getThen());
    if (I->getElse())
      return exec(I->getElse());
    return Flow::Normal;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    Scopes.emplace_back();
    if (F->getInit())
      exec(F->getInit());
    Flow Result = Flow::Normal;
    while (Steps <= MaxSteps) {
      ++Steps;
      if (F->getCond()) {
        Value CondV = eval(F->getCond());
        std::optional<bool> Cond =
            interp::asCondition(CondV, F->getCond()->getLoc(), Diags);
        if (!Cond || !*Cond)
          break;
      }
      Flow BodyFlow = exec(F->getBody());
      if (BodyFlow == Flow::Returned) {
        Result = Flow::Returned;
        break;
      }
      if (BodyFlow == Flow::Break)
        break;
      if (F->getStep())
        exec(F->getStep());
    }
    Scopes.pop_back();
    return Result;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (Steps <= MaxSteps) {
      ++Steps;
      Value CondV = eval(W->getCond());
      std::optional<bool> Cond =
          interp::asCondition(CondV, W->getCond()->getLoc(), Diags);
      if (!Cond || !*Cond)
        break;
      Flow BodyFlow = exec(W->getBody());
      if (BodyFlow == Flow::Returned)
        return Flow::Returned;
      if (BodyFlow == Flow::Break)
        break;
    }
    return Flow::Normal;
  }
  case Stmt::Kind::Block: {
    Scopes.emplace_back();
    Flow Result = Flow::Normal;
    for (const Stmt *Sub : cast<BlockStmt>(S)->getBody()) {
      Result = exec(Sub);
      if (Result != Flow::Normal)
        break;
    }
    Scopes.pop_back();
    return Result;
  }
  case Stmt::Kind::ExprStmt:
    eval(cast<ExprStmt>(S)->getExpr());
    return Flow::Normal;
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    ReturnValue = R->getValue() ? eval(R->getValue()) : Value();
    return Flow::Returned;
  }
  case Stmt::Kind::Break:
    return Flow::Break;
  case Stmt::Kind::Continue:
    return Flow::Continue;
  default:
    Diags.error(S->getLoc(),
                "statement not permitted in BSL userpoint code");
    return Flow::Normal;
  }
}

const Value *BslExec::evalRef(const Expr *E, Value &Tmp) {
  // As in the elaboration interpreter: a computed result goes into Tmp,
  // after its argument has read any base that lives there.
  auto Result = [&Tmp](Value V) {
    Tmp = std::move(V);
    return &Tmp;
  };
  switch (E->getKind()) {
  case Expr::Kind::Ident: {
    ++Steps;
    if (Value *V = lookup(cast<IdentExpr>(E)->getName()))
      return V;
    Diags.error(E->getLoc(), "use of undefined name '" +
                                 cast<IdentExpr>(E)->getName() +
                                 "' in userpoint");
    return Result(Value());
  }
  case Expr::Kind::Member: {
    ++Steps;
    const auto *M = cast<MemberExpr>(E);
    const Value *Base = evalRef(M->getBase(), Tmp);
    if (Base->isStruct()) {
      if (const Value *F = Base->getField(M->getMember()))
        return F;
      Diags.error(E->getLoc(), "no field named '" + M->getMember() + "'");
      return Result(Value());
    }
    if (!Base->isUnset())
      Diags.error(E->getLoc(), "cannot access member of " + Base->str());
    return Result(Value());
  }
  case Expr::Kind::Index: {
    ++Steps;
    const auto *I = cast<IndexExpr>(E);
    const Value *Base = evalRef(I->getBase(), Tmp);
    Value Idx = eval(I->getIndex());
    if (!Base->isArray() || !Idx.isInt()) {
      if (!Base->isUnset() && !Idx.isUnset())
        Diags.error(E->getLoc(), "invalid indexing in userpoint");
      return Result(Value());
    }
    const auto &Elems = Base->getElems();
    int64_t N = Idx.getInt();
    if (N < 0 || N >= static_cast<int64_t>(Elems.size())) {
      Diags.error(E->getLoc(), "array index out of bounds in userpoint");
      return Result(Value());
    }
    return &Elems[N];
  }
  default:
    return Result(eval(E));
  }
}

Value BslExec::eval(const Expr *E) {
  if (isa<IdentExpr>(E) || isa<MemberExpr>(E) || isa<IndexExpr>(E)) {
    Value Tmp;
    const Value *V = evalRef(E, Tmp);
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
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::vector<Value> Args;
    Args.reserve(C->getArgs().size());
    for (const Expr *Arg : C->getArgs())
      Args.push_back(eval(Arg));
    if (std::optional<Value> R =
            interp::applyCommonBuiltin(C->getCallee(), Args, E->getLoc(),
                                       Diags))
      return *R;
    Diags.error(E->getLoc(),
                "unknown function '" + C->getCallee() + "' in userpoint");
    return Value();
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Value A = eval(U->getOperand());
    if (A.isUnset())
      return Value();
    return interp::applyUnary(U->getOp(), A, E->getLoc(), Diags);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Value L = eval(B->getLHS());
    if (L.isUnset())
      return Value();
    if (B->getOp() == BinaryOp::And && L.isBool() && !L.getBool())
      return Value::makeBool(false);
    if (B->getOp() == BinaryOp::Or && L.isBool() && L.getBool())
      return Value::makeBool(true);
    Value R = eval(B->getRHS());
    if (R.isUnset())
      return Value();
    return interp::applyBinary(B->getOp(), L, R, E->getLoc(), Diags);
  }
  default:
    Diags.error(E->getLoc(), "expression not permitted in BSL userpoint");
    return Value();
  }
}

Value BslProgram::run(BslEnv &Env, DiagnosticEngine &Diags) const {
  BslExec Exec(Env, Diags);
  return Exec.execBody(Body);
}
