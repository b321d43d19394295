//===- Compiler.cpp - End-to-end LSS compilation driver ----------------------===//

#include "driver/Compiler.h"

#include "corelib/CoreLib.h"
#include "lss/Parser.h"
#include "support/Casting.h"

#include <fstream>
#include <sstream>

using namespace liberty;
using namespace liberty::driver;

Compiler::Compiler() : Diags(SM) {}

Compiler::~Compiler() = default;

/// Counts explicit type annotations in a statement tree (connection
/// annotations and constrain statements — the manual type instantiations
/// Table 2's "w/ inference" column counts).
static unsigned countAnnotations(const std::vector<lss::Stmt *> &Body) {
  unsigned N = 0;
  for (const lss::Stmt *S : Body) {
    switch (S->getKind()) {
    case lss::Stmt::Kind::Connect:
      if (cast<lss::ConnectStmt>(S)->getAnnotation())
        ++N;
      break;
    case lss::Stmt::Kind::Constrain:
      ++N;
      break;
    case lss::Stmt::Kind::If: {
      const auto *I = cast<lss::IfStmt>(S);
      N += countAnnotations({I->getThen()});
      if (I->getElse())
        N += countAnnotations({I->getElse()});
      break;
    }
    case lss::Stmt::Kind::For:
      N += countAnnotations({cast<lss::ForStmt>(S)->getBody()});
      break;
    case lss::Stmt::Kind::While:
      N += countAnnotations({cast<lss::WhileStmt>(S)->getBody()});
      break;
    case lss::Stmt::Kind::Block:
      N += countAnnotations(cast<lss::BlockStmt>(S)->getBody());
      break;
    default:
      break;
    }
  }
  return N;
}

bool Compiler::parseInto(uint32_t BufferId, bool IsLibrary) {
  PhaseTimer::Scope Phase(&Timer, "parse");
  unsigned ErrorsBefore = Diags.getNumErrors();
  lss::Parser P(BufferId, Ctx, Diags);
  lss::SpecFile File = P.parseFile();
  for (lss::ModuleDecl *M : File.Modules)
    AllModules.push_back(M);
  for (lss::Stmt *S : File.TopLevel)
    TopLevel.push_back(S);
  if (IsLibrary) {
    for (const lss::ModuleDecl *M : File.Modules)
      LibraryModules.insert(M->getName());
  } else {
    for (const lss::ModuleDecl *M : File.Modules)
      NumUserAnnotations += countAnnotations(M->getBody());
    NumUserAnnotations += countAnnotations(File.TopLevel);
  }
  return Diags.getNumErrors() == ErrorsBefore;
}

namespace {

/// The component library parsed once per process. The AST (and the
/// ASTContext/SourceMgr backing it) is immutable after construction, so
/// every compile — including the concurrent compiles of a batch — can
/// register the same ModuleDecl pointers instead of reparsing ~the same
/// buffer every time. This is the "parsed core-library AST" artifact of
/// the compile cache; it needs no keying because the library text is a
/// build-time constant.
struct SharedCoreLib {
  std::string Text;
  SourceMgr SM;
  DiagnosticEngine Diags{SM};
  lss::ASTContext Ctx;
  lss::SpecFile File;
  uint32_t BufferId = 0;
  bool Valid = false;

  SharedCoreLib() {
    Text = corelib::getCoreLibraryLss();
    BufferId = SM.addBuffer("<corelib>", Text);
    lss::Parser P(BufferId, Ctx, Diags);
    File = P.parseFile();
    Valid = !Diags.hasErrors();
  }

  static const SharedCoreLib &get() {
    static SharedCoreLib S; // Magic static: thread-safe one-time parse.
    return S;
  }
};

} // namespace

bool Compiler::addCoreLibrary() {
  if (LibraryAdded)
    return true;
  LibraryAdded = true;
  corelib::registerCoreBehaviors();
  const SharedCoreLib &Shared = SharedCoreLib::get();
  // The compile's own SourceMgr still gets the library buffer, so buffer
  // ids and diagnostic locations line up exactly with a cold parse.
  uint32_t BufferId = SM.addBuffer("<corelib>", Shared.Text);
  if (Shared.Valid && BufferId == Shared.BufferId) {
    for (lss::ModuleDecl *M : Shared.File.Modules) {
      AllModules.push_back(M);
      LibraryModules.insert(M->getName());
    }
    return true;
  }
  // The library buffer landed at an unexpected id (sources were added
  // first) — locations in the shared AST would be wrong, so parse afresh.
  return parseInto(BufferId, /*IsLibrary=*/true);
}

bool Compiler::addSource(const std::string &Name, const std::string &Text) {
  uint32_t BufferId = SM.addBuffer(Name, Text);
  return parseInto(BufferId, /*IsLibrary=*/false);
}

bool Compiler::addFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    Diags.error(SourceLoc(), "cannot open file '" + Path + "'");
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return addSource(Path, SS.str());
}

bool Compiler::addSources(const CompilerInvocation &Inv) {
  Diags.setMaxErrors(Inv.MaxErrors);
  if (Inv.UseCoreLibrary && !addCoreLibrary())
    return false;
  bool Ok = true;
  for (const CompilerInvocation::Source &S : Inv.Sources)
    Ok = addSource(S.Name, S.Text) && Ok;
  return Ok;
}

void Compiler::registerSourcesWithoutParsing(const CompilerInvocation &Inv) {
  Diags.setMaxErrors(Inv.MaxErrors);
  if (Inv.UseCoreLibrary) {
    LibraryAdded = true;
    corelib::registerCoreBehaviors();
    SM.addBuffer("<corelib>", SharedCoreLib::get().Text);
  }
  for (const CompilerInvocation::Source &S : Inv.Sources)
    SM.addBuffer(S.Name, S.Text);
}

bool Compiler::elaborate(const CompilerInvocation &Inv) {
  PhaseTimer::Scope Phase(&Timer, "elaborate");
  Interp = std::make_unique<interp::Interpreter>(TC, Diags, Inv.Elab);
  if (PendingReplayHook)
    Interp->setReplayHook(std::move(PendingReplayHook));
  lss::SpecFile All;
  All.Modules = AllModules;
  Interp->addModules(All); // Duplicate module names are diagnosed here.
  NL = Interp->run(TopLevel);
  return !Diags.hasErrors();
}

bool Compiler::inferTypes(const CompilerInvocation &Inv,
                          const infer::NetlistSpliceHooks *SpliceHooks) {
  if (!NL) {
    Diags.error(SourceLoc(), "inferTypes called before elaborate");
    return false;
  }
  InferStats =
      infer::inferNetlistTypes(*NL, TC, Diags, Inv.Solve, &Timer, SpliceHooks);
  return !Diags.hasErrors();
}

sim::Simulator *Compiler::buildSimulator(const CompilerInvocation &Inv) {
  if (!NL) {
    Diags.error(SourceLoc(), "buildSimulator called before elaborate");
    return nullptr;
  }
  PhaseTimer::Scope Phase(&Timer, "sim-build");
  Sim = sim::Simulator::build(*NL, SM, Diags, Inv.Sim);
  return Sim.get();
}

bool Compiler::adoptNetlist(netlist::SerializedCompile SC) {
  if (!SC.NL)
    return false;
  NL = std::move(SC.NL);
  LibraryModules = std::move(SC.LibraryModules);
  NumUserAnnotations = SC.NumUserAnnotations;
  replayDiagnostics(SC.Diags);
  return true;
}

void Compiler::replayDiagnostics(const std::vector<Diagnostic> &Ds) {
  for (const Diagnostic &D : Ds) {
    if (D.Level == DiagLevel::Warning)
      Diags.warning(D.Loc, D.Message);
    else if (D.Level == DiagLevel::Note)
      Diags.note(D.Loc, D.Message);
    // Errors are never recorded in cache artifacts; drop defensively.
  }
}

std::unique_ptr<Compiler>
Compiler::compileForSim(const CompilerInvocation &Inv) {
  auto C = std::make_unique<Compiler>();
  if (!C->addSources(Inv))
    return nullptr;
  if (!C->elaborate(Inv))
    return nullptr;
  if (!C->inferTypes(Inv))
    return nullptr;
  if (!C->buildSimulator(Inv))
    return nullptr;
  return C;
}

std::unique_ptr<Compiler> Compiler::compileForSim(const std::string &Name,
                                                  const std::string &Text) {
  CompilerInvocation Inv;
  Inv.addSource(Name, Text);
  return compileForSim(Inv);
}

std::string Compiler::diagnosticsText() const {
  std::ostringstream OS;
  Diags.printAll(OS);
  return OS.str();
}
