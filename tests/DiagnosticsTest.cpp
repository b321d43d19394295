//===- DiagnosticsTest.cpp - Negative-input golden diagnostics -----------------===//
///
/// \file
/// The robustness suite: malformed inputs for every pipeline phase, each
/// required to (a) fail without crashing, (b) produce at least two
/// diagnostics — proving panic-mode recovery kept going past the first
/// error — and (c) match a golden fixture under tests/golden/diagnostics/,
/// so the exact user-facing text is pinned. Sync-point coverage: `;`
/// recovery, `}` recovery, decl-keyword recovery, the ensureProgress
/// guard, the nesting-depth cap, the shared --max-errors limit, inference
/// budget exhaustion, and the simulator's fixpoint watchdog. One case pins
/// a warning on otherwise valid input instead: an internal connection
/// past its port's counted width.
///
/// Run the binary with --regen-golden to rewrite the fixtures after an
/// intentional diagnostic change.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace liberty;

namespace {

bool GRegenGolden = false;

#ifndef LIBERTY_GOLDEN_DIR
#define LIBERTY_GOLDEN_DIR "tests/golden"
#endif

/// Renders diagnostics one per line ("file:line:col: level: message"),
/// without the caret/source context printAll adds — a stable format for
/// fixtures.
std::string renderDiags(driver::Compiler &C) {
  std::ostringstream OS;
  const DiagnosticEngine &D = C.getDiags();
  for (const Diagnostic &Dg : D.getDiagnostics()) {
    const char *Level = Dg.Level == DiagLevel::Error     ? "error"
                        : Dg.Level == DiagLevel::Warning ? "warning"
                                                         : "note";
    OS << D.getSourceMgr().getLocString(Dg.Loc) << ": " << Level << ": "
       << Dg.Message << "\n";
  }
  return OS.str();
}

/// Compares \p Rendered against the fixture for \p Name (or rewrites it
/// with --regen-golden).
void checkGolden(const std::string &Name, const std::string &Rendered) {
  std::string Path =
      std::string(LIBERTY_GOLDEN_DIR) + "/diagnostics/" + Name + ".diag";
  if (GRegenGolden) {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Rendered;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden fixture " << Path
                         << " (run with --regen-golden to create it)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Rendered)
      << "diagnostics for '" << Name << "' diverge from " << Path
      << "; if the change is intentional, regenerate with --regen-golden";
}

/// Every malformed case must prove recovery: at least two diagnostics, at
/// least one of them an error.
void expectRecovered(driver::Compiler &C, const std::string &Name) {
  EXPECT_TRUE(C.getDiags().hasErrors()) << Name;
  EXPECT_GE(C.getDiags().getDiagnostics().size(), 2u)
      << Name << ": one diagnostic means recovery stopped at the first error";
  checkGolden(Name, renderDiags(C));
}

/// Parse-phase case: source only, no library needed.
void runParseCase(const std::string &Name, const std::string &Source,
                  unsigned MaxErrors = 0) {
  SCOPED_TRACE(Name);
  driver::Compiler C;
  if (MaxErrors)
    C.getDiags().setMaxErrors(MaxErrors);
  EXPECT_FALSE(C.addSource(Name + ".lss", Source));
  expectRecovered(C, Name);
}

//===--------------------------------------------------------------------===//
// Parser sync points
//===--------------------------------------------------------------------===//

TEST(Diagnostics, MissingSemicolons) {
  // `;` sync: every statement with a dropped semicolon is reported, and
  // parsing resumes at the next declaration keyword.
  runParseCase("missing_semicolons", R"(module m {
  inport a: int
  outport b: int
  parameter w = 2:int
};
instance x:m
instance y:m
)");
}

TEST(Diagnostics, StrayTopLevelBraces) {
  // ensureProgress guard: a stray '}' no recovery point will eat is
  // diagnosed and consumed instead of stalling parseFile (this input hung
  // the parser before the guard existed — fuzz/regressions/stray-brace.lss).
  runParseCase("stray_braces", R"(}
module m { inport x: int; };
}}
instance q:m;
)");
}

TEST(Diagnostics, TruncatedModuleAtEof) {
  // EOF sync: recovery loops must terminate at end of input, not wait for
  // the '}' that never comes.
  runParseCase("truncated_module", R"(module m {
  parameter n = 1:int;
  inport x)");
}

TEST(Diagnostics, BadPortAndParamDecls) {
  // Decl-keyword sync: each malformed declaration costs at most the tokens
  // to the next `inport`/`parameter`/..., so all four are diagnosed.
  runParseCase("bad_decls", R"(module m {
  inport 5;
  outport ;
  parameter = 3;
  inport ok: int;
};
)");
}

TEST(Diagnostics, BadTokens) {
  // Lexer errors: junk characters and an unterminated string must be
  // diagnosed (and the parser keeps going on the token stream around them).
  runParseCase("bad_tokens", R"(module m { inport x: int; };
@ $ `
instance q:m;
"never closed
)");
}

TEST(Diagnostics, NestingDepthCapped) {
  // The recursion-depth cap: pathologically nested expressions are
  // rejected with a diagnostic instead of overflowing the parser's stack.
  std::string Deep = "module m {\n  var x:int;\n  x = ";
  for (int I = 0; I != 600; ++I)
    Deep += '(';
  Deep += '1';
  for (int I = 0; I != 600; ++I)
    Deep += ')';
  Deep += ";\n};\n";
  runParseCase("deep_nesting", Deep);
}

TEST(Diagnostics, ErrorFloodCapped) {
  // The shared --max-errors cap: after three stored errors the flood is
  // cut with the "too many errors" note and suppressed-count bookkeeping.
  std::string Flood;
  for (int I = 0; I != 8; ++I)
    Flood += "module m" + std::to_string(I) + " { inport 5; };\n";
  SCOPED_TRACE("error_flood");
  driver::Compiler C;
  C.getDiags().setMaxErrors(3);
  EXPECT_FALSE(C.addSource("error_flood.lss", Flood));
  // The parser polls errorLimitReached() and winds down at the cap, so
  // exactly MaxErrors errors are stored and nothing more is even emitted.
  EXPECT_EQ(C.getDiags().getNumErrors(), 3u);
  EXPECT_TRUE(C.getDiags().errorLimitReached());
  expectRecovered(C, "error_flood");
}

//===--------------------------------------------------------------------===//
// Elaboration
//===--------------------------------------------------------------------===//

TEST(Diagnostics, UnknownModulesAndParameters) {
  SCOPED_TRACE("unknown_refs");
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("unknown_refs.lss", R"(instance a:no_such_module;
instance d:delay;
d.bogus_param = 3;
instance b:also_missing;
)"));
  EXPECT_FALSE(C.elaborate());
  expectRecovered(C, "unknown_refs");
}

TEST(Diagnostics, ElaborationRunawayLoopBudget) {
  // Interpreter step budget: a non-terminating compile-time loop becomes a
  // diagnostic, and elaboration still reports the unknown module after it.
  SCOPED_TRACE("elab_runaway");
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("elab_runaway.lss", R"(module spin {
  var i:int;
  i = 0;
  while (i >= 0) { i = i + 1; }
};
instance s:spin;
instance q:no_such_module;
)"));
  driver::CompilerInvocation Inv;
  Inv.Elab.MaxSteps = 10000;
  EXPECT_FALSE(C.elaborate(Inv));
  expectRecovered(C, "elab_runaway");
}

TEST(Diagnostics, EndpointBeyondPortWidthWarns) {
  // `pair` uses its own inport twice, but the top level connects it once,
  // so in has width 1 and the second use (in[1]) has no port instance.
  // Unconnected port instances are legal (Section 4.2): the compile and
  // the simulator build succeed, with one warning naming the endpoint at
  // the connection and a note at the port declaration. The loop repeats
  // one statement past the width and warns once for it.
  SCOPED_TRACE("beyond_width");
  auto C = driver::Compiler::compileForSim("beyond_width.lss",
                                           R"(module pair {
  inport in: int;
  outport out: int;
  instance a:adder;
  in -> a.in1;
  in -> a.in2;
  var ks:instance ref[];
  ks = new instance[3](sink, "k");
  var i:int;
  for (i = 0; i < 3; i = i + 1) {
    in -> ks[i].in;
  }
  a.out -> out;
};
instance k:const_source;
instance p:pair;
instance s:sink;
k.out -> p.in;
p.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  EXPECT_FALSE(C->getDiags().hasErrors());
  C->getSimulator()->step(2);
  EXPECT_EQ(C->getSimulator()->peekPort("p.a", "out", 0), nullptr)
      << "the adder's in2 endpoint was dropped, so it never fires";
  checkGolden("beyond_width", renderDiags(*C));
}

//===--------------------------------------------------------------------===//
// Inference budget degradation
//===--------------------------------------------------------------------===//

TEST(Diagnostics, InferenceBudgetExhausted) {
  // A worst-case module whose constrain statements form one H3 group with
  // an exponential disjunct search (per-variable overloads chained by
  // struct-valued link variables — the netlist twin of the synthetic
  // makeDisjointHardGroups family). With forced-disjunct elimination off
  // and a tiny step budget, that group exhausts its budget; the diagnostic
  // names the group, its constraint and disjunct counts, and the instance
  // involved — and the independent easy cluster must still solve
  // (groups_unsolved == 1, not a total failure).
  const int K = 10;
  std::string Src = "module hard {\n";
  for (int I = 0; I != K; ++I)
    Src += "  outport p" + std::to_string(I) + ": 'v" + std::to_string(I) +
           ";\n";
  for (int I = 0; I != K; ++I)
    Src += "  constrain 'v" + std::to_string(I) + " : (int | float);\n";
  for (int I = 0; I + 1 != K; ++I) {
    std::string L = "'l" + std::to_string(I);
    Src += "  constrain " + L + " : struct{a:'v" + std::to_string(I) +
           "; b:'v" + std::to_string(I + 1) + ";};\n";
    Src += "  constrain " + L +
           " : (struct{a:int;b:int;} | struct{a:float;b:float;});\n";
  }
  Src += "  constrain 'v" + std::to_string(K - 1) + " : (float | string);\n";
  Src += R"(};
module gen { outport out: 'a; constrain 'a : (int | float); };
module need_i { inport in: int; };
instance h:hard;
instance g2:gen;
instance ei:need_i;
g2.out -> ei.in;
)";
  SCOPED_TRACE("infer_budget");
  driver::Compiler C;
  ASSERT_TRUE(C.addSource("infer_budget.lss", Src));
  ASSERT_TRUE(C.elaborate()) << C.diagnosticsText();
  driver::CompilerInvocation Inv;
  Inv.Solve.ForcedDisjunctElimination = false;
  Inv.Solve.MaxSteps = 2000;
  EXPECT_FALSE(C.inferTypes(Inv));
  const infer::NetlistInferenceStats &S = C.getInferenceStats();
  EXPECT_EQ(S.Solve.NumUnsolved, 1u) << "easy group must still be solved";
  EXPECT_TRUE(S.Solve.HitLimit);
  expectRecovered(C, "infer_budget");
}

//===--------------------------------------------------------------------===//
// Simulator fixpoint watchdog
//===--------------------------------------------------------------------===//

TEST(Diagnostics, FixpointWatchdogNamesNets) {
  // The divergent arbiter/adder loop: the watchdog diagnostic names the
  // cyclic group's instances and the oscillating nets with last values.
  SCOPED_TRACE("fixpoint_watchdog");
  auto C = driver::Compiler::compileForSim("fixpoint_watchdog.lss",
                                           R"(instance seed:const_source;
seed.value = 1;
instance one:const_source;
one.value = 1;
instance arb:arbiter;
instance a:adder;
instance s:sink;
a.out -> arb.in[0];
seed.out -> arb.in[1];
arb.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)");
  ASSERT_NE(C, nullptr);
  C->getSimulator()->step(1);
  EXPECT_TRUE(C->getSimulator()->hadRuntimeErrors());
  expectRecovered(*C, "fixpoint_watchdog");
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--regen-golden") {
      GRegenGolden = true;
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
      --I;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
