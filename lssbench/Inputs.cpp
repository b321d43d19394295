//===- Inputs.cpp - Seeded .lss inputs of the benchmark workloads ---------===//

#include "Inputs.h"
#include "Bench.h"

#include <fstream>
#include <sstream>

using liberty::driver::CompilerInvocation;

namespace lssbench {

CompilerInvocation SimInput::invocation() const {
  CompilerInvocation Inv;
  Inv.Sources = Sources;
  return Inv;
}

size_t SimInput::sourceBytes() const {
  size_t N = 0;
  for (const auto &S : Sources)
    N += S.Text.size();
  return N;
}

static bool slurp(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<SimInput> paperModels(const std::string &RepoRoot) {
  std::string Uarch;
  if (!slurp(RepoRoot + "/models/uarch.lss", Uarch))
    return {};
  std::vector<SimInput> Out;
  for (const char *Id : {"A", "B", "C", "D", "E", "F"}) {
    std::string Lower(1, char(Id[0] - 'A' + 'a'));
    SimInput In;
    In.Name = Id;
    In.Cycles = PaperCycles;
    std::string Text;
    if (!slurp(RepoRoot + "/models/" + Lower + ".lss", Text))
      return {};
    In.Sources = {{"uarch.lss", Uarch}, {Lower + ".lss", std::move(Text)}};
    Out.push_back(std::move(In));
  }
  return Out;
}

std::string delaynSpec(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    delays[i-1].out -> delays[i].in;
  }
  delays[n-1].out -> out;
};
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
)";
}

std::vector<SimInput> delaynInputs(uint64_t Seed) {
  // The seed moves the cycle count within a narrow band: the sink value
  // the oracle checks changes with it, the simulated work barely does.
  uint64_t Cycles = 200 + Rng(Seed ^ 0xde1a7).below(16);
  std::vector<SimInput> Out;
  for (int N : DelaynSizes) {
    SimInput In;
    In.Name = std::string("n") += std::to_string(N);
    In.Cycles = Cycles;
    In.Sources = {{"delayn.lss", delaynSpec(N)}};
    Out.push_back(std::move(In));
  }
  return Out;
}

unsigned quietVariantForSeed(uint64_t Seed) {
  return unsigned(Rng(Seed ^ 0x9e1e7).below(QuietVariants));
}

SimInput quietFarm(unsigned Variant) {
  Rng R(0xfa53 + Variant);
  std::ostringstream OS;
  // Corelib components drive out[0] only, so the chain's input reaches
  // every adder through a fanout.
  OS << R"(
module addchain {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  instance f:fanout;
  in -> f.in;
  var as:instance ref[];
  as = new instance[n](adder, "a");
  f.out -> as[0].in1;
  f.out -> as[0].in2;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    as[i-1].out -> as[i].in1;
    f.out -> as[i].in2;
  }
  as[n-1].out -> out;
};
)";
  for (unsigned C = 0; C != QuietChains; ++C) {
    std::string Q = std::string("q") += std::to_string(C);
    OS << "instance " << Q << "src:const_source;\n"
       << Q << "src.value = " << 1 + R.below(1000) << ";\n"
       << "instance " << Q << ":addchain;\n"
       << Q << ".n = " << QuietChainLength << ";\n"
       << "instance sink_" << Q << ":sink;\n"
       << Q << "src.out -> " << Q << ".in;\n"
       << Q << ".out -> sink_" << Q << ".in;\n";
  }
  OS << "instance asrc:counter_source;\n"
        "instance achain:addchain;\n"
        "achain.n = 4;\n"
        "instance sink_active:sink;\n"
        "asrc.out -> achain.in;\n"
        "achain.out -> sink_active.in;\n";
  SimInput In;
  In.Name = std::string("farm") += std::to_string(Variant);
  In.Cycles = QuietCycles;
  In.Sources = {{"farm.lss", OS.str()}};
  return In;
}

/// One lane module: a chain of adders into a sink, plus Depth free
/// (float|int) variables coupled by a struct disjunct that only the
/// all-int assignment satisfies, so the solver searches ~2^Depth branches
/// (the same puzzle bench_incremental uses). An edit token adds a
/// statement that changes the module's content but not its structure.
static std::string laneSpec(unsigned K, uint64_t Token) {
  std::ostringstream OS;
  OS << "module lane" << K << " {\n";
  for (unsigned I = 0; I != EditStages; ++I)
    OS << "  instance a" << I << ":adder;\n";
  OS << "  instance k:sink;\n";
  for (unsigned I = 1; I != EditStages; ++I)
    OS << "  a" << I - 1 << ".out -> a" << I << ".in1;\n";
  OS << "  a" << EditStages - 1 << ".out -> k.in;\n";
  for (unsigned J = 0; J != EditDepth; ++J)
    OS << "  constrain 'u" << J << " : (float | int);\n";
  OS << "  constrain 'w : struct{";
  for (unsigned J = 0; J != EditDepth; ++J)
    OS << "f" << J << ":'u" << J << "; ";
  OS << "g:'gv};\n";
  OS << "  constrain 'w : (";
  for (int Alt = 0; Alt != 2; ++Alt) {
    if (Alt)
      OS << " | ";
    OS << "struct{";
    for (unsigned J = 0; J != EditDepth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:" << (Alt ? "float" : "int") << "}";
  }
  OS << ");\n";
  if (Token)
    OS << "  var edit:int;\n  edit = " << Token << ";\n";
  OS << "}\n";
  return OS.str();
}

CompilerInvocation lanesProject(int EditedLane, uint64_t LaneToken,
                                uint64_t TopToken) {
  CompilerInvocation Inv;
  std::ostringstream Top;
  for (unsigned K = 0; K != EditLanes; ++K)
    Top << "instance m" << K << ":lane" << K << ";\n";
  // A changed top lives in its own file name, so its full compile does
  // not replace the dependency graph the lane edits are diffed against.
  if (TopToken)
    Top << "var variant:int;\nvariant = " << TopToken << ";\n";
  Inv.addSource(TopToken ? "top_variant.lss" : "top.lss", Top.str());
  for (unsigned K = 0; K != EditLanes; ++K)
    Inv.addSource("lane" + std::to_string(K) + ".lss",
                  laneSpec(K, int(K) == EditedLane ? LaneToken : 0));
  Inv.BuildSim = false;
  return Inv;
}

} // namespace lssbench
