//===- Inputs.h - Seeded .lss inputs of the benchmark workloads -*- C++ -*-===//
///
/// \file
/// Every workload's inputs are .lss texts built here; the program under
/// test only ever receives these texts. Sizes are fixed per workload so
/// that the seed changes what is computed (order, constants, edits), not
/// how much.
///
//===----------------------------------------------------------------------===//

#ifndef LSSBENCH_INPUTS_H
#define LSSBENCH_INPUTS_H

#include "driver/CompilerInvocation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lssbench {

/// One in-process input: sources compiled cold, then stepped Cycles times.
struct SimInput {
  std::string Name; ///< "A".."F", "n100", "farm3".
  std::vector<liberty::driver::CompilerInvocation::Source> Sources;
  uint64_t Cycles = 0;

  liberty::driver::CompilerInvocation invocation() const;
  size_t sourceBytes() const;
};

/// paper_sim: the paper's models A-F (models/uarch.lss + models/<id>.lss
/// under \p RepoRoot), each stepped PaperCycles cycles. Empty on a read
/// error.
constexpr uint64_t PaperCycles = 2000;
std::vector<SimInput> paperModels(const std::string &RepoRoot);

/// delayn_elab: the running example (Figs. 2/8/9) at each chain length,
/// stepped a short, seed-chosen number of cycles.
constexpr int DelaynSizes[] = {100, 1000, 3000};
std::string delaynSpec(int N);
std::vector<SimInput> delaynInputs(uint64_t Seed);

/// quiet_sim: QuietChains constant-fed adder chains of QuietChainLength
/// beside one counter-fed chain of four adders. The seed picks one of
/// QuietVariants constant assignments; the expected-output file holds the
/// interp engine's outputs for each.
constexpr unsigned QuietVariants = 16;
constexpr unsigned QuietChains = 10;
constexpr unsigned QuietChainLength = 100;
constexpr uint64_t QuietCycles = 40000;
SimInput quietFarm(unsigned Variant);
unsigned quietVariantForSeed(uint64_t Seed);

/// edit_loop: a multi-file lanes project (one module per file plus a top
/// file), shaped like bench_incremental's but sized so a cold compile
/// costs about 100 ms on a 4-core host. Each lane carries an overload
/// puzzle in `constrain` statements so the H3 solve is real work.
constexpr unsigned EditLanes = 32;
constexpr unsigned EditStages = 40;
constexpr unsigned EditDepth = 12;

/// The project with lane \p EditedLane (none when negative) carrying edit
/// \p LaneToken, and, when \p TopToken is nonzero, a changed top file.
/// BuildSim is off, as in the daemon.
liberty::driver::CompilerInvocation
lanesProject(int EditedLane, uint64_t LaneToken, uint64_t TopToken);

} // namespace lssbench

#endif // LSSBENCH_INPUTS_H
