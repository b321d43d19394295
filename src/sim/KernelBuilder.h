//===- KernelBuilder.h - Netlist-to-kernel lowering -------------*- C++ -*-===//
///
/// \file
/// Lowers a constructed Simulator into a CompiledKernel (the compiled
/// engine's flat cycle program), and rebuilds kernels from cached
/// "LSSKRN 1" artifacts. Lowering classifies each schedule group: a
/// singleton group whose behavior id names one of the devirtualized
/// corelib kinds (and whose port/state slots resolve) becomes a
/// specialized op over dense net ids; everything else becomes a Generic
/// op that delegates to Simulator::evaluateGroup, preserving fixpoint and
/// diagnostic semantics exactly.
///
/// load() trusts nothing: it lowers the live simulator afresh and adopts
/// the cached artifact only if it is byte-identical to that lowering's
/// canonical serialization — any difference rejects the whole artifact
/// and the caller falls back to the fresh build. Mutated kernel artifacts
/// are a fuzz target (fuzz_cache).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_KERNELBUILDER_H
#define LIBERTY_SIM_KERNELBUILDER_H

#include "sim/CompiledKernel.h"

#include <memory>
#include <string>

namespace liberty {
namespace sim {

class Simulator;

class KernelBuilder {
public:
  /// Lowers \p Sim (constructed and reset, so behavior init() has bound
  /// its state slots) into a fresh kernel. Never fails: unrecognized
  /// groups lower to Generic ops.
  static std::unique_ptr<CompiledKernel> build(Simulator &Sim);

  /// Adopts an "LSSKRN 1" artifact after revalidating it against \p Sim.
  /// Returns null unless the artifact is exactly the canonical
  /// serialization of \p Sim's lowering (the cache-miss path).
  static std::unique_ptr<CompiledKernel> load(Simulator &Sim,
                                              const std::string &Artifact);
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_KERNELBUILDER_H
