//===- KernelBuilder.h - Netlist-to-kernel lowering -------------*- C++ -*-===//
///
/// \file
/// Lowers a constructed Simulator into a CompiledKernel (the compiled
/// engine's flat cycle program). Lowering classifies each schedule group:
/// a singleton group whose behavior id names one of the devirtualized
/// corelib kinds (and whose port/state slots resolve) becomes a
/// specialized op over dense net ids; everything else becomes a Generic
/// op that delegates to Simulator::evaluateGroup, preserving fixpoint and
/// diagnostic semantics exactly. The sequential phase is classified the
/// same way, per runtime.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_KERNELBUILDER_H
#define LIBERTY_SIM_KERNELBUILDER_H

#include "sim/CompiledKernel.h"

#include <memory>

namespace liberty {
namespace sim {

class Simulator;

class KernelBuilder {
public:
  /// Lowers \p Sim (constructed and reset, so behavior init() has bound
  /// its state slots) into a fresh kernel. Never fails: unrecognized
  /// groups lower to Generic ops.
  static std::unique_ptr<CompiledKernel> build(Simulator &Sim);
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_KERNELBUILDER_H
