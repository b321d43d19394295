//===- FuzzCache.cpp - Artifact-deserializer fuzz target ----------------------===//
///
/// \file
/// Attacks the cache's trust boundary: the LSSNL (elaborated netlist) and
/// LSSSOL (inference solution) deserializers, which parse whatever bytes a
/// cache directory hands back. Each input is run two ways:
///
///   raw    — the bytes go straight into deserializeNetlist and (against a
///            pristine reloaded netlist) importSolution;
///   patch  — the bytes are spliced into a known-valid artifact produced
///            once from a fixed spec, modeling a partially corrupted cache
///            entry, and the result is deserialized.
///
/// Malformed input must be rejected (returning null/false is the cache's
/// "miss" path); crashes, sanitizer reports, and hangs are bugs. When a
/// mutated netlist artifact happens to be *accepted*, the
/// reload fixpoint must still hold: re-serializing and re-loading the
/// accepted artifact yields identical bytes. An accept-then-diverge would
/// let a corrupt entry poison downstream compiles, so that traps too.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "types/TypeContext.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace liberty;

namespace {

const char *kSeedSpec = R"(
instance g:counter_source;
instance one:const_source;
one.value = 1;
instance a:adder;
instance s:sink;
g.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)";

/// Known-valid artifacts, built once from the fixed spec. Every structural
/// record kind (instance, port, connection, userpoint, diag, p, stats)
/// appears in them, so splices hit real parse paths.
struct SeedArtifacts {
  std::string NetlistArt;   ///< Current format (LSSNL 2, interned strtab).
  std::string NetlistArtV1; ///< Legacy format the loader still accepts.
  std::string SolutionArt;
  bool Ok = false;
};

const SeedArtifacts &seeds() {
  static SeedArtifacts S = [] {
    SeedArtifacts A;
    driver::Compiler C;
    driver::CompilerInvocation Inv;
    if (!C.addCoreLibrary() || !C.addSource("seed.lss", kSeedSpec) ||
        !C.elaborate(Inv) || !C.inferTypes(Inv))
      return A;
    A.Ok = netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                     C.getNumUserTypeAnnotations(), {},
                                     A.NetlistArt) &&
           netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                     C.getNumUserTypeAnnotations(), {},
                                     A.NetlistArtV1, 1) &&
           infer::exportSolution(*C.getNetlist(), C.getInferenceStats(), {},
                                 A.SolutionArt);
    return A;
  }();
  return S;
}

/// Feeds \p Text to both deserializers. The solution import runs against a
/// pristine netlist reload so its index bounds-checks are exercised with
/// realistic instance/port counts.
void exercise(const std::string &Text) {
  {
    types::TypeContext TC;
    netlist::SerializedCompile SC = netlist::deserializeNetlist(Text, TC);
    if (SC.NL) {
      // Accepted input: the reload fixpoint must hold (see file comment).
      std::string S2, S3;
      if (netlist::serializeNetlist(*SC.NL, SC.LibraryModules,
                                    SC.NumUserAnnotations, SC.Diags, S2)) {
        types::TypeContext TC2;
        netlist::SerializedCompile SC2 = netlist::deserializeNetlist(S2, TC2);
        if (!SC2.NL ||
            !netlist::serializeNetlist(*SC2.NL, SC2.LibraryModules,
                                       SC2.NumUserAnnotations, SC2.Diags, S3) ||
            S2 != S3)
          __builtin_trap();
      }
    }
  }
  {
    types::TypeContext TC;
    netlist::SerializedCompile SC =
        netlist::deserializeNetlist(seeds().NetlistArt, TC);
    if (!SC.NL)
      __builtin_trap(); // The pristine artifact must always load.
    infer::NetlistInferenceStats Stats;
    std::vector<Diagnostic> Diags;
    (void)infer::importSolution(Text, *SC.NL, TC, Stats, Diags);
  }
}

/// Splices the fuzz bytes into a copy of \p Base at an input-derived
/// offset, optionally overwriting instead of inserting.
std::string patch(const std::string &Base, const uint8_t *Data, size_t Size) {
  uint64_t Ctl = 0;
  std::memcpy(&Ctl, Data, Size < 8 ? Size : 8);
  size_t At = Base.empty() ? 0 : size_t(Ctl % (Base.size() + 1));
  const char *Payload = reinterpret_cast<const char *>(Data + (Size < 8 ? Size : 8));
  size_t PayloadLen = Size < 8 ? 0 : Size - 8;
  std::string Out = Base;
  if (Ctl & 1) {
    // Overwrite in place (keeps line structure mostly intact).
    size_t N = PayloadLen < Out.size() - At ? PayloadLen : Out.size() - At;
    Out.replace(At, N, Payload, N);
  } else {
    Out.insert(At, Payload, PayloadLen);
  }
  return Out;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (!seeds().Ok)
    __builtin_trap(); // The fixed spec must always compile and serialize.

  std::string Raw(reinterpret_cast<const char *>(Data), Size);
  exercise(Raw);
  // Splice against both wire formats: v2's strtab/id-reference records
  // and v1's in-place escaped strings take different parse paths.
  exercise(patch(seeds().NetlistArt, Data, Size));
  exercise(patch(seeds().NetlistArtV1, Data, Size));
  exercise(patch(seeds().SolutionArt, Data, Size));
  return 0;
}
