//===- Scheduler.h - Static concurrency scheduling --------------*- C++ -*-===//
///
/// \file
/// Static evaluation-order scheduling for the generated simulator (the
/// paper cites this analysis as [12], Penry & August DAC'03). Leaf
/// instances form a dependency graph — an edge u→v when v combinationally
/// reads a net driven by u. The schedule is the condensation's topological
/// order; singleton groups evaluate exactly once per cycle, multi-node
/// groups (combinational cycles) iterate to a fixpoint.
///
/// On top of the linear order the scheduler assigns each group a *level*
/// for the wavefront (level-parallel) engine: groups in the same level
/// have no edges between them, and every edge source lives in a strictly
/// earlier level, so all groups of one level may evaluate concurrently
/// with a barrier between levels. Levels are ASAP (longest-path) depths
/// over the condensation — a group's level is one more than the maximum
/// level of its predecessors — which packs every independent group into
/// the earliest possible wavefront and keeps wide netlists wide even
/// though the DFS-based topological order interleaves producer/consumer
/// chains. Level membership is therefore NOT contiguous in group index;
/// the simulator restores the serial event order by buffering a whole
/// cycle's events per group and flushing them in ascending group index at
/// the end of the combinational phase.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SCHEDULER_H
#define LIBERTY_SIM_SCHEDULER_H

#include <span>
#include <vector>

namespace liberty {
namespace sim {

struct Schedule {
  /// Strongly connected components in topological order. Group G lists
  /// its node ids (ascending) at GroupNodes[GroupBegin[G] ..
  /// GroupBegin[G+1]): one flat array, not one allocation per group.
  std::vector<int> GroupNodes;
  std::vector<int> GroupBegin{0};

  size_t numGroups() const { return GroupBegin.size() - 1; }
  std::span<const int> group(size_t G) const {
    return {GroupNodes.data() + GroupBegin[G],
            size_t(GroupBegin[G + 1] - GroupBegin[G])};
  }
  std::span<int> group(size_t G) {
    return {GroupNodes.data() + GroupBegin[G],
            size_t(GroupBegin[G + 1] - GroupBegin[G])};
  }

  /// Wavefront levels: Levels[L] lists the group indices (ascending)
  /// evaluated concurrently as level L. Every group's predecessors (edge
  /// sources) lie in levels < L. The levels partition [0, NumGroups).
  std::vector<std::vector<int>> Levels;
  /// GroupLevel[G] is the level index of group G.
  std::vector<int> GroupLevel;

  /// Selective-trace summaries, filled by computeGroupSummaries once the
  /// caller knows each node's input nets and purity. groupInputNets(G) is
  /// the sorted, deduplicated union of the input nets the members of
  /// group G read; GroupSkippable[G] is true when the per-cycle loop may
  /// skip G outright whenever none of those nets changed this cycle
  /// (singleton groups whose behavior has a pure evaluate — cyclic groups
  /// always iterate, so their fixpoint restores any transient state).
  /// The unions are stored back to back in GroupInputIds, group G's at
  /// [GroupInputBegin[G], GroupInputBegin[G+1]).
  std::vector<int> GroupInputIds;
  std::vector<int> GroupInputBegin;
  std::vector<bool> GroupSkippable;

  std::span<const int> groupInputNets(size_t G) const {
    return {GroupInputIds.data() + GroupInputBegin[G],
            size_t(GroupInputBegin[G + 1] - GroupInputBegin[G])};
  }

  /// Cached structural counts, computed once during schedule construction
  /// (computeSchedule / computeGroupSummaries) rather than rescanned on
  /// every accessor call.
  unsigned NumSkippable = 0;
  unsigned NumCyclic = 0;
  unsigned MaxGroup = 0;
  unsigned MaxLevel = 0; ///< Widest level (group count).

  unsigned numSkippableGroups() const { return NumSkippable; }
  unsigned numCyclicGroups() const { return NumCyclic; }
  unsigned maxGroupSize() const { return MaxGroup; }
  unsigned numLevels() const { return unsigned(Levels.size()); }
  unsigned maxLevelWidth() const { return MaxLevel; }
};

/// Computes the schedule for a graph of \p NumNodes nodes given forward
/// adjacency \p Successors (duplicates allowed). Iterative Tarjan SCC, so
/// large graphs cannot overflow the C++ stack. Also assigns wavefront
/// levels and fills the cached structural counts (except NumSkippable,
/// which computeGroupSummaries owns).
Schedule computeSchedule(int NumNodes,
                         const std::vector<std::vector<int>> &Successors);

/// Precomputes the per-group activity summaries selective-trace
/// evaluation consults each cycle. \p NodeInputNets and \p NodePure are
/// indexed by the node ids stored in \p S.GroupNodes (callers may have
/// remapped them after computeSchedule), listing every input net a node
/// reads and whether its behavior has a pure evaluate.
void computeGroupSummaries(
    Schedule &S, const std::vector<std::span<const int>> &NodeInputNets,
    const std::vector<bool> &NodePure);

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SCHEDULER_H
