//===- Scheduler.cpp - Static concurrency scheduling -------------------------===//

#include "sim/Scheduler.h"

#include <algorithm>
#include <cassert>

using namespace liberty;
using namespace liberty::sim;

namespace {

/// Assigns each group its ASAP (longest-path) depth in the condensation:
/// level 0 for groups with no predecessors, otherwise one more than the
/// deepest predecessor. A single ascending sweep suffices because Tarjan's
/// condensation order puts every edge source at a smaller group index than
/// its target, so a group's level is final before any of its successors
/// are relaxed. The DFS order interleaves independent chains, so levels
/// are deliberately NOT contiguous index ranges — ASAP packing is what
/// lets a wide netlist present all its independent groups in one level.
void assignLevels(Schedule &S, int NumNodes,
                  const std::vector<std::vector<int>> &Successors) {
  int NumGroups = int(S.numGroups());
  std::vector<int> NodeGroup(NumNodes, -1);
  for (int G = 0; G != NumGroups; ++G)
    for (int Node : S.group(size_t(G)))
      NodeGroup[Node] = G;

  S.GroupLevel.assign(NumGroups, 0);
  int NumLevels = NumGroups ? 1 : 0;
  for (int G = 0; G != NumGroups; ++G)
    for (int Node : S.group(size_t(G)))
      for (int V : Successors[Node]) {
        int GV = NodeGroup[V];
        if (GV == G)
          continue; // Intra-group (cyclic) edge.
        assert(G < GV && "condensation order is not topological");
        S.GroupLevel[GV] = std::max(S.GroupLevel[GV], S.GroupLevel[G] + 1);
        NumLevels = std::max(NumLevels, S.GroupLevel[GV] + 1);
      }

  S.Levels.assign(NumLevels, {});
  for (int G = 0; G != NumGroups; ++G)
    S.Levels[S.GroupLevel[G]].push_back(G); // Ascending within each level.
  S.MaxLevel = 0;
  for (const std::vector<int> &L : S.Levels)
    S.MaxLevel = std::max(S.MaxLevel, unsigned(L.size()));
}

} // namespace

Schedule liberty::sim::computeSchedule(
    int NumNodes, const std::vector<std::vector<int>> &Successors) {
  assert(static_cast<int>(Successors.size()) == NumNodes &&
         "adjacency size mismatch");

  // Iterative Tarjan. Tarjan emits SCCs in reverse topological order of the
  // condensation, so reversing the emission order yields the schedule.
  std::vector<int> Index(NumNodes, -1), LowLink(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<int> Stack;
  // SCCs in emission order, flat: SCC K is SCCNodes[SCCEnd[K-1]..SCCEnd[K]).
  std::vector<int> SCCNodes, SCCEnd;
  SCCNodes.reserve(size_t(NumNodes));
  int NextIndex = 0;

  struct Frame {
    int Node;
    size_t EdgeIdx;
  };
  std::vector<Frame> CallStack;

  for (int Start = 0; Start != NumNodes; ++Start) {
    if (Index[Start] != -1)
      continue;
    CallStack.push_back(Frame{Start, 0});
    Index[Start] = LowLink[Start] = NextIndex++;
    Stack.push_back(Start);
    OnStack[Start] = true;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      int U = F.Node;
      if (F.EdgeIdx < Successors[U].size()) {
        int V = Successors[U][F.EdgeIdx++];
        if (Index[V] == -1) {
          Index[V] = LowLink[V] = NextIndex++;
          Stack.push_back(V);
          OnStack[V] = true;
          CallStack.push_back(Frame{V, 0});
        } else if (OnStack[V]) {
          LowLink[U] = std::min(LowLink[U], Index[V]);
        }
        continue;
      }
      // U is finished.
      if (LowLink[U] == Index[U]) {
        const size_t Begin = SCCNodes.size();
        while (true) {
          int W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          SCCNodes.push_back(W);
          if (W == U)
            break;
        }
        std::sort(SCCNodes.begin() + std::ptrdiff_t(Begin), SCCNodes.end());
        SCCEnd.push_back(int(SCCNodes.size()));
      }
      CallStack.pop_back();
      if (!CallStack.empty()) {
        int Parent = CallStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[U]);
      }
    }
  }

  // Reverse the emission order into the schedule, counting structure once
  // here (not per accessor call).
  Schedule S;
  S.GroupNodes.reserve(SCCNodes.size());
  S.GroupBegin.reserve(SCCEnd.size() + 1);
  S.NumCyclic = 0;
  S.MaxGroup = 0;
  for (size_t K = SCCEnd.size(); K-- != 0;) {
    const int Begin = K ? SCCEnd[K - 1] : 0, End = SCCEnd[K];
    S.GroupNodes.insert(S.GroupNodes.end(), SCCNodes.begin() + Begin,
                        SCCNodes.begin() + End);
    S.GroupBegin.push_back(int(S.GroupNodes.size()));
    const unsigned Size = unsigned(End - Begin);
    if (Size > 1)
      ++S.NumCyclic;
    S.MaxGroup = std::max(S.MaxGroup, Size);
  }

  assignLevels(S, NumNodes, Successors);
  return S;
}

void liberty::sim::computeGroupSummaries(
    Schedule &S, const std::vector<std::span<const int>> &NodeInputNets,
    const std::vector<bool> &NodePure) {
  S.GroupInputIds.clear();
  S.GroupInputBegin.assign(1, 0);
  S.GroupInputBegin.reserve(S.numGroups() + 1);
  S.GroupSkippable.assign(S.numGroups(), false);
  S.NumSkippable = 0;
  for (size_t G = 0; G != S.numGroups(); ++G) {
    const size_t Begin = S.GroupInputIds.size();
    bool AllPure = true;
    for (int Node : S.group(G)) {
      assert(Node >= 0 &&
             static_cast<size_t>(Node) < NodeInputNets.size() &&
             "node id out of range");
      S.GroupInputIds.insert(S.GroupInputIds.end(),
                             NodeInputNets[Node].begin(),
                             NodeInputNets[Node].end());
      AllPure = AllPure && NodePure[Node];
    }
    auto First = S.GroupInputIds.begin() + std::ptrdiff_t(Begin);
    std::sort(First, S.GroupInputIds.end());
    S.GroupInputIds.erase(std::unique(First, S.GroupInputIds.end()),
                          S.GroupInputIds.end());
    S.GroupInputBegin.push_back(int(S.GroupInputIds.size()));
    // Cyclic groups are never skipped: their fixpoint iteration already
    // quiesces in one settled pass, and always evaluating them keeps the
    // selective and exhaustive event streams identical.
    S.GroupSkippable[G] = S.group(G).size() == 1 && AllPure;
    if (S.GroupSkippable[G])
      ++S.NumSkippable;
  }
}
