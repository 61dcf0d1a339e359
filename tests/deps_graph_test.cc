// Tests for the dependency-structure analyzer: SCCs, layers, the runtime
// call tracker, and the signal scope.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/deps/tracker.h"

namespace mks {
namespace {

TEST(DependencyGraph, EmptyGraphIsLoopFree) {
  DependencyGraph g;
  EXPECT_TRUE(g.IsLoopFree());
  EXPECT_TRUE(g.Loops().empty());
}

TEST(DependencyGraph, ChainIsLoopFreeWithLayers) {
  DependencyGraph g;
  g.AddEdge("c", "b", DepKind::kComponent);
  g.AddEdge("b", "a", DepKind::kComponent);
  ASSERT_TRUE(g.IsLoopFree());
  auto layers = g.Layers();
  EXPECT_EQ(layers[g.FindModule("a")], 0);
  EXPECT_EQ(layers[g.FindModule("b")], 1);
  EXPECT_EQ(layers[g.FindModule("c")], 2);
  auto order = g.VerificationOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(g.name(order[0]), "a");
  EXPECT_EQ(g.name(order[2]), "c");
}

TEST(DependencyGraph, DetectsTwoNodeLoop) {
  DependencyGraph g;
  g.AddEdge("page", "process", DepKind::kInterpreter);
  g.AddEdge("process", "page", DepKind::kComponent);
  auto loops = g.Loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].size(), 2u);
  EXPECT_TRUE(g.Layers().empty());
  EXPECT_TRUE(g.VerificationOrder().empty());
}

TEST(DependencyGraph, SelfEdgeIsALoop) {
  DependencyGraph g;
  g.AddEdge("m", "m", DepKind::kMap);
  EXPECT_FALSE(g.IsLoopFree());
}

TEST(DependencyGraph, MultipleKindsBetweenSameModules) {
  DependencyGraph g;
  g.AddEdge("a", "b", DepKind::kComponent);
  g.AddEdge("a", "b", DepKind::kMap);
  g.AddEdge("a", "b", DepKind::kProgram);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.IsLoopFree());
}

TEST(DependencyGraph, DotAndTextRendering) {
  DependencyGraph g;
  g.AddEdge("segment_manager", "page_frame_manager", DepKind::kComponent);
  const std::string dot = g.ToDot("fig");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("component"), std::string::npos);
  const std::string text = g.ToText();
  EXPECT_NE(text.find("segment_manager --component--> page_frame_manager"), std::string::npos);
}

// Property test: random DAGs (edges only from higher to lower index) are
// always loop-free and the layer assignment respects every edge; adding one
// back edge creates a loop.
class RandomDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagTest, LayersRespectEdgesAndBackEdgeCreatesLoop) {
  Rng rng(GetParam());
  DependencyGraph g;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    g.AddModule("m" + std::to_string(i));
  }
  struct Edge {
    int from, to;
  };
  std::vector<Edge> edges;
  for (int from = 1; from < kNodes; ++from) {
    const int fanout = static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < fanout; ++k) {
      const int to = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(from)));
      g.AddEdge(ModuleId(static_cast<uint16_t>(from)), ModuleId(static_cast<uint16_t>(to)),
                DepKind::kComponent);
      edges.push_back({from, to});
    }
  }
  ASSERT_TRUE(g.IsLoopFree());
  auto layers = g.Layers();
  for (const Edge& e : edges) {
    EXPECT_GT(layers[ModuleId(static_cast<uint16_t>(e.from))],
              layers[ModuleId(static_cast<uint16_t>(e.to))]);
  }
  // Close a random edge backwards: instant loop.
  if (!edges.empty()) {
    const Edge& e = edges[rng.NextBelow(edges.size())];
    g.AddEdge(ModuleId(static_cast<uint16_t>(e.to)), ModuleId(static_cast<uint16_t>(e.from)),
              DepKind::kMap);
    EXPECT_FALSE(g.IsLoopFree());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(CallTracker, RecordsNestedCallsOnly) {
  CallTracker tracker;
  const ModuleId a = tracker.Register("a");
  const ModuleId b = tracker.Register("b");
  const ModuleId c = tracker.Register("c");
  {
    CallTracker::Scope sa(&tracker, a);
    {
      CallTracker::Scope sb(&tracker, b);
      CallTracker::Scope sc(&tracker, c);
    }
  }
  const DependencyGraph& observed = tracker.observed();
  EXPECT_TRUE(observed.HasEdge(a, b));
  EXPECT_TRUE(observed.HasEdge(b, c));
  EXPECT_FALSE(observed.HasEdge(a, c));
}

TEST(CallTracker, ReentrantSameModuleRecordsNothing) {
  CallTracker tracker;
  const ModuleId a = tracker.Register("a");
  CallTracker::Scope s1(&tracker, a);
  CallTracker::Scope s2(&tracker, a);
  EXPECT_EQ(tracker.observed().edge_count(), 0u);
}

TEST(CallTracker, SignalScopeSuspendsTheCallerStack) {
  CallTracker tracker;
  const ModuleId low = tracker.Register("page_frame");
  const ModuleId high = tracker.Register("directory");
  {
    CallTracker::Scope in_low(&tracker, low);
    // The upward software signal: no activation records left behind, so the
    // high module's work is observed as a fresh entry, not an edge.
    CallTracker::SignalScope signal(&tracker);
    CallTracker::Scope in_high(&tracker, high);
  }
  EXPECT_FALSE(tracker.observed().HasEdge(low, high));
  // And the stack was restored afterwards.
  {
    CallTracker::Scope in_low(&tracker, low);
    CallTracker::Scope nested(&tracker, high);
  }
  EXPECT_TRUE(tracker.observed().HasEdge(low, high));
}

TEST(CallTracker, CallAfterTheSignalScopeClosesRecordsTheCallersEdge) {
  CallTracker tracker;
  const ModuleId low = tracker.Register("page_frame");
  const ModuleId high = tracker.Register("directory");
  {
    CallTracker::Scope in_low(&tracker, low);
    {
      CallTracker::SignalScope signal(&tracker);
      CallTracker::Scope in_high(&tracker, high);
    }
    EXPECT_EQ(tracker.observed().edge_count(), 0u);
    // Still inside the caller's scope: its frame is the active one again.
    CallTracker::Scope call(&tracker, high);
  }
  EXPECT_TRUE(tracker.observed().HasEdge(low, high));
  EXPECT_EQ(tracker.observed().edge_count(), 1u);
}

TEST(CallTracker, NestedSignalScopesEachRestoreTheirOwnMark) {
  CallTracker tracker;
  const ModuleId a = tracker.Register("a");
  const ModuleId b = tracker.Register("b");
  const ModuleId c = tracker.Register("c");
  const ModuleId d = tracker.Register("d");
  const DependencyGraph& observed = tracker.observed();
  CallTracker::Scope in_a(&tracker, a);
  {
    CallTracker::SignalScope outer(&tracker);
    {
      CallTracker::Scope in_b(&tracker, b);
      EXPECT_FALSE(observed.HasEdge(a, b));
      {
        CallTracker::SignalScope inner(&tracker);
        CallTracker::Scope in_c(&tracker, c);
      }
      EXPECT_FALSE(observed.HasEdge(b, c));
      // The inner scope restored the outer one's mark, which is below b.
      CallTracker::Scope b_calls_c(&tracker, c);
      EXPECT_TRUE(observed.HasEdge(b, c));
    }
    // Back at the outer mark: a is still suspended.
    CallTracker::Scope in_d(&tracker, d);
    EXPECT_FALSE(observed.HasEdge(a, d));
  }
  // The outer scope restored the bottom mark: a is the caller again.
  CallTracker::Scope a_calls_d(&tracker, d);
  EXPECT_TRUE(observed.HasEdge(a, d));
  EXPECT_EQ(observed.edge_count(), 2u);
}

TEST(CallTracker, ReenteringTheCallersModuleInsideASignalScopeRecordsNoEdge) {
  CallTracker tracker;
  const ModuleId segment = tracker.Register("segment");
  const ModuleId page_frame = tracker.Register("page_frame");
  {
    CallTracker::Scope in_segment(&tracker, segment);
    CallTracker::Scope in_page_frame(&tracker, page_frame);
    // Page control signals upward; the handler re-enters the segment
    // manager, whose frame is still on the suspended stack.
    CallTracker::SignalScope signal(&tracker);
    CallTracker::Scope reentered(&tracker, segment);
  }
  EXPECT_TRUE(tracker.observed().HasEdge(segment, page_frame));
  EXPECT_FALSE(tracker.observed().HasEdge(page_frame, segment));
  EXPECT_TRUE(tracker.observed().IsLoopFree());
}

TEST(CallTracker, UndeclaredEdgesReported) {
  CallTracker tracker;
  const ModuleId a = tracker.Register("a");
  const ModuleId b = tracker.Register("b");
  {
    CallTracker::Scope sa(&tracker, a);
    CallTracker::Scope sb(&tracker, b);
  }
  DependencyGraph declared;
  declared.AddModule("a");
  declared.AddModule("b");
  EXPECT_EQ(tracker.UndeclaredEdges(declared).size(), 1u);
  declared.AddEdge("a", "b", DepKind::kInterpreter);  // any kind legitimizes
  EXPECT_TRUE(tracker.UndeclaredEdges(declared).empty());
}

}  // namespace
}  // namespace mks
