// Tests of the baseline (1973-style) monolithic supervisor, including the
// dependency-loop structure of Figures 2 and 3.
#include <gtest/gtest.h>

#include "src/baseline/supervisor.h"

namespace mks {
namespace {

TEST(Baseline, CreateWriteRead) {
  MonolithicSupervisor sup{BaselineConfig{}};
  ASSERT_TRUE(sup.Boot().ok());
  auto uid = sup.CreatePath(">udd>proj>alpha");
  ASSERT_TRUE(uid.ok()) << uid.status();
  ASSERT_TRUE(sup.Write(*uid, 123, 77).ok());
  auto v = sup.Read(*uid, 123);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 77u);
}

TEST(Baseline, FileFoundNeverRevealsIntermediateNames) {
  MonolithicSupervisor sup{BaselineConfig{}};
  ASSERT_TRUE(sup.Boot().ok());
  ASSERT_TRUE(sup.CreatePath(">a>b>c").ok());
  EXPECT_TRUE(sup.FileFound(">a>b>c").ok());
  // Both a missing leaf and a missing intermediate produce the identical
  // "no access" response.
  auto missing_leaf = sup.FileFound(">a>b>zzz");
  auto missing_dir = sup.FileFound(">nope>b>c");
  EXPECT_EQ(missing_leaf.code(), Code::kNoAccess);
  EXPECT_EQ(missing_dir.code(), Code::kNoAccess);
}

TEST(Baseline, QuotaWalkChargesNearestQuotaDirectory) {
  MonolithicSupervisor sup{BaselineConfig{}};
  ASSERT_TRUE(sup.Boot().ok());
  ASSERT_TRUE(sup.CreateDirectoryPath(">udd>deep>deeper").ok());
  ASSERT_TRUE(sup.SetQuota(">udd", 10).ok());
  auto uid = sup.CreatePath(">udd>deep>deeper>file");
  ASSERT_TRUE(uid.ok());
  for (uint32_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(sup.Write(*uid, p * kPageWords, 1).ok()) << p;
  }
  // The 11th page exceeds the quota found by walking up to >udd.
  EXPECT_EQ(sup.Write(*uid, 10 * kPageWords, 1).code(), Code::kQuotaOverflow);
  EXPECT_GT(sup.metrics().Get("baseline.quota_walk_hops"), 0u);
  auto used = sup.QuotaUsed(">udd");
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, 10u);
}

TEST(Baseline, FullPackMovesSegmentAndUpdatesDirectoryEntry) {
  BaselineConfig config;
  config.records_per_pack = 24;  // tiny packs so one fills quickly
  config.retranslate_conflict_rate = 0.0;
  MonolithicSupervisor sup{config};
  ASSERT_TRUE(sup.Boot().ok());
  auto a = sup.CreatePath(">a");
  auto b = sup.CreatePath(">b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Fill pages alternately until one pack fills and a move happens.
  Status st = Status::Ok();
  for (uint32_t p = 0; p < 20 && st.ok(); ++p) {
    st = sup.Write(*a, p * kPageWords, 1);
    if (st.ok()) {
      st = sup.Write(*b, p * kPageWords, 1);
    }
  }
  EXPECT_GT(sup.metrics().Get("baseline.full_pack_moves"), 0u);
  // Data still reachable after the move.
  auto v = sup.Read(*a, 0);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 1u);
}

TEST(Baseline, HierarchyConstrainsDeactivation) {
  BaselineConfig config;
  config.ast_slots = 6;  // tiny AST: force replacements
  MonolithicSupervisor sup{config};
  ASSERT_TRUE(sup.Boot().ok());
  // A deep chain keeps all ancestors active: replacements must skip them.
  std::vector<SegmentUid> uids;
  for (int i = 0; i < 6; ++i) {
    auto uid = sup.CreatePath(">d1>d2>f" + std::to_string(i));
    ASSERT_TRUE(uid.ok());
    uids.push_back(*uid);
  }
  for (auto uid : uids) {
    ASSERT_TRUE(sup.Write(uid, 0, 9).ok());
  }
  EXPECT_GT(sup.metrics().Get("baseline.deactivation_blocked_by_hierarchy"), 0u);
}

TEST(Baseline, ProcessesRunToCompletion) {
  MonolithicSupervisor sup{BaselineConfig{}};
  ASSERT_TRUE(sup.Boot().ok());
  auto uid = sup.CreatePath(">data>shared");
  ASSERT_TRUE(uid.ok());
  for (int i = 0; i < 3; ++i) {
    auto pid = sup.CreateProcess();
    ASSERT_TRUE(pid.ok());
    std::vector<MonolithicSupervisor::BaselineOp> program;
    for (uint32_t n = 0; n < 40; ++n) {
      MonolithicSupervisor::BaselineOp op;
      op.kind = MonolithicSupervisor::BaselineOp::Kind::kWrite;
      op.uid = *uid;
      op.offset = (n % 8) * kPageWords + static_cast<uint32_t>(i);
      op.value = n;
      program.push_back(op);
    }
    ASSERT_TRUE(sup.SetProgram(*pid, std::move(program)).ok());
  }
  EXPECT_TRUE(sup.RunUntilQuiescent(10000).ok());
  EXPECT_GT(sup.metrics().Get("baseline.state_loads"), 0u);
}

TEST(BaselineFigures, SuperficialStructureHasExactlyTheObviousLoop) {
  const DependencyGraph g = MonolithicSupervisor::SuperficialStructure();
  const auto loops = g.Loops();
  ASSERT_EQ(loops.size(), 1u);
  // The loop is page control <-> process control (through segment control).
  std::vector<std::string> names;
  for (ModuleId m : loops[0]) {
    names.push_back(g.name(m));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), baseline_modules::kPageControl), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), baseline_modules::kProcessControl),
            names.end());
}

TEST(BaselineFigures, ActualStructureHasLargerLoops) {
  const DependencyGraph superficial = MonolithicSupervisor::SuperficialStructure();
  const DependencyGraph actual = MonolithicSupervisor::ActualStructure();
  ASSERT_FALSE(actual.IsLoopFree());
  size_t superficial_largest = 0;
  for (const auto& scc : superficial.Loops()) {
    superficial_largest = std::max(superficial_largest, scc.size());
  }
  size_t actual_largest = 0;
  for (const auto& scc : actual.Loops()) {
    actual_largest = std::max(actual_largest, scc.size());
  }
  // Close inspection reveals more modules entangled than the obvious view.
  EXPECT_GT(actual_largest, superficial_largest);
  EXPECT_GE(actual_largest, 5u);  // dir, as, seg, page, proc
}

TEST(BaselineFigures, ObservedCallsReproduceTheLoops) {
  BaselineConfig config;
  config.records_per_pack = 24;
  config.retranslate_conflict_rate = 0.0;
  MonolithicSupervisor sup{config};
  ASSERT_TRUE(sup.Boot().ok());
  ASSERT_TRUE(sup.SetQuota(">", 1000).ok());
  auto a = sup.CreatePath(">x>y>a");
  auto b = sup.CreatePath(">x>y>b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Status st = Status::Ok();
  for (uint32_t p = 0; p < 20 && st.ok(); ++p) {
    st = sup.Write(*a, p * kPageWords, 1);
    if (st.ok()) {
      st = sup.Write(*b, p * kPageWords, 1);
    }
  }
  auto pid = sup.CreateProcess();
  ASSERT_TRUE(pid.ok());
  std::vector<MonolithicSupervisor::BaselineOp> program;
  MonolithicSupervisor::BaselineOp op;
  op.kind = MonolithicSupervisor::BaselineOp::Kind::kRead;
  op.uid = *a;
  program.push_back(op);
  ASSERT_TRUE(sup.SetProgram(*pid, std::move(program)).ok());
  ASSERT_TRUE(sup.RunUntilQuiescent(1000).ok());

  // The runtime call structure itself contains a loop: the monolith really
  // does call around its own layering.
  EXPECT_FALSE(sup.tracker().observed().IsLoopFree());
}

}  // namespace
}  // namespace mks
