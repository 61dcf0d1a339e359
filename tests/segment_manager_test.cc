// Direct tests of the segment manager: activation, the UNCONSTRAINED
// deactivation rule (the contrast with the baseline's hierarchy-shape
// constraint), LRU replacement, and relocation plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

TEST(SegmentManager, ActivateIsIdempotentViaEnsureActive) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>x");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  ASSERT_NE(entry, nullptr);
  const uint32_t first = fx.kernel.segments().FindIndex(entry->home.uid);
  ASSERT_NE(first, kNoAst);
  auto again = fx.kernel.segments().EnsureActive(entry->home.uid, entry->home.pack,
                                                 entry->home.vtoc, entry->home.quota_cell);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, first);
  EXPECT_EQ(fx.kernel.metrics().Get("seg.activations"),
            fx.kernel.metrics().Get("seg.activations"));
}

TEST(SegmentManager, DeactivationIsNotConstrainedByHierarchyShape) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Build >top>mid>leaf and touch the leaf so everything activates.
  const Segno leaf = fx.MustCreate(">top>mid>leaf");
  ASSERT_TRUE(gates.Write(*fx.ctx, leaf, 0, 1).ok());

  // The *directory* >top's backing segment is active (its pages were grown).
  auto top = gates.Search(*fx.ctx, gates.RootId(), "top");
  ASSERT_TRUE(top.ok());
  const SegmentUid top_uid(top->value);
  const uint32_t top_ast = fx.kernel.segments().FindIndex(top_uid);
  if (top_ast != kNoAst && fx.kernel.segments().Get(top_ast)->connections() == 0) {
    // In the old supervisor this deactivation would be FORBIDDEN while the
    // leaf (an inferior) is active.  The new design permits it outright.
    EXPECT_TRUE(fx.kernel.segments().Deactivate(top_ast).ok());
    // And the leaf keeps working afterwards.
    auto value = gates.Read(*fx.ctx, leaf, 0);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 1u);
  }
}

TEST(SegmentManager, AstReplacementEvictsLruUnconnected) {
  KernelConfig config;
  config.ast_slots = 6;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Many segments touched once, then terminated, so their AST entries are
  // unconnected and eligible for replacement.
  for (int i = 0; i < 12; ++i) {
    const Segno segno = fx.MustCreate(">pool>s" + std::to_string(i));
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, 0, 100 + i).ok());
    ASSERT_TRUE(gates.Terminate(*fx.ctx, segno).ok());
  }
  EXPECT_GT(fx.kernel.metrics().Get("seg.ast_replacements"), 0u);
  EXPECT_LE(fx.kernel.segments().active_count(), 6u);
  // Data written through the replaced activations survives.
  PathWalker walker(&gates);
  for (int i = 0; i < 12; ++i) {
    auto segno = walker.Initiate(*fx.ctx, ">pool>s" + std::to_string(i));
    ASSERT_TRUE(segno.ok());
    auto value = gates.Read(*fx.ctx, *segno, 0);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, 100u + i);
    ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
  }
}

TEST(SegmentManager, ConnectedSegmentsCannotBeDeactivated) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>locked");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  const uint32_t ast = fx.kernel.segments().FindIndex(entry->home.uid);
  ASSERT_NE(ast, kNoAst);
  EXPECT_GT(fx.kernel.segments().Get(ast)->connections(), 0u);
  EXPECT_EQ(fx.kernel.segments().Deactivate(ast).code(), Code::kFailedPrecondition);
}

TEST(SegmentManager, RelocationRequiresDisconnection) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>movable");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 7).ok());
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  const uint32_t ast = fx.kernel.segments().FindIndex(entry->home.uid);
  // Still connected: the segment manager refuses.
  EXPECT_EQ(fx.kernel.segments().Relocate(ast).code(), Code::kFailedPrecondition);
  // After severing, relocation succeeds and the data moves.
  fx.kernel.address_spaces().DisconnectEverywhere(entry->home.uid);
  ASSERT_TRUE(fx.kernel.segments().Relocate(ast).ok());
  const PageTable& home = fx.kernel.segments().Get(ast)->page_table;
  EXPECT_NE(home.pack.value, entry->home.pack.value);
  const VtocEntry* moved = fx.kernel.ctx().volumes.pack(home.pack)->GetVtoc(home.vtoc);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->RecordsUsed(), 1u);
}

bool SdwPresent(Kernel& kernel, ProcessId pid, Segno segno) {
  const DescriptorSegment* ds = kernel.address_spaces().Space(pid);
  return ds != nullptr && ds->sdws[segno.value - kSystemSegnoLimit].present;
}

TEST(AddressSpace, DisconnectEverywhereSeversOnlyTheUidsBindings) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  AddressSpaceManager& spaces = fx.kernel.address_spaces();
  SegmentManager& segs = fx.kernel.segments();
  // Three processes, each bound to the target and to a bystander.
  std::vector<ProcContext*> procs = {fx.ctx};
  for (int i = 0; i < 2; ++i) {
    auto pid = fx.kernel.processes().CreateProcess(TestSubject("Other" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    procs.push_back(fx.kernel.processes().Context(*pid));
  }
  PathWalker walker(&gates);
  ASSERT_TRUE(walker.CreateSegment(*fx.ctx, ">sever>target", WorldAcl(), Label::SystemLow()).ok());
  ASSERT_TRUE(walker.CreateSegment(*fx.ctx, ">sever>other", WorldAcl(), Label::SystemLow()).ok());
  std::vector<Segno> target;
  std::vector<Segno> other;
  for (ProcContext* proc : procs) {
    auto t = walker.Initiate(*proc, ">sever>target");
    auto o = walker.Initiate(*proc, ">sever>other");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(gates.Write(*proc, *t, 0, 41).ok());
    ASSERT_TRUE(gates.Write(*proc, *o, 0, 42).ok());
    target.push_back(*t);
    other.push_back(*o);
  }
  const SegmentUid uid = fx.kernel.known_segments().Lookup(fx.pid, target[0])->home.uid;
  const uint32_t ast = segs.FindIndex(uid);
  ASSERT_NE(ast, kNoAst);
  ASSERT_EQ(segs.Get(ast)->connections(), 3u);

  // An inactive uid has nothing bound.
  ASSERT_EQ(segs.FindIndex(SegmentUid(0xdead)), kNoAst);
  EXPECT_EQ(spaces.DisconnectEverywhere(SegmentUid(0xdead)), 0u);
  // An active segment no process is connected to.
  const Segno idle = fx.MustCreate(">sever>idle");
  ASSERT_TRUE(gates.Write(*fx.ctx, idle, 0, 1).ok());
  const SegmentUid idle_uid = fx.kernel.known_segments().Lookup(fx.pid, idle)->home.uid;
  ASSERT_TRUE(gates.Terminate(*fx.ctx, idle).ok());
  const uint32_t idle_ast = segs.FindIndex(idle_uid);
  ASSERT_NE(idle_ast, kNoAst);
  ASSERT_EQ(segs.Get(idle_ast)->connections(), 0u);
  EXPECT_EQ(spaces.DisconnectEverywhere(idle_uid), 0u);

  const uint64_t severed0 = fx.kernel.metrics().Get("asm.disconnect_everywhere");
  EXPECT_EQ(spaces.DisconnectEverywhere(uid), 3u);
  EXPECT_EQ(fx.kernel.metrics().Get("asm.disconnect_everywhere") - severed0, 3u);
  EXPECT_EQ(segs.Get(ast)->connections(), 0u);
  for (size_t i = 0; i < procs.size(); ++i) {
    EXPECT_FALSE(SdwPresent(fx.kernel, procs[i]->pid, target[i])) << i;
    EXPECT_TRUE(SdwPresent(fx.kernel, procs[i]->pid, other[i])) << i;
  }
  const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
  // Nothing is left to sever, and every process reconnects on its next touch.
  EXPECT_EQ(spaces.DisconnectEverywhere(uid), 0u);
  for (size_t i = 0; i < procs.size(); ++i) {
    auto value = gates.Read(*procs[i], target[i], 0);
    ASSERT_TRUE(value.ok()) << i;
    EXPECT_EQ(*value, 41u);
  }
  EXPECT_EQ(segs.Get(segs.FindIndex(uid))->connections(), 3u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(AddressSpace, DestroySpaceDropsItsSdwsFromThePageTables) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  AddressSpaceManager& spaces = fx.kernel.address_spaces();
  SegmentManager& segs = fx.kernel.segments();
  auto leaver_pid = fx.kernel.processes().CreateProcess(TestSubject("Leaver"));
  ASSERT_TRUE(leaver_pid.ok());
  ProcContext* leaver = fx.kernel.processes().Context(*leaver_pid);
  PathWalker walker(&gates);
  ASSERT_TRUE(walker.CreateSegment(*fx.ctx, ">gone>shared", WorldAcl(), Label::SystemLow()).ok());
  ASSERT_TRUE(walker.CreateSegment(*fx.ctx, ">gone>private", WorldAcl(), Label::SystemLow()).ok());
  // Both processes connect the shared segment; only the leaver connects the
  // private one, at two segment numbers.
  std::vector<Segno> shared;
  for (ProcContext* proc : {fx.ctx, leaver}) {
    auto segno = walker.Initiate(*proc, ">gone>shared");
    ASSERT_TRUE(segno.ok());
    ASSERT_TRUE(gates.Write(*proc, *segno, 0, 5).ok());
    shared.push_back(*segno);
  }
  auto private_segno = walker.Initiate(*leaver, ">gone>private");
  ASSERT_TRUE(private_segno.ok());
  ASSERT_TRUE(gates.Write(*leaver, *private_segno, 0, 6).ok());
  const KstEntry* shared_entry = fx.kernel.known_segments().Lookup(fx.pid, shared[0]);
  const KstEntry* private_entry = fx.kernel.known_segments().Lookup(*leaver_pid, *private_segno);
  ASSERT_NE(shared_entry, nullptr);
  ASSERT_NE(private_entry, nullptr);
  const uint32_t shared_ast = segs.FindIndex(shared_entry->home.uid);
  const uint32_t private_ast = segs.FindIndex(private_entry->home.uid);
  ASSERT_NE(shared_ast, kNoAst);
  ASSERT_NE(private_ast, kNoAst);
  const DescriptorSegment* leaving = spaces.Space(*leaver_pid);
  const uint16_t second = static_cast<uint16_t>(leaving->sdws.size() - 1);
  ASSERT_FALSE(leaving->sdws[second].present);
  ASSERT_TRUE(spaces.Connect(*leaver_pid, Segno(kSystemSegnoLimit + second), private_ast,
                             AccessModes::R(), 4)
                  .ok());
  ASSERT_EQ(segs.Get(shared_ast)->connections(), 2u);
  ASSERT_EQ(segs.Get(private_ast)->connections(), 2u);

  // Destroying the process destroys its space.
  ASSERT_TRUE(fx.kernel.processes().DestroyProcess(*leaver_pid).ok());
  EXPECT_EQ(spaces.Space(*leaver_pid), nullptr);
  const std::vector<const DescriptorSegment*>& shared_list =
      segs.Get(shared_ast)->page_table.connected;
  ASSERT_EQ(shared_list.size(), 1u);
  EXPECT_EQ(shared_list[0], spaces.Space(fx.pid));
  EXPECT_EQ(segs.Get(private_ast)->connections(), 0u);
  // Nothing names the private segment now, so it may be deactivated.
  EXPECT_TRUE(segs.Deactivate(private_ast).ok());
  auto value = gates.Read(*fx.ctx, shared[0], 0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 5u);
  const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(Gates, AccessModeMasksAreEnforcedByHardware) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // Read-only ACL for Smith.
  Acl acl;
  acl.Add(AclEntry{"Jones", "Projx", AccessModes::RWE()});
  acl.Add(AclEntry{"Smith", "Projx", AccessModes::R()});
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "ro", acl, Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto mine = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(gates.Write(*fx.ctx, *mine, 0, 5).ok());

  auto smith_pid = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ProcContext* smith = fx.kernel.processes().Context(*smith_pid);
  auto ro = gates.Initiate(*smith, *entry);
  ASSERT_TRUE(ro.ok());
  auto value = gates.Read(*smith, *ro, 0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 5u);
  EXPECT_EQ(gates.Write(*smith, *ro, 0, 9).code(), Code::kNoAccess);
}

TEST(Gates, TerminateInvalidatesTheSegno) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>gone");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  ASSERT_TRUE(fx.kernel.gates().Terminate(*fx.ctx, segno).ok());
  EXPECT_EQ(fx.kernel.gates().Read(*fx.ctx, segno, 0).code(), Code::kInvalidSegno);
  EXPECT_EQ(fx.kernel.gates().Terminate(*fx.ctx, segno).code(), Code::kInvalidSegno);
}

TEST(Gates, ReinitiationReturnsTheSameSegno) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "same", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto first = gates.Initiate(*fx.ctx, *entry);
  auto second = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->value, second->value);
}

TEST(Gates, OutOfBoundsBeyondMaxLength) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">a>bounded");
  EXPECT_EQ(fx.kernel.gates().Write(*fx.ctx, segno, kMaxSegmentPages * kPageWords, 1).code(),
            Code::kOutOfBounds);
  // The last addressable word is fine (and grows the final page).
  EXPECT_TRUE(
      fx.kernel.gates().Write(*fx.ctx, segno, kMaxSegmentPages * kPageWords - 1, 1).ok());
}

}  // namespace
}  // namespace mks
