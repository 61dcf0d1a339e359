// Tests for the directory manager: Bratt's search primitive, ACL/label
// interaction, and entry lifecycle.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

TEST(DirectorySearch, AccessibleDirectoryNormalSemantics) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto seg = gates.CreateSegment(*fx.ctx, gates.RootId(), "real", WorldAcl(),
                                 Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto hit = gates.Search(*fx.ctx, gates.RootId(), "real");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->value, seg->value);
  EXPECT_EQ(gates.Search(*fx.ctx, gates.RootId(), "fake").code(), Code::kNoEntry);
}

// The Bratt gimmick, end to end: an inaccessible intermediate directory
// leaks nothing, yet a path through it to an accessible file still works.
TEST(DirectorySearch, InaccessibleDirectoryAlwaysAnswers) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  // Owner builds >secret (owner-only) containing an open file and nothing else.
  auto owner_proc = fx.kernel.processes().CreateProcess(TestSubject("Owner"));
  ASSERT_TRUE(owner_proc.ok());
  ProcContext* owner = fx.kernel.processes().Context(*owner_proc);
  auto secret_dir = gates.CreateDirectory(*owner, gates.RootId(), "secret",
                                          OwnerOnlyAcl("Owner"), Label::SystemLow());
  ASSERT_TRUE(secret_dir.ok());
  auto open_file =
      gates.CreateSegment(*owner, *secret_dir, "open_file", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(open_file.ok());

  // A stranger probes through the inaccessible directory.
  auto dir_id = gates.Search(*fx.ctx, gates.RootId(), "secret");
  ASSERT_TRUE(dir_id.ok());  // the directory's NAME is in the (readable) root

  // Probing an existing name and a nonexistent name both "succeed".
  auto exists = gates.Search(*fx.ctx, *dir_id, "open_file");
  auto ghost = gates.Search(*fx.ctx, *dir_id, "no_such_file");
  ASSERT_TRUE(exists.ok());
  ASSERT_TRUE(ghost.ok());

  // The real one can be initiated (access determined ENTIRELY by the file's
  // own ACL); the ghost yields the same "no access" any inaccessible object
  // yields.
  EXPECT_TRUE(gates.Initiate(*fx.ctx, *exists).ok());
  EXPECT_EQ(gates.Initiate(*fx.ctx, *ghost).code(), Code::kNoAccess);
}

TEST(DirectorySearch, MythicalChainsAreSelfConsistent) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto owner_proc = fx.kernel.processes().CreateProcess(TestSubject("Owner"));
  ASSERT_TRUE(owner_proc.ok());
  ProcContext* owner = fx.kernel.processes().Context(*owner_proc);
  auto secret_dir = gates.CreateDirectory(*owner, gates.RootId(), "vault",
                                          OwnerOnlyAcl("Owner"), Label::SystemLow());
  ASSERT_TRUE(secret_dir.ok());

  // Searching a mythical identifier as if it were a directory also succeeds,
  // deterministically (the same probe gives the same identifier).
  auto ghost_dir = gates.Search(*fx.ctx, *secret_dir, "maybe_dir");
  ASSERT_TRUE(ghost_dir.ok());
  auto deeper1 = gates.Search(*fx.ctx, *ghost_dir, "deeper");
  auto deeper2 = gates.Search(*fx.ctx, *ghost_dir, "deeper");
  ASSERT_TRUE(deeper1.ok());
  ASSERT_TRUE(deeper2.ok());
  EXPECT_EQ(deeper1->value, deeper2->value);
  EXPECT_EQ(gates.Initiate(*fx.ctx, *deeper1).code(), Code::kNoAccess);
}

TEST(DirectorySearch, ProbeCannotDistinguishExistenceThroughOpaqueDir) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto owner_proc = fx.kernel.processes().CreateProcess(TestSubject("Owner"));
  ASSERT_TRUE(owner_proc.ok());
  ProcContext* owner = fx.kernel.processes().Context(*owner_proc);
  auto secret_dir = gates.CreateDirectory(*owner, gates.RootId(), "opaque",
                                          OwnerOnlyAcl("Owner"), Label::SystemLow());
  ASSERT_TRUE(secret_dir.ok());
  auto private_file = gates.CreateSegment(*owner, *secret_dir, "private",
                                          OwnerOnlyAcl("Owner"), Label::SystemLow());
  ASSERT_TRUE(private_file.ok());

  // For the prober, an existing-but-private file and a nonexistent file give
  // IDENTICAL observable sequences: search ok, initiate no_access.
  auto probe_existing = gates.Search(*fx.ctx, *secret_dir, "private");
  auto probe_missing = gates.Search(*fx.ctx, *secret_dir, "missing");
  ASSERT_TRUE(probe_existing.ok());
  ASSERT_TRUE(probe_missing.ok());
  EXPECT_EQ(gates.Initiate(*fx.ctx, *probe_existing).code(), Code::kNoAccess);
  EXPECT_EQ(gates.Initiate(*fx.ctx, *probe_missing).code(), Code::kNoAccess);
}

TEST(Directory, NameDuplicationRejected) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ASSERT_TRUE(gates.CreateSegment(*fx.ctx, gates.RootId(), "dup", WorldAcl(),
                                  Label::SystemLow())
                  .ok());
  EXPECT_EQ(gates.CreateSegment(*fx.ctx, gates.RootId(), "dup", WorldAcl(), Label::SystemLow())
                .code(),
            Code::kNameDuplication);
}

TEST(Directory, DeleteRequiresEmptyDirectory) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "d", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.CreateSegment(*fx.ctx, *dir, "x", WorldAcl(), Label::SystemLow()).ok());
  EXPECT_EQ(gates.Delete(*fx.ctx, gates.RootId(), "d").code(), Code::kNonEmpty);
  ASSERT_TRUE(gates.Delete(*fx.ctx, *dir, "x").ok());
  EXPECT_TRUE(gates.Delete(*fx.ctx, gates.RootId(), "d").ok());
}

TEST(Directory, ListNamesRequiresStatusAccess) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto owner_proc = fx.kernel.processes().CreateProcess(TestSubject("Owner"));
  ASSERT_TRUE(owner_proc.ok());
  ProcContext* owner = fx.kernel.processes().Context(*owner_proc);
  auto dir = gates.CreateDirectory(*owner, gates.RootId(), "mine", OwnerOnlyAcl("Owner"),
                                   Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.CreateSegment(*owner, *dir, "a", WorldAcl(), Label::SystemLow()).ok());
  std::vector<std::string> names;
  EXPECT_TRUE(gates.ListNames(*owner, *dir, &names).ok());
  EXPECT_EQ(names.size(), 1u);
  EXPECT_EQ(gates.ListNames(*fx.ctx, *dir, &names).code(), Code::kNoAccess);
}

TEST(Directory, SetAclChangesEffectiveAccess) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto seg = gates.CreateSegment(*fx.ctx, gates.RootId(), "f", OwnerOnlyAcl("Jones"),
                                 Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto other_proc = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ASSERT_TRUE(other_proc.ok());
  ProcContext* other = fx.kernel.processes().Context(*other_proc);
  EXPECT_EQ(gates.Initiate(*other, *seg).code(), Code::kNoAccess);
  // Grant Smith access: one ACL change on the file, nothing else to touch —
  // "the transaction is complete".
  ASSERT_TRUE(gates.SetAcl(*fx.ctx, gates.RootId(), "f", WorldAcl()).ok());
  EXPECT_TRUE(gates.Initiate(*other, *seg).ok());
}

// A directory's ACL lives on its entry in the parent: setting it there
// governs the directory itself.
TEST(Directory, SetAclOnADirectoryEntryGovernsTheDirectory) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto owner_proc = fx.kernel.processes().CreateProcess(TestSubject("Owner"));
  ASSERT_TRUE(owner_proc.ok());
  ProcContext* owner = fx.kernel.processes().Context(*owner_proc);
  auto dir = gates.CreateDirectory(*owner, gates.RootId(), "shared", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.CreateSegment(*owner, *dir, "a", WorldAcl(), Label::SystemLow()).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(gates.ListNames(*fx.ctx, *dir, &names).ok());
  EXPECT_EQ(names.size(), 1u);

  ASSERT_TRUE(gates.SetAcl(*owner, gates.RootId(), "shared", OwnerOnlyAcl("Owner")).ok());
  EXPECT_EQ(gates.ListNames(*fx.ctx, *dir, &names).code(), Code::kNoAccess);
  names.clear();
  EXPECT_TRUE(gates.ListNames(*owner, *dir, &names).ok());
  EXPECT_EQ(names, std::vector<std::string>{"a"});
}

TEST(Directory, LabelsFlowDownward) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  // A secret-labelled subject cannot create under an unclassified directory
  // with an unclassified label (would write down), and entries must dominate
  // their directory.
  auto secret_proc = fx.kernel.processes().CreateProcess(TestSubject("Spy", 3));
  ASSERT_TRUE(secret_proc.ok());
  ProcContext* spy = fx.kernel.processes().Context(*secret_proc);
  // Writing an entry into the (low) root is a write-down for a secret
  // subject: forbidden regardless of the requested entry label.
  EXPECT_FALSE(
      gates.CreateSegment(*spy, gates.RootId(), "leak", WorldAcl(), Label::SystemLow()).ok());
  EXPECT_FALSE(
      gates.CreateSegment(*spy, gates.RootId(), "report", WorldAcl(), Label(3, 0)).ok());
  // A low subject builds an UPGRADED directory (label 3) in the low root;
  // the secret subject may then create inside it, at its own level.
  auto upgraded =
      gates.CreateDirectory(*fx.ctx, gates.RootId(), "secret_area", WorldAcl(), Label(3, 0));
  ASSERT_TRUE(upgraded.ok()) << upgraded.status();
  EXPECT_TRUE(gates.CreateSegment(*spy, *upgraded, "report", WorldAcl(), Label(3, 0)).ok());
  // And an entry may never be labelled below its directory.
  EXPECT_FALSE(gates.CreateSegment(*spy, *upgraded, "down", WorldAcl(), Label(1, 0)).ok());
}

}  // namespace
}  // namespace mks
