// Property-based integration tests: randomized workloads against the whole
// kernel, checked with the integrity auditor and data checksums.
//
// Invariants checked after every run, for every seed:
//  * the integrity audit is clean (frames <-> PTWs, SDWs <-> AST,
//    quota cells == records used);
//  * every word ever written reads back (paging is transparent);
//  * the runtime call structure stayed inside the declared lattice;
//  * disk record accounting balances.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/common/rng.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, AuditCleanAndDataIntact) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  KernelConfig config;
  config.memory_frames = 64 + rng.NextBelow(64);
  config.ast_slots = 10 + rng.NextBelow(10);
  config.records_per_pack = 2048;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());

  // A couple of processes, a few segments each, random read/write traffic.
  struct Doc {
    ProcContext* ctx;
    Segno segno;
    std::map<uint32_t, Word> shadow;  // offset -> expected value
  };
  std::vector<Doc> docs;
  PathWalker walker(&kernel.gates());
  const int process_count = 2 + static_cast<int>(rng.NextBelow(3));
  for (int pi = 0; pi < process_count; ++pi) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(pi)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    const int segments = 1 + static_cast<int>(rng.NextBelow(3));
    for (int si = 0; si < segments; ++si) {
      auto entry = walker.CreateSegment(
          *ctx, ">u" + std::to_string(pi) + ">f" + std::to_string(si), WorldAcl(),
          Label::SystemLow());
      ASSERT_TRUE(entry.ok()) << entry.status();
      auto segno = kernel.gates().Initiate(*ctx, *entry);
      ASSERT_TRUE(segno.ok());
      docs.push_back(Doc{ctx, *segno, {}});
    }
  }

  const int ops = 400;
  for (int op = 0; op < ops; ++op) {
    Doc& doc = docs[rng.NextBelow(docs.size())];
    const uint32_t page = static_cast<uint32_t>(rng.NextZipf(20, 1.1));
    const uint32_t offset = page * kPageWords + static_cast<uint32_t>(rng.NextBelow(8));
    if (rng.NextBool(0.55)) {
      const Word value = rng.Next();
      Status st = kernel.gates().Write(*doc.ctx, doc.segno, offset, value);
      ASSERT_TRUE(st.ok()) << st;
      if (value == 0) {
        doc.shadow.erase(offset);
      } else {
        doc.shadow[offset] = value;
      }
    } else if (!doc.shadow.empty()) {
      auto it = doc.shadow.begin();
      std::advance(it, rng.NextBelow(doc.shadow.size()));
      auto value = kernel.gates().Read(*doc.ctx, doc.segno, it->first);
      ASSERT_TRUE(value.ok()) << value.status();
      EXPECT_EQ(*value, it->second) << "seed " << seed << " offset " << it->first;
    }
  }

  // Full verification sweep.
  for (Doc& doc : docs) {
    for (const auto& [offset, expected] : doc.shadow) {
      auto value = kernel.gates().Read(*doc.ctx, doc.segno, offset);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, expected) << "seed " << seed << " offset " << offset;
    }
  }

  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << [&] {
    std::string all = "seed " + std::to_string(seed) + ":\n";
    for (const auto& f : findings) {
      all += "  " + f + "\n";
    }
    return all;
  }();

  const auto undeclared = kernel.tracker().UndeclaredEdges(Kernel::DeclaredLattice());
  EXPECT_TRUE(undeclared.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

// The asynchronous random workload: async paging, a small AST and memory,
// and two packs tight enough that growth moves segments between them.
// Processes share a few segments and make random reads and writes against a
// shadow copy, terminate and re-initiate segments and log out and back in,
// while posted reads land only at random points.  So reads in flight meet AST
// replacement, deactivation, logout and full-pack moves.  A blocked
// reference is dropped, as if its process had not yet retried it; so is one
// refused cleanly for want of room: a full pack (a read of a reclaimed zero
// page allocates a record too) or an AST full of connected segments.
struct AsyncRun {
  std::vector<std::string> problems;  // unexpected statuses and wrong words
  std::vector<std::string> audit;
  Status shutdown;
  std::map<std::string, uint64_t, std::less<>> counters;
  Cycles clock = 0;
};

bool RefusedCleanly(Code code) {
  return code == Code::kBlocked || code == Code::kPackFull || code == Code::kResourceExhausted;
}

AsyncRun RunAsyncWorkload(uint64_t seed) {
  constexpr uint32_t kSegments = 8;
  constexpr uint32_t kUsers = 3;
  constexpr uint64_t kPages = 8;
  AsyncRun run;
  Rng rng(seed);
  KernelConfig config;
  config.async_paging = true;
  config.memory_frames = 44 + rng.NextBelow(16);
  config.ast_slots = 6 + rng.NextBelow(3);
  config.records_per_pack = 40;
  config.vtoc_slots_per_pack = 32;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    run.problems.push_back("boot failed");
    return run;
  }
  KernelGates& gates = kernel.gates();
  PageFrameManager& pfm = kernel.page_frames();

  struct User {
    ProcessId pid{};
    ProcContext* ctx = nullptr;
    std::vector<std::optional<Segno>> segnos;
  };
  uint32_t logins = 0;
  auto login = [&](User& user) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(logins++)));
    if (!pid.ok()) {
      run.problems.push_back("login: " + pid.status().ToString());
      return false;
    }
    user = User{*pid, kernel.processes().Context(*pid), {}};
    user.segnos.assign(kSegments, std::nullopt);
    return true;
  };
  std::vector<User> users(kUsers);
  for (User& user : users) {
    if (!login(user)) {
      return run;
    }
  }
  std::vector<EntryId> segments;
  for (uint32_t j = 0; j < kSegments; ++j) {
    auto entry = gates.CreateSegment(*users[0].ctx, gates.RootId(), "s" + std::to_string(j),
                                     WorldAcl(), Label::SystemLow());
    if (!entry.ok()) {
      run.problems.push_back("create: " + entry.status().ToString());
      return run;
    }
    segments.push_back(*entry);
  }
  std::vector<std::map<uint32_t, Word>> shadow(kSegments);  // offset -> word
  auto segno_of = [&](User& user, uint32_t j) -> std::optional<Segno> {
    if (!user.segnos[j]) {
      auto segno = gates.Initiate(*user.ctx, segments[j]);
      if (!segno.ok()) {
        run.problems.push_back("initiate: " + segno.status().ToString());
        return std::nullopt;
      }
      user.segnos[j] = *segno;
    }
    return user.segnos[j];
  };

  for (int op = 0; op < 800 && run.problems.empty(); ++op) {
    User& user = users[rng.NextBelow(kUsers)];
    const uint32_t j = static_cast<uint32_t>(rng.NextBelow(kSegments));
    const uint64_t dice = rng.NextBelow(100);
    const std::string where = "op " + std::to_string(op) + " segment " + std::to_string(j);
    if (dice < 45) {
      const std::optional<Segno> segno = segno_of(user, j);
      const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(kPages) * kPageWords +
                                                    rng.NextBelow(4));
      const Word value = rng.NextBool(0.1) ? 0 : 1 + rng.NextBelow(1 << 20);
      if (!segno) {
        break;
      }
      const Status st = gates.Write(*user.ctx, *segno, offset, value);
      if (st.ok()) {
        shadow[j][offset] = value;
      } else if (!RefusedCleanly(st.code())) {
        run.problems.push_back(where + " write: " + st.ToString());
      }
    } else if (dice < 80) {
      if (shadow[j].empty()) {
        continue;
      }
      const std::optional<Segno> segno = segno_of(user, j);
      if (!segno) {
        break;
      }
      auto it = shadow[j].begin();
      std::advance(it, rng.NextBelow(shadow[j].size()));
      const Result<Word> value = gates.Read(*user.ctx, *segno, it->first);
      if (value.ok() && *value != it->second) {
        run.problems.push_back(where + " offset " + std::to_string(it->first) + " read " +
                               std::to_string(*value) + ", wrote " + std::to_string(it->second));
      } else if (!value.ok() && !RefusedCleanly(value.status().code())) {
        run.problems.push_back(where + " read: " + value.status().ToString());
      }
    } else if (dice < 88) {
      if (user.segnos[j]) {
        const Status st = gates.Terminate(*user.ctx, *user.segnos[j]);
        if (!st.ok()) {
          run.problems.push_back(where + " terminate: " + st.ToString());
        }
        user.segnos[j] = std::nullopt;
      }
    } else if (dice < 92) {
      // Log out, with whatever reads the process has in flight, and back in.
      const Status st = kernel.processes().DestroyProcess(user.pid);
      if (!st.ok()) {
        run.problems.push_back("logout: " + st.ToString());
      } else {
        login(user);
      }
    } else {
      // The device: some time passes and whatever is due lands.
      kernel.clock().Advance(rng.NextBelow(Costs::kDiskReadLatency));
      pfm.LandReads(kernel.clock().now());
      pfm.PageIoDaemonStep();
    }
  }

  // Every shadow word reads back, through one user, one segment at a time.
  LandPostedReads(kernel);
  for (User& user : users) {
    for (uint32_t j = 0; j < kSegments; ++j) {
      if (user.segnos[j] && !gates.Terminate(*user.ctx, *user.segnos[j]).ok()) {
        run.problems.push_back("final terminate");
      }
      user.segnos[j] = std::nullopt;
    }
  }
  for (uint32_t j = 0; j < kSegments && run.problems.empty(); ++j) {
    const std::optional<Segno> segno = segno_of(users[0], j);
    if (!segno) {
      break;
    }
    for (const auto& [offset, expected] : shadow[j]) {
      const Result<Word> value = ReadLanding(kernel, *users[0].ctx, *segno, offset);
      if (!value.ok() && value.status().code() == Code::kPackFull && expected == 0) {
        continue;  // a reclaimed zero page, and no record left to give it
      }
      if (!value.ok() || *value != expected) {
        run.problems.push_back("final segment " + std::to_string(j) + " offset " +
                               std::to_string(offset) + ": " +
                               (value.ok() ? std::to_string(*value) : value.status().ToString()) +
                               ", wrote " + std::to_string(expected));
      }
    }
    if (!gates.Terminate(*users[0].ctx, *segno).ok()) {
      run.problems.push_back("final terminate");
    }
    users[0].segnos[j] = std::nullopt;
  }
  run.audit = kernel.AuditIntegrity();
  run.counters = kernel.metrics().counters();
  run.clock = kernel.clock().now();
  run.shutdown = kernel.Shutdown();
  return run;
}

class AsyncWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AsyncWorkloadTest, ReadsInFlightMeetDeactivationAndMovesCleanly) {
  const uint64_t seed = GetParam();
  const AsyncRun first = RunAsyncWorkload(seed);
  auto lines = [&](const std::vector<std::string>& all) {
    std::string out = "seed " + std::to_string(seed) + ":\n";
    for (const std::string& line : all) {
      out += "  " + line + "\n";
    }
    return out;
  };
  EXPECT_TRUE(first.problems.empty()) << lines(first.problems);
  EXPECT_TRUE(first.audit.empty()) << lines(first.audit);
  EXPECT_TRUE(first.shutdown.ok()) << first.shutdown;
  // The workload reaches what it exists to reach.
  auto count = [&](const char* name) {
    auto it = first.counters.find(name);
    return it == first.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(count("pfm.async_reads"), 0u);
  EXPECT_GT(count("seg.ast_replacements"), 0u);
  EXPECT_GT(count("ksm.full_pack_moves"), 0u);
  const AsyncRun second = RunAsyncWorkload(seed);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.clock, second.clock);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncWorkloadTest, ::testing::Values(1, 2, 3, 4, 5, 6));

class RandomChurnTest : public ::testing::TestWithParam<uint64_t> {};

// Create/delete churn with quota directories: the books must balance at
// every quiescent point.
TEST_P(RandomChurnTest, QuotaBooksBalanceUnderChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto qdir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(),
                                    Label::SystemLow());
  ASSERT_TRUE(qdir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *qdir, 200).ok());

  std::vector<std::string> live;
  for (int round = 0; round < 60; ++round) {
    if (live.empty() || rng.NextBool(0.6)) {
      const std::string name = "f" + std::to_string(round);
      auto seg = gates.CreateSegment(*fx.ctx, *qdir, name, WorldAcl(), Label::SystemLow());
      ASSERT_TRUE(seg.ok()) << seg.status();
      auto segno = gates.Initiate(*fx.ctx, *seg);
      ASSERT_TRUE(segno.ok());
      const uint32_t pages = 1 + static_cast<uint32_t>(rng.NextBelow(4));
      for (uint32_t p = 0; p < pages; ++p) {
        Status st = gates.Write(*fx.ctx, *segno, p * kPageWords, p + 1);
        if (st.code() == Code::kQuotaOverflow) {
          break;  // fine: the limit is doing its job
        }
        ASSERT_TRUE(st.ok()) << st;
      }
      ASSERT_TRUE(gates.Terminate(*fx.ctx, *segno).ok());
      live.push_back(name);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(gates.Delete(*fx.ctx, *qdir, live[pick]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    const auto findings = fx.kernel.AuditIntegrity();
    ASSERT_TRUE(findings.empty()) << "round " << round << ", seed " << seed << ": "
                                  << findings.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurnTest, ::testing::Values(11, 22, 33, 44, 55, 66));

// Auditor sensitivity: a planted inconsistency must be reported.
TEST(Auditor, DetectsPlantedQuotaCorruption) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">d>x");
  ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, 0, 1).ok());
  ASSERT_TRUE(fx.kernel.AuditIntegrity().empty());
  // Corrupt the books: charge 3 phantom pages to the root cell.
  auto root_status = fx.kernel.gates().GetQuota(*fx.ctx, fx.kernel.gates().RootId());
  ASSERT_TRUE(root_status.ok());
  auto& dirs = fx.kernel.directories();
  (void)dirs;
  // Reach the root cell through the quota manager by home coordinates.
  auto cell = fx.kernel.quota_cells().LoadCell(PackId(0), VtocIndex(0));
  if (cell.ok()) {
    ASSERT_TRUE(fx.kernel.quota_cells().Charge(*cell, 3).ok());
    const auto findings = fx.kernel.AuditIntegrity();
    EXPECT_FALSE(findings.empty());
  }
}

}  // namespace
}  // namespace mks
