// Guards the page-fault path against heap allocation.
//
// A reference that faults enters the kernel afresh (CallTracker::SignalScope),
// services the missing page and retries.  Once the containers that path
// reuses have grown to their working size, a fault allocates nothing.  Each
// test sweeps 64 pages of one segment through 48 frames, so every sweep
// faults, and after two warm-up sweeps counts the global operator new calls
// made by a third.  Page images come from their own arena, so a page's first
// write allocates nothing either: one test's sweeps each write 64 pages never
// written before.
//
// The counting operator new replaces the global one for the whole program,
// which is why this is a binary of its own rather than part of mks_tests.
// AddressSanitizer owns operator new, so under it the replacement is left out
// and the tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "tests/kernel_fixture.h"

#if defined(__SANITIZE_ADDRESS__)
#define MKS_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MKS_COUNTING_NEW 0
#endif
#endif
#ifndef MKS_COUNTING_NEW
#define MKS_COUNTING_NEW 1
#endif

namespace {
uint64_t g_allocations = 0;
}  // namespace

#if MKS_COUNTING_NEW
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mks {
namespace {

constexpr uint32_t kPages = 64;
constexpr uint32_t kFrames = 48;
constexpr uint32_t kWarmUpSweeps = 2;

KernelConfig SweepConfig(bool pipeline) {
  KernelConfig config;
  config.memory_frames = kFrames;
  if (pipeline) {
    config.paging_pipeline = PagingPipeline::Full();
  }
  return config;
}

// Sweep `round` writes word `round` of every page and reads it back.
Word SweepValue(uint32_t round, uint32_t page) { return round * 1000 + page + 1; }

class FaultAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!MKS_COUNTING_NEW) {
      GTEST_SKIP() << "AddressSanitizer owns operator new";
    }
  }

  // The word sweep `round` writes in its `page`th page.  Sweeps share their
  // pages, unless fresh_pages_ gives each sweep 64 pages of its own.
  uint32_t SweepOffset(uint32_t round, uint32_t page) const {
    return fresh_pages_ ? (round * kPages + page) * kPageWords : page * kPageWords + round;
  }

  std::vector<UserOp> SweepProgram(Segno segno, uint32_t round) const {
    std::vector<UserOp> program;
    for (uint32_t page = 0; page < kPages; ++page) {
      program.push_back(UserOp::Write(segno, SweepOffset(round, page), SweepValue(round, page)));
      program.push_back(UserOp::Read(segno, SweepOffset(round, page)));
    }
    return program;
  }

  // Runs kWarmUpSweeps + 1 sweeps, each prepared by `prepare(round)` (which
  // may allocate) and run by `run(round)`, and returns the allocations made
  // by the last run.  Also checks that the last run faulted (or, with
  // fresh_pages_, added a page per write) and wrote dirty pages back, and
  // that every page reads back the last sweep's value.
  template <typename Prepare, typename Run>
  uint64_t AllocationsAfterWarmUp(KernelFixture& fx, Segno segno, Prepare prepare, Run run) {
    const Metrics& metrics = fx.kernel.metrics();
    uint64_t made = 0;
    uint64_t faults = 0;
    uint64_t added = 0;
    uint64_t writebacks = 0;
    const uint32_t last = kWarmUpSweeps;
    for (uint32_t round = 0; round <= last; ++round) {
      prepare(round);
      const uint64_t faults_before = metrics.Get("pfm.faults_serviced");
      const uint64_t added_before = metrics.Get("pfm.pages_added");
      const uint64_t writebacks_before = metrics.Get("pfm.writebacks");
      const uint64_t before = g_allocations;
      run(round);
      made = g_allocations - before;
      faults = metrics.Get("pfm.faults_serviced") - faults_before;
      added = metrics.Get("pfm.pages_added") - added_before;
      writebacks = metrics.Get("pfm.writebacks") - writebacks_before;
    }
    if (fresh_pages_) {
      EXPECT_EQ(added, kPages) << "the measured sweep did not add a page per write";
    } else {
      EXPECT_GT(faults, 0u) << "the measured sweep never faulted";
    }
    EXPECT_GT(writebacks, 0u) << "the measured sweep evicted no dirty page";
    for (uint32_t page = 0; page < kPages; ++page) {
      auto word = fx.kernel.gates().Read(*fx.ctx, segno, SweepOffset(last, page));
      EXPECT_TRUE(word.ok()) << word.status();
      EXPECT_EQ(word.value_or(0), SweepValue(last, page)) << "page " << page;
    }
    EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
    return made;
  }

  uint64_t GateSweep(bool pipeline) {
    KernelFixture fx{SweepConfig(pipeline)};
    EXPECT_TRUE(fx.boot_status.ok()) << fx.boot_status;
    const Segno segno = fx.MustCreate(">work>sweep");
    uint64_t failed_calls = 0;
    const uint64_t made = AllocationsAfterWarmUp(
        fx, segno, [](uint32_t) {},
        [&](uint32_t round) {
          for (uint32_t page = 0; page < kPages; ++page) {
            const uint32_t offset = SweepOffset(round, page);
            if (!fx.kernel.gates().Write(*fx.ctx, segno, offset, SweepValue(round, page)).ok() ||
                !fx.kernel.gates().Read(*fx.ctx, segno, offset).ok()) {
              ++failed_calls;
            }
          }
        });
    EXPECT_EQ(failed_calls, 0u);
    return made;
  }

  // Runs the sweep as the fixture process's program, stepping the scheduler
  // `passes_per_step` passes at a time until the program is done.
  uint64_t ProgramSweep(bool pipeline, uint64_t passes_per_step) {
    KernelFixture fx{SweepConfig(pipeline)};
    EXPECT_TRUE(fx.boot_status.ok()) << fx.boot_status;
    const Segno segno = fx.MustCreate(">work>sweep");
    UserProcessManager& procs = fx.kernel.processes();
    uint64_t steps = 0;
    const uint64_t made = AllocationsAfterWarmUp(
        fx, segno,
        [&](uint32_t round) { EXPECT_TRUE(procs.SetProgram(fx.pid, SweepProgram(segno, round)).ok()); },
        [&](uint32_t) {
          steps = 0;
          while (procs.state(fx.pid) != ProcState::kDone &&
                 procs.state(fx.pid) != ProcState::kAborted && steps < 100000) {
            (void)procs.RunUntilQuiescent(passes_per_step);
            ++steps;
          }
        });
    EXPECT_EQ(procs.state(fx.pid), ProcState::kDone) << procs.stats(fx.pid).last_error;
    if (passes_per_step == 1) {
      EXPECT_GT(steps, 1u) << "the stepped sweep ran in one pass";
    }
    return made;
  }

  bool fresh_pages_ = false;
};

TEST_F(FaultAllocations, GateSweepSynchronous) { EXPECT_EQ(GateSweep(false), 0u); }

TEST_F(FaultAllocations, GateSweepWithThePagingPipeline) { EXPECT_EQ(GateSweep(true), 0u); }

TEST_F(FaultAllocations, ProgramRunToQuiescence) {
  EXPECT_EQ(ProgramSweep(false, 100000), 0u);
  EXPECT_EQ(ProgramSweep(true, 100000), 0u);
}

TEST_F(FaultAllocations, ProgramSteppedOnePassAtATime) {
  EXPECT_EQ(ProgramSweep(false, 1), 0u);
  EXPECT_EQ(ProgramSweep(true, 1), 0u);
}

TEST_F(FaultAllocations, FirstWritesOfNeverWrittenPages) {
  fresh_pages_ = true;
  EXPECT_EQ(GateSweep(false), 0u);
  EXPECT_EQ(GateSweep(true), 0u);
}

}  // namespace
}  // namespace mks
