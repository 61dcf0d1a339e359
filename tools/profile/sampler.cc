// A program-counter sampler for finding host hot paths by source line.
//
// Linked into a program, its static constructor arms a CPU-time timer that
// raises SIGPROF every 250 us of process CPU time (the kernel rounds that up
// to its tick).  Each signal records the interrupted program counter and up
// to kMaxReturns return addresses from the frame-pointer chain into a
// preallocated table; the handler neither allocates nor calls libc.  At exit
// the samples are written to `pcsamples.out` in the current directory, one
// sample per line as hex addresses, innermost first.  resolve.py beside this
// file turns them into self and inclusive shares by function and by line.
//
// Nothing in the repository builds this file.  To profile the benchmark,
// copy it into a scratch copy of perfbench/, add it to that copy's
// mks_perfbench target, and build with frame pointers and without PIE
// (DESIGN.md, "Host-performance engineering", has the recipe).  Linux on
// x86-64 only: it reads REG_RIP, REG_RSP and REG_RBP from the signal context.
#if !defined(__linux__) || !defined(__x86_64__)
#error "the sampler reads x86-64 Linux signal contexts"
#endif

#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kIntervalNs = 250'000;
constexpr int kMaxReturns = 15;
constexpr size_t kMaxSamples = size_t{1} << 16;  // over 4 min of CPU time at a 4 ms tick

struct Sample {
  uint64_t depth;  // addresses used, the program counter included
  uint64_t pc[1 + kMaxReturns];
};

// Zero-filled storage: pages no sample reached cost no host memory.
Sample samples[kMaxSamples];
volatile sig_atomic_t taken = 0;
uintptr_t stack_top = 0;  // the sampled (main) thread's highest stack address
timer_t timer;

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* context) {
  if (static_cast<size_t>(taken) >= kMaxSamples) {
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(context);
  Sample& s = samples[taken];
  s.pc[0] = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  s.depth = 1;
  const auto sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  // Follow a frame only while it lies on the interrupted stack, above the
  // stack pointer; each saved frame pointer must lie further up.
  while (s.depth < 1 + kMaxReturns && fp >= sp && fp % sizeof(uintptr_t) == 0 &&
         fp + 2 * sizeof(uintptr_t) <= stack_top) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    if (frame[1] == 0) {
      break;
    }
    s.pc[s.depth++] = frame[1];
    if (frame[0] <= fp) {
      break;
    }
    fp = frame[0];
  }
  taken = taken + 1;
}

void WriteSamples() {
  // Stop sampling before the table is read.
  timer_delete(timer);
  std::FILE* out = std::fopen("pcsamples.out", "w");
  if (out == nullptr) {
    std::perror("pcsamples.out");
    return;
  }
  for (size_t i = 0; i < static_cast<size_t>(taken); ++i) {
    for (uint64_t d = 0; d < samples[i].depth; ++d) {
      std::fprintf(out, d == 0 ? "%llx" : " %llx",
                   static_cast<unsigned long long>(samples[i].pc[d]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
  std::fprintf(stderr, "sampler: %zu samples written to pcsamples.out\n",
               static_cast<size_t>(taken));
}

struct Arm {
  Arm() {
    pthread_attr_t attr;
    void* base = nullptr;
    size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) != 0 ||
        pthread_attr_getstack(&attr, &base, &size) != 0) {
      std::perror("sampler: stack bounds");
      std::abort();
    }
    pthread_attr_destroy(&attr);
    stack_top = reinterpret_cast<uintptr_t>(base) + size;

    struct sigaction action {};
    action.sa_sigaction = OnProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigevent event{};
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    itimerspec every{};
    every.it_interval.tv_nsec = kIntervalNs;
    every.it_value.tv_nsec = kIntervalNs;
    if (sigaction(SIGPROF, &action, nullptr) != 0 ||
        timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &timer) != 0 ||
        timer_settime(timer, 0, &every, nullptr) != 0) {
      std::perror("sampler: arming the timer");
      std::abort();
    }
    std::atexit(WriteSamples);
  }
};

const Arm arm;

}  // namespace
