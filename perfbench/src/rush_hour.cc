// rush_hour — the whole-system dial-up rush hour, an open loop in virtual
// time.
//
// Sessions arrive at a fixed virtual rate.  Each session types a login line,
// a few command lines and a logout line on its terminal; every line is due at
// a fixed offset from the session's arrival, whether or not the system kept
// up.  A line travels the front-end channel through GenericDemux::Pump and
// TerminalProtocolUser::PumpLine/ReadLine, then:
//
//   login  -> AnsweringService::Login
//   run    -> PathWalker::Initiate of a home-directory segment, then a short
//             read/write/compute program via SetProgram, stepped with
//             RunUntilQuiescent(1) until state(pid) reports completion
//   mkseg  -> PathWalker::CreateSegment of a scratch segment (naming write)
//   dlseg  -> KernelGates::Delete of that scratch segment (naming write)
//   logout -> AnsweringService::Logout
//
// A line is served on the least-behind CPU once it is due and its session's
// previous line has completed; its latency runs from the due time, so a
// stall is charged to every line queued behind it.  A command's program is
// queued by the CPU that took its line and runs wherever the scheduler puts
// it; the CPU that takes it waits on the run-queue lock until the enqueue's
// release point, so the program never starts before it was submitted.  The
// command completes when that CPU finishes the program.
#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/net/demux.h"

namespace perfbench {
namespace {

using namespace mks;

constexpr int kUsers = 256;
constexpr int kProjects = 16;
constexpr int kSegsPerUser = 2;
constexpr uint32_t kSegPages = 2;
constexpr int kSessions = 4096;
constexpr int kCommands = 6;             // command lines per session
constexpr double kScratchShare = 0.3;    // sessions that make and drop a scratch segment
constexpr int kWritesPerRun = 5;         // each followed by a read: 10 ops + 2 computes
constexpr uint16_t kTerminals = 256;
constexpr size_t kFrameChars = 16;
constexpr uint64_t kMaxPasses = 1000;
constexpr double kRateBatchSessions = 128;  // sessions' worth of lines per host-rate sample
// Offered load, fixed in virtual time: the pinned configuration falls behind
// at one session per 17000-19500 cycles, so one per 28000 is about 70%.
constexpr Cycles kArrivalPeriod = 28000;  // between session arrivals
constexpr Cycles kThinkCycles = 60000;    // between a session's lines

std::string Person(int u) { return "User" + std::to_string(u); }
std::string Project(int u) { return "Proj" + std::to_string(u % kProjects); }
std::string Password(int u) { return "pw" + std::to_string(u); }
std::string HomePath(int u) { return ">udd>" + Project(u) + ">" + Person(u); }
std::string SegName(int j) { return "seg" + std::to_string(j); }

Acl OwnerAcl(int u) {
  Acl acl;
  acl.Add(AclEntry{Person(u), Project(u), AccessModes::RW()});
  return acl;
}

enum class CmdKind : uint8_t { kRun, kMakeScratch, kDropScratch };

struct Command {
  CmdKind kind = CmdKind::kRun;
  int seg = 0;
  std::vector<std::pair<uint32_t, Word>> writes;  // offset, value
  std::vector<Cycles> computes;
};

struct Session {
  int user = 0;
  ProcessId pid{};
  bool live = false;  // logged in and not yet failed
  std::vector<Command> commands;
};

struct Event {
  Cycles key = 0;  // when the line can be served: due, or later if its session lags
  uint64_t seq = 0;
  int session = 0;
  int step = 0;    // 0 login, 1..kCommands commands, kCommands + 1 logout
  bool operator>(const Event& o) const { return key != o.key ? key > o.key : seq > o.seq; }
};

std::string LineText(const Session& s, int session_id, int step) {
  if (step == 0) {
    return "login " + Person(s.user) + " " + Project(s.user) + " " + Password(s.user);
  }
  if (step == kCommands + 1) {
    return "logout";
  }
  const Command& c = s.commands[static_cast<size_t>(step - 1)];
  switch (c.kind) {
    case CmdKind::kRun:
      return "run " + SegName(c.seg);
    case CmdKind::kMakeScratch:
      return "mkseg tmp" + std::to_string(session_id);
    case CmdKind::kDropScratch:
      return "dlseg tmp" + std::to_string(session_id);
  }
  return "";
}

}  // namespace

Episode RunRushHour(uint64_t seed, bool tracing, const std::string& spans_path) {
  Episode ep;
  const auto setup_start = std::chrono::steady_clock::now();
  Kernel kernel{PinnedKernelConfig(tracing)};
  if (!kernel.Boot().ok()) {
    ep.Fail("boot");
    return ep;
  }
  KernelContext& kctx = kernel.ctx();
  Probe probe(tracing, &kernel.clock());
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    ep.Fail("authenticator init");
    return ep;
  }
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain, PinnedAnsweringConfig());
  PathWalker walker(&kernel.gates());
  MultiplexedChannel front_end(ChannelId(0), "front_end");
  GenericDemux demux(&kctx.cost, &kernel.metrics());
  demux.AttachChannel(&front_end);
  TerminalProtocolUser terminals(&kctx.cost, &kernel.metrics(), &demux, ChannelId(0));

  // Generated inputs: who dials in when, and what each session types.
  Rng rng(seed);
  std::vector<Session> sessions(kSessions);
  {
    std::vector<int> order(kUsers);
    for (int s = 0; s < kSessions; ++s) {
      if (s % kUsers == 0) {
        for (int u = 0; u < kUsers; ++u) {
          order[static_cast<size_t>(u)] = u;
        }
        for (int u = kUsers - 1; u > 0; --u) {
          std::swap(order[static_cast<size_t>(u)],
                    order[rng.NextBelow(static_cast<uint64_t>(u) + 1)]);
        }
      }
      Session& session = sessions[static_cast<size_t>(s)];
      session.user = order[static_cast<size_t>(s % kUsers)];
      const bool scratch = rng.NextBool(kScratchShare);
      for (int c = 0; c < kCommands; ++c) {
        Command cmd;
        if (scratch && c == 1) {
          cmd.kind = CmdKind::kMakeScratch;
        } else if (scratch && c == kCommands - 2) {
          cmd.kind = CmdKind::kDropScratch;
        } else {
          cmd.seg = static_cast<int>(rng.NextBelow(kSegsPerUser));
          for (int w = 0; w < kWritesPerRun; ++w) {
            cmd.writes.emplace_back(static_cast<uint32_t>(rng.NextBelow(kSegPages * kPageWords)),
                                    rng.Next() | 1);
          }
          cmd.computes = {rng.NextInRange(100, 400), rng.NextInRange(100, 400)};
        }
        session.commands.push_back(std::move(cmd));
      }
    }
  }

  // The last value written to every word, by (user, segment): read back at
  // the end of the episode.
  std::map<std::pair<int, int>, std::map<uint32_t, Word>> expected;

  // Set-up: enroll everyone, then one warm-up session per user that builds
  // the home directory and its data segments.  Logging every user in before
  // logging any out leaves one parked process slot per user, so the
  // measured region sees steady-state logins, not first-boot creation.
  for (int u = 0; u < kUsers; ++u) {
    if (!auth.Enroll(Principal{Person(u), Project(u)}, Password(u), Label(2, 0)).ok()) {
      ep.Fail("enroll");
      return ep;
    }
  }
  std::vector<ProcessId> warm(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    auto pid = service.Login(Principal{Person(u), Project(u)}, Password(u), Label::SystemLow());
    if (!pid.ok()) {
      ep.Fail("warm-up login: " + pid.status().ToString());
      return ep;
    }
    warm[static_cast<size_t>(u)] = *pid;
    ProcContext& ctx = *kernel.processes().Context(*pid);
    for (int j = 0; j < kSegsPerUser; ++j) {
      const std::string path = HomePath(u) + ">" + SegName(j);
      if (!walker.CreateSegment(ctx, path, OwnerAcl(u), Label::SystemLow()).ok()) {
        ep.Fail("warm-up segment " + path);
        return ep;
      }
      auto segno = walker.Initiate(ctx, path);
      if (!segno.ok()) {
        ep.Fail("warm-up initiate " + path);
        return ep;
      }
      for (uint32_t p = 0; p < kSegPages; ++p) {
        const Word value = (static_cast<Word>(u) << 16) | (static_cast<Word>(j) << 8) | p;
        if (const Status st = kernel.gates().Write(ctx, *segno, p * kPageWords, value); !st.ok()) {
          ep.Fail("warm-up write " + path + ": " + st.ToString());
          return ep;
        }
        expected[{u, j}][p * kPageWords] = value;
      }
      // Unbinding keeps the AST free for the sessions still to log in.
      if (!kernel.gates().Terminate(ctx, *segno).ok()) {
        ep.Fail("warm-up terminate " + path);
        return ep;
      }
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    if (!service.Logout(warm[static_cast<size_t>(u)]).ok()) {
      ep.Fail("warm-up logout");
      return ep;
    }
  }
  AlignToGlobal(kernel);
  ep.setup_s = HostSeconds(setup_start);

  // --- the measured region ---
  const CounterSnapshot counters(kernel);
  const Cycles m0 = kctx.smp.Makespan();
  const Cycles g0 = kernel.clock().now();
  const PathWalker::GateMix mix0 = walker.gate_mix();
  const auto measured_start = std::chrono::steady_clock::now();
  HostRate rate(&kernel.clock(), kRateBatchSessions);
  rate.Begin();
  auto due = [&](int s, int step) {
    return m0 + static_cast<Cycles>(s) * kArrivalPeriod + static_cast<Cycles>(step) * kThinkCycles;
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  uint64_t seq = 0;
  for (int s = 0; s < kSessions; ++s) {
    events.push(Event{due(s, 0), seq++, s, 0});
  }
  std::vector<uint32_t> frame_seq(kTerminals, 0);
  double admit_wait = 0;
  uint64_t sessions_done = 0;

  // Types `text` on the session's terminal and reads it back through the
  // demux and the terminal protocol module.
  auto deliver = [&](int s, const std::string& text) {
    const SubchannelId line(static_cast<uint16_t>(s % kTerminals));
    const std::string typed = text + "\n";
    for (size_t at = 0; at < typed.size(); at += kFrameChars) {
      Frame frame;
      frame.subchannel = line;
      frame.type = frame_type::kData;
      frame.seq = frame_seq[line.value]++;
      for (size_t i = at; i < std::min(typed.size(), at + kFrameChars); ++i) {
        frame.payload.push_back(static_cast<Word>(typed[i]));
      }
      front_end.Inject(std::move(frame));
    }
    probe.Call(Layer::kNet, "pump", [&] { return demux.Pump(); });
    probe.Call(Layer::kNet, "pump_line", [&] { return terminals.PumpLine(line); });
    const std::optional<std::string> got =
        probe.Call(Layer::kNet, "read_line", [&] { return terminals.ReadLine(line); });
    if (!got.has_value() || *got != text) {
      ep.Fail("terminal line \"" + text + "\"");
    }
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    Session& session = sessions[static_cast<size_t>(ev.session)];
    const Cycles line_due = due(ev.session, ev.step);
    IdleUntil(kernel, ev.key);
    const uint16_t cpu = kctx.smp.NextCpu();
    const Cycles start = kctx.smp.local_now(cpu);
    const std::string text = LineText(session, ev.session, ev.step);
    const Principal who{Person(session.user), Project(session.user)};
    ++ep.attempted;
    Cycles completed = 0;  // when this line's work finished
    if (ev.step == 0) {
      probe.BeginOp("login", static_cast<uint64_t>(ev.session));
      admit_wait += static_cast<double>(start - line_due);
      RunWindow(kernel, cpu, ProfDomain::kSessionSetup, [&] {
        deliver(ev.session, text);
        auto pid = probe.Call(Layer::kAnswering, "login", [&] {
          return service.Login(who, Password(session.user), Label::SystemLow());
        });
        if (pid.ok()) {
          session.pid = *pid;
          session.live = true;
        } else {
          ep.Fail("login " + who.ToString() + ": " + pid.status().ToString());
        }
      });
      completed = kctx.smp.local_now(cpu);
      if (session.live) {
        ep.op2_lat.push_back(completed - line_due);
      }
    } else if (ev.step == kCommands + 1) {
      probe.BeginOp("logout", static_cast<uint64_t>(ev.session));
      RunWindow(kernel, cpu, ProfDomain::kSessionSetup, [&] {
        deliver(ev.session, text);
        const Status st =
            probe.Call(Layer::kAnswering, "logout", [&] { return service.Logout(session.pid); });
        if (st.ok()) {
          ++sessions_done;
        } else {
          ep.Fail("logout " + who.ToString() + ": " + st.ToString());
        }
      });
      completed = kctx.smp.local_now(cpu);
      session.live = false;
    } else {
      probe.BeginOp("command", static_cast<uint64_t>(ev.session));
      const Command& cmd = session.commands[static_cast<size_t>(ev.step - 1)];
      ProcContext& ctx = *kernel.processes().Context(session.pid);
      const std::string scratch = HomePath(session.user) + ">tmp" + std::to_string(ev.session);
      std::optional<Segno> segno;
      RunWindow(kernel, cpu, ProfDomain::kGate, [&] {
        deliver(ev.session, text);
        switch (cmd.kind) {
          case CmdKind::kRun: {
            const std::string path = HomePath(session.user) + ">" + SegName(cmd.seg);
            auto got = probe.Call(Layer::kFs, "initiate", [&] { return walker.Initiate(ctx, path); });
            if (got.ok()) {
              segno = *got;
            } else {
              ep.Fail("initiate " + path + ": " + got.status().ToString());
            }
            break;
          }
          case CmdKind::kMakeScratch: {
            auto made = probe.Call(Layer::kFs, "create_segment", [&] {
              return walker.CreateSegment(ctx, scratch, OwnerAcl(session.user),
                                          Label::SystemLow());
            });
            if (!made.ok()) {
              ep.Fail("mkseg " + scratch + ": " + made.status().ToString());
            }
            break;
          }
          case CmdKind::kDropScratch: {
            auto home = probe.Call(Layer::kFs, "walk",
                                   [&] { return walker.Walk(ctx, HomePath(session.user)); });
            const Status st =
                home.ok() ? probe.Call(Layer::kGates, "delete",
                                       [&] {
                                         return kernel.gates().Delete(
                                             ctx, *home, "tmp" + std::to_string(ev.session));
                                       })
                          : home.status();
            if (!st.ok()) {
              ep.Fail("dlseg " + scratch + ": " + st.ToString());
            }
            break;
          }
        }
      });
      completed = kctx.smp.local_now(cpu);
      if (segno.has_value()) {
        std::vector<UserOp> program;
        auto& words = expected[{session.user, cmd.seg}];
        for (const auto& [offset, value] : cmd.writes) {
          program.push_back(UserOp::Write(*segno, offset, value));
          program.push_back(UserOp::Read(*segno, offset));
          words[offset] = value;
        }
        for (Cycles c : cmd.computes) {
          program.push_back(UserOp::Compute(c));
        }
        RunWindow(kernel, cpu, ProfDomain::kDispatch, [&] {
          probe.Call(Layer::kUproc, "set_program", [&] {
            return kernel.processes().SetProgram(session.pid, std::move(program));
          });
        });
        std::vector<Cycles> before(kCpus);
        for (uint16_t k = 0; k < kCpus; ++k) {
          before[k] = kctx.smp.local_now(k);
        }
        uint64_t passes = 0;
        ProcState state = kernel.processes().state(session.pid);
        while (state != ProcState::kDone && state != ProcState::kAborted && passes < kMaxPasses) {
          // Other sessions idle between lines, so the pass budget ends each
          // step early; completion is read from state(pid).
          probe.Call(Layer::kUproc, "run_until_quiescent",
                     [&] { return kernel.processes().RunUntilQuiescent(1); });
          ++passes;
          state = kernel.processes().state(session.pid);
        }
        if (state != ProcState::kDone) {
          ep.Fail("program of session " + std::to_string(ev.session) + ": " +
                  kernel.processes().stats(session.pid).last_error.ToString());
        }
        // The program ran on the CPUs whose clocks moved; CPU 0 also moves
        // for the scheduler's level-1 work, so it counts only when alone.
        Cycles finished = 0;
        for (uint16_t k = 1; k < kCpus; ++k) {
          if (kctx.smp.local_now(k) != before[k]) {
            finished = std::max(finished, kctx.smp.local_now(k));
          }
        }
        completed = std::max(completed, finished == 0 ? kctx.smp.local_now(0) : finished);
      }
      ep.op_lat.push_back(completed - line_due);
    }
    probe.EndOp();
    if (ev.step == 0 && !session.live) {
      continue;  // a failed login ends the session
    }
    if (ev.step <= kCommands) {
      const Cycles next_due = due(ev.session, ev.step + 1);
      events.push(Event{std::max(next_due, completed), seq++, ev.session, ev.step + 1});
    }
    rate.Add(1.0 / (kCommands + 2));  // one line of a session's kCommands + 2
  }
  ep.measured_s = HostSeconds(measured_start);
  ep.host = rate.samples();
  ep.units = sessions_done;
  ep.makespan = kctx.smp.Makespan() - m0;
  ep.sim_cycles = kernel.clock().now() - g0;
  const std::map<std::string, double> delta = counters.Delta(kernel);
  ep.layer["net.admit_wait_cycles"] = admit_wait;
  ep.layer["fs.gate_read_calls"] =
      static_cast<double>(walker.gate_mix().read_calls - mix0.read_calls);
  ep.layer["fs.gate_write_calls"] =
      static_cast<double>(walker.gate_mix().write_calls - mix0.write_calls);

  // --- checks ---
  ep.Check(delta.at("answering.logins") == delta.at("answering.logouts"), "logins == logouts");
  ep.Check(service.active_sessions() == 0, "no active sessions");
  ep.Check(demux.dropped() == 0, "no demux drops");
  for (int u = 0; u < kUsers; ++u) {
    auto pid = kernel.processes().CreateProcess(
        Subject{Principal{Person(u), Project(u)}, Label::SystemLow(), 4});
    if (!pid.ok()) {
      ep.Fail("checker process");
      continue;
    }
    ProcContext& ctx = *kernel.processes().Context(*pid);
    for (int j = 0; j < kSegsPerUser; ++j) {
      auto segno = walker.Initiate(ctx, HomePath(u) + ">" + SegName(j));
      if (!segno.ok()) {
        ep.Fail("read-back initiate");
        continue;
      }
      for (const auto& [offset, value] : expected[{u, j}]) {
        auto got = kernel.gates().Read(ctx, *segno, offset);
        if (!got.ok() || *got != value) {
          ep.Fail("read-back " + HomePath(u) + ">" + SegName(j) + " word " +
                  std::to_string(offset));
        }
      }
    }
    ep.Check(kernel.processes().DestroyProcess(*pid).ok(), "checker teardown");
  }
  ep.Check(kernel.AuditIntegrity().empty(), "AuditIntegrity() is empty");
  ep.Check(kernel.Shutdown().ok(), "Shutdown() is OK");

  FillLayerMetrics(ep, probe, delta);
  if (tracing && !spans_path.empty() && !probe.WriteSpans(spans_path)) {
    ep.Fail("cannot write " + spans_path);
  }
  return ep;
}

}  // namespace perfbench
