// Regression tests for the zero-allocation event core and the parallel
// deterministic sweep runner: heap ordering determinism against a
// stable-sort reference, move-only inline callbacks, completion-driven
// coroutine reaping, the watchdog-fires-before-pop contract, parked
// pollers against the delay loops they replace, and byte-identical
// serial-vs-parallel sweep output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/parallel.hpp"
#include "bench_util/sweeps.hpp"
#include "common/rng.hpp"
#include "hw/machines.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "workloads/workloads.hpp"

namespace dkf::sim {
namespace {

// ---- Determinism: the 4-ary heap + slot pool must execute events in ----
// ---- exactly (time, then insertion sequence) order -------------------

TEST(EngineDeterminism, MatchesStableSortReference) {
  // Randomized schedules with heavy time collisions (times drawn from a
  // small range) exercise every sift path; the reference order is a stable
  // sort by time, which preserves insertion order on ties. The 40,000-event
  // input keeps the whole schedule pending at once, above the 38,500-event
  // peak of the flat 256-rank alltoallv in `scaling_nodes --smoke`.
  struct Input {
    std::uint64_t seed;
    std::size_t events;
    std::uint64_t distinct_times;
  };
  for (const Input& in : {Input{1, 500, 16}, Input{2, 500, 16},
                          Input{3, 500, 16}, Input{0xDEAD, 500, 16},
                          Input{0xB16, 40'000, 1024}}) {
    Engine eng;
    Rng rng(in.seed);
    std::vector<std::pair<TimeNs, std::size_t>> ref;  // (time, id)
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < in.events; ++i) {
      const TimeNs t = rng.below(in.distinct_times);  // many ties
      ref.emplace_back(t, i);
      eng.scheduleAt(t, [&order, i] { order.push_back(i); });
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    EXPECT_EQ(eng.peakPending(), in.events);
    eng.run();
    ASSERT_EQ(order.size(), in.events);
    for (std::size_t i = 0; i < in.events; ++i) {
      ASSERT_EQ(order[i], ref[i].second) << "seed " << in.seed << " pos " << i;
    }
  }
}

TEST(EngineDeterminism, TenThousandEventScheduleWithNesting) {
  // A large schedule where callbacks themselves schedule more events (as
  // fabric hops and copy engines do). Two independent runs must produce
  // identical execution orders, and ties must still break by sequence.
  auto run_once = [] {
    Engine eng;
    Rng rng(7);
    std::vector<std::uint32_t> order;
    order.reserve(10'000);
    std::uint32_t next_id = 0;
    // Self-rescheduling chains: 100 chains x 100 events = 10k events.
    struct Chain {
      Engine* eng;
      Rng* rng;
      std::vector<std::uint32_t>* order;
      std::uint32_t* next_id;
      int left;
      void fire() {
        order->push_back((*next_id)++);
        if (--left > 0) {
          eng->schedule(rng->below(8), [this] { fire(); });
        }
      }
    };
    std::vector<Chain> chains(100);
    for (auto& c : chains) {
      c = Chain{&eng, &rng, &order, &next_id, 100};
      eng.schedule(rng.below(8), [&c] { c.fire(); });
    }
    const std::size_t processed = eng.run();
    EXPECT_EQ(processed, 10'000u);
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

// ---- Move-only callbacks --------------------------------------------

TEST(EngineCallback, MoveOnlyCaptures) {
  Engine eng;
  auto value = std::make_unique<int>(41);
  int seen = 0;
  eng.schedule(10, [v = std::move(value), &seen] { seen = *v + 1; });
  eng.run();
  EXPECT_EQ(seen, 42);
}

TEST(InlineFunctionTest, SmallCapturesStayInline) {
  int x = 5;
  SmallCallback cb = [&x] { ++x; };
  EXPECT_FALSE(cb.heapAllocated());
  cb();
  EXPECT_EQ(x, 6);
}

TEST(InlineFunctionTest, OversizedCapturesFallBackToHeap) {
  struct Big {
    char data[kSmallCallbackBytes + 1];
  };
  Big big{};
  big.data[0] = 3;
  SmallCallback cb = [big] { (void)big; };
  EXPECT_TRUE(cb.heapAllocated());
  cb();  // still callable
  // Moving a heap-backed callback transfers the pointer, not the payload.
  SmallCallback moved = std::move(cb);
  EXPECT_TRUE(moved.heapAllocated());
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  moved();
}

TEST(InlineFunctionTest, EventSlotHoldsNestedFabricShapedClosure) {
  // The engine's event budget must keep a fabric-delivery-shaped closure
  // (two span-like payloads + a user callback + a predicate) inline.
  struct SpanLike {
    void* ptr;
    std::size_t len;
    int space;
  };
  SpanLike src{nullptr, 0, 0}, dst{nullptr, 0, 1};
  int fired = 0;
  SmallCallback on_done = [&fired] { ++fired; };
  SmallPredicate still_wanted = [] { return true; };
  Engine::Callback ev = [src, dst, cb = std::move(on_done),
                         pred = std::move(still_wanted)]() mutable {
    if (pred()) cb();
    (void)src;
    (void)dst;
  };
  EXPECT_FALSE(ev.heapAllocated());
  ev();
  EXPECT_EQ(fired, 1);
}

// ---- Completion-driven coroutine reaping -----------------------------

Task<void> sleepTask(Engine& eng, DurationNs d) { co_await eng.delay(d); }

TEST(EngineSpawn, TasksRetireOnCompletionNotByScan) {
  Engine eng;
  // Tasks completing at distinct times: unfinishedTasks() must drop as
  // each finishes, not only after a drain or an unrelated event.
  eng.spawn(sleepTask(eng, 10));
  eng.spawn(sleepTask(eng, 20));
  eng.spawn(sleepTask(eng, 30));
  EXPECT_EQ(eng.unfinishedTasks(), 3u);
  eng.runUntil(10);
  EXPECT_EQ(eng.unfinishedTasks(), 2u);
  eng.runUntil(20);
  EXPECT_EQ(eng.unfinishedTasks(), 1u);
  eng.runUntil(30);
  EXPECT_EQ(eng.unfinishedTasks(), 0u);
  EXPECT_TRUE(eng.empty());
}

TEST(EngineSpawn, ManyTasksAllReaped) {
  Engine eng;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    eng.spawn(sleepTask(eng, rng.below(1000)));
  }
  EXPECT_EQ(eng.unfinishedTasks(), 200u);
  eng.run();
  EXPECT_EQ(eng.unfinishedTasks(), 0u);
}

TEST(EngineSpawn, ImmediatelyCompleteTaskNeverCountsAsLive) {
  Engine eng;
  eng.spawn([]() -> Task<void> { co_return; }());
  EXPECT_EQ(eng.unfinishedTasks(), 0u);
}

// ---- Watchdog fires before the offending event is popped -------------

TEST(EngineWatchdog, TripsBeforePopLeavingQueueIntact) {
  Engine eng;
  int fired = 0;
  eng.schedule(100, [&fired] { ++fired; });
  eng.schedule(5'000, [&fired] { ++fired; });
  eng.schedule(9'000, [&fired] { ++fired; });
  eng.setWatchdog(1'000);
  try {
    eng.run();
    FAIL() << "watchdog did not trip";
  } catch (const CheckFailure& e) {
    // The event at t=5000 tripped the check *before* being removed: it and
    // everything behind it must still be pending, and the diagnostic must
    // carry its timestamp.
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.pendingEvents(), 2u);
    EXPECT_NE(std::string(e.what()).find("5000"), std::string::npos)
        << e.what();
  }
  // Clearing the watchdog lets the run resume from the intact queue.
  eng.clearWatchdog();
  eng.run();
  EXPECT_EQ(fired, 3);
}

// ---- Poll primitive: parked pollers against the plain delay loop ----

/// A seeded world of polling agents and real events. Each agent serves the
/// work items real events hand it and acts whenever a tick reaches its own
/// deadline; with nothing to do its step answers Quiet, naming the deadline
/// as its horizon. After kQuota actions the step answers Resume, and the
/// agent's coroutine logs the wake-up and parks again for another round.
/// The world runs either through Engine::poll or through the `delay` loop
/// the primitive replaces; both must act at the same instants in the same
/// order and take the same seqs.
class PollWorld {
 public:
  struct Action {
    TimeNs at;
    int actor;  // agent index, or -1 for a real event
    int kind;
    bool operator==(const Action&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Action& a) {
      return os << "{t=" << a.at << " actor=" << a.actor << " kind=" << a.kind
                << "}";
    }
  };
  struct Outcome {
    std::vector<Action> trace;
    std::size_t processed;
    TimeNs end;
    std::size_t peak;
    std::size_t steps;  // step calls
  };

  static Outcome run(std::uint64_t seed, bool use_poll, bool audit = false) {
    PollWorld w(seed);
    w.eng_.setAudit(audit);
    w.use_poll_ = use_poll;
    for (std::size_t a = 0; a < w.agents_.size(); ++a) {
      w.eng_.spawn(w.agentBody(static_cast<int>(a)));
    }
    // Real events land on tick multiples (either side of a poller's seq,
    // since some are scheduled before the agents park and some from
    // inside later events) and off them.
    const int events = 20 + static_cast<int>(w.rng_.below(40));
    for (int i = 0; i < events; ++i) w.scheduleRealEvent(w.randomTime(3000));
    // Every world ends within a few µs; a stalled poller trips this.
    w.eng_.setWatchdog(ms(1));
    EXPECT_NO_THROW(w.eng_.run()) << "seed " << seed;
    EXPECT_EQ(w.eng_.unfinishedTasks(), 0u);
    return {w.trace_, w.eng_.processedEvents(), w.eng_.now(),
            w.eng_.peakPending(), w.steps_};
  }

 private:
  struct Agent {
    DurationNs interval;
    TimeNs deadline;
    int work{0};
    int actions{0};
  };
  static constexpr int kQuota = 5;
  static constexpr int kRounds = 3;

  explicit PollWorld(std::uint64_t seed) : rng_(seed) {
    const std::size_t n = 2 + rng_.below(5);
    for (std::size_t a = 0; a < n; ++a) {
      // Two intervals whose ticks meet every 12 ns.
      agents_.push_back({rng_.chance(0.5) ? DurationNs{4} : DurationNs{6},
                         randomTime(200)});
    }
  }

  TimeNs randomTime(std::uint64_t span) {
    const TimeNs t = eng_.now() + rng_.below(span);
    return rng_.chance(0.6) ? t - t % 12 + 12 : t;  // on every agent's tick
  }

  void scheduleRealEvent(TimeNs at) {
    eng_.scheduleAt(at, [this] {
      const int kind = static_cast<int>(rng_.below(3));
      trace_.push_back({eng_.now(), -1, kind});
      Agent& a = agents_[rng_.below(agents_.size())];
      if (kind == 0) {
        ++a.work;  // a quiet agent now has something to do
      } else if (kind == 1) {
        a.deadline = std::min(a.deadline, randomTime(30));  // horizon moves
      } else if (eng_.now() < 4'000) {
        scheduleRealEvent(randomTime(60));  // cascade
      }
    });
  }

  Poll step(int id, TimeNs& horizon) {
    ++steps_;
    Agent& a = agents_[static_cast<std::size_t>(id)];
    int kind = 1;
    if (a.work > 0) {
      --a.work;
    } else if (eng_.now() >= a.deadline) {
      a.deadline = eng_.now() + 10 + rng_.below(300);
      kind = 2;
      if (rng_.chance(0.3)) scheduleRealEvent(randomTime(50));
    } else {
      horizon = a.deadline;
      return Poll::Quiet;
    }
    trace_.push_back({eng_.now(), id, kind});
    return ++a.actions % kQuota == 0 ? Poll::Resume : Poll::Again;
  }

  Task<void> agentBody(int id) {
    const DurationNs interval = agents_[static_cast<std::size_t>(id)].interval;
    for (int round = 0; round < kRounds; ++round) {
      if (use_poll_) {
        co_await eng_.poll(interval,
                           [this, id](TimeNs& h) { return step(id, h); });
      } else {
        for (;;) {
          co_await eng_.delay(interval);
          TimeNs h = kNoHorizon;
          if (step(id, h) == Poll::Resume) break;
        }
      }
      trace_.push_back({eng_.now(), id, 3});
      if (rng_.chance(0.5)) scheduleRealEvent(randomTime(40));
    }
  }

  Engine eng_;
  Rng rng_;
  bool use_poll_{false};
  std::vector<Agent> agents_;
  std::vector<Action> trace_;
  std::size_t steps_{0};
};

TEST(EnginePoll, MatchesDelayLoopOnRandomWorlds) {
  std::size_t delay_steps = 0;
  std::size_t poll_steps = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const PollWorld::Outcome want = PollWorld::run(seed, /*use_poll=*/false);
    const PollWorld::Outcome got = PollWorld::run(seed, /*use_poll=*/true);
    ASSERT_EQ(got.trace, want.trace) << "seed " << seed;
    ASSERT_EQ(got.processed, want.processed) << "seed " << seed;
    ASSERT_EQ(got.end, want.end) << "seed " << seed;
    ASSERT_EQ(got.peak, want.peak) << "seed " << seed;
    delay_steps += want.steps;
    poll_steps += got.steps;
    if (seed % 20 == 0) {
      // Audited, every re-key also runs its step and checks it is quiet.
      const PollWorld::Outcome audited = PollWorld::run(seed, true, true);
      ASSERT_EQ(audited.trace, want.trace) << "seed " << seed;
      ASSERT_EQ(audited.processed, want.processed) << "seed " << seed;
    }
  }
  // The worlds idle between actions, and the pollers skip most idle ticks.
  EXPECT_GT(delay_steps, 3 * poll_steps);
}

TEST(EnginePoll, StepExceptionSurfacesInWaiter) {
  Engine eng;
  int ticks = 0;
  std::string caught;
  eng.spawn([](Engine& e, int& n, std::string& out) -> Task<void> {
    try {
      co_await e.poll(10, [&n](TimeNs&) {
        if (++n == 3) throw std::runtime_error("step failed");
        return Poll::Again;
      });
    } catch (const std::runtime_error& err) {
      out = err.what();
    }
  }(eng, ticks, caught));
  eng.run();
  EXPECT_EQ(caught, "step failed");
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(eng.now(), 30u);
  EXPECT_EQ(eng.unfinishedTasks(), 0u);
}

TEST(EnginePoll, ParkedPollersCountAsPendingEvents) {
  Engine eng;
  int calls = 0;
  eng.spawn([](Engine& e, int& n) -> Task<void> {
    co_await e.poll(10, [&e, &n](TimeNs& horizon) {
      if (++n == 5) return Poll::Resume;
      horizon = e.now() + 35;
      return Poll::Quiet;
    });
  }(eng, calls));
  EXPECT_FALSE(eng.empty());
  EXPECT_EQ(eng.pendingEvents(), 1u);
  EXPECT_EQ(eng.peakPending(), 1u);
  eng.runUntil(25);  // ticks at 10 and 20
  EXPECT_EQ(eng.processedEvents(), 2u);
  EXPECT_EQ(calls, 1);  // the tick at 20 was re-keyed without a call
  // Another dispatch ends the quiet spell: the tick at 30 calls the step.
  eng.schedule(0, [] {});
  eng.runUntil(30);
  EXPECT_EQ(calls, 2);
  // From then on only each horizon (65, 105, 145) does.
  eng.run();
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(eng.now(), 150u);
  EXPECT_EQ(eng.processedEvents(), 16u);  // 15 ticks and the event
  EXPECT_TRUE(eng.empty());
}

TEST(EnginePoll, QuietWorldTripsWatchdogAtDelayLoopsCount) {
  // Pollers with nothing to do never drain the queue; the watchdog must
  // stop them exactly where it stops the delay loops they replace.
  const auto trip = [](bool use_poll) {
    Engine eng;
    for (const DurationNs interval : {DurationNs{250}, DurationNs{400}}) {
      eng.spawn([](Engine& e, DurationNs every, bool poll) -> Task<void> {
        if (poll) {
          co_await e.poll(every, [](TimeNs&) { return Poll::Quiet; });
        }
        for (;;) co_await e.delay(every);
      }(eng, interval, use_poll));
    }
    eng.setWatchdog(us(100));
    EXPECT_THROW(eng.run(), CheckFailure);
    return std::pair{eng.processedEvents(), eng.now()};
  };
  const auto want = trip(false);
  EXPECT_EQ(trip(true), want);
  EXPECT_EQ(want.first, 650u);  // 400 ticks of 250 ns + 250 of 400 ns
}

TEST(EnginePoll, AuditCatchesALyingQuietStep) {
  // The step answers Quiet, then Again with nothing run in between: a
  // re-key would have skipped real work, and the audit must say so.
  for (const bool audit : {false, true}) {
    Engine eng;
    eng.setAudit(audit);
    int calls = 0;
    eng.spawn([](Engine& e, int& n) -> Task<void> {
      co_await e.poll(10, [&n](TimeNs&) {
        ++n;
        return n == 1 ? Poll::Quiet : n < 4 ? Poll::Again : Poll::Resume;
      });
    }(eng, calls));
    if (audit) {
      try {
        eng.run();
        FAIL() << "the audit missed a re-key of a step that was not quiet";
      } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find("re-keyed"), std::string::npos)
            << e.what();
      }
    } else {
      // Unaudited, the lie goes unnoticed: the wait stalls, re-keyed.
      EXPECT_EQ(eng.run(100), 100u);
      EXPECT_EQ(calls, 1);
    }
  }
}

// ---- Parallel sweep runner ------------------------------------------

/// A Fig. 12-style grid (3 dims x 3 schemes) through the sweep runner.
std::string sweepOutput(unsigned threads) {
  const unsigned prev = bench::setSweepThreads(threads);
  std::ostringstream os;
  bench::schemeSweepTable(
      os, hw::lassen(), workloads::milcZdown, {8, 16, 32},
      {schemes::Scheme::GpuSync, schemes::Scheme::GpuAsync,
       schemes::Scheme::Proposed},
      /*n_ops=*/8, /*iterations=*/5, /*warmup=*/1);
  bench::setSweepThreads(prev);
  return os.str();
}

TEST(ParallelSweep, OutputByteIdenticalToSerial) {
  const std::string serial = sweepOutput(1);
  const std::string parallel = sweepOutput(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelSweep, ParallelForRunsEveryIndexExactlyOnce) {
  const unsigned prev = bench::setSweepThreads(4);
  std::vector<std::atomic<int>> hits(257);
  bench::parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  bench::setSweepThreads(prev);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelSweep, FirstExceptionPropagates) {
  const unsigned prev = bench::setSweepThreads(4);
  EXPECT_THROW(
      bench::parallelFor(64,
                         [](std::size_t i) {
                           if (i == 13) throw std::runtime_error("cell 13");
                         }),
      std::runtime_error);
  bench::setSweepThreads(prev);
}

}  // namespace
}  // namespace dkf::sim
