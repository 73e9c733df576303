// Regression tests for the zero-allocation event core and the parallel
// deterministic sweep runner: heap ordering determinism against a
// stable-sort reference, move-only inline callbacks, completion-driven
// coroutine reaping, the watchdog-fires-before-pop contract, and
// byte-identical serial-vs-parallel sweep output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
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

// ---- Parallel sweep runner ------------------------------------------

std::string sweepOutput(unsigned threads) {
  const unsigned prev = bench::setSweepThreads(threads);
  std::ostringstream os;
  bench::schemeSweepTable(
      os, hw::lassen(), workloads::milcZdown, {8, 16},
      {schemes::Scheme::GpuSync, schemes::Scheme::Proposed},
      /*n_ops=*/4, /*iterations=*/3, /*warmup=*/1);
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
