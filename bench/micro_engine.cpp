// Host-performance micro-benchmark for the discrete-event engine — the
// throughput ceiling of every figure, sweep and conformance run.
//
// The zero-allocation event core claims: (a) scheduling and dispatching an
// event performs no heap allocation for captures within the inline budget
// (the seed's `std::function` heap-allocated at schedule time and *again*
// on every pop, which copied the queue top); (b) pops move 24-byte heap
// keys, not full events; (c) detached-coroutine reaping is completion-
// driven (the seed scanned every spawned task after every event). Each
// claim is measured against a *naive shadow* — the seed engine
// reimplemented locally (std::priority_queue over (time, seq,
// std::function) events, copy-the-top pop, O(spawned) post-event reap
// scan) — on the same workloads: empty callbacks, capture-heavy callbacks,
// and coroutine resume storms. A final section times a real scheme-sweep
// table serially vs over the parallel sweep pool and checks the outputs
// are byte-identical. Emits BENCH_engine.json (or argv[1]).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <cmath>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/parallel.hpp"
#include "bench_util/sweeps.hpp"
#include "bench_util/table.hpp"
#include "common/rng.hpp"
#include "hw/machines.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dkf;

volatile std::uint64_t g_sink = 0;

/// The seed engine, reimplemented as the shadow: priority_queue of events
/// holding type-erased std::function callbacks, `top()` copy on every pop
/// (priority_queue::top is const, so the seed copied the handle), and an
/// O(spawned) find_if scan after every event (reapSpawned).
class ShadowEngine {
 public:
  using Callback = std::function<void()>;

  explicit ShadowEngine(std::size_t parked_tasks) {
    parked_.reserve(parked_tasks);
    for (std::size_t i = 0; i < parked_tasks; ++i) {
      parked_.push_back(std::make_unique<bool>(false));
    }
  }

  void schedule(TimeNs t, Callback cb) {
    queue_.push(Event{t, seq_++, std::move(cb)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();  // the seed's copy-the-top pop
    queue_.pop();
    now_ = ev.time;
    ev.cb();
    reapScan();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  TimeNs now() const { return now_; }

 private:
  struct Event {
    TimeNs time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void reapScan() {
    // The seed's reapSpawned: after every event, call handle.done() on each
    // spawned task — one heap-allocated coroutine-frame dereference per
    // task, modeled here by a pointer chase per entry.
    auto it = std::find_if(
        parked_.begin(), parked_.end(),
        [](const std::unique_ptr<bool>& done) { return *done; });
    if (it != parked_.end()) g_sink = g_sink + 1;
  }

  TimeNs now_{0};
  std::uint64_t seq_{0};
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<std::unique_ptr<bool>> parked_;
};

/// Min-of-reps wall time of `fn` in nanoseconds. The minimum approximates
/// the uncontended cost and is far less sensitive to scheduler noise on a
/// shared machine than the median.
template <class F>
double timeNs(F&& fn, int reps = 7) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count()));
  }
  return best;
}

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

struct Row {
  std::string workload;
  std::size_t events;
  double engine_ns_per_event;
  double shadow_ns_per_event;
  double speedup() const { return shadow_ns_per_event / engine_ns_per_event; }
};

/// Steady-state shape: real simulations keep a bounded queue (hundreds to a
/// few thousand pending events — in-flight messages, copy engines, timers),
/// scheduling new events as old ones fire. The benches therefore run
/// kBatches batches of kQueueDepth events each rather than pre-loading one
/// enormous queue, which would measure DRAM misses instead of engine work.
constexpr std::size_t kQueueDepth = 2048;
constexpr std::size_t kBatches = 100;
constexpr std::size_t kEvents = kQueueDepth * kBatches;
/// Suspended coroutines resident during a typical experiment (rank bodies,
/// transport retransmission timers, progress pollers) — the population the
/// seed's reapSpawned scanned after every event.
constexpr std::size_t kParkedTasks = 64;

/// A capture the size of a fabric delivery closure's payload state.
struct HeavyCapture {
  std::array<std::uint64_t, 12> words{};  // 96 B: inline for the engine,
                                          // a heap allocation per
                                          // schedule + per pop for the seed
};

/// Run kEvents events through `eng` in steady-state batches, scheduling
/// with `sched(rng)` each time.
template <class Eng, class Sched>
void drive(Eng& eng, std::uint64_t seed, const Sched& sched) {
  Rng rng(seed);
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t i = 0; i < kQueueDepth; ++i) sched(eng, rng);
    eng.run();
  }
}

Row benchEmpty() {
  const double engine_ns = timeNs([&] {
    sim::Engine eng;
    drive(eng, 42, [](sim::Engine& e, Rng& rng) {
      e.schedule(rng.below(1 << 16), [] { g_sink = g_sink + 1; });
    });
  });
  const double shadow_ns = timeNs([&] {
    ShadowEngine eng(kParkedTasks);
    drive(eng, 42, [](ShadowEngine& e, Rng& rng) {
      e.schedule(e.now() + rng.below(1 << 16), [] { g_sink = g_sink + 1; });
    });
  });
  return Row{"empty_callback", kEvents, engine_ns / kEvents,
             shadow_ns / kEvents};
}

Row benchCaptureHeavy() {
  const double engine_ns = timeNs([&] {
    sim::Engine eng;
    HeavyCapture payload;
    drive(eng, 43, [&payload](sim::Engine& e, Rng& rng) {
      payload.words[0] = rng.next();
      e.schedule(rng.below(1 << 16),
                 [payload] { g_sink = g_sink + payload.words[0]; });
    });
  });
  const double shadow_ns = timeNs([&] {
    ShadowEngine eng(kParkedTasks);
    HeavyCapture payload;
    drive(eng, 43, [&payload](ShadowEngine& e, Rng& rng) {
      payload.words[0] = rng.next();
      e.schedule(e.now() + rng.below(1 << 16),
                 [payload] { g_sink = g_sink + payload.words[0]; });
    });
  });
  return Row{"capture_heavy_96B", kEvents, engine_ns / kEvents,
             shadow_ns / kEvents};
}

sim::Task<void> resumeLoop(sim::Engine& eng, std::size_t resumes) {
  for (std::size_t i = 0; i < resumes; ++i) {
    co_await eng.delay(100);
  }
  g_sink = g_sink + 1;
}

sim::Task<void> parkedTask(sim::Engine& eng) {
  co_await eng.delay(sec(3600));
  g_sink = g_sink + 1;
}

Row benchCoroutineResume() {
  constexpr std::size_t kTasks = 1000;
  constexpr std::size_t kResumes = 100;
  constexpr std::size_t total = kTasks * kResumes;
  // Engine side: real coroutines, completion-driven retirement; parked
  // long-delay tasks must cost nothing per event.
  const double engine_ns = timeNs([&] {
    sim::Engine eng;
    for (std::size_t p = 0; p < kParkedTasks; ++p) {
      eng.spawn(parkedTask(eng));
    }
    for (std::size_t t = 0; t < kTasks; ++t) {
      eng.spawn(resumeLoop(eng, kResumes));
    }
    eng.run();
  });
  // Shadow side: the same event pattern (each "resume" reschedules itself,
  // capturing a counter) plus the seed's per-event scan over the parked
  // population. Coroutine frames are identical in both engines; what
  // differs is queue handling and reaping, which is what this measures.
  const double shadow_ns = timeNs([&] {
    ShadowEngine eng(kParkedTasks + kTasks);
    struct Chain {
      ShadowEngine* eng;
      std::size_t left;
      TimeNs at{0};
      void fire() {
        if (left == 0) {
          g_sink = g_sink + 1;
          return;
        }
        --left;
        at += 100;
        eng->schedule(at, [this] { fire(); });
      }
    };
    std::vector<Chain> chains(kTasks);
    for (std::size_t t = 0; t < kTasks; ++t) {
      chains[t] = Chain{&eng, kResumes};
      eng.schedule(0, [&chains, t] { chains[t].fire(); });
    }
    eng.run();
  });
  return Row{"coroutine_resume", total, engine_ns / total,
             shadow_ns / total};
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(std::cout,
                "Micro — zero-allocation event core vs seed shadow "
                "(priority_queue + std::function copy + O(spawned) reap)");

  std::vector<Row> rows{benchEmpty(), benchCaptureHeavy(),
                        benchCoroutineResume()};

  bench::Table table({"Workload", "Events", "Engine ns/ev", "Shadow ns/ev",
                      "Engine ev/s", "Speedup"});
  for (const Row& r : rows) {
    table.addRow({r.workload, std::to_string(r.events),
                  fmt1(r.engine_ns_per_event), fmt1(r.shadow_ns_per_event),
                  fmt1(1e9 / r.engine_ns_per_event),
                  fmt1(r.speedup()) + "x"});
  }
  table.print(std::cout);
  double geomean = 1.0;
  for (const Row& r : rows) geomean *= r.speedup();
  geomean = std::pow(geomean, 1.0 / static_cast<double>(rows.size()));
  std::cout << "\nHeadline: " << fmt1(geomean)
            << "x events/sec over the seed engine (geometric mean across "
               "workloads).\nShape: capture-heavy and coroutine workloads "
               "gain the most — the seed paid two heap allocations per "
               "event (schedule + copy-the-top pop) and a handle.done() "
               "scan over every suspended task after every event; real "
               "simulations are coroutine-resume dominated.\n";

  // ---- Serial vs parallel sweep: wall clock and byte-identity ----------
  bench::banner(std::cout,
                "Micro — parallel sweep runner (Fig. 12-style grid), "
                "serial vs pool");
  const std::vector<schemes::Scheme> scheme_list = {
      schemes::Scheme::GpuSync, schemes::Scheme::GpuAsync,
      schemes::Scheme::Proposed};
  const std::vector<std::size_t> dims = {8, 16, 32};
  auto run_sweep = [&](std::ostream& os) {
    bench::schemeSweepTable(os, hw::lassen(), workloads::milcZdown, dims,
                            scheme_list, /*n_ops=*/8, /*iterations=*/5,
                            /*warmup=*/1);
  };
  std::ostringstream serial_out, parallel_out;
  const unsigned prev = bench::setSweepThreads(1);
  const double serial_ns = timeNs([&] {
    serial_out.str("");
    run_sweep(serial_out);
  }, 3);
  bench::setSweepThreads(0);
  const double parallel_ns = timeNs([&] {
    parallel_out.str("");
    run_sweep(parallel_out);
  }, 3);
  bench::setSweepThreads(prev);
  const bool identical = serial_out.str() == parallel_out.str();
  const double sweep_speedup = serial_ns / parallel_ns;
  std::cout << "cells " << dims.size() * scheme_list.size() << ", serial "
            << fmt1(serial_ns / 1e6) << " ms, parallel ("
            << bench::sweepThreadCount() << " threads) "
            << fmt1(parallel_ns / 1e6) << " ms, speedup "
            << fmt1(sweep_speedup) << "x, output "
            << (identical ? "byte-identical" : "MISMATCH") << "\n";
  if (!identical) {
    std::cerr << "error: parallel sweep output differs from serial\n";
    return 1;
  }

  // ---- JSON record ----
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot open " << json_path << " for writing\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"micro_engine\",\n"
       << "  \"claim\": \"event scheduling and dispatch allocate nothing "
          "for captures within the inline budget, pops move 24-byte heap "
          "keys, and coroutine reaping is completion-driven; the seed "
          "shadow pays two heap allocations per event and an O(spawned) "
          "scan after each\",\n"
       << "  \"event_callback_bytes\": " << sizeof(sim::Engine::Callback)
       << ",\n  \"inline_capacity\": "
       << sim::Engine::Callback::inline_capacity
       << ",\n  \"parked_tasks\": " << kParkedTasks << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"workload\": \"" << r.workload << "\", \"events\": "
         << r.events << ", \"engine_ns_per_event\": " << r.engine_ns_per_event
         << ", \"shadow_ns_per_event\": " << r.shadow_ns_per_event
         << ", \"engine_events_per_sec\": " << 1e9 / r.engine_ns_per_event
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"headline_speedup_geomean\": " << geomean
       << ",\n  \"sweep\": {\"cells\": "
       << dims.size() * scheme_list.size()
       << ", \"serial_ms\": " << serial_ns / 1e6
       << ", \"parallel_ms\": " << parallel_ns / 1e6
       << ", \"threads\": " << bench::sweepThreadCount()
       << ", \"speedup\": " << sweep_speedup
       << ", \"byte_identical\": " << (identical ? "true" : "false")
       << "}\n}\n";
  std::cout << "\nrecord written to " << json_path << "\n";
  return 0;
}
