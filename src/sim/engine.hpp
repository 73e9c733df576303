// Deterministic single-threaded discrete-event engine.
//
// Events are (time, sequence, callback) triples; ties on time break by
// insertion sequence, which makes every simulation replayable bit-for-bit.
// All "hardware" in the simulator (GPU kernels, DMA engines, NICs, links)
// runs by scheduling events; all "software" (MPI ranks, progress engines,
// schedulers) runs as coroutines that suspend on awaitables resumed from
// events.
//
// Hot-path layout: the queue orders 24-byte keys only; callbacks live in a
// free-listed slot pool and never move while queued. Popping moves the
// callback out of its slot exactly once (no type-erased copy), and the
// inline-callback type keeps every capture that fits its budget off the
// heap — the steady-state event loop performs zero allocations.
//
// Event queue (MODEL.md §10): one 4-ary min-heap on (time, seq); sifts
// are ~log4 n deep and touch few cache lines. DKF_AUDIT=1 (or setAudit)
// re-verifies the heap order and the slot pool after every step.
//
// Batched event keys: external coalescers (net::LinkBatcher) reserve one
// sequence number per logical event with allocSeq() at the time the event
// would have been scheduled, park the work outside the engine, and later
// arm a real event with scheduleAtSeq() under the reserved key. Because
// the key is the one the event would have carried anyway, lazily-armed
// events interleave with everything else exactly as if each had been
// scheduled eagerly — the engine queue just stays small.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/task.hpp"

namespace dkf::sim {

class Engine {
 public:
  using Callback = EventCallback;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedule `cb` to run `delay` ns from now.
  void schedule(DurationNs delay, Callback cb) { scheduleAt(now_ + delay, std::move(cb)); }

  /// Schedule `cb` at absolute virtual time `t` (must not be in the past).
  void scheduleAt(TimeNs t, Callback cb);

  /// Reserve the sequence number the *next* scheduled event would get.
  /// Pair with scheduleAtSeq: a coalescer that hands out keys at issue
  /// time and arms the engine event lazily preserves the total order
  /// exactly (see net::LinkBatcher). Each reserved seq must be armed at
  /// most once.
  std::uint64_t allocSeq() { return seq_++; }

  /// Schedule under a previously reserved sequence number (the batched
  /// event key). `t` must not be in the past and `seq` must come from
  /// allocSeq().
  void scheduleAtSeq(TimeNs t, std::uint64_t seq, Callback cb);

  /// Run the earliest event; returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains (or `max_events` processed).
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Run events with time <= t, then set now() = t.
  void runUntil(TimeNs t);

  bool empty() const { return heap_.empty(); }
  std::size_t pendingEvents() const { return heap_.size(); }
  std::size_t processedEvents() const { return processed_; }

  /// High-water mark of the pending-event set over the engine's lifetime.
  std::size_t peakPending() const { return peak_pending_; }

  /// Liveness watchdog: the first event whose timestamp exceeds `deadline`
  /// (absolute virtual time) throws CheckFailure with a diagnostic dump
  /// instead of running. A lost FIN or dropped CTS leaves progress loops
  /// re-polling forever — the event queue never drains, run() spins, and
  /// nothing fails; the watchdog converts that livelock into a loud,
  /// attributable error. The check happens *before* the offending event is
  /// removed, so the queue (including the event itself) stays intact for
  /// post-mortem inspection.
  void setWatchdog(TimeNs deadline) {
    watchdog_deadline_ = deadline;
    watchdog_armed_ = true;
  }
  void clearWatchdog() { watchdog_armed_ = false; }
  bool watchdogArmed() const { return watchdog_armed_; }

  /// Structural invariant audit of the event queue: heap ordering,
  /// slot-pool consistency (no dangling, no double-free, every slot
  /// accounted), key uniqueness, no event in the past. Throws
  /// CheckFailure on violation. Runs automatically after every step while
  /// auditing is enabled (setAudit(true) or environment DKF_AUDIT=1) —
  /// O(pending) per step, so test/debug only.
  void auditInvariants() const;
  void setAudit(bool on) { audit_ = on; }
  bool auditEnabled() const { return audit_; }

  /// Start a detached coroutine; the engine keeps its frame alive until it
  /// completes. Completion is push-driven: the task's final suspend
  /// notifies the engine, which retires the frame after the current event —
  /// there is no per-step scan over suspended tasks. Exceptions escaping a
  /// spawned task are rethrown from run()/step() at retire time so tests
  /// fail loudly.
  void spawn(Task<void> task);

  /// Spawned coroutines still suspended. Nonzero after run() drains the
  /// event queue means a deadlock (a task waits on a gate nothing opens).
  std::size_t unfinishedTasks() const { return live_tasks_; }

  /// Awaitable: suspend the current coroutine for `d` virtual ns.
  auto delay(DurationNs d) {
    struct Awaiter {
      Engine& eng;
      DurationNs dur;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng.schedule(dur, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable: yield to the event loop, resuming at the same virtual time
  /// (after already-queued events at this time).
  auto yield() { return delay(0); }

 private:
  /// Queue element: ordering key plus the index of the callback's pool
  /// slot. Heap sifts touch 24 bytes; the callback itself never moves
  /// while queued.
  struct EventKey {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t allocSlot(Callback cb);
  void pushKey(const EventKey& key);

  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  EventKey heapPop();

  /// Final-suspend notification from a spawned task (called while the
  /// coroutine sits at its final suspend point; retirement is deferred to
  /// drainFinished so the frame is never destroyed mid-resume).
  void noteSpawnedDone(std::size_t slot) {
    finished_.push_back(static_cast<std::uint32_t>(slot));
    --live_tasks_;
  }

  /// Retire completed detached tasks, surfacing any stored exception.
  void drainFinished();

  TimeNs now_{0};
  std::uint64_t seq_{0};
  std::size_t processed_{0};
  TimeNs watchdog_deadline_{0};
  bool watchdog_armed_{false};
  bool audit_{false};

  std::size_t peak_pending_{0};

  std::vector<EventKey> heap_;        // 4-ary min-heap on (time, seq)

  std::vector<Callback> slots_;       // callback pool, indexed by EventKey::slot
  std::vector<std::uint32_t> free_slots_;

  std::vector<Task<void>> spawned_;   // detached-task pool (free-listed)
  std::vector<std::uint32_t> task_free_;
  std::vector<std::uint32_t> finished_;  // slots awaiting retirement
  std::size_t live_tasks_{0};
};

/// Coroutine helper: poll `pred` every `interval` until it returns true.
/// Used to model CPU polling loops (progress engines, event queries); the
/// caller accounts any per-poll CPU cost separately. Templated on the
/// predicate so call sites pay no type-erasure allocation.
template <class Pred>
Task<void> pollUntil(Engine& eng, Pred pred, DurationNs interval) {
  while (!pred()) {
    co_await eng.delay(interval);
  }
}

}  // namespace dkf::sim
