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
//
// Pollers: a coroutine blocked in `co_await poll(interval, step)` parks in
// a second queue on the same (time, seq) keys, and the engine runs `step`
// inside each poll tick instead of resuming the coroutine. A poller whose
// step answered Quiet is re-keyed on later ticks without a call until
// another dispatch runs or its horizon passes (MODEL.md §10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/task.hpp"

namespace dkf::sim {

/// A poll step's answer (see Engine::poll).
enum class Poll : std::uint8_t {
  Resume,  ///< wake the waiting coroutine, inside this tick's event
  Again,   ///< stay parked and run the step again next tick
  Quiet,   ///< stay parked: until another dispatch runs or the horizon
           ///< passes, the next step would do nothing
};

/// The horizon of a Quiet step that names none: no time bounds it.
inline constexpr TimeNs kNoHorizon = std::numeric_limits<TimeNs>::max();

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

  /// Queued events and parked pollers each count as one pending event; a
  /// poll tick counts as one processed event whether or not its step ran.
  bool empty() const { return heap_.empty() && parkedPollers() == 0; }
  std::size_t pendingEvents() const { return heap_.size() + parkedPollers(); }
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

  /// Structural invariant audit of the event queue: heap ordering, poller
  /// order, slot-pool consistency (no dangling, no double-free, every slot
  /// accounted), key uniqueness, nothing in the past. Throws
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

  /// Awaitable: park the current coroutine as a *poller* that ticks every
  /// `interval` ns, first at now() + interval. Each tick is one event,
  /// keyed (time, seq) exactly like the `delay(interval)` a polling loop
  /// would schedule after each poll, and runs `step(horizon)` inside it
  /// (`horizon` preset to kNoHorizon):
  ///  - Resume wakes the coroutine in that event;
  ///  - Again keeps it parked for the next tick;
  ///  - Quiet keeps it parked and promises that, until another dispatch
  ///    runs or virtual time reaches `horizon`, the next step would answer
  ///    Quiet again and change nothing. The engine then re-keys the later
  ///    ticks (next seq, t + interval) without calling the step.
  /// Virtual time, event order and processedEvents() are those of the
  /// `delay` loop. An exception thrown by `step` is rethrown from the
  /// co_await. The step and its captures live in the awaiting frame.
  template <class Step>
  auto poll(DurationNs interval, Step step) {
    struct Awaiter : Poller {
      Engine& eng;
      Step fn;
      Awaiter(Engine& e, DurationNs every, Step&& s)
          : Poller{every, &Awaiter::call}, eng(e), fn(std::move(s)) {}
      static Poll call(Poller& p, TimeNs& horizon) {
        return static_cast<Awaiter&>(p).fn(horizon);
      }
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        waiter = h;
        eng.park(*this);
      }
      void await_resume() const {
        if (error) std::rethrow_exception(error);
      }
    };
    return Awaiter{*this, interval, std::move(step)};
  }

 private:
  /// Queue element: ordering key plus the index of the callback's pool
  /// slot. Heap sifts touch 24 bytes; the callback itself never moves
  /// while queued.
  struct EventKey {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  /// A parked poll loop: the state poll()'s awaiter keeps in the waiting
  /// coroutine's frame, where it stays put while parked.
  struct Poller {
    DurationNs interval;
    Poll (*run)(Poller&, TimeNs& horizon);  // calls the awaiter's step
    std::coroutine_handle<> waiter{};
    /// Epoch of the last Quiet answer (kNoEpoch after any other), and the
    /// horizon it named.
    std::uint64_t quiet_epoch{kNoEpoch};
    TimeNs horizon{0};
    std::exception_ptr error{};
  };

  /// Poller-queue element: the same (time, seq) key as an event.
  struct PollKey {
    TimeNs time;
    std::uint64_t seq;
    Poller* poller;
  };

  template <class A, class B>
  static bool before(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t allocSlot(Callback cb);
  void pushKey(const EventKey& key);
  void notePending() {
    peak_pending_ = std::max(peak_pending_, pendingEvents());
  }

  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  EventKey heapPop();

  /// Park `p` for its first tick (poll()'s await_suspend).
  void park(Poller& p);
  std::size_t parkedPollers() const { return poll_count_; }
  /// The i-th parked poller in (time, seq) order.
  PollKey& pollerAt(std::size_t i) {
    return pollers_[(poll_head_ + i) & (pollers_.size() - 1)];
  }
  const PollKey& pollerAt(std::size_t i) const {
    return pollers_[(poll_head_ + i) & (pollers_.size() - 1)];
  }
  const PollKey& nextPoller() const { return pollerAt(0); }
  /// Queue a poller tick in (time, seq) order / drop the first one.
  void insertPoller(const PollKey& key);
  void popPoller() {
    poll_head_ = (poll_head_ + 1) & (pollers_.size() - 1);
    --poll_count_;
  }
  /// Run the poller tick at the head of pollers_ (now_ already set).
  void tickPoller();
  /// DKF_AUDIT check of a re-key: the step answers Quiet again, with the
  /// same horizon, and takes no seq.
  void auditRekey(Poller& p);

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
  /// Bumped by every dispatch except a re-key and a Quiet step, and by
  /// spawn(): a Quiet answer holds while the epoch it was given in lasts.
  std::uint64_t epoch_{0};
  TimeNs watchdog_deadline_{0};
  bool watchdog_armed_{false};
  bool audit_{false};

  std::size_t peak_pending_{0};

  std::vector<EventKey> heap_;        // 4-ary min-heap on (time, seq)
  /// Parked pollers, sorted on (time, seq): a ring of power-of-two size
  /// holding poll_count_ keys from poll_head_ on. Each tick re-keys its
  /// poller under the newest seq, so with one poll interval every insert
  /// lands at the back: O(1), where a heap would sift through every level.
  std::vector<PollKey> pollers_;
  std::size_t poll_head_{0};
  std::size_t poll_count_{0};

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
  if (pred()) co_return;
  co_await eng.poll(interval, [&pred](TimeNs&) {
    return pred() ? Poll::Resume : Poll::Again;
  });
}

}  // namespace dkf::sim
