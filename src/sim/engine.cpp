#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>

namespace dkf::sim {

namespace {
/// 4-ary heap: shallower than binary for the same size, so pops touch
/// fewer cache lines; children of i are [4i+1, 4i+4].
constexpr std::size_t kHeapArity = 4;

// Read per construction, not cached: engines are built rarely, and tests
// toggle DKF_AUDIT between worlds inside one process.
bool auditRequestedByEnv() {
  const char* v = std::getenv("DKF_AUDIT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace

Engine::Engine() : audit_(auditRequestedByEnv()) {}

std::uint32_t Engine::allocSlot(Callback cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  }
  return slot;
}

void Engine::pushKey(const EventKey& key) {
  heap_.push_back(key);
  siftUp(heap_.size() - 1);
  notePending();
}

void Engine::scheduleAt(TimeNs t, Callback cb) {
  DKF_CHECK_MSG(t >= now_, "event scheduled in the past: t=" << t << " now=" << now_);
  pushKey(EventKey{t, seq_++, allocSlot(std::move(cb))});
}

void Engine::scheduleAtSeq(TimeNs t, std::uint64_t seq, Callback cb) {
  DKF_CHECK_MSG(t >= now_, "event scheduled in the past: t=" << t << " now=" << now_);
  DKF_CHECK_MSG(seq < seq_, "scheduleAtSeq with an unreserved seq: " << seq);
  pushKey(EventKey{t, seq, allocSlot(std::move(cb))});
}

// ----------------------------------------------------------------- heap ----

void Engine::siftUp(std::size_t i) {
  const EventKey key = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Engine::siftDown(std::size_t i) {
  const EventKey key = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

Engine::EventKey Engine::heapPop() {
  const EventKey top = heap_.front();
  const EventKey last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    siftDown(0);
  }
  return top;
}

// -------------------------------------------------------------- pollers ----

void Engine::park(Poller& p) {
  DKF_CHECK_MSG(p.interval > 0, "poll interval must be positive");
  insertPoller(PollKey{now_ + p.interval, seq_++, &p});
}

void Engine::insertPoller(const PollKey& key) {
  if (poll_count_ == pollers_.size()) {
    // Full: unroll into a ring twice the size. It only grows when more
    // pollers are parked at once than ever before.
    std::vector<PollKey> grown(std::max<std::size_t>(8, 2 * pollers_.size()));
    for (std::size_t i = 0; i < poll_count_; ++i) grown[i] = pollerAt(i);
    pollers_ = std::move(grown);
    poll_head_ = 0;
  }
  std::size_t i = poll_count_++;
  for (; i > 0 && before(key, pollerAt(i - 1)); --i) {
    pollerAt(i) = pollerAt(i - 1);
  }
  pollerAt(i) = key;
  notePending();
}

void Engine::tickPoller() {
  const PollKey head = nextPoller();
  Poller& p = *head.poller;
  if (p.quiet_epoch == epoch_ && head.time < p.horizon) {
    // Nothing ran since the step answered Quiet and its horizon is still
    // ahead, so the step would answer Quiet again: take the tick's seq and
    // move on without a call, as the delay loop's no-op poll would.
    if (audit_) auditRekey(p);
    popPoller();
    insertPoller(PollKey{head.time + p.interval, seq_++, &p});
    return;
  }
  // Out of the queue while its step runs, as a popped delay event would be.
  popPoller();
  TimeNs horizon = kNoHorizon;
  Poll answer = Poll::Resume;
  try {
    answer = p.run(p, horizon);
  } catch (...) {
    p.error = std::current_exception();  // rethrown in the waiter
  }
  if (answer == Poll::Resume) {
    ++epoch_;
    p.waiter.resume();
    return;
  }
  if (answer == Poll::Quiet) {
    p.quiet_epoch = epoch_;
    p.horizon = horizon;
  } else {
    ++epoch_;
    p.quiet_epoch = kNoEpoch;
  }
  insertPoller(PollKey{now_ + p.interval, seq_++, &p});
}

void Engine::auditRekey(Poller& p) {
  const std::uint64_t seq_before = seq_;
  TimeNs horizon = kNoHorizon;
  const Poll answer = p.run(p, horizon);
  DKF_CHECK_MSG(answer == Poll::Quiet && horizon == p.horizon &&
                    seq_ == seq_before,
                "re-keyed a poller whose step is not quiet at t="
                    << now_ << ": it answered "
                    << (answer == Poll::Resume  ? "Resume"
                        : answer == Poll::Again ? "Again"
                                                : "Quiet")
                    << " with horizon " << horizon << " (Quiet promised "
                    << p.horizon << ") and took " << seq_ - seq_before
                    << " seq(s)");
}

// ------------------------------------------------------------- stepping ----

bool Engine::step() {
  if (!finished_.empty()) drainFinished();
  const bool poller_next =
      parkedPollers() != 0 &&
      (heap_.empty() || before(nextPoller(), heap_.front()));
  if (!poller_next && heap_.empty()) return false;
  const TimeNs t = poller_next ? nextPoller().time : heap_.front().time;
  // Watchdog fires *before* the offending event is removed: the dump below
  // describes an intact queue (the event at `t` is still its head), so
  // post-mortem inspection sees exactly the state that tripped it.
  DKF_CHECK_MSG(
      !watchdog_armed_ || t <= watchdog_deadline_,
      "sim watchdog tripped: next event at t=" << t
          << " ns exceeds the liveness deadline " << watchdog_deadline_
          << " ns (now=" << now_ << " ns, processed=" << processed_
          << " events, pending=" << pendingEvents()
          << ", suspended tasks=" << live_tasks_
          << "; queue left intact, offending event still at the head) "
             "— a lost control packet or un-acked transfer is likely "
             "spinning a progress loop");
  now_ = t;
  ++processed_;
  if (poller_next) {
    tickPoller();
  } else {
    const EventKey key = heapPop();
    Callback cb = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    ++epoch_;
    cb();
  }
  if (audit_) auditInvariants();
  if (!finished_.empty()) drainFinished();
  return true;
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void Engine::runUntil(TimeNs t) {
  while ((!heap_.empty() && heap_.front().time <= t) ||
         (parkedPollers() != 0 && nextPoller().time <= t)) {
    step();
  }
  drainFinished();
  now_ = std::max(now_, t);
}

// ------------------------------------------------------------- auditing ----

void Engine::auditInvariants() const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / kHeapArity;
    DKF_CHECK_MSG(!before(heap_[i], heap_[parent]),
                  "heap order violated at index "
                      << i << ": child (t=" << heap_[i].time
                      << ", seq=" << heap_[i].seq << ") before parent (t="
                      << heap_[parent].time << ", seq=" << heap_[parent].seq
                      << ")");
  }

  // Slot-pool consistency: every queued key owns a distinct live slot,
  // every free-list entry is distinct, and together they cover the pool.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  for (const EventKey& k : heap_) {
    DKF_CHECK_MSG(k.time >= now_, "queued event in the past: t=" << k.time
                                      << " now=" << now_);
    DKF_CHECK_MSG(k.seq < seq_, "queued event with unissued seq " << k.seq);
    DKF_CHECK_MSG(k.slot < slots_.size(),
                  "event slot " << k.slot << " out of range");
    DKF_CHECK_MSG(!seen[k.slot], "slot " << k.slot << " referenced twice");
    seen[k.slot] = 1;
  }
  for (const std::uint32_t s : free_slots_) {
    DKF_CHECK_MSG(s < slots_.size(), "free slot " << s << " out of range");
    DKF_CHECK_MSG(!seen[s], "slot " << s << " both queued and free");
    seen[s] = 2;
  }
  DKF_CHECK_MSG(heap_.size() + free_slots_.size() == slots_.size(),
                "slot pool leak: " << heap_.size() << " queued + "
                    << free_slots_.size() << " free != " << slots_.size()
                    << " slots");

  // Parked pollers: sorted, nothing in the past, issued seqs.
  for (std::size_t i = 0; i < poll_count_; ++i) {
    const PollKey& k = pollerAt(i);
    DKF_CHECK_MSG(i == 0 || before(pollerAt(i - 1), k),
                  "poller queue order violated at index " << i);
    DKF_CHECK_MSG(k.time >= now_, "parked poller in the past: t=" << k.time
                                      << " now=" << now_);
    DKF_CHECK_MSG(k.seq < seq_, "parked poller with unissued seq " << k.seq);
  }

  // Key uniqueness: (time, seq) is a total order, so no two queued events
  // or parked pollers may share a seq. Linear probing over seq + 1 (0 marks
  // an empty cell) in a table at least twice their number keeps the check
  // O(n) per step.
  const std::size_t keys = pendingEvents();
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * keys) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint64_t> table(mask + 1, 0);
  const auto insert = [&](std::uint64_t seq) {
    std::size_t i = static_cast<std::size_t>(
        (seq * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    for (; table[i] != 0; i = (i + 1) & mask) {
      DKF_CHECK_MSG(table[i] != seq + 1,
                    "duplicate event sequence number in the queue");
    }
    table[i] = seq + 1;
  };
  for (const EventKey& k : heap_) insert(k.seq);
  for (std::size_t i = 0; i < poll_count_; ++i) insert(pollerAt(i).seq);
}

// ------------------------------------------------------ detached tasks ----

void Engine::spawn(Task<void> task) {
  DKF_CHECK(task.valid());
  ++epoch_;  // the task's first leg runs now, maybe outside any dispatch
  task.start();
  if (task.done()) {
    task.rethrowIfFailed();
    return;
  }
  std::uint32_t slot;
  if (!task_free_.empty()) {
    slot = task_free_.back();
    task_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(spawned_.size());
    spawned_.emplace_back();
  }
  // Final-suspend hook: the frame reports its slot when the body finishes,
  // replacing the seed's O(spawned) post-event scan.
  task.onFinalSuspend(
      [](void* ctx, std::size_t s) noexcept {
        static_cast<Engine*>(ctx)->noteSpawnedDone(s);
      },
      this, slot);
  spawned_[slot] = std::move(task);
  ++live_tasks_;
}

void Engine::drainFinished() {
  while (!finished_.empty()) {
    const std::uint32_t slot = finished_.back();
    finished_.pop_back();
    Task<void> done = std::move(spawned_[slot]);
    task_free_.push_back(slot);
    // May throw: the frame is destroyed during unwind (RAII), and any
    // remaining finished slots are retired on the next step()/run().
    done.rethrowIfFailed();
  }
}

}  // namespace dkf::sim
