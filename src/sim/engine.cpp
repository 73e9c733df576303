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
  peak_pending_ = std::max(peak_pending_, heap_.size());
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

// ------------------------------------------------------------- stepping ----

bool Engine::step() {
  drainFinished();
  if (empty()) return false;
  // Watchdog fires *before* the offending event is removed: the dump below
  // describes an intact queue (the event at `top.time` is still its head),
  // so post-mortem inspection sees exactly the state that tripped it.
  const EventKey& top = heap_.front();
  DKF_CHECK_MSG(
      !watchdog_armed_ || top.time <= watchdog_deadline_,
      "sim watchdog tripped: next event at t=" << top.time
          << " ns exceeds the liveness deadline " << watchdog_deadline_
          << " ns (now=" << now_ << " ns, processed=" << processed_
          << " events, pending=" << heap_.size()
          << ", suspended tasks=" << live_tasks_
          << "; queue left intact, offending event still at the head) "
             "— a lost control packet or un-acked transfer is likely "
             "spinning a progress loop");
  const EventKey key = heapPop();
  Callback cb = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.time;
  ++processed_;
  cb();
  if (audit_) auditInvariants();
  drainFinished();
  return true;
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void Engine::runUntil(TimeNs t) {
  while (!empty() && heap_.front().time <= t) step();
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

  // Key uniqueness: (time, seq) is a total order, so no two queued events
  // may share a seq. Linear probing over seq + 1 (0 marks an empty cell) in
  // a table at least twice the queue keeps the check O(n) per step.
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * heap_.size()) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint64_t> table(mask + 1, 0);
  for (const EventKey& k : heap_) {
    std::size_t i = static_cast<std::size_t>(
        (k.seq * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    for (; table[i] != 0; i = (i + 1) & mask) {
      DKF_CHECK_MSG(table[i] != k.seq + 1,
                    "duplicate event sequence number in the queue");
    }
    table[i] = k.seq + 1;
  }
}

// ------------------------------------------------------ detached tasks ----

void Engine::spawn(Task<void> task) {
  DKF_CHECK(task.valid());
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
