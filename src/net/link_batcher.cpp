#include "net/link_batcher.hpp"

#include <utility>

#include "common/check.hpp"

namespace dkf::net {

void LinkBatcher::setArbiter(const ArbiterConfig& cfg) {
  DKF_CHECK_MSG(pending() == 0,
                "arbiter policy must be chosen before traffic");
  arbiter_ = cfg;
  if (arbiter_.quantum_bytes == 0) arbiter_.quantum_bytes = 64 * 1024;
}

void LinkBatcher::enqueue(TimeNs t, TenantId tenant, std::size_t bytes,
                          Callback cb) {
  if (arbiter_.policy == ArbiterPolicy::Fifo) {
    DKF_CHECK_MSG(fifo_.empty() || t >= fifo_.back().time,
                  "link deliveries must be enqueued in wire order: " << t
                      << " after " << fifo_.back().time);
    fifo_.push_back(Entry{t, eng_->allocSeq(), std::move(cb)});
    // A delivery enqueued from inside fire() (a completion callback that
    // immediately sends again) is picked up by fire()'s re-arm instead.
    if (!armed_ && !firing_) arm();
    return;
  }

  if (tenant >= queues_.size()) queues_.resize(tenant + 1);
  TenantQueue& tq = queues_[tenant];
  DKF_CHECK_MSG(tq.q.empty() || t >= tq.q.back().time,
                "per-tenant link deliveries must be enqueued in wire order: "
                    << t << " after " << tq.q.back().time << " (tenant "
                    << tenant << ")");
  tq.q.push_back(DrrEntry{t, bytes, std::move(cb)});
  ++drr_pending_;
  if (!firing_) armDrr();
}

// -------------------------------------------------------- FIFO policy ----

void LinkBatcher::arm() {
  const Entry& head = fifo_.front();
  armed_ = true;
  ++armed_events_;
  eng_->scheduleAtSeq(head.time, head.seq, [this] { fire(); });
}

void LinkBatcher::fire() {
  armed_ = false;
  firing_ = true;
  const TimeNs now = eng_->now();
  Entry head = std::move(fifo_.front());
  fifo_.pop_front();
  ++deliveries_;
  head.cb();
  std::uint64_t prev_seq = head.seq;
  std::size_t run = 1;
  while (!fifo_.empty()) {
    const Entry& next = fifo_.front();
    if (next.time != now || next.seq != prev_seq + 1) break;
    Entry e = std::move(fifo_.front());
    fifo_.pop_front();
    prev_seq = e.seq;
    ++deliveries_;
    ++run;
    e.cb();
  }
  if (run > 1) {
    ++coalesced_runs_;
    coalesced_deliveries_ += run - 1;
  }
  firing_ = false;
  if (!fifo_.empty()) arm();
}

// --------------------------------------------------------- DRR policy ----

TimeNs LinkBatcher::earliestHead() const {
  TimeNs earliest = kNever;
  for (const TenantQueue& tq : queues_) {
    if (!tq.q.empty() && tq.q.front().time < earliest) {
      earliest = tq.q.front().time;
    }
  }
  return earliest;
}

void LinkBatcher::armDrr() {
  const TimeNs head = earliestHead();
  if (head == kNever) return;
  if (armed_ && armed_time_ <= head) return;  // the armed event fires first
  // A later-armed event may still be in the engine queue; the generation
  // bump turns it into a no-op when it eventually pops.
  armed_ = true;
  armed_time_ = head;
  const std::uint64_t gen = ++arm_generation_;
  ++armed_events_;
  eng_->scheduleAt(head, [this, gen] { fireDrr(gen); });
}

void LinkBatcher::fireDrr(std::uint64_t generation) {
  if (generation != arm_generation_) return;  // superseded by a re-arm
  armed_ = false;
  armed_time_ = kNever;
  firing_ = true;
  const TimeNs now = eng_->now();

  // Serve every ripe entry (delivery time reached) in deficit-round-robin
  // order: visit tenants in index order from the rotation cursor, credit
  // quantum x weight per visit, and drain ripe heads while the deficit
  // covers their bytes. A queue left without ripe work forfeits its credit
  // (standard DRR — no hoarding across idle periods). Entries becoming ripe
  // *because* callbacks ran (same-instant re-sends) are picked up by the
  // outer loop, so one event drains everything due at `now`.
  std::size_t run = 0;
  bool served_any = true;
  while (served_any) {
    served_any = false;
    const std::size_t n = queues_.size();
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t t = (drr_cursor_ + step) % n;
      TenantQueue& tq = queues_[t];
      if (tq.q.empty() || tq.q.front().time > now) {
        tq.deficit = 0.0;
        continue;
      }
      const double w = arbiter_.weights ? arbiter_.weights->weightOf(
                                              static_cast<TenantId>(t))
                                        : 1.0;
      tq.deficit += static_cast<double>(arbiter_.quantum_bytes) * w;
      while (!tq.q.empty() && tq.q.front().time <= now &&
             tq.deficit >= static_cast<double>(tq.q.front().bytes)) {
        DrrEntry e = std::move(tq.q.front());
        tq.q.pop_front();
        tq.deficit -= static_cast<double>(e.bytes);
        --drr_pending_;
        ++deliveries_;
        ++run;
        if (t >= tenant_deliveries_.size()) tenant_deliveries_.resize(t + 1);
        ++tenant_deliveries_[t];
        served_any = true;
        e.cb();
      }
      if (tq.q.empty() || tq.q.front().time > now) tq.deficit = 0.0;
    }
    if (served_any) drr_cursor_ = (drr_cursor_ + 1) % queues_.size();
  }
  if (run > 1) {
    ++coalesced_runs_;
    coalesced_deliveries_ += run - 1;
  }
  firing_ = false;
  armDrr();
}

}  // namespace dkf::net
