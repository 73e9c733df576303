#include "core/request_list.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "ddt/pack.hpp"

namespace dkf::core {

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

gpu::Gpu::Op kernelOp(const FusionRequest& req) {
  gpu::Gpu::Op op;
  switch (req.op) {
    case FusionOp::Packing:
      op.kind = gpu::Gpu::Op::Kind::Pack;
      break;
    case FusionOp::Unpacking:
      op.kind = gpu::Gpu::Op::Kind::Unpack;
      break;
    case FusionOp::DirectIPC:
      op.kind = gpu::Gpu::Op::Kind::StridedCopy;
      op.dst_layout = req.target_layout;
      break;
  }
  op.layout = req.layout;
  op.src = req.origin.bytes;
  op.dst = req.target.bytes;
  return op;
}

void moveOnHost(const FusionRequest& req) {
  switch (req.op) {
    case FusionOp::Packing:
      ddt::packCpu(*req.layout, req.origin.bytes, req.target.bytes);
      break;
    case FusionOp::Unpacking:
      ddt::unpackCpu(*req.layout, req.origin.bytes, req.target.bytes);
      break;
    case FusionOp::DirectIPC:
      ddt::copyStrided(*req.layout, req.origin.bytes, *req.target_layout,
                       req.target.bytes);
      break;
  }
}

RequestList::RequestList(std::size_t capacity)
    : slots_(capacity),
      free_next_(capacity, npos),
      pending_ring_(capacity, npos) {
  DKF_CHECK(capacity > 0);
  // Thread the free list through all slots in index order.
  for (std::size_t i = 0; i + 1 < capacity; ++i) free_next_[i] = i + 1;
  free_head_ = 0;
  // The UID window starts at 2x capacity so it only ever grows when one
  // stale request pins the window open across many enqueue/retire cycles.
  uid_ring_.assign(roundUpPow2(2 * capacity), npos);
  uid_mask_ = uid_ring_.size() - 1;
}

std::int64_t RequestList::tryEnqueue(FusionRequest&& req) {
  if (full()) {
    ++total_rejected_;
    return -1;
  }
  // Tail == free-list head: pop the next Idle slot (out-of-order retirement
  // leaves holes anywhere in the ring; the free list threads them).
  const std::size_t slot_index = free_head_;
  free_head_ = free_next_[slot_index];
  free_next_[slot_index] = npos;

  req.uid = next_uid_++;
  req.request_status = Status::Pending;
  req.response_status = Status::Idle;
  const std::size_t bytes = req.bytes();
  const std::int64_t uid = req.uid;
  slots_[slot_index] = std::move(req);

  // Publish the UID -> slot mapping; widen the window ring first if one
  // unretired straggler has kept it open past the ring size.
  if (static_cast<std::size_t>(next_uid_ - lowest_live_uid_) >
      uid_ring_.size()) {
    growUidRing();
  }
  uid_ring_[static_cast<std::size_t>(uid) & uid_mask_] = slot_index;

  // Append to the pending FIFO; UIDs are monotonic so insertion order is
  // UID order.
  pending_ring_[(pending_head_ + pending_) % pending_ring_.size()] =
      slot_index;

  ++occupied_;
  ++pending_;
  pending_bytes_ += bytes;
  ++total_enqueued_;
  maybeAudit();
  return uid;
}

bool RequestList::hasPendingFor(TenantId tenant) const {
  std::size_t cursor = pending_head_;
  for (std::size_t i = 0; i < pending_; ++i) {
    if (slots_[pending_ring_[cursor]].tenant == tenant) return true;
    cursor = (cursor + 1) % pending_ring_.size();
  }
  return false;
}

std::vector<std::size_t> RequestList::claimPendingBatch(
    std::size_t max_requests) {
  const std::size_t n = std::min(max_requests, pending_);
  std::vector<std::size_t> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot_index = pending_ring_[pending_head_];
    pending_ring_[pending_head_] = npos;
    pending_head_ = (pending_head_ + 1) % pending_ring_.size();
    FusionRequest& r = slots_[slot_index];
    r.request_status = Status::Busy;
    --pending_;
    pending_bytes_ -= r.bytes();
    ++busy_;
    batch.push_back(slot_index);
  }
  maybeAudit();
  return batch;
}

void RequestList::signalCompletion(std::size_t slot_index) {
  FusionRequest& r = slot(slot_index);
  DKF_CHECK_MSG(r.request_status == Status::Busy,
                "completion signalled for non-busy slot " << slot_index);
  r.response_status = Status::Completed;
  r.request_status = Status::Completed;
  --busy_;
  maybeAudit();
}

bool RequestList::queryAndRetire(std::int64_t uid) {
  DKF_CHECK_MSG(uid >= 0 && uid < next_uid_,
                "query for uid " << uid << " that was never enqueued (issued "
                                 << "uids are [0, " << next_uid_ << "))");
  if (uid < lowest_live_uid_) return true;  // retired earlier
  const std::size_t index = slotOfUid(uid);
  if (index == npos) return true;  // retired earlier, window not yet advanced
  FusionRequest& r = slots_[index];
  if (r.response_status != Status::Completed) return false;
  // Retire: recycle the slot onto the free list, tombstone the UID.
  r = FusionRequest{};
  free_next_[index] = free_head_;
  free_head_ = index;
  uid_ring_[static_cast<std::size_t>(uid) & uid_mask_] = npos;
  while (lowest_live_uid_ < next_uid_ &&
         uid_ring_[static_cast<std::size_t>(lowest_live_uid_) & uid_mask_] ==
             npos) {
    ++lowest_live_uid_;
  }
  DKF_CHECK(occupied_ > 0);
  --occupied_;
  ++total_retired_;
  maybeAudit();
  return true;
}

FusionRequest& RequestList::slot(std::size_t index) {
  DKF_CHECK(index < slots_.size());
  return slots_[index];
}

std::size_t RequestList::slotOfUid(std::int64_t uid) const {
  DKF_CHECK(uid >= lowest_live_uid_ && uid < next_uid_);
  return uid_ring_[static_cast<std::size_t>(uid) & uid_mask_];
}

void RequestList::growUidRing() {
  std::vector<std::size_t> grown(uid_ring_.size() * 2, npos);
  const std::size_t mask = grown.size() - 1;
  // Called from tryEnqueue after next_uid_ was bumped but before the new
  // UID's mapping is published, so only [lowest_live_uid_, next_uid_ - 1)
  // holds valid entries (the new UID's old-ring position aliases the
  // window front exactly when growth is needed).
  for (std::int64_t uid = lowest_live_uid_; uid < next_uid_ - 1; ++uid) {
    grown[static_cast<std::size_t>(uid) & mask] =
        uid_ring_[static_cast<std::size_t>(uid) & uid_mask_];
  }
  uid_ring_ = std::move(grown);
  uid_mask_ = mask;
}

void RequestList::checkInvariants() const {
  std::size_t pending = 0, busy = 0, occupied = 0, pending_bytes = 0;
  for (const FusionRequest& r : slots_) {
    switch (r.request_status) {
      case Status::Idle:
        break;
      case Status::Pending:
        ++pending;
        ++occupied;
        pending_bytes += r.bytes();
        break;
      case Status::Busy:
        ++busy;
        ++occupied;
        break;
      case Status::Completed:
        ++occupied;
        break;
    }
  }
  DKF_CHECK(pending == pending_);
  DKF_CHECK(busy == busy_);
  DKF_CHECK(occupied == occupied_);
  DKF_CHECK(pending_bytes == pending_bytes_);
  DKF_CHECK(total_enqueued_ == total_retired_ + occupied_);

  // Free list <-> Idle slots: the chain is cycle-free, every chained slot
  // is Idle, and its length equals the number of Idle slots.
  std::size_t free_len = 0;
  for (std::size_t s = free_head_; s != npos; s = free_next_[s]) {
    DKF_CHECK(s < slots_.size());
    DKF_CHECK(slots_[s].request_status == Status::Idle);
    ++free_len;
    DKF_CHECK_MSG(free_len <= slots_.size(), "free-list cycle");
  }
  DKF_CHECK(free_len == slots_.size() - occupied_);

  // Pending ring <-> Pending slots, in strictly increasing UID order.
  std::int64_t prev_uid = -1;
  for (std::size_t i = 0; i < pending_; ++i) {
    const std::size_t s =
        pending_ring_[(pending_head_ + i) % pending_ring_.size()];
    DKF_CHECK(s < slots_.size());
    DKF_CHECK(slots_[s].request_status == Status::Pending);
    DKF_CHECK(slots_[s].uid > prev_uid);
    prev_uid = slots_[s].uid;
  }

  // UID window <-> occupied slots: the window is exactly
  // [lowest_live_uid_, next_uid_), fits the ring, maps every occupied
  // slot back to itself, and contains nothing else.
  DKF_CHECK(lowest_live_uid_ >= 0 && lowest_live_uid_ <= next_uid_);
  DKF_CHECK(static_cast<std::size_t>(next_uid_ - lowest_live_uid_) <=
            uid_ring_.size());
  std::size_t live = 0;
  for (std::int64_t uid = lowest_live_uid_; uid < next_uid_; ++uid) {
    const std::size_t s = uid_ring_[static_cast<std::size_t>(uid) & uid_mask_];
    if (s == npos) continue;
    DKF_CHECK(s < slots_.size());
    DKF_CHECK(slots_[s].request_status != Status::Idle);
    DKF_CHECK(slots_[s].uid == uid);
    ++live;
  }
  DKF_CHECK(live == occupied_);
  if (lowest_live_uid_ < next_uid_) {
    // The window front is always a live UID (advanced eagerly on retire).
    DKF_CHECK(uid_ring_[static_cast<std::size_t>(lowest_live_uid_) &
                        uid_mask_] != npos);
  }
}

}  // namespace dkf::core
