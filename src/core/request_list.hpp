// The fusion framework's request list (§IV-A1).
//
// A fixed-capacity circular buffer of requests. Each entry carries exactly
// the fields the paper enumerates: UID, requested operation (Packing /
// Unpacking / DirectIPC), origin buffer, target buffer, cached data layout,
// request status (written by the host-side scheduler) and response status
// (written only by the "GPU" — in the simulator, by the fused kernel's
// per-op completion events). The scheduler maintains Head and Tail indices
// to know which requests are pending to be fused.
//
// Every hot operation is O(1) regardless of capacity (the progress engine
// touches this structure on every enqueue, launch and query, so at the
// bulk-transfer capacities of Figs. 9-10 a linear scan would dominate the
// simulator's wall-clock):
//   - an intrusive free list threads the Idle slots, so tryEnqueue pops a
//     slot without scanning for holes left by out-of-order retirement;
//   - a FIFO ring of pending slot indices is maintained in UID order (UIDs
//     are assigned monotonically at enqueue, so insertion order IS UID
//     order), so claimPendingBatch needs no scan-then-sort;
//   - a UID->slot window ring exploits UID monotonicity: live UIDs lie in
//     [lowestLiveUid(), nextUid()), and because the window is kept at most
//     as wide as the ring, `uid & (ring_size - 1)` addresses each live UID
//     uniquely. Retired entries are tombstoned and the window front
//     advances lazily.
//
// When the list is full, tryEnqueue returns a negative UID and the caller
// takes its fallback path (§IV-A2 ①). Querying that sentinel — or any UID
// never returned by tryEnqueue — is a caller bug and throws CheckFailure:
// "unknown" is distinguished from "already retired" so a caller that fell
// back on rejection can never observe a phantom completion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/tenant.hpp"
#include "ddt/layout.hpp"
#include "gpu/gpu.hpp"
#include "gpu/memory.hpp"

namespace dkf::core {

enum class FusionOp : std::uint8_t { Packing, Unpacking, DirectIPC };

enum class Status : std::uint8_t { Idle, Pending, Busy, Completed };

struct FusionRequest {
  std::int64_t uid{-1};
  FusionOp op{FusionOp::Packing};
  gpu::MemSpan origin{};            ///< non-contiguous src (pack/direct) or
                                    ///< contiguous src (unpack)
  gpu::MemSpan target{};            ///< contiguous dst (pack) or
                                    ///< non-contiguous dst (unpack/direct)
  ddt::LayoutPtr layout{};          ///< layout of the non-contiguous side
  ddt::LayoutPtr target_layout{};   ///< DirectIPC only: dst layout
  TenantId tenant{kDefaultTenant};  ///< traffic class (MODEL.md §14)
  Status request_status{Status::Idle};
  Status response_status{Status::Idle};

  std::size_t bytes() const { return layout ? layout->size() : 0; }
};

/// The kernel op that carries out `req`: one per request of a fused kernel,
/// the only op of a GPU-Sync or GPU-Async kernel.
gpu::Gpu::Op kernelOp(const FusionRequest& req);

/// Carry out `req`'s data movement on the host: the GDRCopy and staged-copy
/// schemes, and a fused batch whose launches keep failing.
void moveOnHost(const FusionRequest& req);

class RequestList {
 public:
  /// Sentinel slot index ("no slot").
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit RequestList(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }
  /// Requests enqueued but not yet handed to a fused kernel.
  std::size_t pendingCount() const { return pending_; }
  /// Sum of bytes over pending requests — the fusion-threshold input.
  std::size_t pendingBytes() const { return pending_bytes_; }
  /// True if any pending (unclaimed) request belongs to `tenant`.
  /// O(pending). Used by admission backpressure (MODEL.md §14): a blocked
  /// tenant flushes only when it has work of its own to drain, so it never
  /// shatters another tenant's kernel batching.
  bool hasPendingFor(TenantId tenant) const;
  /// Requests currently executing on the GPU.
  std::size_t busyCount() const { return busy_; }
  /// Entries occupied (pending + busy + completed-not-yet-retired).
  std::size_t occupied() const { return occupied_; }
  bool full() const { return occupied_ == slots_.size(); }
  bool empty() const { return occupied_ == 0; }

  /// ① Insert at Tail. Returns the assigned UID, or -1 if the list is full
  /// (caller falls back). Takes `req` only when it accepts it: a rejected
  /// request is left intact for the fallback path. The entry starts in
  /// Pending. O(1).
  std::int64_t tryEnqueue(FusionRequest&& req);

  /// Collect up to `max_requests` pending slot indices (oldest first) and
  /// mark them Busy — the batch for one fused kernel (② in Fig. 5).
  /// O(batch size).
  std::vector<std::size_t> claimPendingBatch(std::size_t max_requests);

  /// ③ GPU-side completion: the fused kernel signals a request by writing
  /// its response status (no host synchronization involved). O(1).
  void signalCompletion(std::size_t slot);

  /// ④ Status query by UID: Completed entries are retired (slot recycled to
  /// Idle and returned to the free list). Returns true once the request has
  /// been retired (now or earlier), false while it is still in flight.
  /// UIDs never issued by tryEnqueue — negative values (including the -1
  /// rejection sentinel) and values >= nextUid() — throw CheckFailure.
  /// Amortized O(1).
  bool queryAndRetire(std::int64_t uid);

  /// Direct slot access for the fused-kernel builder.
  FusionRequest& slot(std::size_t index);

  std::size_t totalEnqueued() const { return total_enqueued_; }
  std::size_t totalRejected() const { return total_rejected_; }
  std::size_t totalRetired() const { return total_retired_; }

  /// UID the next tryEnqueue will assign; all issued UIDs are < this.
  std::int64_t nextUid() const { return next_uid_; }
  /// Smallest UID not yet retired (== nextUid() when nothing is live).
  /// Every UID below this has completed its full lifecycle.
  std::int64_t lowestLiveUid() const { return lowest_live_uid_; }

  /// Debug toggle: when on, every mutating operation re-audits the full
  /// structure via checkInvariants(). O(capacity) per op — tests only.
  void setAudit(bool on) { audit_ = on; }

  /// Invariant audit used by tests: counters match a full scan, the free
  /// list threads exactly the Idle slots, the pending ring holds exactly
  /// the Pending slots in UID order, and the UID window maps every
  /// occupied slot (and nothing else).
  void checkInvariants() const;

 private:
  /// Slot currently holding `uid`, or npos if that UID is retired.
  /// Precondition: 0 <= uid < next_uid_. O(1).
  std::size_t slotOfUid(std::int64_t uid) const;
  /// Double the UID window ring (rare: only when the span of live UIDs
  /// outgrows it because one old request lingers unretired).
  void growUidRing();
  void maybeAudit() const {
    if (audit_) checkInvariants();
  }

  std::vector<FusionRequest> slots_;

  /// Intrusive free list of Idle slots: free_next_[s] chains slot s to the
  /// next free slot (npos terminates). Replaces the Tail scan for holes.
  std::vector<std::size_t> free_next_;
  std::size_t free_head_{npos};

  /// Ring of pending slot indices in UID (= insertion) order.
  /// pending_ring_ has the same capacity as slots_; pending_ is the
  /// occupancy and pending_head_ the oldest entry.
  std::vector<std::size_t> pending_ring_;
  std::size_t pending_head_{0};

  /// UID->slot window: uid_ring_[uid & uid_mask_] == slot holding `uid`
  /// for live UIDs, npos tombstone for UIDs retired inside the window
  /// [lowest_live_uid_, next_uid_). Power-of-two sized.
  std::vector<std::size_t> uid_ring_;
  std::size_t uid_mask_{0};

  std::size_t occupied_{0};
  std::size_t pending_{0};
  std::size_t pending_bytes_{0};
  std::size_t busy_{0};
  std::int64_t next_uid_{0};
  std::int64_t lowest_live_uid_{0};
  std::size_t total_enqueued_{0};
  std::size_t total_rejected_{0};
  std::size_t total_retired_{0};
  bool audit_{false};
};

}  // namespace dkf::core
