// Per-link delivery coalescing (MODEL.md §13) with a pluggable head policy
// (MODEL.md §14).
//
// Every transfer on a link completes at a delivery time computed by
// Link::transferAt, which serializes the wire: per link, delivery times are
// non-decreasing in issue order. The batcher exploits that: instead of one
// engine event per delivery, deliveries park in a per-link FIFO and only the
// FIFO *head* occupies the engine queue. When the head fires, the batcher
// runs it plus any immediately-following deliveries that are provably next
// in the global event order, then re-arms the new head — one heap push and
// one pop carry N completions.
//
// Exactness (FIFO policy). Each delivery reserves its engine sequence
// number with Engine::allocSeq() at enqueue time — the seq an eager
// scheduleAt would have consumed — and the head is armed under that
// reserved (time, seq) key via scheduleAtSeq. The armed event therefore
// pops exactly when the eager event would have. In-event coalescing is
// restricted to *contiguous-seq same-time runs*: a parked entry (t, s+1)
// directly following the fired entry (t, s) can run in the same event
// because no foreign event can sit between them in the total order (seqs
// are unique, everything ordered before (t, s+1) has already run, and
// events scheduled from inside the current event get strictly larger seqs).
// The batched event stream is therefore byte-identical to the unbatched
// one.
//
// DRR policy (setArbiter with ArbiterPolicy::Drr). Deliveries park in
// per-tenant queues (each provably time-sorted: both wire models make a
// tenant's delivery times non-decreasing), the earliest head across the
// queues is armed under a fresh engine key, and a fired event serves every
// ripe entry (time <= now) in deficit-round-robin order over the tenants —
// see arbiter.hpp. Timing is untouched (every entry still runs at its own
// delivery time); the policy decides ordering among same-instant ripe
// entries and keeps the engine queue collapsed to one event per busy link
// even when the global delivery stream is not monotone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ring.hpp"
#include "common/tenant.hpp"
#include "common/units.hpp"
#include "net/arbiter.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace dkf::net {

class LinkBatcher {
 public:
  /// Same budget as an engine event slot: delivery closures (payload spans,
  /// owned eager snapshots, completion hooks) park here unchanged.
  using Callback = sim::EventCallback;

  explicit LinkBatcher(sim::Engine& eng) : eng_(&eng) {}
  LinkBatcher(const LinkBatcher&) = delete;
  LinkBatcher& operator=(const LinkBatcher&) = delete;

  /// Park a delivery that completes at `t`. FIFO policy: `t` must be >= the
  /// previously enqueued delivery time (guaranteed by Link wire
  /// serialization). Deliveries enqueued this way belong to the default
  /// tenant under the DRR policy.
  void enqueue(TimeNs t, Callback cb) {
    enqueue(t, kDefaultTenant, /*bytes=*/0, std::move(cb));
  }

  /// Park a delivery of `bytes` payload bytes for `tenant`. Under FIFO the
  /// tenant and size are ignored (wire order is the policy); under DRR `t`
  /// must be >= the previously enqueued delivery time *of this tenant*.
  void enqueue(TimeNs t, TenantId tenant, std::size_t bytes, Callback cb);

  /// Select the head policy (arbiter.hpp). Only meaningful before traffic:
  /// switching with deliveries parked would strand them.
  void setArbiter(const ArbiterConfig& cfg);
  ArbiterPolicy policy() const { return arbiter_.policy; }

  std::size_t pending() const { return fifo_.size() + drr_pending_; }

  // ---- Instrumentation (tests + bench) ----
  /// Deliveries executed.
  std::size_t deliveries() const { return deliveries_; }
  /// Engine events armed. Under FIFO every armed event delivers, so
  /// deliveries() - armedEvents() == coalescedDeliveries(); under DRR an
  /// event superseded by a re-arm fires empty.
  std::size_t armedEvents() const { return armed_events_; }
  /// Events that carried more than one delivery.
  std::size_t coalescedRuns() const { return coalesced_runs_; }
  /// Deliveries that rode along in another delivery's event.
  std::size_t coalescedDeliveries() const { return coalesced_deliveries_; }
  /// DRR only: deliveries served per tenant (index = tenant id).
  const std::vector<std::size_t>& tenantDeliveries() const {
    return tenant_deliveries_;
  }

 private:
  struct Entry {
    TimeNs time;
    std::uint64_t seq;  // reserved engine key (allocSeq at enqueue)
    Callback cb;
  };
  struct DrrEntry {
    TimeNs time;
    std::size_t bytes;
    Callback cb;
  };
  struct TenantQueue {
    RingQueue<DrrEntry> q;
    double deficit{0.0};
  };

  // ---- FIFO policy (the seed path, byte-identical) ----
  /// Put the FIFO head into the engine queue under its reserved key.
  void arm();
  /// Head event fired: deliver it plus any provably-next parked entries,
  /// then re-arm the new head.
  void fire();

  // ---- DRR policy ----
  /// Earliest parked delivery time across tenant queues (kNever if none).
  TimeNs earliestHead() const;
  /// Arm (or bring forward) the engine event for the earliest head.
  void armDrr();
  /// Serve every ripe entry in deficit-round-robin order, then re-arm.
  void fireDrr(std::uint64_t generation);

  static constexpr TimeNs kNever = ~TimeNs{0};

  sim::Engine* eng_;
  RingQueue<Entry> fifo_;
  bool armed_{false};
  bool firing_{false};

  ArbiterConfig arbiter_{};
  std::vector<TenantQueue> queues_;  // DRR: per-tenant, grown on demand
  std::size_t drr_pending_{0};
  std::size_t drr_cursor_{0};        // rotation start for the next round
  TimeNs armed_time_{kNever};
  std::uint64_t arm_generation_{0};  // invalidates superseded armed events

  std::size_t deliveries_{0};
  std::size_t armed_events_{0};
  std::size_t coalesced_runs_{0};
  std::size_t coalesced_deliveries_{0};
  std::vector<std::size_t> tenant_deliveries_;
};

}  // namespace dkf::net
