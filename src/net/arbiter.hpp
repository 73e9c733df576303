// Pluggable delivery arbitration for per-link batchers (MODEL.md §14).
//
// A LinkBatcher serves parked deliveries under one of two head policies:
//
//   Fifo  the seed policy — one global FIFO per link, exact reserved-seq
//         arming, byte-identical to eager scheduling. The default
//         everywhere; every existing golden/conformance suite runs on it
//         unchanged.
//
//   Drr   deficit round robin over per-tenant per-link queues. Each tenant
//         parks its deliveries in its own queue (per-tenant delivery times
//         are non-decreasing under both wire models, so each queue stays
//         time-sorted even when the global stream is not), only the
//         earliest ripe head occupies the engine queue, and when it fires
//         every ripe entry is served in deficit-round-robin order: a
//         tenant's deficit grows by quantum_bytes x weight per round and
//         pays per delivered byte, so over any backlog interval tenants
//         drain in proportion to their weights instead of arrival order.
//
// The DRR policy is what makes delivery batching work at all under the
// shared-bandwidth contention model: per-tenant completion times are not
// globally monotone, so the FIFO policy's wire-order invariant cannot hold
// across tenants — but it holds per tenant, which is exactly the queue
// granularity DRR arbitrates over.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/tenant.hpp"

namespace dkf::net {

enum class ArbiterPolicy : std::uint8_t { Fifo, Drr };

/// How a batcher arbitrates parked deliveries. `weights` is borrowed (the
/// owner — Fabric, or a test — must outlive the batcher); nullptr means
/// every tenant weighs 1.0.
struct ArbiterConfig {
  ArbiterPolicy policy{ArbiterPolicy::Fifo};
  const TenantWeights* weights{nullptr};
  /// DRR credit added per tenant per service round, in bytes (scaled by the
  /// tenant's weight). Larger quanta trade scheduling granularity for fewer
  /// rotation steps; any positive value preserves the weighted shares.
  std::size_t quantum_bytes{64 * 1024};
};

}  // namespace dkf::net
