// The cluster interconnect: per-ordered-pair InfiniBand channels between
// nodes, plus an intra-node IPC path per node (NVLink peer transfers).
//
// The fabric moves real bytes: data transfers copy the payload span into the
// destination span at delivery time and then run the completion callback.
// The sender must keep the payload stable until completion — which the MPI
// runtime guarantees (buffers are owned by requests until FIN).
//
// GPUDirect is modeled by capping the streaming bandwidth of a transfer at
// the machine's gpuDirectBandwidth() whenever an endpoint is device memory;
// on Lassen (NVLink 75 > IB 25) the cap never binds, on ABCI (PCIe ~12 < IB
// 25) it does — the asymmetry §V-C attributes ABCI's different behaviour to.
#pragma once

#include <memory>
#include <vector>

#include "common/tenant.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/memory.hpp"
#include "hw/spec.hpp"
#include "net/arbiter.hpp"
#include "net/link.hpp"
#include "net/link_batcher.hpp"
#include "net/payload.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dkf::net {

/// Multi-tenant contention model (MODEL.md §14). Off by default: the fabric
/// is the seed single-tenant FIFO wire and every existing golden stays
/// byte-identical. Enabled, each link becomes a weighted processor-sharing
/// wire (Link::setSharing) and each batcher arbitrates same-instant
/// deliveries with deficit round robin over per-tenant queues.
struct ContentionConfig {
  bool enabled{false};
  TenantWeights weights{};
  std::size_t quantum_bytes{64 * 1024};
};

class Fabric {
 public:
  /// Delivery/completion hooks are move-only inline callbacks: they are
  /// captured into engine event slots, so a small budget here keeps the
  /// whole delivery closure allocation-free (sim/callback.hpp).
  using Callback = sim::SmallCallback;
  using Predicate = sim::SmallPredicate;
  /// Receivers take the payload as a pool-backed ref (net/payload.hpp):
  /// the delivery closure, any parked batcher entry and the receiver's
  /// handler all share the sender's single capture.
  using MessageCallback =
      sim::InlineFunction<void(PayloadRef), sim::kSmallCallbackBytes>;

  Fabric(sim::Engine& eng, const hw::MachineSpec& machine, std::size_t nodes);

  std::size_t nodeCount() const { return nodes_; }

  /// Two-sided data message src_node -> dst_node. Copies `payload` into
  /// `dst` at delivery, then runs `on_delivered`. Returns the delivery time.
  TimeNs sendData(int src_node, int dst_node, gpu::MemSpan payload,
                  gpu::MemSpan dst, Callback on_delivered,
                  TenantId tenant = kDefaultTenant);

  /// Small control packet (RTS/CTS/FIN). 64 bytes on the wire.
  TimeNs sendControl(int src_node, int dst_node, Callback on_delivered,
                     TenantId tenant = kDefaultTenant);

  /// Two-sided message with *sender-side capture*: the payload is
  /// snapshotted at call time (MPI eager semantics — the sender may reuse
  /// its buffer immediately) into the payload pool and handed to the
  /// receiver as a ref at delivery. Used for eager-protocol data whose
  /// destination buffer is not known until matching happens at the
  /// receiver.
  TimeNs sendMessage(int src_node, int dst_node, gpu::MemSpan payload,
                     MessageCallback on_delivered,
                     TenantId tenant = kDefaultTenant);

  /// Two-sided message whose payload was already captured into the pool:
  /// the ref rides the wire (a bump, not a copy), so a reliable
  /// transport's retransmission reuses the original capture byte-for-byte.
  /// `payload_src` is the span the bytes came from — it carries the memory
  /// space for the GPUDirect bandwidth cap, exactly as sendMessage saw it.
  TimeNs sendPayload(int src_node, int dst_node, gpu::MemSpan payload_src,
                     PayloadRef payload, MessageCallback on_delivered,
                     TenantId tenant = kDefaultTenant);

  /// The slab pool behind every captured payload (staging buffers and
  /// collective chunk staging draw from it too).
  PayloadPool& payloadPool() { return pool_; }

  /// One-sided RDMA READ issued by `reader_node` against `target_node`:
  /// a request propagates to the target, then data streams back. The copy
  /// into `dst` happens at delivery, then `on_done` runs at the reader.
  /// `still_wanted` (optional) is consulted at delivery time: when it
  /// returns false the transfer is quietly discarded — no copy, no
  /// callback. Retransmitting transports use it so a late duplicate of a
  /// merely-slow (not dropped) transfer cannot scribble over spans that
  /// were re-used after the first copy landed.
  TimeNs rdmaRead(int reader_node, int target_node, gpu::MemSpan src,
                  gpu::MemSpan dst, Callback on_done,
                  Predicate still_wanted = {},
                  TenantId tenant = kDefaultTenant);

  /// One-sided RDMA WRITE issued by `writer_node` into `target_node`.
  /// `still_wanted` as for rdmaRead.
  TimeNs rdmaWrite(int writer_node, int target_node, gpu::MemSpan src,
                   gpu::MemSpan dst, Callback on_done,
                   Predicate still_wanted = {},
                   TenantId tenant = kDefaultTenant);

  std::size_t totalBytesCarried() const;
  std::size_t totalMessages() const;

  /// Attach a tracer: every transfer emits a span on its channel's track.
  void setTracer(sim::Tracer* tracer) { tracer_ = tracer; }

  /// Attach a fault plan: sends consult it for NIC stalls, packet drops
  /// and link-degradation windows. A dropped transfer still occupies the
  /// wire (the bytes were transmitted, then lost) but its delivery
  /// callback — and for data, the memcpy — never runs. Pass nullptr to
  /// detach (the default: a loss-free fabric).
  void setFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }

  // Aggregate batcher counters (bench/tests).
  std::size_t batchedDeliveries() const;
  std::size_t batchedArmedEvents() const;

  /// Enable the multi-tenant contention model: shared-bandwidth links and
  /// DRR batchers. Only meaningful before traffic (links and batchers are
  /// configured as they materialize).
  void setContention(const ContentionConfig& cfg);
  const ContentionConfig& contention() const { return contention_; }

  /// Contention model: deliveries served per tenant, summed over links.
  std::vector<std::size_t> tenantDeliveries() const;

 private:
  Link& linkBetween(int src_node, int dst_node);
  LinkBatcher& batcherBetween(int src_node, int dst_node);
  /// Hand a delivery closure to the channel's batcher.
  void deliver(int src_node, int dst_node, TimeNs t, TenantId tenant,
               std::size_t bytes, LinkBatcher::Callback cb);
  /// Wire reservation under the active model: shared per-tenant when
  /// contention is enabled, plain FIFO otherwise.
  TimeNs reserveWire(Link& link, TenantId tenant, TimeNs earliest,
                     std::size_t bytes, double cap);
  /// Bandwidth cap (bytes/ns) for a transfer touching these spans; 0 = none.
  double directCap(const gpu::MemSpan& a, const gpu::MemSpan& b) const;

  /// Earliest wire time for a send issued now (NIC overhead + any injected
  /// NIC stall).
  TimeNs departureTime(DurationNs nic_cost);
  /// Fold the active link-degradation scale into a bandwidth cap.
  /// Returns the effective cap (0 = uncapped) and sets `down` when the
  /// link is inside a zero-bandwidth window.
  double degradedCap(double cap, const Link& link, bool& down);

  void traceTransfer(int src_node, int dst_node, const char* what,
                     std::size_t bytes, TimeNs begin, TimeNs delivery);
  void traceDrop(int src_node, int dst_node, const char* what);

  sim::Engine* eng_;
  sim::Tracer* tracer_{nullptr};
  fault::FaultPlan* faults_{nullptr};
  hw::MachineSpec machine_;
  std::size_t nodes_;
  ContentionConfig contention_{};
  // Declared before links_/batchers_: parked batcher deliveries hold
  // payload refs, so the pool must be destroyed after them.
  PayloadPool pool_;
  // links_[src * nodes_ + dst]; diagonal entries are the intra-node path.
  std::vector<std::unique_ptr<Link>> links_;
  // One batcher per materialized channel, same indexing.
  std::vector<std::unique_ptr<LinkBatcher>> batchers_;
};

}  // namespace dkf::net
