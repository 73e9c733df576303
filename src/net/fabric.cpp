#include "net/fabric.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace dkf::net {

namespace {
constexpr std::size_t kControlPacketBytes = 64;
}

Fabric::Fabric(sim::Engine& eng, const hw::MachineSpec& machine,
               std::size_t nodes)
    : eng_(&eng), machine_(machine), nodes_(nodes) {
  DKF_CHECK(nodes > 0);
  // Channels materialize on first use: a 1024-node cluster declares a
  // million ordered pairs, but a tree collective touches a few thousand.
  links_.resize(nodes * nodes);
  batchers_.resize(nodes * nodes);
}

LinkBatcher& Fabric::batcherBetween(int src_node, int dst_node) {
  auto& slot = batchers_[static_cast<std::size_t>(src_node) * nodes_ +
                         static_cast<std::size_t>(dst_node)];
  if (!slot) {
    slot = std::make_unique<LinkBatcher>(*eng_);
    if (contention_.enabled) {
      ArbiterConfig cfg;
      cfg.policy = ArbiterPolicy::Drr;
      cfg.weights = &contention_.weights;
      cfg.quantum_bytes = contention_.quantum_bytes;
      slot->setArbiter(cfg);
    }
  }
  return *slot;
}

void Fabric::deliver(int src_node, int dst_node, TimeNs t, TenantId tenant,
                     std::size_t bytes, LinkBatcher::Callback cb) {
  batcherBetween(src_node, dst_node).enqueue(t, tenant, bytes, std::move(cb));
}

TimeNs Fabric::reserveWire(Link& link, TenantId tenant, TimeNs earliest,
                           std::size_t bytes, double cap) {
  if (contention_.enabled) {
    return link.transferSharedAt(tenant, earliest, bytes, cap);
  }
  return link.transferAt(earliest, bytes, cap);
}

void Fabric::setContention(const ContentionConfig& cfg) {
  contention_ = cfg;
  if (contention_.quantum_bytes == 0) contention_.quantum_bytes = 64 * 1024;
  if (!contention_.enabled) return;
  for (auto& l : links_) {
    if (l) l->setSharing(&contention_.weights);
  }
  for (auto& b : batchers_) {
    if (b) {
      ArbiterConfig bcfg;
      bcfg.policy = ArbiterPolicy::Drr;
      bcfg.weights = &contention_.weights;
      bcfg.quantum_bytes = contention_.quantum_bytes;
      b->setArbiter(bcfg);
    }
  }
}

std::vector<std::size_t> Fabric::tenantDeliveries() const {
  std::vector<std::size_t> sums;
  for (const auto& b : batchers_) {
    if (!b) continue;
    const auto& per = b->tenantDeliveries();
    if (per.size() > sums.size()) sums.resize(per.size(), 0);
    for (std::size_t t = 0; t < per.size(); ++t) sums[t] += per[t];
  }
  return sums;
}

std::size_t Fabric::batchedDeliveries() const {
  std::size_t total = 0;
  for (const auto& b : batchers_) {
    if (b) total += b->deliveries();
  }
  return total;
}

std::size_t Fabric::batchedArmedEvents() const {
  std::size_t total = 0;
  for (const auto& b : batchers_) {
    if (b) total += b->armedEvents();
  }
  return total;
}

Link& Fabric::linkBetween(int src_node, int dst_node) {
  DKF_CHECK(src_node >= 0 && static_cast<std::size_t>(src_node) < nodes_);
  DKF_CHECK(dst_node >= 0 && static_cast<std::size_t>(dst_node) < nodes_);
  auto& slot = links_[static_cast<std::size_t>(src_node) * nodes_ +
                      static_cast<std::size_t>(dst_node)];
  if (!slot) {
    const hw::LinkSpec& spec =
        src_node == dst_node ? machine_.node.gpu_gpu : machine_.internode;
    slot = std::make_unique<Link>(*eng_, spec);
    if (contention_.enabled) slot->setSharing(&contention_.weights);
  }
  return *slot;
}

void Fabric::traceTransfer(int src_node, int dst_node, const char* what,
                           std::size_t bytes, TimeNs begin, TimeNs delivery) {
  if (!tracer_ || !tracer_->isEnabled()) return;
  const auto track = tracer_->track("fabric." + std::to_string(src_node) +
                                    "->" + std::to_string(dst_node));
  tracer_->span(track,
                std::string(what) + "[" + std::to_string(bytes) + " B]",
                begin, delivery, "comm");
}

double Fabric::directCap(const gpu::MemSpan& a, const gpu::MemSpan& b) const {
  if (a.onDevice() || b.onDevice()) {
    return machine_.gpuDirectBandwidth().bytesPerNs();
  }
  return 0.0;
}

TimeNs Fabric::departureTime(DurationNs nic_cost) {
  TimeNs t = eng_->now() + nic_cost;
  if (faults_) t += faults_->nicStallDelay();
  return t;
}

double Fabric::degradedCap(double cap, const Link& link, bool& down) {
  down = false;
  if (!faults_) return cap;
  const double scale = faults_->linkScaleAt(eng_->now());
  if (scale >= 1.0) return cap;
  faults_->noteDegraded();
  if (scale <= 0.0) {
    down = true;  // link down: the transfer is lost outright
    return cap;
  }
  const double scaled = link.spec().bandwidth.bytesPerNs() * scale;
  return cap > 0.0 ? std::min(cap, scaled) : scaled;
}

void Fabric::traceDrop(int src_node, int dst_node, const char* what) {
  if (!tracer_ || !tracer_->isEnabled()) return;
  const auto track = tracer_->track("fabric." + std::to_string(src_node) +
                                    "->" + std::to_string(dst_node));
  tracer_->instant(track, std::string("drop:") + what, eng_->now(), "fault");
}

TimeNs Fabric::sendData(int src_node, int dst_node, gpu::MemSpan payload,
                        gpu::MemSpan dst, Fabric::Callback on_delivered,
                        TenantId tenant) {
  DKF_CHECK_MSG(dst.size() >= payload.size(),
                "fabric destination too small: " << dst.size() << " < "
                                                 << payload.size());
  Link& link = linkBetween(src_node, dst_node);
  const double cap =
      src_node == dst_node ? 0.0 : directCap(payload, dst);
  bool down = false;
  const double eff_cap = degradedCap(cap, link, down);
  const TimeNs delivery = reserveWire(
      link, tenant, departureTime(machine_.nic_per_message), payload.size(),
      eff_cap);
  traceTransfer(src_node, dst_node, "data", payload.size(), eng_->now(),
                delivery);
  if (down || (faults_ && faults_->dropData())) {
    traceDrop(src_node, dst_node, "data");
    return delivery;  // wire time was spent; the payload never lands
  }
  deliver(src_node, dst_node, delivery, tenant, payload.size(),
          [payload, dst, cb = std::move(on_delivered)]() mutable {
            std::memcpy(dst.bytes.data(), payload.bytes.data(),
                        payload.size());
            if (cb) cb();
          });
  return delivery;
}

TimeNs Fabric::sendControl(int src_node, int dst_node,
                           Fabric::Callback on_delivered, TenantId tenant) {
  Link& link = linkBetween(src_node, dst_node);
  bool down = false;
  const double eff_cap = degradedCap(0.0, link, down);
  const TimeNs delivery = reserveWire(
      link, tenant, departureTime(machine_.nic_per_message),
      kControlPacketBytes, eff_cap);
  traceTransfer(src_node, dst_node, "ctrl", kControlPacketBytes, eng_->now(),
                delivery);
  if (down || (faults_ && faults_->dropControl())) {
    traceDrop(src_node, dst_node, "ctrl");
    return delivery;
  }
  deliver(src_node, dst_node, delivery, tenant, kControlPacketBytes,
          [cb = std::move(on_delivered)]() mutable {
            if (cb) cb();
          });
  return delivery;
}

TimeNs Fabric::sendMessage(
    int src_node, int dst_node, gpu::MemSpan payload,
    Fabric::MessageCallback on_delivered, TenantId tenant) {
  // Single-shot capture into the pool (one memcpy, recycled storage) —
  // the seed's reserve+insert vector snapshot, minus the allocator.
  return sendPayload(src_node, dst_node, payload,
                     pool_.capture({payload.bytes.data(), payload.size()}),
                     std::move(on_delivered), tenant);
}

TimeNs Fabric::sendPayload(int src_node, int dst_node, gpu::MemSpan payload_src,
                           PayloadRef payload,
                           Fabric::MessageCallback on_delivered,
                           TenantId tenant) {
  DKF_CHECK_MSG(payload.size() == payload_src.size(),
                "captured payload does not match its source span: "
                    << payload.size() << " != " << payload_src.size());
  Link& link = linkBetween(src_node, dst_node);
  const double cap = src_node == dst_node
                         ? 0.0
                         : directCap(payload_src, gpu::MemSpan{});
  bool down = false;
  const double eff_cap = degradedCap(cap, link, down);
  const TimeNs delivery = reserveWire(
      link, tenant, departureTime(machine_.nic_per_message), payload.size(),
      eff_cap);
  traceTransfer(src_node, dst_node, "eager", payload.size(), eng_->now(),
                delivery);
  if (down || (faults_ && faults_->dropData())) {
    traceDrop(src_node, dst_node, "eager");
    return delivery;  // wire time was spent; the ref drops here
  }
  // The ref moves through the delivery closure into the receiver's handler:
  // zero copies past the capture, and a retransmission's closure shares the
  // same slab. Read the byte count before the move — PayloadRef's move ctor
  // zeroes the source, and deliver()'s bytes drive DRR deficit accounting.
  const std::size_t bytes = payload.size();
  auto closure = [data = std::move(payload),
                  cb = std::move(on_delivered)]() mutable {
    if (cb) cb(std::move(data));
  };
  static_assert(sizeof(closure) <= sim::kEventCallbackBytes,
                "payload delivery closure must fit an engine event slot");
  deliver(src_node, dst_node, delivery, tenant, bytes, std::move(closure));
  return delivery;
}

TimeNs Fabric::rdmaRead(int reader_node, int target_node, gpu::MemSpan src,
                        gpu::MemSpan dst, Fabric::Callback on_done,
                        Fabric::Predicate still_wanted, TenantId tenant) {
  DKF_CHECK(dst.size() >= src.size());
  // Request propagation to the target, then the data streams back over the
  // target->reader channel.
  Link& back = linkBetween(target_node, reader_node);
  const TimeNs request_arrival =
      departureTime(machine_.rdma_setup) +
      (reader_node == target_node ? ns(0) : machine_.internode.latency);
  bool down = false;
  const double eff_cap = degradedCap(directCap(src, dst), back, down);
  const TimeNs delivery =
      reserveWire(back, tenant, request_arrival, src.size(), eff_cap);
  traceTransfer(target_node, reader_node, "rdma_read", src.size(),
                eng_->now(), delivery);
  if (down || (faults_ && faults_->dropData())) {
    traceDrop(target_node, reader_node, "rdma_read");
    return delivery;
  }
  deliver(target_node, reader_node, delivery, tenant, src.size(),
          [src, dst, cb = std::move(on_done),
           want = std::move(still_wanted)]() mutable {
            if (want && !want()) return;  // superseded by an earlier delivery
            std::memcpy(dst.bytes.data(), src.bytes.data(), src.size());
            if (cb) cb();
          });
  return delivery;
}

TimeNs Fabric::rdmaWrite(int writer_node, int target_node, gpu::MemSpan src,
                         gpu::MemSpan dst, Fabric::Callback on_done,
                         Fabric::Predicate still_wanted, TenantId tenant) {
  DKF_CHECK(dst.size() >= src.size());
  Link& fwd = linkBetween(writer_node, target_node);
  bool down = false;
  const double eff_cap = degradedCap(directCap(src, dst), fwd, down);
  const TimeNs delivery = reserveWire(
      fwd, tenant, departureTime(machine_.rdma_setup), src.size(), eff_cap);
  traceTransfer(writer_node, target_node, "rdma_write", src.size(),
                eng_->now(), delivery);
  if (down || (faults_ && faults_->dropData())) {
    traceDrop(writer_node, target_node, "rdma_write");
    return delivery;
  }
  deliver(writer_node, target_node, delivery, tenant, src.size(),
          [src, dst, cb = std::move(on_done),
           want = std::move(still_wanted)]() mutable {
            if (want && !want()) return;  // superseded by an earlier delivery
            std::memcpy(dst.bytes.data(), src.bytes.data(), src.size());
            if (cb) cb();
          });
  return delivery;
}

std::size_t Fabric::totalBytesCarried() const {
  std::size_t total = 0;
  for (const auto& l : links_) {
    if (l) total += l->bytesCarried();
  }
  return total;
}

std::size_t Fabric::totalMessages() const {
  std::size_t total = 0;
  for (const auto& l : links_) {
    if (l) total += l->messagesCarried();
  }
  return total;
}

}  // namespace dkf::net
