#include "mpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "schemes/solver.hpp"

namespace dkf::mpi {

// ---------------------------------------------------------------- Proc ----

Proc::Proc(Runtime& rt, int rank, gpu::Gpu& gpu)
    : rt_(&rt),
      rank_(rank),
      gpu_(&gpu),
      cpu_(std::make_unique<sim::CpuTimeline>(rt.engine())),
      request_arena_(std::make_shared<detail::ArenaBlocks>()) {
  core::FusionPolicy tuned;
  const RuntimeConfig& cfg = rt.config();
  if (cfg.tuned_threshold > 0) tuned.threshold_bytes = cfg.tuned_threshold;
  if (cfg.tuned_list_capacity > 0) tuned.list_capacity = cfg.tuned_list_capacity;
  if (cfg.tuned_max_requests > 0) {
    tuned.max_requests_per_kernel = cfg.tuned_max_requests;
  }
  engine_ = schemes::makeEngine(cfg.scheme, rt.engine(), *cpu_, gpu, tuned);
}

int Proc::worldSize() const { return rt_->worldSize(); }

sim::Engine& Proc::engine() { return rt_->engine(); }

const RuntimeConfig& Proc::config() const { return rt_->config(); }

net::PayloadPool& Proc::payloadPool() {
  return rt_->cluster().fabric().payloadPool();
}

int Proc::allocCollectiveTags(int span) {
  DKF_CHECK(span > 0);
  const int base = next_collective_tag_;
  DKF_CHECK_MSG(span <= std::numeric_limits<int>::max() - base,
                "collective tag space exhausted: next tag " << base
                    << " cannot reserve a span of " << span);
  next_collective_tag_ = base + span;
  return base;
}

gpu::MemSpan Proc::allocDevice(std::size_t bytes) {
  return gpu_->memory().allocate(bytes);
}

// ------------------------------------- multi-tenant serving plane ----

TenantStats& Proc::tenantState(TenantId t) {
  if (t >= tenant_stats_.size()) tenant_stats_.resize(t + 1);
  return tenant_stats_[t];
}

sim::Task<void> Proc::admitSend(const RequestPtr& req) {
  releaseSendToken(*req);  // persistent restart: drop any stale token
  const std::size_t limit = rt_->config().tenant_inflight_limit;
  if (limit > 0 && tenantState(req->tenant).inflight >= limit) {
    // Backpressure: the tenant's pending ring is full. Keep the progress
    // engine turning (completions free tokens) and re-check each poll.
    // Flush the DDT engine ONLY while this tenant has its own unlaunched
    // batched work — that work must reach the wire for its tokens to come
    // back. An unconditional flush here would let a throttled tenant
    // shatter every other tenant's kernel batching into per-request
    // launches: cross-tenant interference through the flush path.
    ++tenantState(req->tenant).throttle_waits;
    const TimeNs blocked_from = rt_->engine().now();
    const auto admitted = [&] {
      return tenantState(req->tenant).inflight < limit;
    };
    DurationNs owed = 0;
    while (!admitted()) {
      co_await progressOnce(std::exchange(owed, 0));
      if (engine_->hasPendingFusedWork(req->tenant)) {
        co_await engine_->flush();
      }
      co_await engine().poll(rt_->config().poll_interval, [&](TimeNs& horizon) {
        if (admitted()) return sim::Poll::Resume;
        return progressStep(owed, engine_->hasPendingFusedWork(req->tenant),
                            horizon);
      });
    }
    tenantState(req->tenant).throttled_ns +=
        rt_->engine().now() - blocked_from;
  }
  TenantStats& ts = tenantState(req->tenant);
  ++ts.admitted;
  ++ts.inflight;
  ts.peak_inflight = std::max(ts.peak_inflight, ts.inflight);
  req->counted_inflight = true;
}

void Proc::noteComplete(Request& req) {
  if (req.complete) return;
  req.complete = true;
  req.completed_at = rt_->engine().now();
}

void Proc::releaseSendToken(Request& req) {
  if (!req.counted_inflight) return;
  req.counted_inflight = false;
  TenantStats& ts = tenantState(req.tenant);
  DKF_CHECK(ts.inflight > 0);
  --ts.inflight;
}

void Proc::freeDevice(const gpu::MemSpan& span) {
  gpu_->memory().deallocate(span);
}

core::FusionRequest Proc::planRequest(core::FusionOp op,
                                      const ddt::LayoutPtr& layout,
                                      const ddt::LayoutPtr& target_layout,
                                      gpu::MemSpan origin, gpu::MemSpan target,
                                      TenantId tenant) {
  core::FusionPlan plan;
  switch (op) {
    case core::FusionOp::Packing:
      plan.addPack(layout);
      break;
    case core::FusionOp::Unpacking:
      plan.addUnpack(layout);
      break;
    case core::FusionOp::DirectIPC:
      plan.addStridedCopy(layout, target_layout);
      break;
  }
  const core::CompiledPlanPtr compiled = schemes::compilePlanCached(
      plan_cache_, plan, rt_->config().scheme, gpu_->nodeSpec(), tenant);
  core::FusionRequest req =
      compiled->steps.front().bind(layout, target_layout, origin, target);
  req.tenant = tenant;
  return req;
}

RequestPtr Proc::makeRequest(Request::Kind kind, gpu::MemSpan buf,
                             const ddt::DatatypePtr& type, std::size_t count,
                             int peer, int tag) {
  auto layout = layout_cache_.get(type, count);
  // The layout must lie inside the buffer: a delivery writes every byte it
  // selects, and nothing downstream checks the buffer's end again.
  DKF_CHECK_MSG(layout->minOffset() >= 0 &&
                    static_cast<std::size_t>(layout->endOffset()) <= buf.size(),
                "a " << buf.size() << "-byte buffer cannot hold " << count
                     << " elements of its type, which span bytes ["
                     << layout->minOffset() << ", " << layout->endOffset()
                     << ")");
  auto req = std::allocate_shared<Request>(
      detail::ArenaAllocator<Request>(request_arena_));
  req->kind = kind;
  req->owner_rank = rank_;
  req->peer = peer;
  req->tag = tag;
  req->user_buf = buf;
  req->layout = layout;
  req->data_bytes = layout->size();
  req->is_contiguous = layout->isContiguous() && layout->minOffset() == 0;
  req->posted_at = rt_->engine().now();
  return req;
}

sim::Task<void> Proc::activateSend(RequestPtr req) {
  co_await admitSend(req);
  const auto& machine = rt_->cluster().machine();
  const bool intra = rt_->sameNode(rank_, req->peer);

  if (!req->is_contiguous && intra && rt_->config().enable_direct_ipc &&
      engine_->supportsDirect()) {
    // Zero-copy path: no packing at all; the receiver pulls with a strided
    // kernel over NVLink ([24]). The RTS carries the layout handle.
    req->protocol = Protocol::DirectIpc;
    issueRts(req);
  } else {
    if (req->is_contiguous) {
      req->staging = req->user_buf.subspan(0, req->data_bytes);
    } else {
      DKF_CHECK_MSG(req->user_buf.onDevice(),
                    "non-contiguous send buffers must be GPU-resident");
      req->staging = allocDevice(req->data_bytes);
      req->staging_owned = true;
      req->ticket = co_await engine_->submit(
          planRequest(core::FusionOp::Packing, req->layout, nullptr,
                      req->user_buf, req->staging, req->tenant));
      if (engine_->done(req->ticket)) {
        req->ticket = {};
      } else {
        markTicketed(req);  // poll the pack ticket every pass
      }
    }
    req->protocol = req->data_bytes <= machine.eager_threshold
                        ? Protocol::Eager
                        : rt_->config().rendezvous;
    if (req->protocol == Protocol::RPut) {
      // RPUT sends the RTS before the pack completes so the handshake
      // overlaps the packing kernel (§IV-B1).
      issueRts(req);
    }
    if (!req->ticket.valid()) issuePacked(req);
  }
  registerActive(req);
}

sim::Task<void> Proc::activateRecv(RequestPtr req) {
  registerActive(req);
  // Unexpected arrivals first, eager payloads and RTSs in arrival order.
  Unexpected msg;
  if (!unexpected_.take(req->peer, req->tag, msg)) {
    posted_recvs_.post(std::move(req));
  } else if (msg.rts) {
    msg.rts->rts_parked = false;
    startRendezvousDelivery(std::move(req), std::move(msg.rts));
  } else {
    startEagerDelivery(std::move(req), std::move(msg.eager));
  }
  co_return;
}

sim::Task<RequestPtr> Proc::isend(gpu::MemSpan buf, ddt::DatatypePtr type,
                                  std::size_t count, int dst, int tag) {
  DKF_CHECK(dst >= 0 && dst < worldSize());
  co_await cpu_->busy(rt_->config().call_overhead);
  auto req = makeRequest(Request::Kind::Send, buf, type, count, dst, tag);
  co_await activateSend(req);
  co_return req;
}

sim::Task<RequestPtr> Proc::irecv(gpu::MemSpan buf, ddt::DatatypePtr type,
                                  std::size_t count, int src, int tag) {
  DKF_CHECK(src == kAnySource || (src >= 0 && src < worldSize()));
  co_await cpu_->busy(rt_->config().call_overhead);
  auto req = makeRequest(Request::Kind::Recv, buf, type, count, src, tag);
  co_await activateRecv(req);
  co_return req;
}

sim::Task<std::vector<RequestPtr>> Proc::isendBatch(
    std::vector<SendSpec> specs) {
  // One MPI call overhead for the whole batch — the bulk front door. The
  // activations run back to back, so eager sends to one peer land on the
  // wire with contiguous engine keys (the shape LinkBatcher coalesces).
  co_await cpu_->busy(rt_->config().call_overhead);
  std::vector<RequestPtr> reqs;
  reqs.reserve(specs.size());
  for (const SendSpec& s : specs) {
    DKF_CHECK(s.peer >= 0 && s.peer < worldSize());
    auto req =
        makeRequest(Request::Kind::Send, s.buf, s.type, s.count, s.peer, s.tag);
    req->tenant = s.tenant;
    co_await activateSend(req);
    reqs.push_back(std::move(req));
  }
  co_return reqs;
}

sim::Task<std::vector<RequestPtr>> Proc::irecvBatch(
    std::vector<RecvSpec> specs) {
  co_await cpu_->busy(rt_->config().call_overhead);
  std::vector<RequestPtr> reqs;
  reqs.reserve(specs.size());
  for (const RecvSpec& s : specs) {
    DKF_CHECK(s.peer == kAnySource || (s.peer >= 0 && s.peer < worldSize()));
    auto req =
        makeRequest(Request::Kind::Recv, s.buf, s.type, s.count, s.peer, s.tag);
    req->tenant = s.tenant;
    co_await activateRecv(req);
    reqs.push_back(std::move(req));
  }
  co_return reqs;
}

sim::Task<RequestPtr> Proc::sendInit(gpu::MemSpan buf, ddt::DatatypePtr type,
                                     std::size_t count, int dst, int tag) {
  DKF_CHECK(dst >= 0 && dst < worldSize());
  co_await cpu_->busy(rt_->config().call_overhead);
  auto req = makeRequest(Request::Kind::Send, buf, type, count, dst, tag);
  req->persistent = true;
  co_return req;
}

sim::Task<RequestPtr> Proc::recvInit(gpu::MemSpan buf, ddt::DatatypePtr type,
                                     std::size_t count, int src, int tag) {
  DKF_CHECK(src == kAnySource || (src >= 0 && src < worldSize()));
  co_await cpu_->busy(rt_->config().call_overhead);
  auto req = makeRequest(Request::Kind::Recv, buf, type, count, src, tag);
  req->persistent = true;
  co_return req;
}

sim::Task<void> Proc::start(RequestPtr req) {
  DKF_CHECK_MSG(req->persistent, "start() requires a persistent request");
  DKF_CHECK_MSG(!req->active, "persistent request started twice");
  // Starting skips argument validation and layout lookup: cheaper than a
  // fresh isend/irecv (half the per-call bookkeeping).
  co_await cpu_->busy(rt_->config().call_overhead / 2);
  // A restart is a new message: fresh protocol state (including seq 0, so
  // the first wire action draws a new seq) and a fresh latency base.
  // counted_inflight survives: the previous activation's admission token is
  // held until its payload drains off the wire (admitSend reconciles it).
  static_cast<Activation&>(*req) = {};
  req->posted_at = rt_->engine().now();
  req->active = true;
  if (req->kind == Request::Kind::Send) {
    co_await activateSend(req);
  } else {
    co_await activateRecv(req);
  }
}

sim::Task<void> Proc::startall(const std::vector<RequestPtr>& reqs) {
  for (const RequestPtr& req : reqs) {
    co_await start(req);
  }
}

RequestPtr Proc::matchPosted(int src_rank, int msg_tag) {
  return posted_recvs_.match(src_rank, msg_tag);
}

// ------------------------------------------------- reliable transport ----

bool Proc::reliabilityOn() const { return rt_->config().reliability.enabled; }

void Proc::armRetrans(const RequestPtr& req) {
  if (!reliabilityOn()) return;
  const ReliabilityConfig& rc = rt_->config().reliability;
  if (req->retrans_timeout == 0) req->retrans_timeout = rc.base_timeout;
  req->retrans_deadline = rt_->engine().now() + req->retrans_timeout;
  fileDeadline(req);
}

bool Proc::retransDue(const RequestPtr& ptr) {
  Request& req = *ptr;
  if (!reliabilityOn() || req.retrans_deadline == 0) return false;
  if (rt_->engine().now() < req.retrans_deadline) return false;
  const ReliabilityConfig& rc = rt_->config().reliability;
  DKF_CHECK_MSG(req.retransmissions < rc.max_retries,
                "transport gave up: rank " << rank_ << " -> " << req.peer
                    << " tag " << req.tag << " seq " << req.seq
                    << " still undelivered after " << req.retransmissions
                    << " retransmissions");
  ++req.retransmissions;
  ++transport_.retransmissions;
  req.retrans_timeout = std::min(2 * req.retrans_timeout, rc.max_timeout);
  req.retrans_deadline = rt_->engine().now() + req.retrans_timeout;
  // File the re-armed deadline even when no heap entry led here: a slow
  // pass scans every active request, and virtual time advances across its
  // DirectIPC suspension, so it can fire deadlines the pass never popped.
  fileDeadline(ptr);
  return true;
}

gpu::MemSpan Proc::allocStaging(Request& req, std::size_t bytes) {
  gpu::MemSpan span = gpu_->memory().tryAllocate(bytes);
  if (span.size() == bytes) {
    req.staging = span;
    req.staging_owned = true;
    return span;
  }
  // Device arena refused (exhausted or injected failure): degrade to host
  // staging. Unpack still works — the DDT engines accept host spans — it
  // just loses the GPU-resident fast path. allocate() is always
  // slab-backed, so the span's address is stable for the ref's lifetime.
  ++transport_.host_staging_fallbacks;
  req.payload = payloadPool().allocate(bytes);
  req.staging = gpu::MemSpan::host(req.payload.span());
  req.staging_owned = false;
  return req.staging;
}

void Proc::sendEagerOnWire(const RequestPtr& req) {
  Runtime* rt = rt_;
  const int src_rank = rank_;
  const int dst_rank = req->peer;
  const int tag = req->tag;
  const std::uint64_t seq = req->seq;
  rt->cluster().fabric().sendPayload(
      rt->nodeOfRank(src_rank), rt->nodeOfRank(dst_rank), req->staging,
      req->payload,  // lvalue: the send copies (ref bump), req keeps one
      [rt, src_rank, dst_rank, tag, seq, req](net::PayloadRef data) {
        // The payload has drained off the wire: the sender's admission
        // token frees even though the send itself completed at issue.
        rt->proc(src_rank).releaseSendToken(*req);
        rt->proc(dst_rank).onEager(src_rank, tag, seq, req, std::move(data));
      },
      req->tenant);
}

void Proc::sendRtsOnWire(const RequestPtr& req) {
  Runtime* rt = rt_;
  const int dst_rank = req->peer;
  const std::uint64_t seq = req->seq;
  rt->cluster().fabric().sendControl(
      rt->nodeOfRank(rank_), rt->nodeOfRank(dst_rank),
      [rt, dst_rank, req, seq] { rt->proc(dst_rank).onRts(req, seq); },
      req->tenant);
}

// --------------------------------------------------------------------------

// Plain functions (they only push bytes on the wire and move the phase):
// the activation and progress paths call them frame-free.
void Proc::issuePacked(const RequestPtr& req) {
  if (req->protocol == Protocol::Eager) {
    issueEagerData(req);
  } else if (req->protocol == Protocol::RGet) {
    issueRts(req);
  }
}

void Proc::issueEagerData(const RequestPtr& req) {
  req->seq = next_seq_++;
  req->phase = Request::Phase::DataSent;
  // Capture the payload once per activation. A retransmission bumps this
  // ref instead of re-snapshotting the staging buffer, so every attempt
  // carries byte-identical data.
  req->payload = payloadPool().capture(
      {req->staging.bytes.data(), req->staging.size()});
  sendEagerOnWire(req);
  if (reliabilityOn()) {
    armRetrans(req);  // completion waits for the ACK
    return;
  }
  // Eager sends complete locally: the wire closure holds the only payload
  // ref still needed. (The admission token stays held until the delivery
  // callback runs.)
  releaseStaging(*req);
  noteComplete(*req);
}

void Proc::issueRts(const RequestPtr& req) {
  req->seq = next_seq_++;
  req->phase = Request::Phase::RtsSent;
  sendRtsOnWire(req);
  armRetrans(req);
}

void Proc::completeSend(Request& req) {
  releaseStaging(req);  // also ends an eager send's retransmissions
  req.paired.reset();
  req.retrans_deadline = 0;
  releaseSendToken(req);
  noteComplete(req);
}

void Proc::sendCts(const RequestPtr& sender_req, gpu::MemSpan recv_staging) {
  Runtime* rt = rt_;
  const int sender_rank = sender_req->owner_rank;
  const std::uint64_t seq = sender_req->seq;
  rt->cluster().fabric().sendControl(
      rt->nodeOfRank(rank_), rt->nodeOfRank(sender_rank),
      [rt, sender_rank, sender_req, recv_staging, seq] {
        rt->proc(sender_rank).onCts(sender_req, recv_staging, seq);
      },
      sender_req->tenant);
}

void Proc::sendFin(const RequestPtr& sender_req) {
  Runtime* rt = rt_;
  const int sender_rank = sender_req->owner_rank;
  const std::uint64_t seq = sender_req->seq;
  rt->cluster().fabric().sendControl(
      rt->nodeOfRank(rank_), rt->nodeOfRank(sender_rank),
      [rt, sender_rank, sender_req, seq] {
        rt->proc(sender_rank).onFin(sender_req, seq);
      },
      sender_req->tenant);
}

void Proc::onEager(int src_rank, int msg_tag, std::uint64_t seq,
                   RequestPtr sender_req, net::PayloadRef data) {
  if (reliabilityOn()) {
    // Always ACK, even duplicates: the sender retransmitting means our
    // previous ACK was lost (or still in flight), and dup ACKs are ignored.
    Runtime* rt = rt_;
    const int sender_rank = src_rank;
    rt->cluster().fabric().sendControl(
        rt->nodeOfRank(rank_), rt->nodeOfRank(sender_rank),
        [rt, sender_rank, sender_req, seq] {
          rt->proc(sender_rank).onEagerAck(sender_req, seq);
        },
        sender_req->tenant);
    ++transport_.acks_sent;
    // Seqs grow per sending rank, so a high-water mark on the sender's
    // request dedupes retransmissions and late copies of earlier
    // activations alike.
    if (seq <= sender_req->delivered_seq) {
      ++transport_.duplicates_ignored;
      return;
    }
    sender_req->delivered_seq = seq;
  }
  RequestPtr recv = matchPosted(src_rank, msg_tag);
  if (!recv) {
    unexpected_.push(src_rank, msg_tag, Unexpected{std::move(data), nullptr});
    return;
  }
  startEagerDelivery(std::move(recv), std::move(data));
}

void Proc::onEagerAck(RequestPtr sender_req, std::uint64_t seq) {
  if (sender_req->complete || seq != sender_req->seq) {
    ++transport_.duplicates_ignored;
    return;
  }
  completeSend(*sender_req);
}

void Proc::startEagerDelivery(RequestPtr recv, net::PayloadRef data) {
  DKF_CHECK_MSG(data.size() <= recv->data_bytes,
                "eager message longer than the posted receive ("
                    << data.size() << " > " << recv->data_bytes << ")");
  if (recv->is_contiguous) {
    // An empty message may target an empty (null) buffer: nothing to copy.
    if (data.size() > 0) {
      std::memcpy(recv->user_buf.bytes.data(), data.data(), data.size());
    }
    noteComplete(*recv);
    return;
  }
  // Park the payload ref in the request and unpack through the DDT engine
  // straight out of the shared slab (read-only; the sender may hold a
  // retransmission ref to the same bytes).
  recv->payload = std::move(data);
  recv->staging = gpu::MemSpan::host(recv->payload.span());
  finishRecvData(std::move(recv));
}

void Proc::onRts(RequestPtr sender_req, std::uint64_t seq) {
  if (reliabilityOn()) {
    // Stale (an earlier activation, or already done), or retransmitted
    // while this RTS still waits unmatched in the unexpected queue.
    if (sender_req->complete || seq != sender_req->seq ||
        sender_req->rts_parked) {
      ++transport_.duplicates_ignored;
      return;
    }
    if (sender_req->rndv_matched) {
      ++transport_.duplicates_ignored;
      answerDuplicateRts(sender_req);
      return;
    }
  }
  RequestPtr recv = matchPosted(sender_req->owner_rank, sender_req->tag);
  if (!recv) {
    sender_req->rts_parked = true;
    const int src_rank = sender_req->owner_rank;
    const int msg_tag = sender_req->tag;
    unexpected_.push(src_rank, msg_tag, Unexpected{{}, std::move(sender_req)});
    return;
  }
  startRendezvousDelivery(std::move(recv), std::move(sender_req));
}

void Proc::answerDuplicateRts(const RequestPtr& sender_req) {
  // The receive that matched this activation. A persistent receive may
  // have been restarted since, so "still serving this send" is read from
  // its phase (RPut) or its link back to the sender, not from its
  // completion flags.
  const RequestPtr prior = sender_req->rndv_recv.lock();
  switch (sender_req->protocol) {
    case Protocol::RPut:
      if (prior && prior->phase != Request::Phase::DataLanded) {
        sendCts(sender_req, prior->staging);  // the CTS was lost: repeat it
      }
      break;
    case Protocol::RGet:
    case Protocol::DirectIpc:
      if (!prior || prior->paired != sender_req) {
        // The data landed but the FIN was lost: repeat it. (An expired
        // weak_ptr means the receive retired long ago.)
        sendFin(sender_req);
      }
      break;
    case Protocol::Eager:
      break;  // eager never sends an RTS
  }
}

void Proc::startRendezvousDelivery(RequestPtr recv, RequestPtr sender_req) {
  DKF_CHECK(sender_req->data_bytes <= recv->data_bytes);
  if (reliabilityOn()) {
    sender_req->rndv_matched = true;
    sender_req->rndv_recv = recv;
  }
  const Protocol protocol = sender_req->protocol;
  DKF_CHECK_MSG(protocol != Protocol::Eager,
                "eager messages do not use rendezvous delivery");
  if (protocol == Protocol::DirectIpc) {
    // The copy reads the sender's layout and buffer through the link.
    recv->paired = std::move(sender_req);
    recv->direct_retry = true;  // progress loop performs the enqueue
    markDirty(recv);
    return;
  }
  if (recv->is_contiguous) {
    recv->staging = recv->user_buf.subspan(0, sender_req->data_bytes);
  } else {
    allocStaging(*recv, sender_req->data_bytes);
  }
  if (protocol == Protocol::RGet) {
    recv->paired = sender_req;  // kept for timed-out re-reads
    armRetrans(recv);
    issueRgetRead(recv, sender_req);
  } else {
    // RPut: the CTS hands the sender our staging address; the sender
    // RDMA-WRITEs once its packing finished (overlap with the handshake,
    // §IV-B1).
    sender_req->paired = recv;
    sendCts(sender_req, recv->staging);
  }
}

void Proc::issueRgetRead(const RequestPtr& recv, const RequestPtr& sender_req) {
  Runtime* rt = rt_;
  Proc* self = this;
  const std::uint64_t seq = sender_req->seq;
  rt->cluster().fabric().rdmaRead(
      rt->nodeOfRank(rank_), rt->nodeOfRank(sender_req->owner_rank),
      sender_req->staging, recv->staging,
      [self, recv, sender_req] {
        if (recv->phase == Request::Phase::DataLanded) return;  // re-read
        recv->phase = Request::Phase::DataLanded;
        recv->paired.reset();
        recv->retrans_deadline = 0;
        self->sendFin(sender_req);  // releases the sender's packed buffer
        self->finishRecvData(recv);
      },
      // Wanted while this receive still reads this activation: a retried
      // read landing after a persistent restart must not scribble. (Raw
      // pointers keep the predicate inline; the callback holds the refs.)
      [r = recv.get(), s = sender_req.get(), seq] {
        return r->paired.get() == s && s->seq == seq;
      },
      sender_req->tenant);
}

void Proc::issueRputData(const RequestPtr& req) {
  Runtime* rt = rt_;
  Proc* self = this;
  RequestPtr recv = req->paired;
  const std::uint64_t seq = req->seq;
  rt->cluster().fabric().rdmaWrite(
      rt->nodeOfRank(rank_), rt->nodeOfRank(req->peer), req->staging,
      req->remote_staging, [self, req, recv] {
        // Delivery: sender may release; receiver unpacks.
        if (req->phase == Request::Phase::DataLanded) return;  // re-write
        req->phase = Request::Phase::DataLanded;
        self->markDirty(req);  // sender's completion block runs next pass
        if (recv) {
          recv->phase = Request::Phase::DataLanded;
          self->rt_->proc(req->peer).finishRecvData(recv);
        }
      },
      // A retried write landing after a persistent restart is discarded.
      [req, seq] {
        return req->seq == seq && req->phase != Request::Phase::DataLanded;
      },
      req->tenant);
}

void Proc::onCts(RequestPtr sender_req, gpu::MemSpan recv_staging,
                 std::uint64_t seq) {
  // A duplicate from an answered dup-RTS, or a late copy from an earlier
  // activation of a persistent send.
  if (sender_req->phase >= Request::Phase::CtsReceived ||
      seq != sender_req->seq) {
    ++transport_.duplicates_ignored;
    return;
  }
  sender_req->phase = Request::Phase::CtsReceived;
  sender_req->remote_staging = recv_staging;
  // Fresh backoff for the data phase.
  sender_req->retrans_deadline = 0;
  sender_req->retrans_timeout = 0;
  markDirty(sender_req);  // the data phase can start on the next pass
}

void Proc::onFin(RequestPtr sender_req, std::uint64_t seq) {
  // A duplicate from an answered dup-RTS, or a late copy from an earlier
  // activation of a persistent send.
  if (sender_req->complete || seq != sender_req->seq) {
    ++transport_.duplicates_ignored;
    return;
  }
  completeSend(*sender_req);
}

void Proc::finishRecvData(RequestPtr recv) {
  if (recv->is_contiguous) {
    noteComplete(*recv);
    return;
  }
  engine().spawn([](Proc& p, RequestPtr r) -> sim::Task<void> {
    r->ticket = co_await p.engine_->submit(
        p.planRequest(core::FusionOp::Unpacking, r->layout, nullptr,
                      r->staging, r->user_buf, r->tenant));
    if (p.engine_->done(r->ticket)) {
      r->ticket = {};
      p.finishTicketedRecv(r);
    } else {
      p.markTicketed(r);  // poll the unpack ticket every pass
    }
  }(*this, std::move(recv)));
}

void Proc::releaseStaging(Request& req) {
  if (req.staging_owned) {
    freeDevice(req.staging);
    req.staging_owned = false;
  }
  req.payload.reset();
}

sim::Task<void> Proc::tryDirect(RequestPtr recv) {
  const Request& sender = *recv->paired;
  const auto t = co_await engine_->submit(
      planRequest(core::FusionOp::DirectIPC, sender.layout, recv->layout,
                  sender.user_buf, recv->user_buf, recv->tenant));
  if (!t.valid()) {
    recv->direct_retry = true;  // request list full: retry on next pass
    markDirty(recv);
    co_return;
  }
  recv->ticket = t;
  markTicketed(recv);
}

void Proc::finishTicketedRecv(const RequestPtr& req) {
  // Unpack or DirectIPC finished: the receive is done.
  releaseStaging(*req);
  // DirectIPC: tell the sender its buffer is consumed.
  if (RequestPtr sender_req = std::move(req->paired)) sendFin(sender_req);
  noteComplete(*req);
}

bool Proc::advance(const RequestPtr& req) {
  using Phase = Request::Phase;
  if (req->complete) return true;

  if (req->ticket.valid()) {
    if (!engine_->done(req->ticket)) return true;  // the DDT engine owns it
    req->ticket = {};
    if (req->kind == Request::Kind::Recv) {
      finishTicketedRecv(req);
      return true;
    }
    if (req->protocol != Protocol::RPut) {
      issuePacked(req);  // the pack landed: the first wire action
      return true;
    }
    // RPut's RTS left at activation: act on its phase below.
  }

  if (req->kind == Request::Kind::Recv) {
    if (req->direct_retry) return false;  // the enqueue suspends: caller's job
    // Only an RGet read arms a receive's deadline: the read was dropped.
    if (retransDue(req)) issueRgetRead(req, req->paired);
    return true;
  }
  // A send still activating (a restarted persistent one can sit in a slow
  // pass's snapshot) is Idle with no deadline armed: no arm acts on it.
  switch (req->protocol) {
    case Protocol::Eager:
      if (retransDue(req)) sendEagerOnWire(req);  // un-ACKed: back on the wire
      break;
    case Protocol::RGet:
    case Protocol::DirectIpc:
      // Receiver-driven; FIN completes us. A lost RTS, read or FIN
      // surfaces as a timeout here, and the receiver answers duplicate
      // RTSs idempotently.
      if (retransDue(req)) sendRtsOnWire(req);
      break;
    case Protocol::RPut:
      switch (req->phase) {
        case Phase::Idle:
          break;
        case Phase::RtsSent:
          if (retransDue(req)) sendRtsOnWire(req);  // RTS or CTS was lost
          break;
        case Phase::CtsReceived:
          req->phase = Phase::DataSent;
          issueRputData(req);
          armRetrans(req);  // data phase gets its own (fresh) backoff
          break;
        case Phase::DataSent:
          if (retransDue(req)) issueRputData(req);  // the write was dropped
          break;
        case Phase::DataLanded:
          completeSend(*req);
          break;
      }
      break;
  }
  return true;
}

void Proc::registerActive(const RequestPtr& req) {
  req->progress_order = next_progress_order_++;
  if (req->complete) return;
  if (active_.size() >= sweep_watermark_) {
    // Amortized O(1) per activation: handler-completed requests linger in
    // active_ until the list doubles, keeping residency within 2x of live.
    std::erase_if(active_, [](const RequestPtr& r) { return r->complete; });
    sweep_watermark_ = std::max<std::size_t>(64, active_.size() * 2);
  }
  active_.push_back(req);
}

void Proc::markDirty(const RequestPtr& req) {
  if (req->complete || req->in_dirty) return;
  req->in_dirty = true;
  dirty_.push_back(req);
}

void Proc::markTicketed(const RequestPtr& req) {
  if (req->complete || req->in_ticketed) return;
  req->in_ticketed = true;
  ticketed_.push_back(req);
}

namespace {
// The std heap algorithms build max-heaps; ordering by "later" puts the
// earliest deadline at the front.
constexpr auto laterDeadline = [](const auto& a, const auto& b) {
  return a.at > b.at;
};
}  // namespace

void Proc::fileDeadline(const RequestPtr& req) {
  deadlines_.push_back({req->retrans_deadline, req});
  std::push_heap(deadlines_.begin(), deadlines_.end(), laterDeadline);
}

bool Proc::passDue() const {
  return !ticketed_.empty() || !dirty_.empty() ||
         (!deadlines_.empty() && deadlines_.front().at <= rt_->engine().now());
}

bool Proc::slowPassDue() const {
  // Every direct_retry request is marked dirty, so this sees each one.
  return std::any_of(dirty_.begin(), dirty_.end(), [](const RequestPtr& r) {
    return !r->complete && r->direct_retry;
  });
}

void Proc::collectPass() {
  // Capture this pass's candidates up front: the ticket holders, the dirty
  // requests and the due deadlines. Marks and deadlines arriving mid-pass
  // (only possible across a DirectIPC suspension) wait for the next pass.
  pass_scratch_.assign(ticketed_.begin(), ticketed_.end());
  for (RequestPtr& r : dirty_) {
    r->in_dirty = false;
    pass_scratch_.push_back(std::move(r));
  }
  dirty_.clear();
  const TimeNs now = rt_->engine().now();
  while (!deadlines_.empty() && deadlines_.front().at <= now) {
    std::pop_heap(deadlines_.begin(), deadlines_.end(), laterDeadline);
    Deadline due = std::move(deadlines_.back());
    deadlines_.pop_back();
    // A stale entry holds no payload ref and has nothing to act on. A due
    // deadline of a send still packing (an RPut RTS) pops as a no-op too:
    // its pack ticket keeps it in every pass, and retransDue fires and
    // re-files once the pack lands, exactly as a full scan would.
    if (!due.req->complete && due.req->retrans_deadline == due.at) {
      pass_scratch_.push_back(std::move(due.req));
    }
  }
}

void Proc::fastPass() {
  // Fully synchronous: no suspension can interleave an event, so the
  // candidate set is complete and no request's phase can move under the
  // scan. Activation order keeps the emitted action stream identical to a
  // full scan's: every skipped request is a no-op, since it holds no
  // ticket, no event marked it and its deadline (if any) is not due. A
  // request can be a candidate more than once.
  collectPass();
  std::sort(pass_scratch_.begin(), pass_scratch_.end(),
            [](const RequestPtr& a, const RequestPtr& b) {
              return a->progress_order < b->progress_order;
            });
  pass_scratch_.erase(
      std::unique(pass_scratch_.begin(), pass_scratch_.end()),
      pass_scratch_.end());
  for (const RequestPtr& req : pass_scratch_) {
    const bool fast = advance(req);
    DKF_CHECK(fast);  // direct_retry would have forced the slow scan
  }
  endPass();
}

sim::Task<void> Proc::slowPass() {
  // A DirectIPC enqueue suspends, and flag flips arriving across the
  // suspension must stay visible to requests advanced later in the same
  // pass, so scan every active request in activation order. The scan
  // walks a copy of active_ taken at entry: activations during the
  // suspension wait a pass, and another waiter of this rank may run a
  // whole pass (which sweeps active_) meanwhile. Completed entries return
  // from advance() immediately and emit nothing.
  collectPass();
  const std::vector<RequestPtr> snapshot = active_;
  for (const RequestPtr& req : snapshot) {
    if (!advance(req)) {
      req->direct_retry = false;
      co_await tryDirect(req);
    }
  }
  endPass();
}

void Proc::endPass() {
  pass_scratch_.clear();
  std::erase_if(ticketed_, [](const RequestPtr& r) {
    const bool keep = !r->complete && r->ticket.valid();
    if (!keep) r->in_ticketed = false;
    return !keep;
  });
  std::erase_if(active_, [](const RequestPtr& r) { return r->complete; });
  sweep_watermark_ = std::max<std::size_t>(64, active_.size() * 2);
}

sim::Task<void> Proc::progressOnce(DurationNs owed) {
  owed += engine_->progress();
  if (owed > 0) co_await cpu_->busy(owed);
  // Change-driven: steady-state requests complete inside fabric/engine
  // handlers; a pass only runs while some request holds a live ticket, an
  // event enabled an action since the last poll, or an armed
  // retransmission deadline has come due. Any other poll costs O(1),
  // however many deadlines are armed.
  if (slowPassDue()) {
    co_await slowPass();
  } else if (passDue()) {
    fastPass();
  }
}

sim::Poll Proc::progressStep(DurationNs& owed, bool flush,
                             TimeNs& horizon) {
  // A poll that suspends runs in the waiting coroutine, at this instant:
  // the DirectIPC retry's slow pass, a flush that launches, and the CPU
  // time GPU-Async's deferred queries cost.
  if (slowPassDue() || (flush && engine_->flushPending())) {
    return sim::Poll::Resume;
  }
  owed = engine_->progress();
  if (owed > 0) return sim::Poll::Resume;
  if (!passDue()) {
    // Only an event, or the earliest filed deadline falling due, can give
    // the next poll a pass to run.
    if (!deadlines_.empty()) horizon = deadlines_.front().at;
    return sim::Poll::Quiet;
  }
  fastPass();
  if (flush) engine_->foldBreakdown();  // flush() with nothing to launch
  // Again even with no ticket left: the pass acted, and another waiter of
  // this rank may see its effects.
  return sim::Poll::Again;
}

sim::Task<void> Proc::wait(RequestPtr req) {
  std::vector<RequestPtr> one{std::move(req)};
  co_await waitall(std::move(one));
}

sim::Task<void> Proc::waitall(std::vector<RequestPtr> reqs) {
  co_await cpu_->busy(rt_->config().call_overhead);
  // Completion is sticky while waiting, so resume the scan where the last
  // poll left off instead of rescanning the completed prefix every poll —
  // O(n + polls) amortized instead of O(n * polls) on deep windows.
  std::size_t cursor = 0;
  const auto all_complete = [&] {
    while (cursor < reqs.size() && reqs[cursor]->complete) ++cursor;
    return cursor == reqs.size();
  };
  // Each poll is progressOnce + flush + the completion check. The engine
  // runs the ones that need not suspend inside their poll ticks; a Resume
  // from progressStep hands the whole poll back to this coroutine.
  bool complete = false;
  DurationNs owed = 0;
  const auto step = [&](TimeNs& horizon) {
    const sim::Poll poll = progressStep(owed, /*flush=*/true, horizon);
    if (poll == sim::Poll::Resume) return poll;
    complete = all_complete();
    return complete ? sim::Poll::Resume : poll;
  };
  while (!complete) {
    co_await progressOnce(std::exchange(owed, 0));
    // Launch scenario 1 (§IV-C): the progress engine is out of work and
    // blocked at a synchronization point — flush batched operations now.
    co_await engine_->flush();
    if (all_complete()) break;
    co_await engine().poll(rt_->config().poll_interval, step);
  }
  // Persistent requests become inactive (restartable) once waited.
  for (const RequestPtr& r : reqs) {
    if (r->persistent) r->active = false;
  }
}

sim::Task<bool> Proc::test(RequestPtr req) {
  co_await cpu_->busy(rt_->config().call_overhead);
  co_await progressOnce();
  co_await engine_->flush();
  co_return req->complete;
}

sim::Task<bool> Proc::testall(const std::vector<RequestPtr>& reqs) {
  co_await cpu_->busy(rt_->config().call_overhead);
  co_await progressOnce();
  co_await engine_->flush();
  co_return std::all_of(reqs.begin(), reqs.end(),
                        [](const RequestPtr& r) { return r->complete; });
}

sim::Task<void> Proc::pack(gpu::MemSpan origin, ddt::DatatypePtr type,
                           std::size_t count, gpu::MemSpan packed) {
  co_await cpu_->busy(rt_->config().call_overhead);
  auto layout = layout_cache_.get(type, count);
  DKF_CHECK(packed.size() >= layout->size());
  const auto t = co_await engine_->submit(
      planRequest(core::FusionOp::Packing, layout, nullptr, origin, packed));
  co_await waitTicket(t);
}

sim::Task<void> Proc::unpack(gpu::MemSpan packed, gpu::MemSpan origin,
                             ddt::DatatypePtr type, std::size_t count) {
  co_await cpu_->busy(rt_->config().call_overhead);
  auto layout = layout_cache_.get(type, count);
  DKF_CHECK(packed.size() >= layout->size());
  const auto t = co_await engine_->submit(
      planRequest(core::FusionOp::Unpacking, layout, nullptr, packed, origin));
  co_await waitTicket(t);
}

sim::Task<void> Proc::waitTicket(schemes::Ticket t) {
  // Each poll queries the ticket (a cost the engine books), then flushes.
  // Only a flush that launches needs this coroutine.
  bool done = engine_->done(t);
  while (!done) {
    co_await engine_->flush();
    co_await engine().poll(rt_->config().poll_interval, [&](TimeNs&) {
      done = engine_->done(t);
      if (done || engine_->flushPending()) return sim::Poll::Resume;
      engine_->foldBreakdown();  // flush() with nothing to launch
      return sim::Poll::Again;
    });
  }
}

sim::Task<void> Proc::barrier(std::size_t participants) {
  co_await cpu_->busy(rt_->config().call_overhead);
  Runtime& rt = *rt_;
  if (participants == 0) participants = static_cast<std::size_t>(rt.worldSize());
  const std::uint64_t gen = rt.barrier_generation_;
  if (++rt.barrier_waiting_ == participants) {
    rt.barrier_waiting_ = 0;
    ++rt.barrier_generation_;
    // Release wave: one fabric round-trip worth of latency.
    co_await engine().delay(2 * rt.cluster().machine().internode.latency);
    rt.barrier_cv_->notifyAll();
    co_return;
  }
  while (rt.barrier_generation_ == gen) {
    co_await rt.barrier_cv_->wait();
  }
}

// ------------------------------------------------------------- Runtime ----

Runtime::Runtime(hw::Cluster& cluster, RuntimeConfig config)
    : cluster_(&cluster), config_(config) {
  // Either value at zero spins at one virtual instant: every wait re-polls
  // without time advancing (so the watchdog never trips), or every pass
  // re-sends until the retry limit blames the transport.
  DKF_CHECK_MSG(config_.poll_interval > 0,
                "RuntimeConfig::poll_interval must be positive");
  DKF_CHECK_MSG(!config_.reliability.enabled ||
                    config_.reliability.base_timeout > 0,
                "ReliabilityConfig::base_timeout must be positive when "
                "reliability is on");
  if (config_.contention.enabled) {
    cluster.fabric().setContention(config_.contention);
  }
  barrier_cv_ = std::make_unique<sim::CondVar>(cluster.engine());
  const std::size_t ranks = cluster.gpuCount();
  procs_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    procs_.push_back(
        std::make_unique<Proc>(*this, static_cast<int>(r), cluster.gpu(r)));
  }
}

Proc& Runtime::proc(int rank) {
  DKF_CHECK(rank >= 0 && static_cast<std::size_t>(rank) < procs_.size());
  return *procs_[rank];
}

int Runtime::nodeOfRank(int rank) const {
  return cluster_->nodeOfGpu(static_cast<std::size_t>(rank));
}

void Runtime::runAll(const std::function<sim::Task<void>(Proc&)>& body) {
  for (auto& p : procs_) {
    engine().spawn(body(*p));
  }
  engine().run();
  // Payload-plane leak check: the engine has drained, so every delivery
  // closure has run and released its ref. Unless a payload is legitimately
  // parked awaiting a match (a send the application never received) or a
  // reliable send is still waiting for its ACK on an incomplete request,
  // a live pool buffer here means a dropped-on-the-floor PayloadRef.
  std::size_t parked = 0;
  for (auto& p : procs_) {
    parked += p->unexpected_.size();
    parked += static_cast<std::size_t>(
        std::count_if(p->active_.begin(), p->active_.end(),
                      [](const RequestPtr& r) { return !r->complete; }));
  }
  if (parked == 0) cluster_->fabric().payloadPool().checkQuiescent();
}

TimeBreakdown Runtime::aggregateBreakdown() const {
  TimeBreakdown total;
  for (const auto& p : procs_) {
    total += p->engine_->breakdown();
  }
  return total;
}

}  // namespace dkf::mpi
