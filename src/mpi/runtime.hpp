// The CUDA-aware MPI-like runtime (DESIGN.md §4.5).
//
// One `Proc` per rank (one rank per GPU), all driven by the shared
// discrete-event engine. Non-contiguous sends/receives route through the
// process's pluggable DDT engine; small messages go eager, large ones use
// rendezvous (RGET by default, RPUT selectable), intra-node transfers can
// use the DirectIPC zero-copy path when the engine supports it.
//
// The progress engine runs on the same thread as the application (the
// configuration the paper evaluates, §IV-A2): wait/waitall poll it, and it
// flushes the DDT engine whenever it has no more submissions outstanding —
// the paper's launch scenario 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/tenant.hpp"
#include "core/fusion_plan.hpp"
#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"
#include "hw/cluster.hpp"
#include "net/fabric.hpp"
#include "net/payload.hpp"
#include "mpi/match_table.hpp"
#include "mpi/request.hpp"
#include "mpi/request_arena.hpp"
#include "schemes/factory.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace dkf::mpi {

/// Sequence-numbered delivery with ACK / timeout / retransmission. Only
/// meaningful when a FaultPlan can drop packets; OFF by default so the
/// fault-free wire protocol (and its timing) is untouched.
struct ReliabilityConfig {
  bool enabled{false};
  /// First retransmission fires this long after the original send; each
  /// retransmission doubles the timeout.
  DurationNs base_timeout{us(150)};
  /// Backoff ceiling.
  DurationNs max_timeout{ms(8)};
  /// Give up (DKF_CHECK failure) after this many retransmissions of one
  /// message — a plain bug, not a fault, once loss rates are < 100%.
  std::size_t max_retries{30};
};

/// Lifetime counters of the reliable transport, per rank.
struct TransportCounters {
  std::size_t retransmissions{0};
  std::size_t acks_sent{0};
  std::size_t duplicates_ignored{0};
  /// Receive stagings that fell back to host memory after a (possibly
  /// injected) device-arena allocation failure.
  std::size_t host_staging_fallbacks{0};
};

/// Per-tenant serving-plane counters, per rank (MODEL.md §14). All zeros
/// for tenants that never submitted, and for every tenant when admission
/// control is off.
struct TenantStats {
  std::size_t admitted{0};        ///< sends that entered the wire pipeline
  std::size_t inflight{0};        ///< admission tokens currently held
  std::size_t peak_inflight{0};
  std::size_t throttle_waits{0};  ///< activations that had to block
  DurationNs throttled_ns{0};     ///< virtual time spent admission-blocked
};

struct RuntimeConfig {
  schemes::Scheme scheme{schemes::Scheme::Proposed};
  /// Overrides for ProposedTuned (0 = keep the FusionPolicy default).
  std::size_t tuned_threshold{0};
  std::size_t tuned_list_capacity{0};
  std::size_t tuned_max_requests{0};
  /// Rendezvous sub-protocol (§IV-B1).
  Protocol rendezvous{Protocol::RGet};
  /// Allow intra-node DirectIPC when the engine supports it.
  bool enable_direct_ipc{true};
  /// Progress-engine poll period while blocked in wait/waitall.
  DurationNs poll_interval{ns(250)};
  /// Fixed bookkeeping cost per MPI call.
  DurationNs call_overhead{ns(150)};
  /// Retransmission layer (see ReliabilityConfig).
  ReliabilityConfig reliability{};

  // ---- Multi-tenant serving plane (MODEL.md §14) ----
  /// Link-level contention model + DRR delivery arbitration (applied to
  /// the cluster fabric at Runtime construction). Off = the seed
  /// single-tenant FIFO wire, byte-identical.
  net::ContentionConfig contention{};
  /// Per-tenant admission window: a send blocks in activation while its
  /// tenant already holds this many un-landed sends on this rank.
  /// 0 = unlimited (no admission control, the default).
  /// Admission tokens are released when the payload lands (or is ACKed
  /// with reliability on); with admission on and data loss injected,
  /// reliability must also be on, or tokens leak with the lost payloads.
  std::size_t tenant_inflight_limit{0};
};

class Runtime;

/// First tag of the collective tag space. Tags below it belong to the
/// application's point-to-point traffic; everything at or above is handed
/// out by Proc::allocCollectiveTags. (The seed hard-coded one `1 << 2x`
/// base per collective, which collided once a collective's per-rank tags
/// spilled into the next base — at ~2k ranks for allreduce.)
inline constexpr int kCollectiveTagBase = 1 << 20;

class Proc {
 public:
  Proc(Runtime& rt, int rank, gpu::Gpu& gpu);

  int rank() const { return rank_; }
  int worldSize() const;
  gpu::Gpu& gpu() { return *gpu_; }
  sim::Engine& engine();
  /// This rank's (single) progress/application thread.
  sim::CpuTimeline& cpu() { return *cpu_; }
  schemes::DdtEngine& ddtEngine() { return *engine_; }
  ddt::LayoutCache& layoutCache() { return layout_cache_; }
  core::PlanCache& planCache() { return plan_cache_; }

  /// Device-buffer management on this rank's GPU.
  gpu::MemSpan allocDevice(std::size_t bytes);
  void freeDevice(const gpu::MemSpan& span);

  // ---- Point-to-point (MPI_Isend / MPI_Irecv / MPI_Wait*) ----
  sim::Task<RequestPtr> isend(gpu::MemSpan buf, ddt::DatatypePtr type,
                              std::size_t count, int dst, int tag);
  sim::Task<RequestPtr> irecv(gpu::MemSpan buf, ddt::DatatypePtr type,
                              std::size_t count, int src, int tag);

  // ---- Bulk submission (the batched message plane's front door) ----
  // One MPI call overhead is charged for the whole batch, and back-to-back
  // wire sends to one link reserve contiguous engine keys — exactly the
  // shape LinkBatcher coalesces. Semantically identical to issuing the
  // specs one by one.
  struct SendSpec {
    gpu::MemSpan buf;
    ddt::DatatypePtr type;
    std::size_t count{1};
    int peer{0};
    int tag{0};
    TenantId tenant{kDefaultTenant};
  };
  using RecvSpec = SendSpec;  // peer may be kAnySource, tag kAnyTag
  sim::Task<std::vector<RequestPtr>> isendBatch(std::vector<SendSpec> specs);
  sim::Task<std::vector<RequestPtr>> irecvBatch(std::vector<RecvSpec> specs);
  sim::Task<void> wait(RequestPtr req);
  sim::Task<void> waitall(std::vector<RequestPtr> reqs);
  /// Non-blocking completion check (MPI_Test): runs one progress pass
  /// (including the engine flush) and reports the request's status.
  sim::Task<bool> test(RequestPtr req);
  /// MPI_Testall analogue over a set of requests.
  sim::Task<bool> testall(const std::vector<RequestPtr>& reqs);

  // ---- Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start) --
  // Iterative halo applications set up their exchange once and start it
  // every timestep; starting a persistent request skips argument checking
  // and layout lookup.
  sim::Task<RequestPtr> sendInit(gpu::MemSpan buf, ddt::DatatypePtr type,
                                 std::size_t count, int dst, int tag);
  sim::Task<RequestPtr> recvInit(gpu::MemSpan buf, ddt::DatatypePtr type,
                                 std::size_t count, int src, int tag);
  /// Activate a persistent request (it must not already be active).
  sim::Task<void> start(RequestPtr req);
  sim::Task<void> startall(const std::vector<RequestPtr>& reqs);

  // ---- Explicit blocking pack/unpack (MPI_Pack / MPI_Unpack, Alg. 1) ----
  sim::Task<void> pack(gpu::MemSpan origin, ddt::DatatypePtr type,
                       std::size_t count, gpu::MemSpan packed);
  sim::Task<void> unpack(gpu::MemSpan packed, gpu::MemSpan origin,
                         ddt::DatatypePtr type, std::size_t count);

  /// Simple dissemination-free barrier over the runtime (control latency
  /// is charged; used by experiment drivers between iterations).
  /// `participants` ranks must arrive (0 = the whole world).
  sim::Task<void> barrier(std::size_t participants = 0);

  /// Active (incomplete) requests owned by this rank. (Progress sweeps
  /// handler-completed requests lazily, so count, don't size().)
  std::size_t inFlight() const {
    return static_cast<std::size_t>(
        std::count_if(active_.begin(), active_.end(),
                      [](const RequestPtr& r) { return !r->complete; }));
  }

  /// Reliable-transport counters (all zero when reliability is off).
  const TransportCounters& transport() const { return transport_; }

  // ---- Multi-tenant serving plane (MODEL.md §14) ----
  /// Per-tenant admission/serving counters (index = tenant id; may be
  /// shorter than the tenant count if high tenants never sent).
  const std::vector<TenantStats>& tenantStats() const {
    return tenant_stats_;
  }

  /// The runtime's configuration (collectives read the preferred scheme
  /// when pre-compiling their per-hop fusion plans).
  const RuntimeConfig& config() const;

  /// The fabric's slab pool: every captured payload, staging fallback and
  /// collective chunk staging draws from it (net/payload.hpp).
  net::PayloadPool& payloadPool();

  /// Reserve `span` consecutive tags for one collective invocation and
  /// return the first. The counter is per-rank but stays synchronized
  /// across the world because collectives are invoked in the same order on
  /// every rank (the MPI ordering rule); concurrent collectives therefore
  /// always draw disjoint spans. DKF_CHECK-fails on exhaustion instead of
  /// wrapping into live tag ranges.
  int allocCollectiveTags(int span);

 private:
  friend class Runtime;

  // Inbound protocol events (called at fabric delivery time). Each carries
  // the seq of the send activation it belongs to, so a late copy from an
  // earlier activation of a restarted persistent send is dropped.
  void onEager(int src_rank, int msg_tag, std::uint64_t seq,
               RequestPtr sender_req, net::PayloadRef data);
  void onEagerAck(RequestPtr sender_req, std::uint64_t seq);
  void onRts(RequestPtr sender_req, std::uint64_t seq);
  void onCts(RequestPtr sender_req, gpu::MemSpan recv_staging,
             std::uint64_t seq);
  void onFin(RequestPtr sender_req, std::uint64_t seq);

  /// Try to match an inbound message against posted receives.
  RequestPtr matchPosted(int src_rank, int msg_tag);

  /// Hand a matched eager payload / RTS to the receive request.
  void startEagerDelivery(RequestPtr recv, net::PayloadRef data);
  void startRendezvousDelivery(RequestPtr recv, RequestPtr sender_req);

  /// Packed data sits in the receive's staging (an eager receive's points
  /// at its payload): unpack it through the DDT engine, or finish a
  /// contiguous receive, whose staging is its own buffer.
  void finishRecvData(RequestPtr recv);
  /// Free owned device staging and drop the payload slot's ref.
  void releaseStaging(Request& req);
  /// Attempt the DirectIPC enqueue; re-arms direct_retry if the list is full.
  sim::Task<void> tryDirect(RequestPtr recv);

  /// One poll of the progress engine: spend `owed` plus what the DDT
  /// engine's progress() owes on the CPU, then run a pass if one is due.
  sim::Task<void> progressOnce(DurationNs owed = 0);
  /// The same poll, run inside a poll tick (sim::Engine::poll) without a
  /// coroutine, followed by the fold of a flush that launches nothing when
  /// `flush` is set. Answers Resume, having run no pass, when the poll must
  /// suspend (a DirectIPC retry, a launching flush, or CPU time the DDT
  /// engine owes, left in `owed`): the waiting coroutine then runs it with
  /// progressOnce at the same instant. Answers Quiet when no pass was due,
  /// with `horizon` at the earliest filed deadline, and Again after a pass.
  sim::Poll progressStep(DurationNs& owed, bool flush, TimeNs& horizon);
  /// Some request holds a ticket, is dirty or has a due deadline.
  bool passDue() const;
  /// A DirectIPC enqueue retry is pending: the next pass is the slow scan.
  bool slowPassDue() const;
  /// Passes over the requests that can actually act: the DDT-ticket
  /// holders, the requests an event marked dirty since the last pass and
  /// the requests whose retransmission deadline is due (collectPass),
  /// advanced in activation order. slowPass instead scans a snapshot of
  /// the whole active list, because its DirectIPC enqueue suspends and
  /// flag flips arriving across the suspension must stay visible to later
  /// requests in the same pass. endPass retires what the pass finished.
  void collectPass();
  void fastPass();
  sim::Task<void> slowPass();
  void endPass();
  /// Block until the DDT engine reports `t` done (explicit pack/unpack).
  sim::Task<void> waitTicket(schemes::Ticket t);
  /// Register a freshly activated request with the progress plane
  /// (activation order, active list, amortized sweep of completed entries).
  void registerActive(const RequestPtr& req);
  /// An event enabled an action on `req`: advance it on the next pass.
  void markDirty(const RequestPtr& req);
  /// `req` holds a DDT ticket: poll it every pass until the ticket is done.
  void markTicketed(const RequestPtr& req);
  /// File `req`'s just-armed retransmission deadline in the deadline heap,
  /// so the first pass at or after it advances the request.
  void fileDeadline(const RequestPtr& req);
  /// Advance one request's protocol state machine: poll its DDT ticket
  /// (a send whose pack lands takes its protocol's first wire action),
  /// then act on its phase (start or finish an RPut data phase) or fire a
  /// due retransmission. Never suspends: the hot protocol actions are wire
  /// pushes and bookkeeping. Returns false, having done nothing, when the
  /// request needs the one suspending action — a DirectIPC enqueue retry —
  /// which the caller performs with tryDirect.
  bool advance(const RequestPtr& req);
  /// A receive's DDT-engine ticket (unpack / direct copy) finished:
  /// release staging, FIN a DirectIPC sender, complete the request.
  void finishTicketedRecv(const RequestPtr& req);

  // Never suspend (wire pushes + local bookkeeping only): plain functions
  // so the hot path pays no coroutine frame for them.
  /// The send's bytes are packed (or need no pack): take the protocol's
  /// first wire action. RPut's RTS already left at activation.
  void issuePacked(const RequestPtr& req);
  void issueEagerData(const RequestPtr& req);
  void issueRts(const RequestPtr& req);
  /// The payload landed (ACK, FIN or RPut write): release the send.
  void completeSend(Request& req);
  /// Receiver -> sender control packets of `sender_req`'s activation.
  void sendCts(const RequestPtr& sender_req, gpu::MemSpan recv_staging);
  void sendFin(const RequestPtr& sender_req);

  // ---- Reliable transport (no-ops while ReliabilityConfig is off) ----
  bool reliabilityOn() const;
  /// Arm (or re-arm) a request's retransmission deadline and file it in
  /// the deadline heap so a progress pass advances it once it is due.
  void armRetrans(const RequestPtr& req);
  /// True when the request's deadline passed: books one retransmission,
  /// backs the timeout off, re-arms and files the new deadline.
  /// DKF_CHECKs against max_retries.
  bool retransDue(const RequestPtr& req);
  /// Receive staging with graceful degradation: device arena first, host
  /// memory when the (possibly injected) allocation fails.
  gpu::MemSpan allocStaging(Request& req, std::size_t bytes);
  /// Wire-only halves of the issue* calls, reused by retransmission.
  void sendEagerOnWire(const RequestPtr& req);
  void sendRtsOnWire(const RequestPtr& req);
  /// RGet data phase (receiver-driven RDMA read + FIN); idempotent under
  /// duplicate deliveries from retried reads.
  void issueRgetRead(const RequestPtr& recv, const RequestPtr& sender_req);
  /// RPut data phase (sender-driven RDMA write); idempotent likewise.
  void issueRputData(const RequestPtr& req);
  /// A duplicate RTS means one of our control packets was lost — repeat
  /// the CTS/FIN the sender is evidently still waiting for.
  void answerDuplicateRts(const RequestPtr& sender_req);

  /// Fill the immutable fields of a new request (layout, sizes, flags).
  RequestPtr makeRequest(Request::Kind kind, gpu::MemSpan buf,
                         const ddt::DatatypePtr& type, std::size_t count,
                         int peer, int tag);
  /// One operation of a message as a DDT-engine request: the compiled
  /// plan for a single-op sequence over `layout` (and, for DirectIPC,
  /// `target_layout`), memoized in the per-rank plan cache, with its step
  /// bound to the live buffers and stamped with `tenant`. Repeat-layout
  /// traffic compiles once per canonical signature and the engine executes
  /// the cached template. Host-side memoization like LayoutCache: charges
  /// no virtual time.
  core::FusionRequest planRequest(core::FusionOp op,
                                  const ddt::LayoutPtr& layout,
                                  const ddt::LayoutPtr& target_layout,
                                  gpu::MemSpan origin, gpu::MemSpan target,
                                  TenantId tenant = kDefaultTenant);
  /// Per-tenant state slot (grown on demand).
  TenantStats& tenantState(TenantId t);
  /// Block until the request's tenant is under its inflight window, then
  /// take an admission token. No-op (and no suspension) when
  /// tenant_inflight_limit is 0.
  sim::Task<void> admitSend(const RequestPtr& req);
  /// Stamp completion (latency bookkeeping) — every path that sets
  /// `complete = true` funnels through here.
  void noteComplete(Request& req);
  /// Return the admission token held by a send whose payload has landed
  /// (delivery/ACK/FIN/RPut data). Idempotent; separate from noteComplete
  /// because unreliable eager sends complete at issue, long before the
  /// wire drains.
  void releaseSendToken(Request& req);
  /// Run the send-side activation (protocol choice, pack submission).
  sim::Task<void> activateSend(RequestPtr req);
  /// Run the recv-side activation (matching, posting).
  sim::Task<void> activateRecv(RequestPtr req);

  Runtime* rt_;
  int rank_;
  gpu::Gpu* gpu_;
  std::unique_ptr<sim::CpuTimeline> cpu_;
  std::unique_ptr<schemes::DdtEngine> engine_;
  ddt::LayoutCache layout_cache_;
  core::PlanCache plan_cache_;

  std::vector<RequestPtr> active_;          // all incomplete requests

  // Change-driven progress state (see progressPass).
  /// A filed retransmission deadline. Stale once the request completes or
  /// its retrans_deadline no longer equals `at` (ACKed, reset by a CTS, or
  /// re-armed, which filed its own entry); a pass drops stale entries.
  struct Deadline {
    TimeNs at;
    RequestPtr req;
  };
  std::vector<RequestPtr> ticketed_;     // DDT-ticket holders, every pass
  std::vector<Deadline> deadlines_;      // binary min-heap on Deadline::at
  std::vector<RequestPtr> dirty_;        // event-marked since the last pass
  std::vector<RequestPtr> pass_scratch_; // reused per-pass work list
  std::uint64_t next_progress_order_{0};
  std::size_t sweep_watermark_{64};      // amortized active_ sweep trigger
  MatchTable posted_recvs_;                 // unmatched posted receives
  /// A message that arrived before its receive was posted: an eager
  /// payload (a ref into the payload pool, so parking is free) or, for a
  /// rendezvous RTS, the sender's request.
  struct Unexpected {
    net::PayloadRef eager;
    RequestPtr rts;
  };
  /// One queue for both kinds, so a receive takes them in arrival order.
  ArrivalQueue<Unexpected> unexpected_;

  // Next unissued collective tag (see allocCollectiveTags).
  int next_collective_tag_{kCollectiveTagBase};

  // Multi-tenant serving plane.
  std::vector<TenantStats> tenant_stats_;

  // Request control blocks recycle through a per-rank arena
  // (mpi/request_arena.hpp): shared_ptr-owned because control blocks
  // embed the allocator and may outlive the Proc via weak refs.
  std::shared_ptr<detail::ArenaBlocks> request_arena_;

  // Reliable-transport state.
  TransportCounters transport_;
  std::uint64_t next_seq_{1};
};

class Runtime {
 public:
  Runtime(hw::Cluster& cluster, RuntimeConfig config);

  int worldSize() const { return static_cast<int>(procs_.size()); }
  Proc& proc(int rank);
  const RuntimeConfig& config() const { return config_; }
  hw::Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return cluster_->engine(); }

  int nodeOfRank(int rank) const;
  bool sameNode(int a, int b) const { return nodeOfRank(a) == nodeOfRank(b); }

  /// Run `body` on every rank and drive the simulation to completion.
  void runAll(const std::function<sim::Task<void>(Proc&)>& body);

  /// Aggregate time breakdown over all ranks' DDT engines (Fig. 11).
  TimeBreakdown aggregateBreakdown() const;

 private:
  friend class Proc;

  // Barrier bookkeeping.
  std::size_t barrier_waiting_{0};
  std::uint64_t barrier_generation_{0};
  std::unique_ptr<sim::CondVar> barrier_cv_;

  hw::Cluster* cluster_;
  RuntimeConfig config_;
  std::vector<std::unique_ptr<Proc>> procs_;
};

}  // namespace dkf::mpi
