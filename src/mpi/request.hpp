// MPI-style request objects for the runtime's non-blocking operations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/tenant.hpp"
#include "common/units.hpp"
#include "ddt/layout.hpp"
#include "gpu/memory.hpp"
#include "net/payload.hpp"
#include "schemes/ddt_engine.hpp"

namespace dkf::mpi {

inline constexpr int kAnyTag = -1;
inline constexpr int kAnySource = -1;

/// Wire protocol chosen for a message.
enum class Protocol : std::uint8_t {
  Eager,      ///< small: data travels with the match
  RGet,       ///< rendezvous: RTS after pack, receiver RDMA-READs
  RPut,       ///< rendezvous: RTS first, sender RDMA-WRITEs after CTS
  DirectIpc,  ///< intra-node zero-copy strided transfer [24]
};

struct Request {
  enum class Kind : std::uint8_t { Send, Recv };

  Kind kind{Kind::Send};
  int owner_rank{-1};
  int peer{-1};
  int tag{0};
  Protocol protocol{Protocol::Eager};

  // ---- Multi-tenant serving plane (MODEL.md §14) ----
  TenantId tenant{kDefaultTenant};  ///< whose traffic class this is
  TimeNs posted_at{0};              ///< isend/irecv issue time (latency base)
  TimeNs completed_at{0};           ///< completion stamp (0 = still open)
  bool counted_inflight{false};     ///< holds one admission token

  gpu::MemSpan user_buf{};       ///< the application buffer (origin)
  ddt::LayoutPtr layout{};       ///< flattened layout of user_buf
  bool is_contiguous{true};
  std::size_t data_bytes{0};     ///< packed payload size

  // Staging for packed data (owned -> freed at completion).
  gpu::MemSpan staging{};
  bool staging_owned{false};
  // Eager payload parked at the receiver until unpack finishes (a ref into
  // the sender node's payload pool — no copy on the park).
  net::PayloadRef eager_data;

  // DDT-engine work in flight (pack on the sender, unpack/direct on the
  // receiver).
  schemes::Ticket ticket{};
  bool ticket_pending{false};

  // Protocol state machine.
  bool pack_done{false};
  bool rts_sent{false};
  bool cts_received{false};
  bool data_in_flight{false};
  bool data_delivered{false};
  gpu::MemSpan remote_staging{};      ///< peer's packed buffer (RGet/RPut)
  ddt::LayoutPtr remote_layout{};     ///< DirectIpc: sender-side layout
  gpu::MemSpan remote_origin{};       ///< DirectIpc: sender-side buffer
  bool direct_retry{false};           ///< DirectIpc enqueue must be retried
  std::shared_ptr<Request> paired{};  ///< peer request during rendezvous
                                      ///< data movement (cleared at
                                      ///< completion to break the cycle)

  bool complete{false};

  // ---- Change-driven progress bookkeeping ----
  // A progress pass only advances requests whose state could have moved:
  // `progress_order` pins the activation (= scan) order, and the two
  // membership flags dedupe entries on the owning Proc's ticket/dirty lists
  // (armed deadlines go to the Proc's deadline heap, which needs no flag).
  std::uint64_t progress_order{0};  ///< activation order, the pass sort key
  bool in_ticketed{false};          ///< on the proc's every-pass ticket list
  bool in_dirty{false};             ///< marked for the next progress pass

  // ---- Reliable-transport state (ReliabilityConfig::enabled) ----
  // A send is sequence-numbered the first time it touches the wire; the
  // receiver ACKs (eager) or answers duplicate RTSs (rendezvous), and the
  // sender retransmits on timeout with exponential backoff. All fields stay
  // at their defaults when reliability is off, so the fault-free protocol
  // is bit-identical to the unreliable one.
  std::uint64_t seq{0};          ///< 0 = not yet on the wire this activation
  /// Highest eager seq the receiver has accepted from this send (receiver-
  /// set, like rndv_matched). Never reset on a persistent restart: seqs
  /// only grow, so a late duplicate of an earlier activation still drops.
  std::uint64_t delivered_seq{0};
  TimeNs retrans_deadline{0};    ///< 0 = no retransmission armed
  DurationNs retrans_timeout{0};
  std::size_t retransmissions{0};
  bool rndv_matched{false};            ///< receiver already matched this RTS
  std::weak_ptr<Request> rndv_recv;    ///< the matched receive (receiver-set)
  std::shared_ptr<Request> rget_sender{};  ///< RGet recv: sender for re-reads
  gpu::MemSpan delivery_span{};        ///< recv: where packed bytes land
  net::PayloadRef host_staging;        ///< degraded host staging (alloc fail)
  // Eager wire capture, taken once when the payload first departs. A
  // retransmission bumps this ref instead of re-snapshotting the staging
  // buffer, so every attempt carries byte-identical data. Released on ACK
  // (or immediately after send when reliability is off).
  net::PayloadRef wire_payload;
  bool payload_captured{false};

  // Persistent-request support (MPI_Send_init / MPI_Recv_init):
  bool persistent{false};  ///< a reusable operation template
  bool active{false};      ///< started and not yet completed+waited

  /// Matching key check for receives (peer may be kAnySource, tag kAnyTag).
  bool matches(int src_rank, int msg_tag) const {
    return (peer == kAnySource || peer == src_rank) &&
           (tag == kAnyTag || tag == msg_tag);
  }
};

// Requests are built per message on the hot path (arena-recycled control
// blocks); a bigger Request measurably slows the bulk workloads, so growth
// has to be paid for by a field removed elsewhere.
static_assert(sizeof(Request) <= 616, "mpi::Request grew past 616 bytes");

using RequestPtr = std::shared_ptr<Request>;

}  // namespace dkf::mpi
