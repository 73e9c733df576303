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

struct Request;

/// A request's per-activation protocol state: everything a persistent
/// restart resets. `Proc::start` restarts a request by assigning a fresh
/// `Activation{}` over this base, so a field added here cannot be missed.
struct Activation {
  /// Handshake progress; it only moves forward within an activation.
  enum class Phase : std::uint8_t {
    Idle,         ///< nothing on the wire yet (a receive: no data landed)
    RtsSent,      ///< RGet, RPut or DirectIPC send: RTS issued
    CtsReceived,  ///< RPut send: the CTS named the receive's staging
    DataSent,     ///< eager data, or the RPut write, issued
    DataLanded,   ///< the RDMA landed: RPut send and receive, RGet receive
  };

  /// Packed bytes: the user buffer when contiguous, else device or host
  /// staging, or (eager receive) the parked payload.
  gpu::MemSpan staging{};
  /// The one payload slot: an eager send's wire capture until the ACK
  /// lands (a retransmission only bumps its ref), a receive's parked eager
  /// payload, or its host staging after a refused device allocation.
  net::PayloadRef payload;
  /// The one strong link to the other side: RPut send -> its receive
  /// (until completion), RGet receive -> its sender (until the read
  /// lands), DirectIPC receive -> its sender (until the FIN leaves).
  std::shared_ptr<Request> paired{};
  /// The receive that matched this send's RTS (receiver-set, reliable
  /// transport only): a duplicate RTS is answered from its state.
  std::weak_ptr<Request> rndv_recv;
  gpu::MemSpan remote_staging{};  ///< RPut send: the receive's staging (CTS)
  /// DDT-engine pack, unpack or DirectIPC copy; valid only while in flight.
  schemes::Ticket ticket{};
  TimeNs completed_at{0};  ///< completion stamp (0 = still open)

  // ---- Reliable transport (ReliabilityConfig::enabled) ----
  // With reliability off the timer fields keep their defaults, so the
  // fault-free protocol is bit-identical to the unreliable one.
  std::uint64_t seq{0};  ///< drawn when the send first touches the wire
  TimeNs retrans_deadline{0};  ///< 0 = no retransmission armed
  DurationNs retrans_timeout{0};
  std::size_t retransmissions{0};

  Phase phase{Phase::Idle};
  bool staging_owned{false};  ///< staging is device memory freed at the end
  bool direct_retry{false};   ///< DirectIPC enqueue must be retried
  bool rndv_matched{false};   ///< receiver already matched this RTS
  bool rts_parked{false};     ///< receiver parked this RTS as unexpected
  bool complete{false};
};

struct Request : Activation {
  enum class Kind : std::uint8_t { Send, Recv };

  // One-byte fields first: they pack into the Activation base's tail.
  Kind kind{Kind::Send};
  Protocol protocol{Protocol::Eager};
  bool is_contiguous{true};
  bool counted_inflight{false};  ///< holds one admission token
  // Persistent-request support (MPI_Send_init / MPI_Recv_init):
  bool persistent{false};  ///< a reusable operation template
  bool active{false};      ///< started and not yet completed+waited
  // Change-driven progress: dedupe entries on the owning Proc's ticket and
  // dirty lists (its deadline heap needs no flag).
  bool in_ticketed{false};  ///< on the proc's every-pass ticket list
  bool in_dirty{false};     ///< marked for the next progress pass

  int owner_rank{-1};
  int peer{-1};
  int tag{0};
  TenantId tenant{kDefaultTenant};  ///< whose traffic class (MODEL.md §14)
  /// isend/irecv (or start) issue time: the latency base.
  TimeNs posted_at{0};

  gpu::MemSpan user_buf{};       ///< the application buffer (origin)
  ddt::LayoutPtr layout{};       ///< flattened layout of user_buf
  std::size_t data_bytes{0};     ///< packed payload size

  std::uint64_t progress_order{0};  ///< activation order, the pass sort key
  /// Highest eager seq the receiver has accepted from this send (receiver-
  /// set, like rndv_matched). Never reset on a persistent restart: seqs
  /// only grow, so a late duplicate of an earlier activation still drops.
  std::uint64_t delivered_seq{0};

  /// Matching key check for receives (peer may be kAnySource, tag kAnyTag).
  bool matches(int src_rank, int msg_tag) const {
    return (peer == kAnySource || peer == src_rank) &&
           (tag == kAnyTag || tag == msg_tag);
  }
};

// Requests are built per message on the hot path (arena-recycled control
// blocks); a bigger Request measurably slows the bulk workloads, so growth
// has to be paid for by a field removed elsewhere.
static_assert(sizeof(Request) <= 312, "mpi::Request grew past 312 bytes");

using RequestPtr = std::shared_ptr<Request>;

}  // namespace dkf::mpi
