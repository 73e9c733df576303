// Batched message plane (MODEL.md §13): the DKF_AUDIT invariant checker,
// MatchTable / ArrivalQueue equivalence with the seed's linear scans,
// LinkBatcher coalescing semantics, and end-to-end determinism against
// frozen golden digests — identical completions, bytes, virtual end time
// and retransmissions, fault-free and under 12% loss, over eager,
// rendezvous (RGet, RPut) and DirectIPC traffic and every DDT scheme.
//
// The determinism fuzz runs under bench::parallelFor; gtest assertions are
// not thread-safe, so workers record failure strings and the main thread
// asserts after the join.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/parallel.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/match_table.hpp"
#include "mpi/runtime.hpp"
#include "net/link_batcher.hpp"
#include "schemes/factory.hpp"
#include "sim/engine.hpp"

namespace dkf {
namespace {

// ---- DKF_AUDIT invariant checker ----------------------------------------

/// Drive `eng` with a self-expanding event cascade of up to `target` events.
void runCascade(sim::Engine& eng, std::uint64_t seed, std::size_t target) {
  auto rng = std::make_shared<Rng>(seed);
  auto scheduled = std::make_shared<std::uint64_t>(0);
  // Each callback fans out into 0..2 children at a random future offset
  // (same-time children included), so the queue grows and shrinks instead
  // of only draining monotonically.
  struct Spawner {
    sim::Engine* eng;
    std::shared_ptr<Rng> rng;
    std::shared_ptr<std::uint64_t> scheduled;
    std::size_t target;
    void fire() const {
      if (*scheduled >= target) return;
      const std::uint64_t kids = rng->below(3);
      for (std::uint64_t k = 0; k < kids && *scheduled < target; ++k) {
        ++*scheduled;
        auto self = *this;
        eng->schedule(rng->below(512), [self] { self.fire(); });
      }
    }
  };
  Spawner sp{&eng, rng, scheduled, target};
  for (std::size_t i = 0; i < 4096; ++i) {
    ++*scheduled;
    eng.scheduleAt(rng->below(4096), [sp] { sp.fire(); });
  }
  eng.run();
}

TEST(MsgPlaneAudit, InvariantsHoldEveryStep) {
  sim::Engine eng;
  eng.setAudit(true);
  ASSERT_TRUE(eng.auditEnabled());
  // The audit runs after every step; a violated heap order, leaked slot or
  // duplicate seq throws CheckFailure mid-run.
  EXPECT_NO_THROW(runCascade(eng, 0xAD17, 30'000));
  EXPECT_NO_THROW(eng.auditInvariants());  // and on the drained queue
}

TEST(MsgPlaneAudit, DuplicateSeqThrows) {
  sim::Engine eng;
  eng.setAudit(true);
  const std::uint64_t seq = eng.allocSeq();
  eng.scheduleAtSeq(20, seq, [] {});
  eng.scheduleAtSeq(30, seq, [] {});
  eng.scheduleAt(10, [] {});  // the audit after this step sees both keys
  try {
    eng.run();
    FAIL() << "a seq queued twice passed the audit";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate event sequence number"),
              std::string::npos)
        << e.what();
  }
}

TEST(MsgPlaneAudit, EnvVarEnablesAtConstruction) {
  ::setenv("DKF_AUDIT", "1", 1);
  sim::Engine on;
  EXPECT_TRUE(on.auditEnabled());
  ::setenv("DKF_AUDIT", "0", 1);
  sim::Engine off;
  EXPECT_FALSE(off.auditEnabled());
  ::unsetenv("DKF_AUDIT");
}

// ---- MatchTable / ArrivalQueue vs the seed's linear scans ---------------

mpi::RequestPtr makeRecv(int peer, int tag) {
  auto r = std::make_shared<mpi::Request>();
  r->kind = mpi::Request::Kind::Recv;
  r->peer = peer;
  r->tag = tag;
  return r;
}

TEST(MsgPlaneMatchTable, FuzzMatchesPostOrderScan) {
  Rng rng(0x5CA7);
  mpi::MatchTable table;
  std::vector<mpi::RequestPtr> shadow;  // post order, the seed structure
  for (int iter = 0; iter < 20'000; ++iter) {
    if (shadow.empty() || rng.below(100) < 55) {
      const int peer =
          rng.below(8) == 0 ? mpi::kAnySource : static_cast<int>(rng.below(6));
      const int tag =
          rng.below(8) == 0 ? mpi::kAnyTag : static_cast<int>(rng.below(6));
      auto r = makeRecv(peer, tag);
      table.post(r);
      shadow.push_back(std::move(r));
    } else {
      const int src = static_cast<int>(rng.below(6));
      const int tag = static_cast<int>(rng.below(6));
      auto it = std::find_if(shadow.begin(), shadow.end(),
                             [&](const mpi::RequestPtr& r) {
                               return r->matches(src, tag);
                             });
      mpi::RequestPtr got = table.match(src, tag);
      if (it == shadow.end()) {
        ASSERT_EQ(got, nullptr) << "table matched; scan did not";
      } else {
        ASSERT_EQ(got.get(), it->get())
            << "earliest-posted winner differs from the linear scan";
        shadow.erase(it);
      }
      ASSERT_EQ(table.size(), shadow.size());
    }
  }
}

TEST(MsgPlaneMatchTable, ArrivalQueueFuzzMatchesArrivalOrderScan) {
  struct Arrived {
    int src, tag, value;
  };
  Rng rng(0xA221);
  mpi::ArrivalQueue<int> queue;
  std::vector<Arrived> shadow;  // arrival order
  int next_value = 0;
  for (int iter = 0; iter < 20'000; ++iter) {
    if (shadow.empty() || rng.below(100) < 55) {
      const int src = static_cast<int>(rng.below(6));
      const int tag = static_cast<int>(rng.below(6));
      queue.push(src, tag, next_value);
      shadow.push_back(Arrived{src, tag, next_value});
      ++next_value;
    } else {
      const int peer =
          rng.below(8) == 0 ? mpi::kAnySource : static_cast<int>(rng.below(6));
      const int tag =
          rng.below(8) == 0 ? mpi::kAnyTag : static_cast<int>(rng.below(6));
      auto it = std::find_if(shadow.begin(), shadow.end(),
                             [&](const Arrived& a) {
                               return (peer == mpi::kAnySource ||
                                       peer == a.src) &&
                                      (tag == mpi::kAnyTag || tag == a.tag);
                             });
      int got = -1;
      const bool took = queue.take(peer, tag, got);
      if (it == shadow.end()) {
        ASSERT_FALSE(took);
      } else {
        ASSERT_TRUE(took);
        ASSERT_EQ(got, it->value)
            << "earliest-arrival winner differs from the linear scan";
        shadow.erase(it);
      }
      ASSERT_EQ(queue.size(), shadow.size());
    }
  }
}

// ---- LinkBatcher: contiguous-seq coalescing, exact order ----------------

TEST(MsgPlaneBatcher, ContiguousSameTimeRunCoalescesIntoOneEvent) {
  sim::Engine eng;
  net::LinkBatcher batcher(eng);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    batcher.enqueue(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(batcher.deliveries(), 4u);
  EXPECT_EQ(batcher.armedEvents(), 1u);  // one heap event carried all four
  EXPECT_EQ(batcher.coalescedRuns(), 1u);
  EXPECT_EQ(batcher.coalescedDeliveries(), 3u);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(MsgPlaneBatcher, ForeignEventBetweenReservedSeqsBlocksCoalescing) {
  // A foreign event scheduled between two enqueues takes the seq between
  // them; running the parked entries in one event would jump it. The
  // batcher must fire them separately with the foreign event in between.
  sim::Engine eng;
  net::LinkBatcher batcher(eng);
  std::vector<std::string> order;
  batcher.enqueue(100, [&order] { order.push_back("d0"); });
  eng.scheduleAt(100, [&order] { order.push_back("foreign"); });
  batcher.enqueue(100, [&order] { order.push_back("d1"); });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"d0", "foreign", "d1"}));
  EXPECT_EQ(batcher.armedEvents(), 2u);
  EXPECT_EQ(batcher.coalescedDeliveries(), 0u);
}

TEST(MsgPlaneBatcher, ReentrantEnqueueFromDeliveryIsDeferredNotLost) {
  sim::Engine eng;
  net::LinkBatcher batcher(eng);
  std::vector<int> order;
  batcher.enqueue(100, [&] {
    order.push_back(0);
    batcher.enqueue(150, [&order] { order.push_back(1); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(eng.now(), 150u);
  EXPECT_EQ(batcher.pending(), 0u);
}

// ---- End-to-end determinism: frozen golden digests ----------------------

/// Where a hybrid engine must run an input's packs and unpacks: on its GPU
/// or fusion path (kernels launched) or on its GDRCopy path (none).
enum class Route { Any, Gpu, GdrCopy };

/// One determinism input: every rank sends `msgs` messages of `count`
/// elements of `type()` to its right-hand neighbour, posting all receives,
/// then all sends, back to back, so all ranks issue at the same virtual
/// times and pile same-time deliveries onto shared links.
struct Shape {
  const char* name;
  int nodes;
  int msgs;
  ddt::DatatypePtr (*type)();  // built per world: datatypes cache lazily
  std::size_t count;
  mpi::Protocol rendezvous{mpi::Protocol::RGet};
  bool direct_ipc{false};
  DurationNs base_timeout{us(40)};
  /// One waiter coroutine per request (completion order traced) instead of
  /// one waitall per rank.
  bool waiter_per_request{false};
  schemes::Scheme scheme{schemes::Scheme::Proposed};
  /// RuntimeConfig::tenant_inflight_limit (0 = no admission control).
  std::size_t inflight_limit{0};
  /// Pack each message with Proc::pack and send its packed bytes; unpack
  /// each with Proc::unpack after the waitall.
  bool explicit_pack{false};
  Route route{Route::Any};
};

// 16 KiB packed, 32 KiB extent: a non-contiguous message above lassen's
// 8 KiB eager threshold.
ddt::DatatypePtr stridedType() {
  return ddt::Datatype::vector(512, 4, 8, ddt::Datatype::float64());
}

const Shape kEager512{"eager 512 B", 2, 24, &ddt::Datatype::byte, 512,
                      mpi::Protocol::RGet, false, us(40), true};
const Shape kStridedRget{"strided RGet", 2, 8, &stridedType, 1};
const Shape kStridedRput{"strided RPut", 2, 8, &stridedType, 1,
                         mpi::Protocol::RPut};
// A 5 us timeout is shorter than a DirectIPC round trip, so deadlines come
// due while a slow pass is suspended in its enqueue, and the pass's full
// scan fires retransmissions no popped deadline led to.
const Shape kDirectIpc{"intra-node DirectIPC", 1, 8, &stridedType, 1,
                       mpi::Protocol::RGet, true, us(5)};
// An RPut send arms its RTS deadline as soon as its pack is submitted, and
// the fusion engine holds the pack until the sender's waitall flushes it:
// a 500 ns timeout expires mid-pack, while the send cannot act yet.
const Shape kRputPackTimeout{"RPut RTS timeout mid-pack", 2, 8, &stridedType,
                             1, mpi::Protocol::RPut, false, ns(500)};
const Shape kLossShapes[] = {kStridedRget, kStridedRput, kDirectIpc,
                             kRputPackTimeout};
// kDirectIpc with one waiter per request: several coroutines of one rank
// poll the progress engine, so a second waiter runs whole passes while the
// first is suspended in a DirectIPC enqueue mid-scan.
const Shape kDirectIpcWaiters{"intra-node DirectIPC, waiter per request", 1,
                              8, &stridedType, 1, mpi::Protocol::RGet, true,
                              us(5), true};
// The poll loops the Proposed-scheme waitall inputs above never reach:
// GPU-Async, the one engine whose progress() costs CPU time (its deferred
// queries); GPU-Sync, whose submissions block; admission back-pressure
// (Proc::admitSend, here with the tenant's packs pending in the fusion
// engine); and the explicit Proc::pack / Proc::unpack ticket waits.
const Shape kGpuAsync{"strided RGet, GPU-Async", 2, 8, &stridedType, 1,
                      mpi::Protocol::RGet, false, us(40), false,
                      schemes::Scheme::GpuAsync};
const Shape kGpuSync{"strided RGet, GPU-Sync", 2, 8, &stridedType, 1,
                     mpi::Protocol::RGet, false, us(40), false,
                     schemes::Scheme::GpuSync};
const Shape kAdmission{"strided RGet, 2 sends in flight", 2, 8, &stridedType,
                       1, mpi::Protocol::RGet, false, us(40), false,
                       schemes::Scheme::Proposed, 2};
const Shape kExplicitPack{"strided, explicit pack and unpack", 2, 8,
                          &stridedType, 1, mpi::Protocol::RGet, false, us(40),
                          false, schemes::Scheme::Proposed, 0, true};
const Shape kPollLoopShapes[] = {kGpuAsync, kGpuSync, kAdmission,
                                 kExplicitPack};

// The schemes the inputs above leave out, each on two rendezvous layouts.
// 1024 runs of 16 B, 16 KiB packed: more runs than any hybrid engine's
// GDRCopy path takes, so each runs its GPU-Sync or fusion path.
ddt::DatatypePtr sparseType() {
  return ddt::Datatype::vector(1024, 2, 4, ddt::Datatype::float64());
}
// 24 runs of 512 B, 12 KiB packed: above lassen's 8 KiB eager threshold and
// inside every hybrid engine's GDRCopy bounds (Proposed+Hybrid's are the
// tightest, 64 runs and 16 KiB).
ddt::DatatypePtr denseType() {
  return ddt::Datatype::vector(24, 64, 128, ddt::Datatype::float64());
}
Shape schemeShape(const char* name, ddt::DatatypePtr (*type)(),
                  schemes::Scheme scheme, Route route) {
  Shape s{name, 2, 8, type, 1};
  s.scheme = scheme;
  s.route = route;
  return s;
}
const Shape kSchemeShapes[] = {
    schemeShape("sparse RGet, CPU-GPU-Hybrid", &sparseType,
                schemes::Scheme::CpuGpuHybrid, Route::Gpu),
    schemeShape("dense RGet, CPU-GPU-Hybrid", &denseType,
                schemes::Scheme::CpuGpuHybrid, Route::GdrCopy),
    schemeShape("sparse RGet, SpectrumMPI/OpenMPI", &sparseType,
                schemes::Scheme::NaiveCopy, Route::Any),
    schemeShape("dense RGet, SpectrumMPI/OpenMPI", &denseType,
                schemes::Scheme::NaiveCopy, Route::Any),
    schemeShape("sparse RGet, MVAPICH2-GDR", &sparseType,
                schemes::Scheme::AdaptiveGdr, Route::Gpu),
    schemeShape("dense RGet, MVAPICH2-GDR", &denseType,
                schemes::Scheme::AdaptiveGdr, Route::GdrCopy),
    schemeShape("sparse RGet, Proposed+Hybrid", &sparseType,
                schemes::Scheme::ProposedHybrid, Route::Gpu),
    schemeShape("dense RGet, Proposed+Hybrid", &denseType,
                schemes::Scheme::ProposedHybrid, Route::GdrCopy),
};
// Proposed+Hybrid sends every DirectIPC copy down its fusion path.
const Shape kHybridDirectIpc{"intra-node DirectIPC, Proposed+Hybrid",
                             1, 8, &stridedType, 1, mpi::Protocol::RGet,
                             true, us(5), false,
                             schemes::Scheme::ProposedHybrid, 0, false,
                             Route::Gpu};

struct WorldTrace {
  std::vector<std::uint64_t> completion_order;  // (rank << 32) | tag
  std::vector<TimeNs> completed_at;             // every request, post order
  std::vector<std::byte> recv_bytes;            // all ranks, concatenated
  TimeNs end_time{0};
  std::size_t processed_events{0};
  std::size_t retransmissions{0};
  std::size_t incomplete{0};  // posted requests that never completed
  std::size_t kernels{0};     // kernels launched on every rank's GPU
};

sim::Task<void> traceWait(mpi::Proc& p, mpi::RequestPtr req,
                          std::uint64_t id,
                          std::vector<std::uint64_t>& order) {
  co_await p.wait(std::move(req));
  order.push_back(id);
}

sim::Task<void> tracedRank(mpi::Proc& p, const Shape& shape, int ranks,
                           gpu::MemSpan sbuf, gpu::MemSpan rbuf,
                           std::vector<mpi::RequestPtr>& posted,
                           std::vector<std::uint64_t>& order) {
  const int me = p.rank();
  const int to = (me + 1) % ranks;
  const int from = (me + ranks - 1) % ranks;
  const auto type = shape.type();
  const auto region = static_cast<std::size_t>(type->extent()) * shape.count;
  std::vector<mpi::RequestPtr> mine;
  if (shape.explicit_pack) {
    const std::size_t packed = type->size() * shape.count;
    const gpu::MemSpan spacked = p.allocDevice(packed * shape.msgs);
    const gpu::MemSpan rpacked = p.allocDevice(packed * shape.msgs);
    const auto bytes = ddt::Datatype::byte();
    for (int i = 0; i < shape.msgs; ++i) {
      mine.push_back(co_await p.irecv(rpacked.subspan(i * packed, packed),
                                      bytes, packed, from, i));
    }
    for (int i = 0; i < shape.msgs; ++i) {
      co_await p.pack(sbuf.subspan(i * region, region), type, shape.count,
                      spacked.subspan(i * packed, packed));
      mine.push_back(co_await p.isend(spacked.subspan(i * packed, packed),
                                      bytes, packed, to, i));
    }
    posted.insert(posted.end(), mine.begin(), mine.end());
    co_await p.waitall(std::move(mine));
    for (int i = 0; i < shape.msgs; ++i) {
      co_await p.unpack(rpacked.subspan(i * packed, packed),
                        rbuf.subspan(i * region, region), type, shape.count);
    }
    co_return;
  }
  auto track = [&](mpi::RequestPtr req, int tag, std::uint64_t send_bit) {
    if (shape.waiter_per_request) {
      p.engine().spawn(traceWait(p, req,
                                 (static_cast<std::uint64_t>(me) << 32) |
                                     static_cast<std::uint64_t>(tag) |
                                     send_bit,
                                 order));
    }
    mine.push_back(std::move(req));
  };
  for (int i = 0; i < shape.msgs; ++i) {
    track(co_await p.irecv(rbuf.subspan(i * region, region), type,
                           shape.count, from, i),
          i, 0);
  }
  for (int i = 0; i < shape.msgs; ++i) {
    track(co_await p.isend(sbuf.subspan(i * region, region), type,
                           shape.count, to, i),
          i, 1ull << 63);
  }
  posted.insert(posted.end(), mine.begin(), mine.end());
  if (!shape.waiter_per_request) co_await p.waitall(std::move(mine));
}

WorldTrace runTracedWorld(const Shape& shape, double loss,
                          std::uint64_t seed) {
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  // Each rank touches at most ~1 MiB; the default 96 MiB arena would spend
  // most of the test zero-filling backing store.
  machine.node.gpu.arena_bytes = 4u << 20;
  hw::Cluster cluster(eng, machine, shape.nodes);
  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.scheme = shape.scheme;
  cfg.rendezvous = shape.rendezvous;
  cfg.enable_direct_ipc = shape.direct_ipc;
  cfg.tenant_inflight_limit = shape.inflight_limit;
  if (loss > 0.0) {
    fault::FaultSpec fs;
    fs.seed = seed;
    fs.data_loss = loss;
    fs.control_loss = loss;
    plan.emplace(eng, fs);
    cluster.setFaultPlan(&*plan);
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = shape.base_timeout;
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    eng.setWatchdog(sec(5));
  }
  mpi::Runtime rt(cluster, cfg);
  const int ranks = rt.worldSize();
  const std::size_t bytes =
      static_cast<std::size_t>(shape.type()->extent()) * shape.count *
      static_cast<std::size_t>(shape.msgs);

  WorldTrace trace;
  std::vector<gpu::MemSpan> sbufs, rbufs;
  for (int r = 0; r < ranks; ++r) {
    auto& p = rt.proc(r);
    sbufs.push_back(p.allocDevice(bytes));
    rbufs.push_back(p.allocDevice(bytes));
    Rng fill(seed ^ static_cast<std::uint64_t>(r));
    for (auto& b : sbufs.back().bytes) {
      b = static_cast<std::byte>(fill.below(256));
    }
    std::memset(rbufs.back().bytes.data(), 0, bytes);
  }
  std::vector<mpi::RequestPtr> posted;
  for (int r = 0; r < ranks; ++r) {
    eng.spawn(tracedRank(rt.proc(r), shape, ranks, sbufs[r], rbufs[r], posted,
                         trace.completion_order));
  }
  eng.run();
  EXPECT_EQ(eng.unfinishedTasks(), 0u) << shape.name;

  for (const mpi::RequestPtr& req : posted) {
    trace.completed_at.push_back(req->completed_at);
    if (!req->complete) ++trace.incomplete;
  }
  for (int r = 0; r < ranks; ++r) {
    trace.recv_bytes.insert(trace.recv_bytes.end(), rbufs[r].bytes.begin(),
                            rbufs[r].bytes.end());
    trace.retransmissions += rt.proc(r).transport().retransmissions;
    trace.kernels += rt.proc(r).gpu().kernelsLaunched();
  }
  trace.end_time = eng.now();
  trace.processed_events = eng.processedEvents();
  return trace;
}

/// FNV-1a over bytes, and over 64-bit values fed least significant byte
/// first (the same digest on any host).
std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}
std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t v : values) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// What one input must reproduce. `max_events` is the processed-event
/// count of the run the digest was recorded from, kept as an upper bound:
/// the change-driven plane may only ever do less work.
struct Digest {
  std::uint64_t recv_bytes;        // FNV-1a of the received bytes
  std::uint64_t completion_order;  // FNV-1a of the waiter completion order
  std::uint64_t completed_at;      // FNV-1a of completed_at, post order
  TimeNs end_time;
  std::size_t retransmissions;
  std::size_t max_events;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << std::hex << "{0x" << d.recv_bytes << ", 0x"
            << d.completion_order << ", 0x" << d.completed_at << std::dec
            << ", " << d.end_time << ", " << d.retransmissions << ", "
            << d.max_events << "}";
}

struct Golden {
  const char* shape;
  int loss_pct;
  std::uint64_t seed;
  Digest digest;
};

// Recorded from the runs these tests compared before the seed coroutine
// progress path was retired, and checked against both that path and the
// batched plane before it went.
constexpr Golden kGoldens[] = {
    {"eager 512 B", 0, 0xd0,
     {0xe45fccf176f72836, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x10551,
     {0x5fd26e8121aef589, 0x70b33f2caf806145, 0xeb71c37029234c19,
      292000, 61, 26941}},
    {"strided RGet", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x3161755fd970b1aa,
      318446, 46, 3478}},
    {"strided RPut", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x77327f6b1f9a6b34,
      333906, 37, 4265}},
    {"intra-node DirectIPC", 12, 0x10551,
     {0x94d9e808b89d6f2d, 0xcbf29ce484222325, 0xa9beba6a691aa704,
      43800, 66, 442}},
    {"RPut RTS timeout mid-pack", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0xd40b94a0249c8899,
      119865, 270, 1939}},
    {"eager 512 B", 0, 0xfa5d,
     {0xc7faec4f87802e89, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0xfa5d,
     {0xc7faec4f87802e89, 0xc26e467e4417a825, 0x9286e05febdacc6,
      293800, 51, 23574}},
    {"strided RGet", 12, 0xfa5d,
     {0x1663274b04e804f6, 0xcbf29ce484222325, 0xa4f1f9632be72464,
      313809, 28, 3191}},
    {"strided RPut", 12, 0xfa5d,
     {0x1663274b04e804f6, 0xcbf29ce484222325, 0x3892983e5eda7777,
      218590, 24, 3575}},
    {"intra-node DirectIPC", 12, 0xfa5d,
     {0x4e5944082d2d9ab2, 0xcbf29ce484222325, 0x6468b70f74fe7f39,
      163800, 68, 934}},
    {"RPut RTS timeout mid-pack", 12, 0xfa5d,
     {0x1663274b04e804f6, 0xcbf29ce484222325, 0x24b4c1ebe08e8e61,
      123896, 259, 1984}},
    {"eager 512 B", 0, 0x1194c,
     {0xcccd0ebd327ed3e3, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x1194c,
     {0xcccd0ebd327ed3e3, 0xf7ae6c931e98ee45, 0xf8d13f6928409a3,
      610750, 73, 33662}},
    {"strided RGet", 12, 0x1194c,
     {0xcb798ee0c4382426, 0xcbf29ce484222325, 0x2ef8babfbf1461a5,
      636043, 33, 4722}},
    {"strided RPut", 12, 0x1194c,
     {0xcb798ee0c4382426, 0xcbf29ce484222325, 0xe8df7301badae7,
      208236, 28, 4029}},
    {"intra-node DirectIPC", 12, 0x1194c,
     {0x25bfc870d2851e60, 0xcbf29ce484222325, 0x47a3d92aba5b6ab7,
      83800, 70, 803}},
    {"RPut RTS timeout mid-pack", 12, 0x1194c,
     {0xcb798ee0c4382426, 0xcbf29ce484222325, 0xc14d806fecccb1fa,
      121154, 256, 1964}},
    {"eager 512 B", 0, 0x1383b,
     {0x436cb481f7785a0d, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x1383b,
     {0x436cb481f7785a0d, 0x7268155d6d300845, 0x1ced43e219a8d9d7,
      2532250, 50, 31895}},
    {"strided RGet", 12, 0x1383b,
     {0x7f63a83da61301e3, 0xcbf29ce484222325, 0x50a64e3028525165,
      315355, 32, 3762}},
    {"strided RPut", 12, 0x1383b,
     {0x7f63a83da61301e3, 0xcbf29ce484222325, 0x6e4a7ffb2bbbd688,
      340156, 23, 4277}},
    {"intra-node DirectIPC", 12, 0x1383b,
     {0xfc66c6d4041e8d4, 0xcbf29ce484222325, 0x680ba1386c209f57,
      43800, 66, 505}},
    {"RPut RTS timeout mid-pack", 12, 0x1383b,
     {0x7f63a83da61301e3, 0xcbf29ce484222325, 0x5a816304c36df71d,
      121267, 250, 2067}},
    {"eager 512 B", 0, 0x1572a,
     {0x3ebff4a3f11eeb53, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x1572a,
     {0x3ebff4a3f11eeb53, 0x9bab53a02a326be5, 0x3a1cc812838cf6af,
      132900, 49, 22129}},
    {"strided RGet", 12, 0x1572a,
     {0x97d307bebdb4d3d6, 0xcbf29ce484222325, 0x7ddb8fff5e26f964,
      312265, 39, 3292}},
    {"strided RPut", 12, 0x1572a,
     {0x97d307bebdb4d3d6, 0xcbf29ce484222325, 0xceecc1cdeaba2cea,
      338906, 33, 4035}},
    {"intra-node DirectIPC", 12, 0x1572a,
     {0x2dd58034f1fb0881, 0xcbf29ce484222325, 0x51c18c03a327c50b,
      43550, 70, 460}},
    {"RPut RTS timeout mid-pack", 12, 0x1572a,
     {0x97d307bebdb4d3d6, 0xcbf29ce484222325, 0x15c9d25f65c763,
      123722, 259, 1958}},
    {"eager 512 B", 0, 0x17619,
     {0xbeafc3e00d380953, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x17619,
     {0xbeafc3e00d380953, 0x70462ef081f38145, 0x4bfebe9d6efd63c7,
      617400, 62, 30458}},
    {"strided RGet", 12, 0x17619,
     {0xdc93772e88d18057, 0xcbf29ce484222325, 0x2ebde4ed671c0bb,
      157355, 28, 2251}},
    {"strided RPut", 12, 0x17619,
     {0xdc93772e88d18057, 0xcbf29ce484222325, 0x7f7276101ebde5cb,
      172360, 23, 2188}},
    {"intra-node DirectIPC", 12, 0x17619,
     {0x9691cdb05a10d685, 0xcbf29ce484222325, 0x3f13ea99b818dc94,
      43800, 67, 561}},
    {"RPut RTS timeout mid-pack", 12, 0x17619,
     {0xdc93772e88d18057, 0xcbf29ce484222325, 0xb3be7f28d634099,
      125924, 261, 1928}},
    {"eager 512 B", 0, 0x19508,
     {0x9b8908e86bd3f8f0, 0x721f2ac9c701e525, 0x1ba1e4bacf828ecd,
      15950, 0, 7536}},
    {"eager 512 B", 12, 0x19508,
     {0x9b8908e86bd3f8f0, 0x8ce60f66ba683a65, 0x2b2b9a5d84800000,
      137650, 55, 26294}},
    {"strided RGet", 12, 0x19508,
     {0xdbb313d68b39f459, 0xcbf29ce484222325, 0x443485a97f37fed2,
      321300, 38, 3813}},
    {"strided RPut", 12, 0x19508,
     {0xdbb313d68b39f459, 0xcbf29ce484222325, 0x4727835484280e25,
      372112, 29, 4230}},
    {"intra-node DirectIPC", 12, 0x19508,
     {0xe669935c79b2a08a, 0xcbf29ce484222325, 0xa6ea375b16ccaf5e,
      83550, 66, 609}},
    {"RPut RTS timeout mid-pack", 12, 0x19508,
     {0xdbb313d68b39f459, 0xcbf29ce484222325, 0x92fea2bfcdf23629,
      129309, 240, 1934}},
    // kPollLoopShapes, recorded from the runtime whose poll loops still
    // slept on delay(poll_interval) between polls.
    {"strided RGet, GPU-Async", 0, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0xa1edd36699aa9875,
      196603, 0, 3390}},
    {"strided RGet, GPU-Async", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x570307a4201787e5,
      379679, 47, 4437}},
    {"strided RGet, GPU-Sync", 0, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x57faab0bb02279ed,
      249616, 0, 1690}},
    {"strided RGet, GPU-Sync", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x39fdd8bf43b3b61,
      365718, 41, 4025}},
    {"strided RGet, 2 sends in flight", 0, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x6b8e102e361e0a55,
      204306, 0, 2678}},
    {"strided RGet, 2 sends in flight", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x3f26935dd90864f9,
      395050, 43, 6646}},
    {"strided, explicit pack and unpack", 0, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x4880799823a8b181,
      312200, 0, 5398}},
    {"strided, explicit pack and unpack", 12, 0x10551,
     {0x5618ec83d5915d8b, 0xcbf29ce484222325, 0x177967e9001ef887,
      568950, 46, 8594}},
    // kSchemeShapes and kHybridDirectIpc, recorded from the engines that
    // still had one submit path per operation and a tenant side channel.
    {"sparse RGet, CPU-GPU-Hybrid", 0, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x57faab0bb02279ed,
      249616, 0, 1690}},
    {"sparse RGet, CPU-GPU-Hybrid", 12, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x39fdd8bf43b3b61,
      365718, 41, 4025}},
    {"dense RGet, CPU-GPU-Hybrid", 0, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x53b0eacd37a9cc89,
      66820, 0, 638}},
    {"dense RGet, CPU-GPU-Hybrid", 12, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x656b4ad81114c1da,
      296980, 44, 4602}},
    {"sparse RGet, SpectrumMPI/OpenMPI", 0, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x4fa47c6e4ae83e51,
      18970752, 0, 40198}},
    {"sparse RGet, SpectrumMPI/OpenMPI", 12, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0xd8908742f1384c90,
      21226521, 50, 120897}},
    {"dense RGet, SpectrumMPI/OpenMPI", 0, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x4a21e90c84a718d1,
      470062, 0, 1786}},
    {"dense RGet, SpectrumMPI/OpenMPI", 12, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x1659f6f371ebf1e8,
      676362, 45, 5033}},
    {"sparse RGet, MVAPICH2-GDR", 0, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x57faab0bb02279ed,
      249616, 0, 1690}},
    {"sparse RGet, MVAPICH2-GDR", 12, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x39fdd8bf43b3b61,
      365718, 41, 4025}},
    {"dense RGet, MVAPICH2-GDR", 0, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x586683ee53a9b8cd,
      78522, 0, 766}},
    {"dense RGet, MVAPICH2-GDR", 12, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x8d4525dbdc45f63c,
      213034, 42, 3643}},
    {"sparse RGet, Proposed+Hybrid", 0, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0xaa804e8de3787aad,
      87603, 0, 1388}},
    {"sparse RGet, Proposed+Hybrid", 12, 0x10551,
     {0x2c308cb0107c5fcf, 0xcbf29ce484222325, 0x3161755fd970b1aa,
      318446, 46, 3478}},
    {"dense RGet, Proposed+Hybrid", 0, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x53b0eacd37a9cc89,
      66820, 0, 638}},
    {"dense RGet, Proposed+Hybrid", 12, 0x10551,
     {0x9126d66897a82502, 0xcbf29ce484222325, 0x656b4ad81114c1da,
      296980, 44, 4602}},
    {"intra-node DirectIPC, Proposed+Hybrid", 12, 0x10551,
     {0x94d9e808b89d6f2d, 0xcbf29ce484222325, 0xa9beba6a691aa704,
      43800, 66, 442}},
};

constexpr std::uint64_t kLossSeed = 0x10551;

const Digest* findGolden(const Shape& shape, int loss_pct,
                         std::uint64_t seed) {
  for (const Golden& g : kGoldens) {
    if (std::strcmp(g.shape, shape.name) == 0 && g.loss_pct == loss_pct &&
        g.seed == seed) {
      return &g.digest;
    }
  }
  return nullptr;
}

std::string inputName(const Shape& shape, int loss_pct, std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"" << shape.name << "\", " << loss_pct << ", 0x" << std::hex
     << seed << "}";
  return os.str();
}

/// Run one input and compare it with its golden digest; returns a
/// diagnostic naming the input with the expected and actual digests (empty
/// on success). Runs from parallelFor workers, so no gtest assertions here.
std::string checkGolden(const Shape& shape, int loss_pct, std::uint64_t seed) {
  const WorldTrace t = runTracedWorld(shape, loss_pct / 100.0, seed);
  const Digest actual{fnv1a(t.recv_bytes), fnv1a(t.completion_order),
                      fnv1a(t.completed_at), t.end_time, t.retransmissions,
                      t.processed_events};
  const Digest* want = findGolden(shape, loss_pct, seed);
  std::ostringstream err;
  if (want == nullptr) {
    err << "no golden digest for " << inputName(shape, loss_pct, seed)
        << "; actual " << actual << "\n";
  } else if (actual.recv_bytes != want->recv_bytes ||
             actual.completion_order != want->completion_order ||
             actual.completed_at != want->completed_at ||
             actual.end_time != want->end_time ||
             actual.retransmissions != want->retransmissions ||
             actual.max_events > want->max_events) {
    err << "digest mismatch for " << inputName(shape, loss_pct, seed)
        << ": expected " << *want << " (events at most), actual " << actual
        << "\n";
  }
  if ((shape.route == Route::Gpu && t.kernels == 0) ||
      (shape.route == Route::GdrCopy && t.kernels != 0)) {
    err << inputName(shape, loss_pct, seed) << " launched " << t.kernels
        << " kernel(s), off its "
        << (shape.route == Route::Gpu ? "GPU" : "GDRCopy") << " path\n";
  }
  return err.str();
}

/// The one-waiter-per-request DirectIPC input has no digest of its own: it
/// must complete every request and receive exactly the bytes of the frozen
/// one-waitall kDirectIpc run of the same seed.
std::string checkDirectIpcWaiters(int loss_pct, std::uint64_t seed) {
  const WorldTrace t = runTracedWorld(kDirectIpcWaiters, loss_pct / 100.0,
                                      seed);
  const Digest* want = findGolden(kDirectIpc, 12, seed);
  std::ostringstream err;
  const std::string input = inputName(kDirectIpcWaiters, loss_pct, seed);
  if (t.incomplete != 0) {
    err << t.incomplete << " request(s) never completed in " << input
        << "\n";
  }
  if (want == nullptr) {
    err << "no golden digest for " << inputName(kDirectIpc, 12, seed)
        << "\n";
  } else if (fnv1a(t.recv_bytes) != want->recv_bytes) {
    err << "received bytes of " << input << " differ from "
        << inputName(kDirectIpc, 12, seed) << ": expected 0x" << std::hex
        << want->recv_bytes << ", actual 0x" << fnv1a(t.recv_bytes) << "\n";
  }
  return err.str();
}

TEST(MsgPlaneDeterminism, MatchesGoldensFaultFree) {
  EXPECT_EQ(checkGolden(kEager512, 0, 0x00D0), "");
}

// Beyond eager: rendezvous, DirectIPC and a deadline that falls due
// mid-pack, the inputs whose deadlines the plane files, pops and drops
// along every path.
TEST(MsgPlaneDeterminism, MatchesGoldensUnderLoss) {
  EXPECT_EQ(checkGolden(kEager512, 12, kLossSeed), "");
  for (const Shape& shape : kLossShapes) {
    EXPECT_EQ(checkGolden(shape, 12, kLossSeed), "");
  }
  EXPECT_EQ(checkDirectIpcWaiters(0, kLossSeed), "");
  EXPECT_EQ(checkDirectIpcWaiters(12, kLossSeed), "");
}

// The poll loops beyond the Proposed scheme's waitall: other engines,
// admission back-pressure and explicit pack/unpack.
TEST(MsgPlaneDeterminism, MatchesGoldensOtherPollLoops) {
  for (const Shape& shape : kPollLoopShapes) {
    EXPECT_EQ(checkGolden(shape, 0, kLossSeed), "");
    EXPECT_EQ(checkGolden(shape, 12, kLossSeed), "");
  }
}

// Every scheme the inputs above leave out, on the path its layout selects.
TEST(MsgPlaneDeterminism, MatchesGoldensEveryScheme) {
  for (const Shape& shape : kSchemeShapes) {
    EXPECT_EQ(checkGolden(shape, 0, kLossSeed), "");
    EXPECT_EQ(checkGolden(shape, 12, kLossSeed), "");
  }
  EXPECT_EQ(checkGolden(kHybridDirectIpc, 12, kLossSeed), "");
}

TEST(MsgPlaneDeterminism, FuzzSeedsParallel) {
  constexpr std::size_t kIters = 6;
  std::mutex mu;
  std::vector<std::string> failures;
  bench::parallelFor(kIters, [&](std::size_t i) {
    const std::uint64_t seed = 0xFA5D + i * 7919;
    std::string err = checkGolden(kEager512, 0, seed);
    err += checkGolden(kEager512, 12, seed);
    for (const Shape& shape : kLossShapes) {
      err += checkGolden(shape, 12, seed);
    }
    err += checkDirectIpcWaiters(0, seed);
    err += checkDirectIpcWaiters(12, seed);
    if (!err.empty()) {
      const std::lock_guard<std::mutex> lock(mu);
      failures.push_back(err);
    }
  });
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

}  // namespace
}  // namespace dkf
