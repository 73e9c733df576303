// Batched message plane (MODEL.md §13): calendar-tier order equivalence,
// the DKF_AUDIT invariant checker, MatchTable / ArrivalQueue equivalence
// with the seed's linear scans, LinkBatcher coalescing semantics, and
// end-to-end determinism of the batched plane against the seed shadow —
// identical completions, bytes and virtual end time, fault-free and under
// 12% loss, over eager, rendezvous (RGet, RPut) and DirectIPC traffic.
//
// The determinism fuzz runs under bench::parallelFor; gtest assertions are
// not thread-safe, so workers record failure strings and the main thread
// asserts after the join.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/parallel.hpp"
#include "common/rng.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/match_table.hpp"
#include "mpi/runtime.hpp"
#include "net/link_batcher.hpp"
#include "sim/engine.hpp"

namespace dkf {
namespace {

// ---- Calendar tier: exact (time, seq) order equivalence -----------------

/// Drive `eng` with a self-expanding event cascade and record the pop order
/// of event ids. Both tiers must produce the identical sequence.
std::vector<std::uint64_t> popOrder(sim::Engine& eng, std::uint64_t seed,
                                    std::size_t target) {
  std::vector<std::uint64_t> order;
  order.reserve(target);
  auto rng = std::make_shared<Rng>(seed);
  auto next_id = std::make_shared<std::uint64_t>(0);
  // Each callback records its id and fans out into 0..2 children at a
  // random future offset (same-time children included), so the queue
  // breathes across the engage/disengage thresholds instead of only
  // draining monotonically.
  struct Spawner {
    sim::Engine* eng;
    std::shared_ptr<Rng> rng;
    std::shared_ptr<std::uint64_t> next_id;
    std::vector<std::uint64_t>* order;
    std::size_t target;
    void fire(std::uint64_t id) const {
      order->push_back(id);
      if (*next_id >= target) return;
      const std::uint64_t kids = rng->below(3);
      for (std::uint64_t k = 0; k < kids && *next_id < target; ++k) {
        const std::uint64_t child = (*next_id)++;
        auto self = *this;
        eng->schedule(rng->below(512), [self, child] { self.fire(child); });
      }
    }
  };
  Spawner sp{&eng, rng, next_id, &order, target};
  for (std::size_t i = 0; i < 4096; ++i) {
    const std::uint64_t id = (*next_id)++;
    eng.scheduleAt(rng->below(4096), [sp, id] { sp.fire(id); });
  }
  eng.run();
  return order;
}

TEST(MsgPlaneCalendar, PopOrderIdenticalToHeapTier) {
  constexpr std::size_t kTarget = 50'000;
  sim::Engine heap_only;
  heap_only.setCalendarThreshold(0);  // calendar tier disabled
  sim::Engine tiered;
  tiered.setCalendarThreshold(512);  // force engage/disengage traffic
  const auto a = popOrder(heap_only, 0xC0FFEE, kTarget);
  const auto b = popOrder(tiered, 0xC0FFEE, kTarget);
  ASSERT_EQ(heap_only.queueTier(), sim::Engine::QueueTier::Heap);
  EXPECT_EQ(heap_only.calendarEngagements(), 0u);
  EXPECT_GT(tiered.calendarEngagements(), 0u);  // the tier actually switched
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "calendar tier reordered events";
  EXPECT_EQ(heap_only.now(), tiered.now());
  EXPECT_EQ(heap_only.processedEvents(), tiered.processedEvents());
  EXPECT_GE(tiered.peakPending(), 512u);
}

TEST(MsgPlaneCalendar, DisengagesAfterDrain) {
  sim::Engine eng;
  eng.setCalendarThreshold(256);
  popOrder(eng, 7, 20'000);
  // Fully drained: whatever tier we ended in, the queue is empty and a
  // fresh small workload runs on the heap path again.
  EXPECT_EQ(eng.pendingEvents(), 0u);
  std::size_t fired = 0;
  eng.scheduleAt(eng.now() + 5, [&fired] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1u);
}

// ---- DKF_AUDIT invariant checker ----------------------------------------

TEST(MsgPlaneAudit, InvariantsHoldAcrossTierSwitches) {
  sim::Engine eng;
  eng.setCalendarThreshold(512);
  eng.setAudit(true);
  ASSERT_TRUE(eng.auditEnabled());
  // The audit runs after every step; a violated heap order, stale calendar
  // bucket, leaked slot or duplicate seq throws CheckFailure mid-run.
  EXPECT_NO_THROW(popOrder(eng, 0xAD17, 30'000));
  EXPECT_GT(eng.calendarEngagements(), 0u);
  EXPECT_NO_THROW(eng.auditInvariants());  // and on the drained queue
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

TEST(MsgPlaneBatcher, WindowCoalescesNearbyTimesAtWindowEdge) {
  sim::Engine eng;
  net::LinkBatcher batcher(eng, ns(10));
  std::vector<std::pair<int, TimeNs>> fired;
  batcher.enqueue(100, [&] { fired.push_back({0, eng.now()}); });
  batcher.enqueue(104, [&] { fired.push_back({1, eng.now()}); });
  batcher.enqueue(109, [&] { fired.push_back({2, eng.now()}); });
  batcher.enqueue(200, [&] { fired.push_back({3, eng.now()}); });
  eng.run();
  ASSERT_EQ(fired.size(), 4u);
  // First three land together at head.time + W; the far one fires alone.
  EXPECT_EQ(fired[0].second, 110u);
  EXPECT_EQ(fired[1].second, 110u);
  EXPECT_EQ(fired[2].second, 110u);
  EXPECT_EQ(fired[3].second, 210u);
  EXPECT_EQ(batcher.armedEvents(), 2u);
  EXPECT_EQ(batcher.coalescedDeliveries(), 2u);
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

// ---- End-to-end determinism: batched plane vs seed shadow ---------------

/// One input of the batched-vs-shadow comparison: every rank sends `msgs`
/// messages of `count` elements of `type()` to its right-hand neighbour,
/// posting all receives, then all sends, back to back, so all ranks issue
/// at the same virtual times and pile same-time deliveries onto shared
/// links.
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
  /// one waitall per rank. The seed shadow shares its per-poll snapshot
  /// across concurrent pollers, which is only safe while no progress
  /// action suspends, so DirectIPC shapes wait with one waitall per rank.
  bool waiter_per_request{false};
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

struct WorldTrace {
  std::vector<std::uint64_t> completion_order;  // (rank << 32) | tag
  std::vector<TimeNs> completed_at;             // every request, post order
  std::vector<std::byte> recv_bytes;            // all ranks, concatenated
  TimeNs end_time{0};
  std::size_t processed_events{0};
  std::size_t retransmissions{0};
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

WorldTrace runTracedWorld(const Shape& shape, bool batched, double loss,
                          std::uint64_t seed) {
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  // Each rank touches at most ~1 MiB; the default 96 MiB arena would spend
  // most of the test zero-filling backing store.
  machine.node.gpu.arena_bytes = 4u << 20;
  hw::Cluster cluster(eng, machine, shape.nodes);
  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.batched_message_plane = batched;
  cfg.delivery_batching = batched;
  cfg.rendezvous = shape.rendezvous;
  cfg.enable_direct_ipc = shape.direct_ipc;
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
  }
  for (int r = 0; r < ranks; ++r) {
    trace.recv_bytes.insert(trace.recv_bytes.end(), rbufs[r].bytes.begin(),
                            rbufs[r].bytes.end());
    trace.retransmissions += rt.proc(r).transport().retransmissions;
  }
  trace.end_time = eng.now();
  trace.processed_events = eng.processedEvents();
  return trace;
}

/// Compare the batched plane against the shadow for one seed; returns a
/// diagnostic string (empty on success). Runs from parallelFor workers, so
/// no gtest assertions here.
std::string compareModes(const Shape& shape, double loss, std::uint64_t seed) {
  const WorldTrace batched = runTracedWorld(shape, true, loss, seed);
  const WorldTrace shadow = runTracedWorld(shape, false, loss, seed);
  std::ostringstream err;
  const auto where = [&] {
    std::ostringstream w;
    w << " (" << shape.name << ", seed " << seed << ", loss " << loss
      << "); ";
    return w.str();
  };
  if (batched.completion_order != shadow.completion_order) {
    err << "completion order diverged" << where();
  }
  if (batched.completed_at != shadow.completed_at) {
    err << "completion times diverged" << where();
  }
  if (batched.recv_bytes != shadow.recv_bytes) {
    err << "received bytes diverged" << where();
  }
  if (batched.end_time != shadow.end_time) {
    err << "virtual end time diverged: " << batched.end_time << " vs "
        << shadow.end_time << where();
  }
  if (batched.retransmissions != shadow.retransmissions) {
    err << "retransmissions diverged: " << batched.retransmissions << " vs "
        << shadow.retransmissions << where();
  }
  if (batched.processed_events > shadow.processed_events) {
    err << "batched plane processed MORE events than the shadow" << where();
  }
  return err.str();
}

TEST(MsgPlaneDeterminism, BatchedMatchesShadowFaultFree) {
  EXPECT_EQ(compareModes(kEager512, 0.0, 0x00D0), "");
}

// Beyond eager: rendezvous, DirectIPC and a deadline that falls due
// mid-pack, the inputs whose deadlines the batched plane files, pops and
// drops along every path.
TEST(MsgPlaneDeterminism, BatchedMatchesShadowUnderLoss) {
  EXPECT_EQ(compareModes(kEager512, 0.12, 0x10551), "");
  for (const Shape& shape : kLossShapes) {
    EXPECT_EQ(compareModes(shape, 0.12, 0x10551), "");
  }
}

TEST(MsgPlaneDeterminism, FuzzSeedsParallel) {
  constexpr std::size_t kIters = 6;
  std::mutex mu;
  std::vector<std::string> failures;
  bench::parallelFor(kIters, [&](std::size_t i) {
    const std::uint64_t seed = 0xFA5D + i * 7919;
    std::string err = compareModes(kEager512, 0.0, seed);
    err += compareModes(kEager512, 0.12, seed);
    for (const Shape& shape : kLossShapes) {
      err += compareModes(shape, 0.12, seed);
    }
    if (!err.empty()) {
      const std::lock_guard<std::mutex> lock(mu);
      failures.push_back(err);
    }
  });
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

}  // namespace
}  // namespace dkf
