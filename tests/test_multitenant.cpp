// Multi-tenant serving plane (MODEL.md §14): link-level contention math,
// DRR delivery arbitration, per-tenant admission/backpressure (including
// whose batched packs an admission wait may flush), and end-to-end
// determinism of the arbitrated plane — byte-identical reruns,
// serial-vs-parallel sweeps, fault-free and at 12% loss. Every suite is
// named MultiTenant* so the TSan CI job can select the whole plane with
// one filter.
//
// The determinism sweep runs under bench::parallelFor; gtest assertions
// are not thread-safe, so workers record failure strings and the main
// thread asserts after the join.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/parallel.hpp"
#include "common/rng.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/memory.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "net/arbiter.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "net/link_batcher.hpp"
#include "schemes/factory.hpp"
#include "sim/engine.hpp"

namespace dkf {
namespace {

// ---- Link: weighted processor sharing --------------------------------

hw::LinkSpec testLink() { return {"test", ns(1000), GBps(10)}; }

TEST(MultiTenantLink, SingleTenantSharedMatchesFifo) {
  sim::Engine eng_a, eng_b;
  net::Link fifo(eng_a, testLink());
  TenantWeights weights;
  net::Link shared(eng_b, testLink());
  shared.setSharing(&weights);
  for (std::size_t bytes : {100u, 4096u, 1u, 65536u}) {
    EXPECT_EQ(fifo.transferAt(0, bytes),
              shared.transferSharedAt(0, 0, bytes));
  }
}

TEST(MultiTenantLink, OverlappingTenantsSplitBandwidthByWeight) {
  sim::Engine eng;
  TenantWeights weights;
  weights.set(0, 3.0);
  weights.set(1, 1.0);
  net::Link link(eng, testLink());
  link.setSharing(&weights);
  // 10 GB/s = 10 B/ns. Tenant 1 reserves a long transfer first; tenant 0
  // then arrives and must stream at 3/4 of the rate (tenant 1 busy), not
  // behind tenant 1's whole backlog as FIFO would queue it.
  const TimeNs t1 = link.transferSharedAt(1, 0, 100000);  // 10 us + lat
  const TimeNs t0 = link.transferSharedAt(0, 0, 7500);
  EXPECT_EQ(t1, TimeNs(10000 + 1000));
  // 7500 B at 7.5 B/ns = 1 us serialization + 1 us latency.
  EXPECT_EQ(t0, TimeNs(1000 + 1000));
  // A tenant alone on the link streams at the full rate again.
  sim::Engine eng2;
  net::Link alone(eng2, testLink());
  alone.setSharing(&weights);
  EXPECT_EQ(alone.transferSharedAt(0, 0, 7500), TimeNs(750 + 1000));
}

TEST(MultiTenantLink, PerTenantDeliveryTimesNonDecreasing) {
  sim::Engine eng;
  TenantWeights weights;
  net::Link link(eng, testLink());
  link.setSharing(&weights);
  Rng rng(0x7E47);
  std::vector<TimeNs> last(3, 0);
  for (int i = 0; i < 200; ++i) {
    const TenantId t = static_cast<TenantId>(rng.below(3));
    const TimeNs d = link.transferSharedAt(t, 0, 1 + rng.below(8192));
    EXPECT_GE(d, last[t]);
    last[t] = d;
  }
}

// ---- LinkBatcher: DRR delivery arbitration ---------------------------

std::vector<int> drrDeliveryOrder(std::size_t quantum) {
  sim::Engine eng;
  net::LinkBatcher b(eng);
  TenantWeights weights;
  weights.set(0, 2.0);
  weights.set(1, 1.0);
  net::ArbiterConfig cfg;
  cfg.policy = net::ArbiterPolicy::Drr;
  cfg.weights = &weights;
  cfg.quantum_bytes = quantum;
  b.setArbiter(cfg);
  std::vector<int> order;
  // Two tenants, all entries ripe at the same instant: DRR must interleave
  // by deficit, not drain tenant 0 wholesale.
  for (int i = 0; i < 6; ++i) {
    b.enqueue(ns(100), 0, 1024, [&order, i] { order.push_back(i); });
    b.enqueue(ns(100), 1, 1024, [&order, i] { order.push_back(100 + i); });
  }
  eng.run();
  return order;
}

TEST(MultiTenantBatcher, DrrServesEveryEntryDeterministically) {
  const auto first = drrDeliveryOrder(1024);
  EXPECT_EQ(first.size(), 12u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(std::find(first.begin(), first.end(), i), first.end());
    EXPECT_NE(std::find(first.begin(), first.end(), 100 + i), first.end());
  }
  // Byte-identical rerun: same construction, same order.
  EXPECT_EQ(first, drrDeliveryOrder(1024));
  // Weight 2:1 with a one-entry quantum: tenant 0 drains two entries per
  // rotation to tenant 1's one, so tenant 1's last entry is served last.
  EXPECT_EQ(first.back(), 105);
}

TEST(MultiTenantBatcher, TenantDeliveryCountersTrackServes) {
  sim::Engine eng;
  net::LinkBatcher b(eng);
  TenantWeights weights;
  net::ArbiterConfig cfg;
  cfg.policy = net::ArbiterPolicy::Drr;
  cfg.weights = &weights;
  b.setArbiter(cfg);
  for (int i = 0; i < 4; ++i) b.enqueue(ns(10) * (i + 1), 0, 64, [] {});
  for (int i = 0; i < 3; ++i) b.enqueue(ns(15) * (i + 1), 2, 64, [] {});
  eng.run();
  ASSERT_GE(b.tenantDeliveries().size(), 3u);
  EXPECT_EQ(b.tenantDeliveries()[0], 4u);
  EXPECT_EQ(b.tenantDeliveries()[1], 0u);
  EXPECT_EQ(b.tenantDeliveries()[2], 3u);
  EXPECT_EQ(b.deliveries(), 7u);
}

// Regression: sendPayload once read payload.size() *after* moving the ref
// into the delivery closure — PayloadRef's move ctor zeroes the source, so
// every eager message parked in the DRR batcher with bytes=0 and drained
// for free, disabling deficit accounting. FIFO ignores bytes (which is why
// the conformance suites stayed green), so this pins the eager path through
// a DRR fabric. At 1e9 GB/s a message's wire time rounds to 1 ns, so each
// tenant's k-th message lands at the same instant as the other's. With
// weights 1:2 and a quantum of half a message, only the weight-2 tenant's
// first credit covers a message, so it is served first at every instant.
// Zero-byte entries would cost nothing and follow the rotation instead.
TEST(MultiTenantFabric, EagerPayloadBytesDriveDrrDeficit) {
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.internode.bandwidth = GBps(1e9);
  net::Fabric fabric(eng, machine, 2);
  constexpr std::size_t kMsgBytes = 4096;
  net::ContentionConfig cfg;
  cfg.enabled = true;
  cfg.weights.set(0, 1.0);
  cfg.weights.set(1, 2.0);
  cfg.quantum_bytes = kMsgBytes / 2;
  fabric.setContention(cfg);
  std::vector<std::byte> payload(kMsgBytes, std::byte{0x5A});
  std::vector<std::pair<TimeNs, int>> served;
  for (int i = 0; i < 4; ++i) {
    for (const TenantId t : {TenantId{0}, TenantId{1}}) {
      fabric.sendMessage(
          0, 1, gpu::MemSpan::host(payload),
          [&served, &eng, t](net::PayloadRef) {
            served.emplace_back(eng.now(), static_cast<int>(t));
          },
          t);
    }
  }
  eng.run();
  ASSERT_EQ(served.size(), 8u);
  for (std::size_t i = 0; i < served.size(); i += 2) {
    EXPECT_EQ(served[i].first, served[i + 1].first)
        << "instant " << i / 2 << " did not land both tenants together";
    EXPECT_EQ(served[i].second, 1)
        << "instant " << i / 2 << " served the weight-1 tenant first";
    EXPECT_EQ(served[i + 1].second, 0);
  }
  const auto delivered = fabric.tenantDeliveries();
  ASSERT_GE(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 4u);
  EXPECT_EQ(delivered[1], 4u);
}

// ---- Runtime: admission, backpressure, determinism -------------------

struct TenantTrace {
  std::vector<std::byte> recv_bytes;
  TimeNs end_time{0};
  std::size_t events{0};
  std::vector<mpi::TenantStats> sender_stats;
};

bool sameStats(const mpi::TenantStats& a, const mpi::TenantStats& b) {
  return a.admitted == b.admitted && a.inflight == b.inflight &&
         a.peak_inflight == b.peak_inflight &&
         a.throttle_waits == b.throttle_waits &&
         a.throttled_ns == b.throttled_ns;
}

bool operator==(const TenantTrace& a, const TenantTrace& b) {
  return a.recv_bytes == b.recv_bytes && a.end_time == b.end_time &&
         a.events == b.events &&
         a.sender_stats.size() == b.sender_stats.size() &&
         std::equal(a.sender_stats.begin(), a.sender_stats.end(),
                    b.sender_stats.begin(), sameStats);
}

struct TenantWorldCfg {
  schemes::Scheme scheme{schemes::Scheme::Proposed};
  bool drr{false};           // contention model + DRR delivery arbitration
  std::size_t limit{0};      // tenant_inflight_limit
  double loss{0.0};          // with reliability when > 0
  std::uint64_t seed{0xC0FFEE};
};

constexpr int kMsgsPerTenant = 24;
constexpr std::size_t kMsgBytes = 512;
constexpr std::size_t kRegion = 1024;

sim::Task<void> tenantSenderTask(mpi::Proc& p, TenantId tenant,
                                 gpu::MemSpan buf) {
  auto byte_t = ddt::Datatype::byte();
  auto vec_t = ddt::Datatype::vector(16, 32, 64, ddt::Datatype::byte());
  std::vector<mpi::Proc::SendSpec> specs;
  for (int i = 0; i < kMsgsPerTenant; ++i) {
    const bool strided = i % 4 == 3;  // exercise the fused pack path
    specs.push_back({buf.subspan(i * kRegion, strided ? kRegion : kMsgBytes),
                     strided ? vec_t : byte_t,
                     strided ? 1u : static_cast<unsigned>(kMsgBytes), 1,
                     static_cast<int>(tenant) * 1000 + i, tenant});
  }
  co_await p.waitall(co_await p.isendBatch(std::move(specs)));
}

sim::Task<void> tenantReceiverTask(mpi::Proc& p,
                                   std::vector<gpu::MemSpan> bufs) {
  auto byte_t = ddt::Datatype::byte();
  auto vec_t = ddt::Datatype::vector(16, 32, 64, ddt::Datatype::byte());
  std::vector<mpi::Proc::RecvSpec> specs;
  for (TenantId t = 0; t < bufs.size(); ++t) {
    for (int i = 0; i < kMsgsPerTenant; ++i) {
      const bool strided = i % 4 == 3;
      specs.push_back(
          {bufs[t].subspan(i * kRegion, strided ? kRegion : kMsgBytes),
           strided ? vec_t : byte_t,
           strided ? 1u : static_cast<unsigned>(kMsgBytes), 0,
           static_cast<int>(t) * 1000 + i, t});
    }
  }
  co_await p.waitall(co_await p.irecvBatch(std::move(specs)));
}

TenantTrace runTenantWorld(const TenantWorldCfg& wc) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.scheme = wc.scheme;
  if (wc.drr) {
    cfg.contention.enabled = true;
    cfg.contention.weights.set(0, 4.0);
    cfg.contention.weights.set(1, 1.0);
  }
  cfg.tenant_inflight_limit = wc.limit;
  if (wc.loss > 0.0) {
    fault::FaultSpec fs;
    fs.seed = wc.seed;
    fs.data_loss = wc.loss;
    fs.control_loss = wc.loss;
    plan.emplace(eng, fs);
    cluster.setFaultPlan(&*plan);
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(40);
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    eng.setWatchdog(sec(5));
  }
  mpi::Runtime rt(cluster, cfg);

  constexpr std::size_t kTenants = 2;
  std::vector<gpu::MemSpan> send_bufs, recv_bufs;
  for (TenantId t = 0; t < kTenants; ++t) {
    send_bufs.push_back(
        rt.proc(0).allocDevice(kMsgsPerTenant * kRegion));
    recv_bufs.push_back(
        rt.proc(1).allocDevice(kMsgsPerTenant * kRegion));
    Rng fill(wc.seed ^ (0xABCD + t));
    for (auto& b : send_bufs.back().bytes) {
      b = static_cast<std::byte>(fill.below(256));
    }
    std::memset(recv_bufs.back().bytes.data(), 0, kMsgsPerTenant * kRegion);
  }
  for (TenantId t = 0; t < kTenants; ++t) {
    eng.spawn(tenantSenderTask(rt.proc(0), t, send_bufs[t]));
  }
  eng.spawn(tenantReceiverTask(rt.proc(1), recv_bufs));
  eng.run();
  EXPECT_EQ(eng.unfinishedTasks(), 0u);

  TenantTrace trace;
  for (const auto& r : recv_bufs) {
    trace.recv_bytes.insert(trace.recv_bytes.end(), r.bytes.begin(),
                            r.bytes.end());
  }
  trace.end_time = eng.now();
  trace.events = eng.processedEvents();
  trace.sender_stats = rt.proc(0).tenantStats();
  return trace;
}

TEST(MultiTenantAdmission, CapBoundsInflightAndCountsBackpressure) {
  // The fusion engine flushes a throttled tenant's own batch; an engine
  // without internal batching (GPU-Sync) is flushed on every wait.
  for (const schemes::Scheme scheme :
       {schemes::Scheme::Proposed, schemes::Scheme::GpuSync}) {
    SCOPED_TRACE(std::string(schemes::schemeName(scheme)));
    TenantWorldCfg wc;
    wc.scheme = scheme;
    wc.drr = true;
    wc.limit = 4;
    const TenantTrace capped = runTenantWorld(wc);
    ASSERT_GE(capped.sender_stats.size(), 2u);
    for (TenantId t = 0; t < 2; ++t) {
      const auto& ts = capped.sender_stats[t];
      EXPECT_EQ(ts.admitted, static_cast<std::size_t>(kMsgsPerTenant));
      EXPECT_LE(ts.peak_inflight, 4u);
      EXPECT_GT(ts.throttle_waits, 0u);
      EXPECT_GT(ts.throttled_ns, 0);
      EXPECT_EQ(ts.inflight, 0u);  // every token returned at drain
    }
    // Backpressure reschedules, it never drops or corrupts payloads.
    TenantWorldCfg open = wc;
    open.limit = 0;
    EXPECT_EQ(capped.recv_bytes, runTenantWorld(open).recv_bytes);
  }
}

// Admission flushes only the throttled tenant's own batched packs, under
// every fusion scheme (MODEL.md §14).
struct AdmissionRun {
  TimeNs end_time{0};
  std::size_t sender_kernels{0};  // launched on rank 0's GPU
  /// hasPendingFusedWork(0) and (1) when the sparse isendBatch returned.
  bool pending_for[2]{false, false};
};

/// Two lassen nodes with one GPU each, `limit` admission tokens per tenant.
/// Rank 0 sends `sparse_tenant` four sparse messages: 2048 runs of 4 B,
/// 8 KiB packed, so eager, and past Proposed+Hybrid's GDRCopy bounds, so
/// each pack waits in the fusion engine for a flush. With `bulk`, tenant 1
/// first posts 64 contiguous 8 KiB sends and stays throttled while the
/// sparse packs are batched.
AdmissionRun runAdmission(schemes::Scheme scheme, TenantId sparse_tenant,
                          std::size_t limit, bool bulk) {
  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = 1;
  hw::Cluster cluster(eng, machine, 2);
  mpi::RuntimeConfig cfg;
  cfg.scheme = scheme;
  cfg.tenant_inflight_limit = limit;
  mpi::Runtime rt(cluster, cfg);
  mpi::Proc& sender = rt.proc(0);
  mpi::Proc& receiver = rt.proc(1);

  constexpr int kBulk = 64;
  constexpr std::size_t kBulkBytes = 8192;
  constexpr int kSparse = 4;
  const auto byte_t = ddt::Datatype::byte();
  const auto sparse_t =
      ddt::Datatype::vector(2048, 1, 4, ddt::Datatype::int32());
  const auto region = static_cast<std::size_t>(sparse_t->extent());
  std::vector<mpi::Proc::SendSpec> bulk_sends, sparse_sends;
  std::vector<mpi::Proc::RecvSpec> recvs;
  const auto add = [&](std::vector<mpi::Proc::SendSpec>& sends,
                       ddt::DatatypePtr type, std::size_t count,
                       std::size_t bytes, int tag, TenantId tenant) {
    sends.push_back({sender.allocDevice(bytes), type, count, 1, tag, tenant});
    recvs.push_back(
        {receiver.allocDevice(bytes), type, count, 0, tag, tenant});
  };
  if (bulk) {
    for (int i = 0; i < kBulk; ++i) {
      add(bulk_sends, byte_t, kBulkBytes, kBulkBytes, 1000 + i, 1);
    }
  }
  for (int i = 0; i < kSparse; ++i) {
    add(sparse_sends, sparse_t, 1, region, i, sparse_tenant);
  }

  AdmissionRun run;
  eng.spawn([](mpi::Proc& p,
               std::vector<mpi::Proc::SendSpec> specs) -> sim::Task<void> {
    co_await p.waitall(co_await p.isendBatch(std::move(specs)));
  }(sender, std::move(bulk_sends)));
  eng.spawn([](mpi::Proc& p, std::vector<mpi::Proc::SendSpec> specs,
               bool after_bulk, AdmissionRun& out) -> sim::Task<void> {
    if (after_bulk) co_await p.engine().delay(us(1));
    auto reqs = co_await p.isendBatch(std::move(specs));
    for (TenantId t = 0; t < 2; ++t) {
      out.pending_for[t] = p.ddtEngine().hasPendingFusedWork(t);
    }
    co_await p.waitall(std::move(reqs));
  }(sender, std::move(sparse_sends), bulk, run));
  eng.spawn([](mpi::Proc& p,
               std::vector<mpi::Proc::RecvSpec> specs) -> sim::Task<void> {
    co_await p.waitall(co_await p.irecvBatch(std::move(specs)));
  }(receiver, std::move(recvs)));
  eng.setWatchdog(sec(1));
  eng.run();
  EXPECT_EQ(eng.unfinishedTasks(), 0u) << schemes::schemeName(scheme);
  run.end_time = eng.now();
  run.sender_kernels = sender.gpu().kernelsLaunched();
  return run;
}

TEST(MultiTenantAdmission, ThrottledTenantLeavesAnotherTenantsBatchAlone) {
  // Tenant 1 sits at its window while tenant 0's four packs are batched:
  // its admission polls must not flush them, so they fuse into one kernel.
  const AdmissionRun proposed =
      runAdmission(schemes::Scheme::Proposed, 0, 4, /*bulk=*/true);
  EXPECT_EQ(proposed.sender_kernels, 1u);
  EXPECT_EQ(proposed.end_time, 48906u);
  EXPECT_TRUE(proposed.pending_for[0]);
  EXPECT_FALSE(proposed.pending_for[1]);
  const AdmissionRun hybrid =
      runAdmission(schemes::Scheme::ProposedHybrid, 0, 4, /*bulk=*/true);
  EXPECT_EQ(hybrid.sender_kernels, proposed.sender_kernels);
  EXPECT_EQ(hybrid.end_time, proposed.end_time);
  EXPECT_TRUE(hybrid.pending_for[0]);
  EXPECT_FALSE(hybrid.pending_for[1]);
}

TEST(MultiTenantAdmission, LoneThrottledTenantFlushesItsOwnBatch) {
  // One token for tenant 1: each admission must flush tenant 1's own
  // batched pack, or its token never returns. The packs carry tenant 1, so
  // the engine reports them as tenant 1's work and nobody else's.
  const AdmissionRun proposed =
      runAdmission(schemes::Scheme::Proposed, 1, 1, /*bulk=*/false);
  EXPECT_EQ(proposed.sender_kernels, 4u);
  EXPECT_EQ(proposed.end_time, 83550u);
  EXPECT_FALSE(proposed.pending_for[0]);
  EXPECT_TRUE(proposed.pending_for[1]);
  const AdmissionRun hybrid =
      runAdmission(schemes::Scheme::ProposedHybrid, 1, 1, /*bulk=*/false);
  EXPECT_EQ(hybrid.sender_kernels, proposed.sender_kernels);
  EXPECT_EQ(hybrid.end_time, proposed.end_time);
  EXPECT_FALSE(hybrid.pending_for[0]);
  EXPECT_TRUE(hybrid.pending_for[1]);
}

TEST(MultiTenantDeterminism, ArbitratedPlaneIsByteIdenticalAcrossReruns) {
  for (const bool drr : {false, true}) {
    for (const double loss : {0.0, 0.12}) {
      TenantWorldCfg wc;
      wc.drr = drr;
      wc.loss = loss;
      wc.limit = drr ? 6 : 0;
      const TenantTrace a = runTenantWorld(wc);
      const TenantTrace b = runTenantWorld(wc);
      EXPECT_TRUE(a == b) << "drr=" << drr << " loss=" << loss;
    }
  }
}

TEST(MultiTenantDeterminism, DrrIsASchedulingChangeNotADataChange) {
  TenantWorldCfg fifo, drr;
  drr.drr = true;
  EXPECT_EQ(runTenantWorld(fifo).recv_bytes, runTenantWorld(drr).recv_bytes);
}

TEST(MultiTenantDeterminism, SweepSerialMatchesParallel) {
  // The same config sweep evaluated serially and under parallelFor must
  // produce identical traces — simulations share no hidden global state.
  std::vector<TenantWorldCfg> sweep;
  for (const bool drr : {false, true}) {
    for (const double loss : {0.0, 0.12}) {
      for (const std::uint64_t seed : {0x51EEull, 0xF00Dull}) {
        TenantWorldCfg wc;
        wc.drr = drr;
        wc.loss = loss;
        wc.limit = drr ? 5 : 0;
        wc.seed = seed;
        sweep.push_back(wc);
      }
    }
  }
  std::vector<TenantTrace> serial(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    serial[i] = runTenantWorld(sweep[i]);
  }
  std::vector<TenantTrace> parallel(sweep.size());
  std::mutex mu;
  std::vector<std::string> failures;
  bench::parallelFor(sweep.size(), [&](std::size_t i) {
    parallel[i] = runTenantWorld(sweep[i]);
    if (!(parallel[i] == serial[i])) {
      std::ostringstream err;
      err << "sweep index " << i << " diverged between serial and parallel";
      const std::lock_guard<std::mutex> lock(mu);
      failures.push_back(err.str());
    }
  });
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(MultiTenantDefault, DefaultConfigKeepsFifoWireInert) {
  mpi::RuntimeConfig cfg;
  EXPECT_FALSE(cfg.contention.enabled);
  EXPECT_EQ(cfg.tenant_inflight_limit, 0u);
  // A default-config run never routes through the DRR arbiter: the
  // per-tenant delivery counters stay empty (FIFO head policy untouched).
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), 2);
  mpi::Runtime rt(cluster, cfg);
  eng.spawn(tenantSenderTask(rt.proc(0), 0,
                             rt.proc(0).allocDevice(kMsgsPerTenant * kRegion)));
  eng.spawn(tenantReceiverTask(
      rt.proc(1), {rt.proc(1).allocDevice(kMsgsPerTenant * kRegion)}));
  eng.run();
  EXPECT_EQ(eng.unfinishedTasks(), 0u);
  EXPECT_TRUE(cluster.fabric().tenantDeliveries().empty());
}

}  // namespace
}  // namespace dkf
