// The traced run's probes. Each times one public call of one layer on the
// workload's own inputs and reports ns per call (the median of several
// repetitions); runProbes then multiplies each by its calls per message,
// read from the run's counters, to attribute wall ns/msg to the layer.
#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "core/fusion_plan.hpp"
#include "ddt/pack.hpp"
#include "harness.hpp"
#include "mpi/match_table.hpp"
#include "net/payload.hpp"
#include "schemes/solver.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 5;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kReps of `body()`'s wall ns divided by `calls`.
template <class F>
double perCall(std::size_t calls, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    body();
    v.push_back(nsSince(t0) / static_cast<double>(calls));
  }
  return median(v);
}

/// Engine::scheduleAt + step with `depth` events pending, as in the run.
double probeDispatch(std::size_t depth) {
  depth = std::clamp<std::size_t>(depth, 64, std::size_t{1} << 16);
  std::uint64_t fired = 0;
  const double ns = perCall(depth, [&] {
    sim::Engine eng;
    for (std::size_t i = 0; i < depth; ++i) {
      eng.scheduleAt(eng.now() + i + 1, [&fired] { ++fired; });
    }
    while (eng.step()) {
    }
  });
  DKF_CHECK(fired == depth * kReps);
  return ns;
}

/// PayloadPool::capture + release of one message of `bytes`.
double probeCapture(std::size_t bytes) {
  net::PayloadPool pool;
  std::vector<std::byte> src(bytes, std::byte{0x5a});
  constexpr std::size_t kCalls = 100000;
  return perCall(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      net::PayloadRef ref = pool.capture(src);
      DKF_CHECK(ref.size() == bytes);
    }
  });
}

/// MatchTable::post + match of one window at slot tags.
double probeMatch(std::size_t window) {
  std::vector<mpi::RequestPtr> reqs;
  for (std::size_t i = 0; i < window; ++i) {
    auto r = std::make_shared<mpi::Request>();
    r->kind = mpi::Request::Kind::Recv;
    r->peer = 1;
    r->tag = static_cast<int>(i);
    reqs.push_back(std::move(r));
  }
  mpi::MatchTable table;
  return perCall(window, [&] {
    for (const mpi::RequestPtr& r : reqs) table.post(r);
    for (std::size_t i = 0; i < window; ++i) {
      DKF_CHECK(table.match(1, static_cast<int>(i)) == reqs[i]);
    }
  });
}

/// ddt::packCpu + unpackCpu of one message, per layout class of the seed's
/// bulk_mixed layouts: {sparse ns, dense ns}.
std::pair<double, double> probePack(std::uint64_t seed) {
  std::vector<double> sparse, dense;
  for (const BulkLayout& l : drawBulkLayouts(seed, 16)) {
    const ddt::Layout layout = ddt::flatten(bulkDatatype(l), 1);
    std::vector<std::byte> origin(static_cast<std::size_t>(layout.endOffset()),
                                  std::byte{0x5a});
    std::vector<std::byte> packed(layout.size());
    const double ns = perCall(1, [&] {
      ddt::packCpu(layout, origin, packed);
      ddt::unpackCpu(layout, packed, origin);
    });
    (bulkSparse(l) ? sparse : dense).push_back(ns);
  }
  return {median(sparse), median(dense)};
}

/// PlanCache::find on a hit for the first slot's pack plan.
double probePlanFind(Instance& inst) {
  const Slot& s = inst.ranks().at(0).slots.at(0);
  const ddt::LayoutPtr layout =
      s.layout != nullptr
          ? s.layout
          : std::make_shared<const ddt::Layout>(ddt::flatten(s.type, s.count));
  core::FusionPlan plan;
  plan.addPack(layout);
  const mpi::RuntimeConfig& rc = inst.runtime().config();
  const hw::NodeSpec& node = inst.runtime().proc(0).gpu().nodeSpec();
  core::PlanCache cache;
  schemes::compilePlanCached(cache, plan, rc.scheme, node);
  const core::PlanKey key{plan.signature(), schemes::hwSignature(node),
                          static_cast<int>(rc.scheme)};
  constexpr std::size_t kCalls = 100000;
  return perCall(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      DKF_CHECK(cache.find(key) != nullptr);
    }
  });
}

struct MpiProbe {
  std::vector<double> post_ns;   ///< irecvBatch wall ns per posted receive
  std::vector<double> pass_ns;   ///< Proc::test ns, window unacknowledged
  std::vector<double> drain_ns;  ///< mean Proc::test ns until all complete
  /// Mean virtual ns of those passes, less the call overhead a waitall
  /// pays once rather than per pass.
  std::vector<double> drain_vns;
};

/// One window from rank 0 to the first rank of the next node (or rank 1):
/// the receiver times its irecvBatch while nothing else runs, then rank 0
/// posts the window's sends and times single progress passes (Proc::test
/// on its last send; whether the window drained is checked untimed):
/// the first eight while the sends are still unacknowledged on the wire,
/// and the mean wall and virtual time over every pass until the window has
/// drained, which is the pass mix a waitall polls through. Every slot
/// moves its packed size as contiguous bytes, so on bulk_mixed the passes
/// leave the datatype work to the ddt and core probes.
sim::Task<void> mpiProbeBody(Instance& inst, mpi::Proc& p, int dst,
                             MpiProbe& out) {
  const Config& cfg = inst.config();
  const std::vector<Slot>& slots =
      inst.ranks().at(static_cast<std::size_t>(p.rank())).slots;
  const ddt::DatatypePtr bytes = ddt::Datatype::byte();
  if (p.rank() == dst) {
    std::vector<mpi::Proc::RecvSpec> specs;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      specs.push_back({slots[i].recv.subspan(0, slots[i].bytes), bytes,
                       slots[i].bytes, 0, static_cast<int>(i)});
    }
    const auto t0 = Clock::now();
    auto reqs = co_await p.irecvBatch(std::move(specs));
    out.post_ns.push_back(nsSince(t0) / static_cast<double>(cfg.window));
    co_await p.waitall(std::move(reqs));
  } else if (p.rank() == 0) {
    co_await p.engine().delay(us(20));  // the receiver's post runs alone
    std::vector<mpi::Proc::SendSpec> specs;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      specs.push_back({slots[i].send.subspan(0, slots[i].bytes), bytes,
                       slots[i].bytes, dst, static_cast<int>(i)});
    }
    auto reqs = co_await p.isendBatch(std::move(specs));
    const DurationNs overhead = inst.runtime().config().call_overhead;
    std::vector<double> passes;
    double vns = 0;
    auto drained = [&reqs] {
      return std::all_of(reqs.begin(), reqs.end(),
                         [](const mpi::RequestPtr& r) { return r->complete; });
    };
    while (passes.size() < 8 || !drained()) {
      const TimeNs v0 = p.engine().now();
      const auto t0 = Clock::now();
      co_await p.test(reqs.back());
      passes.push_back(nsSince(t0));
      vns += static_cast<double>(p.engine().now() - v0 - overhead);
    }
    out.pass_ns.push_back(median({passes.begin(), passes.begin() + 8}));
    const auto n = static_cast<double>(passes.size());
    out.drain_ns.push_back(std::accumulate(passes.begin(), passes.end(), 0.0) /
                           n);
    out.drain_vns.push_back(vns / n);
  }
}

}  // namespace

void runProbes(Instance& inst, RunResult& res) {
  const Config& cfg = inst.config();
  MetricSet& mt = res.metrics;
  const double msgs = static_cast<double>(res.msgs);

  const double dispatch =
      probeDispatch(static_cast<std::size_t>(mt.get("sim.peak_pending")));
  const double capture = probeCapture(1024);
  const double match = probeMatch(cfg.window);
  const auto [pack_sparse, pack_dense] = probePack(cfg.seed);
  const double plan_find = probePlanFind(inst);

  MpiProbe mp;
  const int ranks = inst.runtime().worldSize();
  const int dst = cfg.gpus_per_node < static_cast<std::size_t>(ranks)
                      ? static_cast<int>(cfg.gpus_per_node)
                      : 1;
  for (int r = 0; r < kReps; ++r) {
    inst.runtime().runAll(
        [&](mpi::Proc& p) { return mpiProbeBody(inst, p, dst, mp); });
    DKF_CHECK(inst.engine().unfinishedTasks() == 0);
  }
  const double post = median(mp.post_ns);
  const double pass = median(mp.pass_ns);
  const double drain_pass = median(mp.drain_ns);
  const double drain_vpass = median(mp.drain_vns);

  mt.set("sim.dispatch_ns", dispatch);
  mt.set("net.capture_ns", capture);
  mt.set("mpi.post_ns", post);
  mt.set("mpi.match_ns", match);
  mt.set("mpi.pass_ns", pass);
  mt.set("ddt.pack_ns.sparse", pack_sparse);
  mt.set("ddt.pack_ns.dense", pack_dense);
  mt.set("core.plan_find_ns", plan_find);

  // Calls per message, from the run's own counters.
  auto delta = [&](const std::string& k) {
    return static_cast<double>(res.counters.at(k) -
                               res.counters_at_start.at(k));
  };
  double ddt_ns = 0;
  if (cfg.bulk) {
    // Every bulk message is packed once by its sender and unpacked once by
    // its receiver: one probe call.
    std::size_t sparse = 0;
    for (const BulkLayout& l : drawBulkLayouts(cfg.seed, cfg.window)) {
      sparse += bulkSparse(l) ? 1 : 0;
    }
    const double share =
        static_cast<double>(sparse) / static_cast<double>(cfg.window);
    ddt_ns = share * pack_sparse + (1 - share) * pack_dense;
  }
  // A waitall that took `w` virtual ns made (w + poll) / (poll + pass)
  // progress passes: each pass but the last is followed by one poll
  // interval.
  const double poll =
      static_cast<double>(inst.runtime().config().poll_interval);
  const double passes_per_msg =
      (static_cast<double>(res.counters.at("run.waitall_ns")) +
       poll * static_cast<double>(res.counters.at("run.waitalls"))) /
      (poll + drain_vpass) / msgs;
  mt.set("attr.sim_ns_per_msg", dispatch * mt.get("sim.events_per_msg"));
  mt.set("attr.net_ns_per_msg", capture * delta("net.pool_captures") / msgs);
  // A message is one posted receive, one posted send and one match; the
  // waitall passes are costed at the drain mean of the pass probe.
  mt.set("attr.mpi_ns_per_msg",
         2 * post + match + drain_pass * passes_per_msg);
  mt.set("attr.ddt_ns_per_msg", ddt_ns);
  mt.set("attr.core_ns_per_msg",
         plan_find *
             (delta("core.plan_hits") + delta("core.plan_misses")) / msgs);
}

}  // namespace perfbench
