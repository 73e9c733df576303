#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "bench_util/percentiles.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "hw/machines.hpp"
#include "schemes/fusion_engine.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

/// SplitMix64 finalizer: the seed-mixing step of every generator here.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the wall time of its scope to `sink` when `on` (traced rounds).
class OwnTimer {
 public:
  OwnTimer(bool on, std::int64_t& sink) : on_(on), sink_(sink) {
    if (on_) t0_ = Clock::now();
  }
  OwnTimer(const OwnTimer&) = delete;
  OwnTimer& operator=(const OwnTimer&) = delete;
  ~OwnTimer() {
    if (on_) {
      sink_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
                   .count();
    }
  }

 private:
  bool on_;
  std::int64_t& sink_;
  Clock::time_point t0_{};
};

/// Visit a slot's message runs in packed order, as (buffer offset, length).
template <class F>
void forEachRun(const Slot& s, F&& emit) {
  if (s.layout == nullptr) {
    emit(std::int64_t{0}, s.bytes);
  } else {
    s.layout->forEachRun(emit);
  }
}

void writeStamp(const Slot& s, const Stamp& stamp) {
  const auto* src = reinterpret_cast<const std::byte*>(&stamp);
  for (const ddt::Segment& seg : s.stamp_runs) {
    std::memcpy(s.send.bytes.data() + seg.offset, src, seg.len);
    src += seg.len;
  }
}

Stamp readStamp(const Slot& s) {
  Stamp stamp;
  auto* dst = reinterpret_cast<std::byte*>(&stamp);
  for (const ddt::Segment& seg : s.stamp_runs) {
    std::memcpy(dst, s.recv.bytes.data() + seg.offset, seg.len);
    dst += seg.len;
  }
  return stamp;
}

constexpr double kLossRate = 0.12;
// Every ring window starts after a seeded think time in [0, 256) ns on each
// rank. It lets the seed reach a fault-free ring's virtual metrics, which
// would otherwise read the same at every seed: a measured figure that never
// changes cannot be told from a constant. It shifts them by under 0.1%.
constexpr std::uint64_t kThinkNsMax = 256;

std::uint64_t thinkNs(std::uint64_t seed, std::uint64_t rank,
                      std::uint64_t unit) {
  return mix(seed ^ mix(rank ^ mix(unit ^ 0x7417))) % kThinkNsMax;
}

constexpr std::size_t kBulkKinds = 4;
constexpr std::size_t kBulkDimLo = 16;
constexpr std::size_t kBulkDimHi = 64;
// Each dimension lies within this many of its band's center, which keeps
// the total bytes of one iteration within a few percent across seeds.
constexpr std::size_t kBulkJitter = 1;

}  // namespace

std::optional<Workload> parseWorkload(const std::string& name) {
  for (Workload w :
       {Workload::EagerRing, Workload::LossyRing, Workload::BulkMixed}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::EagerRing:
      return "eager_ring";
    case Workload::LossyRing:
      return "lossy_ring";
    case Workload::BulkMixed:
      return "bulk_mixed";
  }
  return "?";
}

// ---- Inputs ----

void fillMessage(std::span<std::byte> out, std::uint64_t seed,
                 std::uint64_t sender, std::size_t slot, std::uint64_t seq) {
  DKF_CHECK(out.size() >= kStampBytes);
  const Stamp stamp{sender, seq};
  std::memcpy(out.data(), &stamp, kStampBytes);
  std::uint64_t x = mix(seed ^ mix(sender ^ mix(slot))) | 1;
  std::size_t i = kStampBytes;
  for (; i + sizeof x <= out.size(); i += sizeof x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(out.data() + i, &x, sizeof x);
  }
  for (; i < out.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x);
  }
}

bool sampledForFullCheck(std::uint64_t seed, std::uint64_t sender,
                         std::uint64_t seq) {
  return (mix(seed ^ (sender << 48) ^ mix(seq)) & 15) == 0;
}

std::vector<BulkLayout> drawBulkLayouts(std::uint64_t seed,
                                        std::size_t buffers) {
  DKF_CHECK(buffers % kBulkKinds == 0);
  const std::size_t per_kind = buffers / kBulkKinds;
  const std::size_t band = (kBulkDimHi - kBulkDimLo) / per_kind;
  Rng rng(mix(seed ^ 0xb01c));
  std::vector<BulkLayout> out;
  for (std::size_t kind = 0; kind < kBulkKinds; ++kind) {
    for (std::size_t b = 0; b < per_kind; ++b) {
      const std::size_t center = kBulkDimLo + b * band + band / 2;
      out.push_back({kind, center - kBulkJitter + rng.below(2 * kBulkJitter + 1)});
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

ddt::DatatypePtr bulkDatatype(const BulkLayout& l) {
  return workloads::paperWorkloads(l.dim).at(l.kind).type;
}

bool bulkSparse(const BulkLayout& l) { return l.kind < 2; }

// ---- Checks ----

Verdict checkStamp(const Stamp& got, std::uint64_t sender, std::uint64_t seq) {
  if (got.sender != sender || got.seq > seq) return Verdict::Misdelivered;
  if (got.seq < seq) return Verdict::Stale;
  return Verdict::Ok;
}

Verdict checkFull(std::span<const std::byte> got, std::uint64_t seed,
                  std::uint64_t sender, std::size_t slot, std::uint64_t seq,
                  std::vector<std::byte>& scratch) {
  if (got.size() < kStampBytes) return Verdict::Corrupted;
  scratch.resize(got.size());
  fillMessage(scratch, seed, sender, slot, seq);
  return std::memcmp(scratch.data(), got.data(), got.size()) == 0
             ? Verdict::Ok
             : Verdict::Corrupted;
}

void Tally::add(Verdict v) {
  switch (v) {
    case Verdict::Ok:
      break;
    case Verdict::Missing:
      ++missing;
      break;
    case Verdict::Stale:
      ++stale;
      break;
    case Verdict::Misdelivered:
      ++misdelivered;
      break;
    case Verdict::Corrupted:
      ++corrupted;
      break;
  }
}

Tally& Tally::operator+=(const Tally& o) {
  attempted += o.attempted;
  missing += o.missing;
  stale += o.stale;
  misdelivered += o.misdelivered;
  corrupted += o.corrupted;
  return *this;
}

std::uint64_t digestBytes(std::uint64_t h, std::span<const std::byte> bytes) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= bytes.size(); i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, sizeof w);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(bytes[i])) * 1099511628211ull;
  }
  return h;
}

// ---- Configuration ----

Config benchConfig(Workload w, std::uint64_t seed, double seconds) {
  Config c;
  c.seed = seed;
  // Units per second on the reference host, the length of one measured
  // round, and the set-up repetitions whose median is setup_s.
  double units_per_s = 1.0;
  switch (w) {
    case Workload::EagerRing:
      c.window = 4096;
      c.units_per_round = 1;
      c.setup_reps = 5;
      units_per_s = 3.6;
      break;
    case Workload::LossyRing:
      c.window = 1024;
      c.lossy = true;
      c.units_per_round = 1;
      c.setup_reps = 5;
      c.unit_watchdog = sec(10);
      units_per_s = 2.4;
      break;
    case Workload::BulkMixed:
      c.nodes = 2;
      c.gpus_per_node = 1;
      c.window = 16;
      c.bulk = true;
      c.warmup_units = 4;
      c.units_per_round = 200;
      c.setup_reps = 9;
      units_per_s = 1300;
      break;
  }
  const double units = std::max(1.0, seconds * units_per_s);
  c.rounds = std::max<std::size_t>(
      3, static_cast<std::size_t>(units / static_cast<double>(c.units_per_round)));
  return c;
}

// ---- One set-up ----

Instance::Instance(const Config& cfg, SetupTimes& times) : cfg_(cfg) {
  auto t0 = Clock::now();
  eng_ = std::make_unique<sim::Engine>();
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = cfg.gpus_per_node;
  cluster_ = std::make_unique<hw::Cluster>(*eng_, machine, cfg.nodes);
  times.cluster_s = secondsSince(t0);

  t0 = Clock::now();
  mpi::RuntimeConfig rc;  // Proposed scheme, batched message plane
  if (cfg.lossy) {
    fault::FaultSpec fs;
    fs.seed = mix(cfg.seed ^ 0xd1ce);  // the seed's loss realization
    fs.data_loss = kLossRate;
    fs.control_loss = kLossRate;
    plan_ = std::make_unique<fault::FaultPlan>(*eng_, fs);
    cluster_->setFaultPlan(plan_.get());
    rc.reliability.enabled = true;  // default timeouts and retry budget
  }
  rt_ = std::make_unique<mpi::Runtime>(*cluster_, rc);
  times.runtime_s = secondsSince(t0);

  t0 = Clock::now();
  allocateSlots();
  times.buffers_s = secondsSince(t0);
}

void Instance::allocateSlots() {
  const std::size_t ranks = static_cast<std::size_t>(rt_->worldSize());
  ranks_.resize(ranks);
  std::vector<BulkLayout> layouts;
  if (cfg_.bulk) layouts = drawBulkLayouts(cfg_.seed, cfg_.window);
  for (std::size_t r = 0; r < ranks; ++r) {
    mpi::Proc& p = rt_->proc(static_cast<int>(r));
    RankState& st = ranks_[r];
    st.slots.resize(cfg_.window);
    gpu::MemSpan sbuf, rbuf;
    if (!cfg_.bulk) {
      sbuf = p.allocDevice(cfg_.window * kRingMsgBytes);
      rbuf = p.allocDevice(cfg_.window * kRingMsgBytes);
    }
    for (std::size_t i = 0; i < cfg_.window; ++i) {
      Slot& s = st.slots[i];
      if (cfg_.bulk) {
        s.type = bulkDatatype(layouts[i]);
        s.layout = std::make_shared<const ddt::Layout>(ddt::flatten(s.type, 1));
        s.bytes = s.layout->size();
        DKF_CHECK(s.layout->minOffset() >= 0 && s.bytes >= kStampBytes);
        const auto region = static_cast<std::size_t>(s.layout->endOffset());
        s.send = p.allocDevice(region);
        s.recv = p.allocDevice(region);
      } else {
        s.send = sbuf.subspan(i * kRingMsgBytes, kRingMsgBytes);
        s.recv = rbuf.subspan(i * kRingMsgBytes, kRingMsgBytes);
        s.type = ddt::Datatype::byte();
        s.count = kRingMsgBytes;
        s.bytes = kRingMsgBytes;
      }
      // The whole message once (its stamp is rewritten at every post).
      st.scratch.resize(s.bytes);
      fillMessage(st.scratch, cfg_.seed, r, i, 0);
      std::size_t pos = 0;
      forEachRun(s, [&](std::int64_t off, std::size_t len) {
        std::memcpy(s.send.bytes.data() + off, st.scratch.data() + pos, len);
        if (pos < kStampBytes) {
          s.stamp_runs.push_back({off, std::min(len, kStampBytes - pos)});
        }
        pos += len;
      });
    }
  }
}

sim::Task<void> Instance::rankBody(mpi::Proc& p, std::uint64_t first_unit,
                                   std::size_t units, Measure& m) {
  const int n = rt_->worldSize();
  const int me = p.rank();
  const int to = (me + 1) % n;
  const int from = (me + n - 1) % n;
  RankState& st = ranks_[static_cast<std::size_t>(me)];

  for (std::uint64_t u = first_unit; u < first_unit + units; ++u) {
    if (cfg_.bulk) {
      co_await p.barrier(static_cast<std::size_t>(n));
    } else {
      co_await p.cpu().busy(
          ns(thinkNs(cfg_.seed, static_cast<std::uint64_t>(me), u)));
    }
    const std::uint64_t base = u * cfg_.window;
    {
      OwnTimer own(m.traced, m.own_ns);
      for (std::size_t i = 0; i < cfg_.window; ++i) {
        const Stamp stamp{static_cast<std::uint64_t>(me), base + i};
        writeStamp(st.slots[i], stamp);
      }
    }
    std::vector<mpi::Proc::RecvSpec> recvs;
    std::vector<mpi::Proc::SendSpec> sends;
    recvs.reserve(cfg_.window);
    sends.reserve(cfg_.window);
    for (std::size_t i = 0; i < cfg_.window; ++i) {
      const Slot& s = st.slots[i];
      const int tag = static_cast<int>(i);
      recvs.push_back({s.recv, s.type, s.count, from, tag});
      if (me == 0 && cfg_.withhold_seq == base + i) continue;
      sends.push_back({s.send, s.type, s.count, to, tag});
    }
    st.recvs = co_await p.irecvBatch(std::move(recvs));
    m.tally.attempted += cfg_.window;
    std::vector<mpi::RequestPtr> all = st.recvs;
    auto sent = co_await p.isendBatch(std::move(sends));
    all.insert(all.end(), sent.begin(), sent.end());
    const TimeNs wait0 = p.engine().now();
    co_await p.waitall(std::move(all));
    ++m.waitalls;
    m.waitall_ns += static_cast<std::uint64_t>(p.engine().now() - wait0);

    OwnTimer own(m.traced, m.own_ns);
    const auto sender = static_cast<std::uint64_t>(from);
    for (std::size_t i = 0; i < cfg_.window; ++i) {
      const Slot& s = st.slots[i];
      const std::uint64_t seq = base + i;
      if (cfg_.tamper) cfg_.tamper(me, seq, s.recv.bytes);
      const Stamp got = readStamp(s);
      Verdict v = checkStamp(got, sender, seq);
      if (v == Verdict::Ok && sampledForFullCheck(cfg_.seed, sender, seq)) {
        st.scratch.resize(s.bytes);
        std::size_t pos = 0;
        forEachRun(s, [&](std::int64_t off, std::size_t len) {
          std::memcpy(st.scratch.data() + pos, s.recv.bytes.data() + off, len);
          pos += len;
        });
        v = checkFull(st.scratch, cfg_.seed, sender, i, seq, st.expect);
        st.digest = digestBytes(st.digest, st.scratch);
      } else {
        st.digest = digestBytes(
            st.digest, std::as_bytes(std::span<const Stamp, 1>(&got, 1)));
      }
      m.tally.add(v);
      if (m.active) {
        const mpi::Request& r = *st.recvs[i];
        m.vlat_ns.push_back(
            static_cast<std::int64_t>(r.completed_at - r.posted_at));
        m.payload_bytes += static_cast<double>(s.bytes);
      }
    }
    st.recvs.clear();
  }
}

bool Instance::runUnits(std::size_t units, Measure& m) {
  const std::uint64_t first = next_unit_;
  next_unit_ += units;
  eng_->setWatchdog(eng_->now() + cfg_.unit_watchdog * units);
  bool ok = true;
  try {
    rt_->runAll([&](mpi::Proc& p) { return rankBody(p, first, units, m); });
    ok = eng_->unfinishedTasks() == 0;  // drained with a rank still blocked
  } catch (const CheckFailure&) {
    ok = false;  // watchdog trip or a failed runtime check
  }
  eng_->clearWatchdog();
  if (!ok) {
    for (RankState& st : ranks_) {
      for (const mpi::RequestPtr& r : st.recvs) {
        if (!r->complete) m.tally.add(Verdict::Missing);
      }
    }
  }
  return ok;
}

std::uint64_t Instance::digest() const {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    h ^= ranks_[i].digest * (2 * i + 1);
  }
  return h;
}

// ---- The measured run ----

namespace {

using Counters = std::map<std::string, std::uint64_t>;

/// Lifetime counters of every layer of one set-up, summed over ranks/GPUs.
Counters readCounters(Instance& inst) {
  Counters c;
  sim::Engine& eng = inst.engine();
  net::Fabric& fab = inst.cluster().fabric();
  c["sim.events"] = eng.processedEvents();
  c["net.batched_deliveries"] = fab.batchedDeliveries();
  c["net.armed_events"] = fab.batchedArmedEvents();
  c["net.bytes_carried"] = fab.totalBytesCarried();
  const net::PayloadPoolCounters& pool = fab.payloadPool().counters();
  c["net.pool_captures"] = pool.captures;
  c["net.pool_slab_reuses"] = pool.slab_reuses;
  c["net.pool_checkouts"] =
      pool.slab_reuses + pool.slab_allocs + pool.oversize_allocs;
  mpi::Runtime& rt = inst.runtime();
  for (int r = 0; r < rt.worldSize(); ++r) {
    mpi::Proc& p = rt.proc(r);
    c["mpi.retransmissions"] += p.transport().retransmissions;
    c["mpi.acks"] += p.transport().acks_sent;
    c["mpi.duplicates"] += p.transport().duplicates_ignored;
    c["ddt.layout_hits"] += p.layoutCache().hits();
    c["ddt.layout_misses"] += p.layoutCache().misses();
    c["core.plan_hits"] += p.planCache().hits();
    c["core.plan_misses"] += p.planCache().misses();
    c["gpu.kernels"] += p.gpu().kernelsLaunched();
    c["gpu.copies"] += p.gpu().copiesIssued();
    if (auto* fe = dynamic_cast<schemes::FusionEngine*>(&p.ddtEngine())) {
      c["core.fused_kernels"] += fe->scheduler().fusedKernelsLaunched();
      c["core.requests_fused"] += fe->scheduler().requestsFused();
      c["schemes.fallbacks"] += fe->fallbacks();
    }
  }
  const TimeBreakdown bd = rt.aggregateBreakdown();
  c["schemes.pack_ns"] = static_cast<std::uint64_t>(bd.pack_unpack);
  c["schemes.launch_ns"] = static_cast<std::uint64_t>(bd.launching);
  c["schemes.sched_ns"] = static_cast<std::uint64_t>(bd.scheduling);
  c["schemes.sync_ns"] = static_cast<std::uint64_t>(bd.synchronize);
  if (fault::FaultPlan* plan = inst.faultPlan()) {
    c["fault.drops"] =
        plan->counters().data_drops + plan->counters().control_drops;
  } else {
    c["fault.drops"] = 0;
  }
  return c;
}

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

RunResult runBenchmark(const Config& cfg, bool trace) {
  RunResult res;
  std::unique_ptr<Instance> inst;
  for (std::size_t k = 0; k < cfg.setup_reps; ++k) {
    inst.reset();  // one cluster's arenas resident at a time
    const auto t0 = Clock::now();
    SetupTimes t;
    inst = std::make_unique<Instance>(cfg, t);
    Measure warm;
    const bool ok = inst->runUnits(cfg.warmup_units, warm);
    t.warmup_s = secondsSince(t0) - t.cluster_s - t.runtime_s - t.buffers_s;
    res.tally += warm.tally;
    if (!ok) {
      res.watchdog_tripped = true;
      return res;
    }
    res.setups.push_back(t);
  }

  res.counters_at_start = readCounters(*inst);
  const Counters& before = res.counters_at_start;
  sim::Engine& eng = inst->engine();
  const TimeNs v0 = eng.now();
  Measure m;
  m.active = true;
  m.vlat_ns.reserve(cfg.msgsPerUnit() * cfg.units_per_round);
  const double msgs_per_round =
      static_cast<double>(cfg.msgsPerUnit() * cfg.units_per_round);
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    m.traced = trace && r % 2 == 1;
    const auto t0 = Clock::now();
    const TimeNs round_v0 = eng.now();
    const bool ok = inst->runUnits(cfg.units_per_round, m);
    const double wall = secondsSince(t0);
    res.round_vspans.push_back(eng.now() - round_v0);
    for (const std::int64_t v : m.vlat_ns) ++res.vlat_counts[v];
    m.vlat_ns.clear();
    if (!ok) {
      res.watchdog_tripped = true;
      break;
    }
    (m.traced ? res.traced_round_rates : res.round_rates)
        .push_back(msgs_per_round / wall);
    if (m.traced) {
      res.traced_msgs += static_cast<std::uint64_t>(msgs_per_round);
    }
  }
  res.tally += m.tally;
  if (res.watchdog_tripped) return res;

  res.vspan = eng.now() - v0;
  res.vend = eng.now();
  res.msgs = cfg.msgsPerUnit() * cfg.units_per_round * cfg.rounds;
  res.payload_bytes = m.payload_bytes;
  res.own_ns = m.own_ns;
  res.digest = inst->digest();
  const Counters after = readCounters(*inst);
  res.counters = after;
  auto delta = [&](const std::string& k) {
    return static_cast<double>(after.at(k) - before.at(k));
  };

  // End-to-end.
  MetricSet& mt = res.metrics;
  const double msgs = static_cast<double>(res.msgs);
  std::vector<double> setup_total, cluster, runtime, buffers, warmup;
  for (const SetupTimes& t : res.setups) {
    setup_total.push_back(t.total());
    cluster.push_back(t.cluster_s);
    runtime.push_back(t.runtime_s);
    buffers.push_back(t.buffers_s);
    warmup.push_back(t.warmup_s);
  }
  mt.set("msgs_per_s", median(res.round_rates));
  mt.set("setup_s", median(setup_total));
  // Read before the latency summary, which expands the counts into one
  // sample per receive for the library's nearest-rank estimator.
  mt.set("peak_rss_MiB", peakRssMiB());
  std::vector<double> lat;
  for (const auto& [v, count] : res.vlat_counts) {
    lat.insert(lat.end(), count, static_cast<double>(v));
  }
  const std::size_t n = lat.size();
  DKF_CHECK_MSG(tailReportable(n, 0.99),
                "too few latency samples for p99: " << n);
  const bench::PercentileSummary pct =
      bench::summarizePercentiles(std::move(lat));
  mt.set("vlat_p50_us", pct.p50 / 1e3);
  mt.set("vlat_p99_us", pct.p99 / 1e3);
  mt.set("vgoodput_GBps", res.payload_bytes / static_cast<double>(res.vspan));

  // Per-layer counters of the run.
  mt.set("setup.cluster_s", median(cluster));
  mt.set("setup.runtime_s", median(runtime));
  mt.set("setup.buffers_s", median(buffers));
  mt.set("setup.warmup_s", median(warmup));
  mt.set("vlat.samples", static_cast<double>(n));
  mt.set("sim.events_per_msg", delta("sim.events") / msgs);
  mt.set("sim.peak_pending", static_cast<double>(eng.peakPending()));
  mt.set("net.armed_events_per_delivery",
         ratio(delta("net.armed_events"), delta("net.batched_deliveries"), 0));
  mt.set("net.pool_hit_rate", ratio(delta("net.pool_slab_reuses"),
                                    delta("net.pool_checkouts"), 1));
  mt.set("net.pool_peak_live_MiB",
         static_cast<double>(
             inst->cluster().fabric().payloadPool().peakLiveBytes()) /
             (1024.0 * 1024.0));
  mt.set("net.wire_bytes_per_payload_byte",
         ratio(delta("net.bytes_carried"), res.payload_bytes, 0));
  mt.set("mpi.retrans_per_msg", delta("mpi.retransmissions") / msgs);
  mt.set("mpi.acks_per_msg", delta("mpi.acks") / msgs);
  mt.set("mpi.dups_per_msg", delta("mpi.duplicates") / msgs);
  mt.set("fault.drops_per_msg", delta("fault.drops") / msgs);
  mt.set("ddt.layout_hit_rate",
         ratio(static_cast<double>(after.at("ddt.layout_hits")),
               static_cast<double>(after.at("ddt.layout_hits") +
                                   after.at("ddt.layout_misses")),
               1));
  mt.set("core.plan_hit_rate",
         ratio(static_cast<double>(after.at("core.plan_hits")),
               static_cast<double>(after.at("core.plan_hits") +
                                   after.at("core.plan_misses")),
               1));
  mt.set("core.requests_per_fused_kernel",
         ratio(delta("core.requests_fused"), delta("core.fused_kernels"), 0));
  mt.set("gpu.kernels_per_msg", delta("gpu.kernels") / msgs);
  mt.set("gpu.copies_per_msg", delta("gpu.copies") / msgs);
  mt.set("schemes.fallbacks_per_msg", delta("schemes.fallbacks") / msgs);

  // Fig. 11 split per rank per unit, virtual us; communication is the
  // residual of the unit's span after the CPU-attributed stages.
  const double rank_units = static_cast<double>(
      cfg.ranks() * cfg.units_per_round * cfg.rounds);
  const double units = static_cast<double>(cfg.units_per_round * cfg.rounds);
  const double launch = delta("schemes.launch_ns") / rank_units / 1e3;
  const double sched = delta("schemes.sched_ns") / rank_units / 1e3;
  const double sync = delta("schemes.sync_ns") / rank_units / 1e3;
  const double span_us = static_cast<double>(res.vspan) / units / 1e3;
  mt.set("schemes.vpack_us", delta("schemes.pack_ns") / rank_units / 1e3);
  mt.set("schemes.vlaunch_us", launch);
  mt.set("schemes.vsched_us", sched);
  mt.set("schemes.vsync_us", sync);
  mt.set("schemes.vcomm_us", std::max(0.0, span_us - launch - sched - sync));

  res.counters["run.waitalls"] = m.waitalls;
  res.counters["run.waitall_ns"] = m.waitall_ns;
  if (!trace) return res;

  runProbes(*inst, res);
  const double untraced = median(res.round_rates);
  const double traced = median(res.traced_round_rates);
  const double wall_ns = 1e9 / untraced;
  const double own = static_cast<double>(res.own_ns) /
                     static_cast<double>(res.traced_msgs);
  mt.set("bench.own_ns_per_msg", own);
  mt.set("wall.ns_per_msg", wall_ns);
  mt.set("wall.attributed_share",
         (mt.get("attr.sim_ns_per_msg") + mt.get("attr.net_ns_per_msg") +
          mt.get("attr.mpi_ns_per_msg") + mt.get("attr.ddt_ns_per_msg") +
          mt.get("attr.core_ns_per_msg") + own) /
             wall_ns);
  mt.set("trace.overhead_share", (untraced - traced) / untraced);
  return res;
}

}  // namespace perfbench
