// Million-message end-to-end throughput bench for the batched message
// plane (MODEL.md §13) and the zero-copy payload plane (MODEL.md §15).
//
// Windowed eager ring traffic over a multi-node lassen cluster: every rank
// streams small contiguous messages to its right neighbour while sinking
// the same stream from its left. Posting goes through the bulk front door
// (irecvBatch/isendBatch, one MPI call overhead per window), so each
// window's activations run back to back and the whole window is in flight
// at once — thousands of pending requests per rank, the regime the batched
// plane exists for. Tags are window-slot indices (legitimate MPI tag
// reuse: windows are serialized by waitall), so the runtime's matching
// structures reach a steady state instead of growing one key per message.
//
// Three configurations run the same traffic shape:
//
//   batched        change-driven progress + LinkBatcher, window 0 (exact)
//   batched_w64    same, with a 64 ns coalescing window (approximation)
//   batched_loss12 reliable transport, 12% data+control loss
//
// Allocation accounting: when the build replaces operator new
// (-DDKF_COUNT_ALLOCS=ON, common/alloc_count.hpp), each mode arms a probe
// once every rank has finished its first window — the payload pool,
// request arena, coroutine frame pool and matching tables are warm by then
// — and reports steady-state allocations per message over the rest of the
// run. The fault-free batched mode is gated against
// kMaxSteadyAllocsPerMsg: the zero-copy payload plane's contract is that
// the hot path stops touching the allocator once pools are warm.
//
// Checks: the received-bytes hash and virtual end time of `batched` and
// `batched_loss12` equal the frozen golden values for the run size, and
// `batched_w64` receives the same bytes as `batched` (the window moves
// timing, never data). Any mismatch exits non-zero. Emits
// BENCH_msgplane.json (or argv[1]); `--smoke` shrinks the workload for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/table.hpp"
#include "common/alloc_count.hpp"
#include "core/fusion_plan.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "net/payload.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dkf;

constexpr std::size_t kMsgBytes = 1024;  // well under lassen's 8 KiB eager cut
constexpr std::size_t kChunk = 4096;     // in-flight window per rank
constexpr std::size_t kNodes = 4;
constexpr double kLossRate = 0.12;
/// Steady-state allocation budget for the fault-free batched mode. The
/// payload pool, request arena and frame pool take the per-message
/// allocations themselves to zero; what remains is sub-linear churn in the
/// matching structures (deque block turnover ~1/32 per message).
constexpr double kMaxSteadyAllocsPerMsg = 0.25;

static_assert(kMsgBytes % sizeof(std::uint64_t) == 0);

/// Received-bytes hash and virtual end time a mode must reproduce at one
/// run size. Recorded when the seed coroutine progress path and unbatched
/// delivery still ran the same traffic beside these modes, and matched
/// them exactly.
struct Golden {
  const char* mode;
  bool smoke;
  std::uint64_t hash;
  TimeNs vtime;
};
constexpr Golden kGoldens[] = {
    {"batched", true, 0xb35cf651b9f96f50, 526800},
    {"batched_loss12", true, 0x94db21e5b4bcab78, 1243450},
    {"batched", false, 0x650a3a4cab95f430, 2626700},
    {"batched_loss12", false, 0x5d9a26484ec8e600, 4523450},
};

/// Word-wise FNV-1a over the payload. Word granularity keeps the bench's
/// own hashing cost small relative to the runtime paths under test while
/// still flipping on any corrupted or mis-matched delivery.
std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> bytes) {
  for (std::size_t i = 0; i < bytes.size(); i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, sizeof w);
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic payload for message `idx` from rank `me` — cheap to
/// generate (one xorshift step per 8 bytes) and distinct enough that a
/// mis-matched or corrupted delivery flips the stream hash.
void fillPayload(gpu::MemSpan span, int me, std::size_t idx) {
  std::uint64_t x = (static_cast<std::uint64_t>(me) << 40) ^ idx ^
                    0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < span.bytes.size(); i += sizeof x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(span.bytes.data() + i, &x, sizeof x);
  }
}

/// Steady-state allocation probe: arms once every rank has completed its
/// first window (all pools warm), then the mode's tail is measured against
/// the global allocation counter. Single-threaded engine — plain fields.
struct AllocProbe {
  int pending_ranks{0};
  bool armed{false};
  std::uint64_t allocs_at_arm{0};
  std::size_t msgs_at_arm{0};  ///< messages already delivered when armed
};

/// One rank of the ring: stream `per_rank` messages to the right neighbour
/// in bulk-posted windows of `kChunk`, sink the mirror stream from the
/// left, folding every received byte into `hash` in posting order.
sim::Task<void> rankBody(mpi::Proc& p, int ranks, std::size_t per_rank,
                         std::uint64_t& hash, AllocProbe& probe) {
  const int me = p.rank();
  const int to = (me + 1) % ranks;
  const int from = (me + ranks - 1) % ranks;
  auto type = ddt::Datatype::byte();
  auto sbuf = p.allocDevice(kChunk * kMsgBytes);
  auto rbuf = p.allocDevice(kChunk * kMsgBytes);
  bool warmed = false;

  for (std::size_t done = 0; done < per_rank;) {
    const std::size_t n = std::min(kChunk, per_rank - done);
    for (std::size_t i = 0; i < n; ++i) {
      fillPayload(sbuf.subspan(i * kMsgBytes, kMsgBytes), me, done + i);
    }
    std::vector<mpi::Proc::RecvSpec> recvs;
    std::vector<mpi::Proc::SendSpec> sends;
    recvs.reserve(n);
    sends.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Window-slot tag: windows are serialized by waitall, so slot i of
      // window w can only match slot i of window w on the peer.
      const int tag = static_cast<int>(i);
      recvs.push_back({rbuf.subspan(i * kMsgBytes, kMsgBytes), type,
                       kMsgBytes, from, tag});
      sends.push_back({sbuf.subspan(i * kMsgBytes, kMsgBytes), type,
                       kMsgBytes, to, tag});
    }
    std::vector<mpi::RequestPtr> reqs = co_await p.irecvBatch(std::move(recvs));
    auto sr = co_await p.isendBatch(std::move(sends));
    reqs.insert(reqs.end(), sr.begin(), sr.end());
    co_await p.waitall(std::move(reqs));
    for (std::size_t i = 0; i < n; ++i) {
      hash = fnv1a(hash, rbuf.subspan(i * kMsgBytes, kMsgBytes).bytes);
    }
    done += n;
    if (!warmed) {
      warmed = true;
      probe.msgs_at_arm += n;
      if (--probe.pending_ranks == 0) {
        probe.armed = true;
        probe.allocs_at_arm = allocCount();
      }
    }
  }
  p.freeDevice(sbuf);
  p.freeDevice(rbuf);
}

struct ModeResult {
  std::string name;
  double loss{0.0};
  double wall_s{};
  TimeNs vtime{};
  std::uint64_t hash{};
  std::size_t messages{};
  std::size_t events{};
  std::size_t peak_pending{};
  std::size_t batched_deliveries{};
  std::size_t armed_events{};
  std::size_t coalesced_deliveries{};
  std::size_t retransmissions{};
  // Steady-state allocation accounting (zeros unless DKF_COUNT_ALLOCS).
  bool steady_window{false};  ///< the probe armed (>= 2 windows ran)
  std::size_t steady_allocs{};
  std::size_t steady_msgs{};
  std::size_t total_allocs{};
  // Payload-pool telemetry (net/payload.hpp).
  net::PayloadPoolCounters pool{};
  double pool_hit_rate{1.0};
  std::size_t pool_peak_live_buffers{};
  std::size_t pool_peak_live_bytes{};
  std::size_t pool_live_end{};
  /// Compiled-plan cache traffic summed over all ranks, with the
  /// per-tenant attribution (this bench is single-tenant: index 0 only).
  core::PlanCacheCounters plan_cache{};
  std::vector<core::PlanCacheCounters> tenant_plan_cache{};
  double msgs_per_sec() const { return static_cast<double>(messages) / wall_s; }
  double allocsPerMsg() const {
    // Fall back to whole-run accounting when the probe never armed or
    // armed with nothing left to measure (single-window runs have no
    // steady-state tail).
    const bool tail = steady_window && steady_msgs > 0;
    const std::size_t a = tail ? steady_allocs : total_allocs;
    const std::size_t m = tail ? steady_msgs : messages;
    return m > 0 ? static_cast<double>(a) / static_cast<double>(m) : 0.0;
  }
};

ModeResult runMode(const std::string& name, std::size_t total_msgs,
                   DurationNs window, double loss) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), kNodes);
  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
  cfg.msg_batch_window = window;
  if (loss > 0.0) {
    fault::FaultSpec fs;
    fs.seed = 0xd1ce;
    fs.data_loss = loss;
    fs.control_loss = loss;
    plan.emplace(eng, fs);
    cluster.setFaultPlan(&*plan);
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(40);
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    eng.setWatchdog(sec(120));
  }
  mpi::Runtime rt(cluster, cfg);

  const int ranks = rt.worldSize();
  const std::size_t per_rank = total_msgs / static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(ranks),
                                    1469598103934665603ull);
  AllocProbe probe;
  probe.pending_ranks = ranks;
  const std::uint64_t allocs0 = allocCount();

  const auto t0 = std::chrono::steady_clock::now();
  rt.runAll([&](mpi::Proc& p) -> sim::Task<void> {
    return rankBody(p, ranks, per_rank,
                    hashes[static_cast<std::size_t>(p.rank())], probe);
  });
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = allocCount();

  ModeResult r;
  r.name = name;
  r.loss = loss;
  r.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  r.vtime = eng.now();
  r.hash = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    // Order-independent across ranks, position-sensitive within a rank.
    r.hash ^= hashes[i] * (2 * i + 1);
  }
  r.messages = per_rank * static_cast<std::size_t>(ranks);
  r.events = eng.processedEvents();
  r.peak_pending = eng.peakPending();
  r.batched_deliveries = cluster.fabric().batchedDeliveries();
  r.armed_events = cluster.fabric().batchedArmedEvents();
  r.coalesced_deliveries = cluster.fabric().coalescedDeliveries();
  r.total_allocs = static_cast<std::size_t>(allocs1 - allocs0);
  r.steady_window = probe.armed;
  if (probe.armed) {
    r.steady_allocs = static_cast<std::size_t>(allocs1 - probe.allocs_at_arm);
    r.steady_msgs = r.messages - probe.msgs_at_arm;
  }
  const net::PayloadPool& pool = cluster.fabric().payloadPool();
  r.pool = pool.counters();
  r.pool_hit_rate = pool.hitRate();
  r.pool_peak_live_buffers = pool.peakLiveBuffers();
  r.pool_peak_live_bytes = pool.peakLiveBytes();
  r.pool_live_end = pool.liveBuffers();
  for (int rank = 0; rank < ranks; ++rank) {
    r.retransmissions += rt.proc(rank).transport().retransmissions;
    const core::PlanCache& pc = rt.proc(rank).planCache();
    r.plan_cache += pc.counters();
    const auto& per_tenant = pc.tenantCounters();
    if (per_tenant.size() > r.tenant_plan_cache.size()) {
      r.tenant_plan_cache.resize(per_tenant.size());
    }
    for (std::size_t t = 0; t < per_tenant.size(); ++t) {
      r.tenant_plan_cache[t] += per_tenant[t];
    }
  }
  return r;
}

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string fmt4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_msgplane.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  // Smoke still needs >= 2 windows per rank so the steady-state allocation
  // probe has a tail to measure (16 ranks x 4096-message windows).
  const std::size_t total_msgs = smoke ? 200'000 : 1'000'000;
  const std::size_t loss_msgs = total_msgs / 20;

  bench::banner(std::cout,
                "Throughput — batched message plane, " +
                    std::to_string(total_msgs) + " eager messages (" +
                    std::to_string(kMsgBytes) + " B, ring, " +
                    std::to_string(kNodes) + " lassen nodes)");

  std::vector<ModeResult> modes;
  modes.push_back(runMode("batched", total_msgs, ns(0), 0.0));
  modes.push_back(runMode("batched_w64", total_msgs, ns(64), 0.0));
  modes.push_back(runMode("batched_loss12", loss_msgs, ns(0), kLossRate));
  const ModeResult& batched = modes[0];

  bench::Table table({"Mode", "Wall s", "Msgs/s", "Events", "PeakPend",
                      "Retrans", "Allocs/msg", "PoolHit", "VTime ms"});
  for (const ModeResult& m : modes) {
    table.addRow({m.name, fmt2(m.wall_s), fmt1(m.msgs_per_sec()),
                  std::to_string(m.events), std::to_string(m.peak_pending),
                  std::to_string(m.retransmissions), fmt4(m.allocsPerMsg()),
                  fmt2(m.pool_hit_rate), fmt2(toMs(m.vtime))});
  }
  table.print(std::cout);

  const bool hashes_ok = modes[1].hash == batched.hash;
  std::cout << "\nReceived-bytes hash batched_w64 vs batched: "
            << (hashes_ok ? "identical" : "MISMATCH") << "\n";
  bool goldens_ok = true;
  for (const Golden& g : kGoldens) {
    if (g.smoke != smoke) continue;
    const auto m = std::find_if(
        modes.begin(), modes.end(),
        [&](const ModeResult& r) { return r.name == g.mode; });
    const bool ok = m->hash == g.hash && m->vtime == g.vtime;
    goldens_ok &= ok;
    std::cout << "Golden " << g.mode << ": " << (ok ? "match" : "MISMATCH")
              << std::hex << " (hash 0x" << m->hash << ", expected 0x"
              << g.hash << std::dec << "; virtual end " << m->vtime
              << " ns, expected " << g.vtime << " ns)\n";
  }
  const bool counting = allocCountingEnabled();
  const bool allocs_ok =
      !counting || batched.allocsPerMsg() <= kMaxSteadyAllocsPerMsg;
  std::cout << "Steady-state allocations/message (batched): "
            << (counting ? fmt4(batched.allocsPerMsg()) +
                               " (budget " + fmt2(kMaxSteadyAllocsPerMsg) + ")"
                         : std::string("not measured (DKF_COUNT_ALLOCS off)"))
            << "\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "error: cannot open " << json_path << " for writing\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"throughput_msgplane\",\n"
       << "  \"claim\": \"change-driven progress with coalesced "
          "same-link delivery and pool-backed zero-copy payloads reproduces "
          "the frozen received-bytes hash and virtual end time exactly at "
          "window 0, fault-free and under 12% loss, while steady-state "
          "allocations per message stay at ~0\",\n"
       << "  \"total_messages\": " << total_msgs << ",\n"
       << "  \"loss_mode_messages\": " << loss_msgs << ",\n"
       << "  \"message_bytes\": " << kMsgBytes << ",\n"
       << "  \"window_per_rank\": " << kChunk << ",\n"
       << "  \"nodes\": " << kNodes << ",\n"
       << "  \"loss_rate\": " << kLossRate << ",\n"
       << "  \"alloc_counting\": " << (counting ? "true" : "false") << ",\n"
       << "  \"max_steady_allocs_per_msg\": " << kMaxSteadyAllocsPerMsg
       << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    json << "    {\"mode\": \"" << m.name << "\", \"loss\": " << m.loss
         << ", \"wall_s\": " << m.wall_s
         << ", \"msgs_per_sec\": " << m.msgs_per_sec()
         << ", \"messages\": " << m.messages
         << ", \"events\": " << m.events
         << ", \"peak_pending\": " << m.peak_pending
         << ", \"batched_deliveries\": " << m.batched_deliveries
         << ", \"armed_events\": " << m.armed_events
         << ", \"coalesced_deliveries\": " << m.coalesced_deliveries
         << ", \"retransmissions\": " << m.retransmissions
         << ", \"allocs_per_msg\": " << m.allocsPerMsg()
         << ", \"steady_window\": " << (m.steady_window ? "true" : "false")
         << ", \"steady_allocs\": " << m.steady_allocs
         << ", \"steady_msgs\": " << m.steady_msgs
         << ", \"total_allocs\": " << m.total_allocs
         << ", \"payload_pool\": {\"captures\": " << m.pool.captures
         << ", \"inline_captures\": " << m.pool.inline_captures
         << ", \"slab_allocs\": " << m.pool.slab_allocs
         << ", \"slab_reuses\": " << m.pool.slab_reuses
         << ", \"oversize_allocs\": " << m.pool.oversize_allocs
         << ", \"trims\": " << m.pool.trims
         << ", \"hit_rate\": " << m.pool_hit_rate
         << ", \"peak_live_buffers\": " << m.pool_peak_live_buffers
         << ", \"peak_live_bytes\": " << m.pool_peak_live_bytes
         << ", \"live_at_end\": " << m.pool_live_end << "}"
         << ", \"plan_cache\": {\"hits\": " << m.plan_cache.hits
         << ", \"misses\": " << m.plan_cache.misses
         << ", \"fallbacks\": " << m.plan_cache.fallbacks
         << ", \"tenant_hits\": [";
    for (std::size_t t = 0; t < m.tenant_plan_cache.size(); ++t) {
      json << (t ? ", " : "") << m.tenant_plan_cache[t].hits;
    }
    json << "], \"tenant_misses\": [";
    for (std::size_t t = 0; t < m.tenant_plan_cache.size(); ++t) {
      json << (t ? ", " : "") << m.tenant_plan_cache[t].misses;
    }
    json << "]}"
         << ", \"virtual_end_ns\": " << m.vtime << "}"
         << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"hash_identical\": " << (hashes_ok ? "true" : "false") << ",\n"
       << "  \"goldens_match\": " << (goldens_ok ? "true" : "false")
       << ",\n"
       << "  \"steady_allocs_per_msg_batched\": " << batched.allocsPerMsg()
       << "\n}\n";
  std::cout << "record written to " << json_path << "\n";

  if (!hashes_ok || !goldens_ok) {
    std::cerr << "error: received-bytes hash or virtual end time "
                 "mismatch (see above)\n";
    return 1;
  }
  if (!allocs_ok) {
    std::cerr << "error: steady-state allocations/message "
              << batched.allocsPerMsg() << " exceeds the committed budget "
              << kMaxSteadyAllocsPerMsg << "\n";
    return 1;
  }
  return 0;
}
