// Windowed eager ring over four lassen nodes (MODEL.md §13, §15): every
// rank streams 1 KiB contiguous messages to its right neighbour while
// sinking the same stream from its left. Posting goes through the bulk
// front door (irecvBatch/isendBatch), so each 4096-message window is in
// flight at once — thousands of pending requests per rank. Tags are
// window-slot indices (legitimate MPI tag reuse: windows are serialized by
// waitall), so the matching structures reach a steady state.
//
// Goldens: the received-bytes hash and virtual end time, fault-free and at
// 12% data+control loss with reliability on, at smoke and full size. They
// were recorded when the seed coroutine progress path and unbatched
// delivery still ran this traffic, and matched it exactly; they hash what
// this file generates and folds (fillPayload, the word-wise fnv1a, the
// per-rank fold), so none of it may change. The full size runs with --gtest_also_run_disabled_tests.
//
// Allocation gate: with -DDKF_COUNT_ALLOCS=ON a probe arms once every rank
// has completed its first window (payload pool, request arena, frame pool
// and matching tables warm) and the fault-free ring's steady-state heap
// allocations per message must stay within kMaxSteadyAllocsPerMsg.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/alloc_count.hpp"
#include "ddt/datatype.hpp"
#include "fault/fault_plan.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/runtime.hpp"
#include "sim/engine.hpp"

namespace dkf {
namespace {

constexpr std::size_t kMsgBytes = 1024;  // well under lassen's 8 KiB eager cut
constexpr std::size_t kChunk = 4096;     // in-flight window per rank
constexpr std::size_t kNodes = 4;
constexpr double kLossRate = 0.12;
/// Steady-state allocation budget for the fault-free ring. The payload
/// pool, request arena and frame pool take the per-message allocations
/// themselves to zero; what remains is sub-linear churn in the matching
/// structures (deque block turnover ~1/32 per message).
constexpr double kMaxSteadyAllocsPerMsg = 0.25;

static_assert(kMsgBytes % sizeof(std::uint64_t) == 0);

/// Received-bytes hash and virtual end time a mode must reproduce at one
/// run size: `batched` is fault-free, `batched_loss12` runs a twentieth of
/// the messages at 12% loss.
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

/// Word-wise FNV-1a over the payload. Word granularity keeps the hashing
/// cheap while still flipping on any corrupted or mis-matched delivery.
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
/// first window (all pools warm), then the run's tail is measured against
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

struct RingResult {
  std::uint64_t hash{};
  TimeNs vtime{};
  bool steady_window{false};  ///< the probe armed (>= 2 windows ran)
  std::size_t steady_allocs{};
  std::size_t steady_msgs{};
};

RingResult runRing(std::size_t total_msgs, double loss) {
  sim::Engine eng;
  hw::Cluster cluster(eng, hw::lassen(), kNodes);
  std::optional<fault::FaultPlan> plan;
  mpi::RuntimeConfig cfg;
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

  rt.runAll([&](mpi::Proc& p) -> sim::Task<void> {
    return rankBody(p, ranks, per_rank,
                    hashes[static_cast<std::size_t>(p.rank())], probe);
  });
  const std::uint64_t allocs1 = allocCount();

  RingResult r;
  r.vtime = eng.now();
  r.hash = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    // Order-independent across ranks, position-sensitive within a rank.
    r.hash ^= hashes[i] * (2 * i + 1);
  }
  r.steady_window = probe.armed;
  if (probe.armed) {
    r.steady_allocs = static_cast<std::size_t>(allocs1 - probe.allocs_at_arm);
    r.steady_msgs =
        per_rank * static_cast<std::size_t>(ranks) - probe.msgs_at_arm;
  }
  return r;
}

/// Smoke still runs >= 2 windows per rank, so the allocation probe has a
/// tail to measure (16 ranks x 4096-message windows).
std::size_t ringMessages(bool smoke) { return smoke ? 200'000 : 1'000'000; }

void expectGoldens(bool smoke) {
  for (const Golden& g : kGoldens) {
    if (g.smoke != smoke) continue;
    const bool lossy = std::string_view(g.mode) == "batched_loss12";
    const RingResult r =
        lossy ? runRing(ringMessages(smoke) / 20, kLossRate)
              : runRing(ringMessages(smoke), 0.0);
    EXPECT_EQ(r.hash, g.hash) << g.mode << std::hex << ": hash 0x" << r.hash
                              << ", golden 0x" << g.hash;
    EXPECT_EQ(r.vtime, g.vtime) << g.mode << ": virtual end time";
  }
}

TEST(MsgRingGoldens, Smoke) { expectGoldens(true); }

TEST(MsgRingGoldens, DISABLED_Full) { expectGoldens(false); }

TEST(MsgRingAllocs, SteadyStateWithinBudget) {
  if (!allocCountingEnabled()) {
    GTEST_SKIP() << "needs a -DDKF_COUNT_ALLOCS=ON build";
  }
  const RingResult r = runRing(ringMessages(true), 0.0);
  ASSERT_TRUE(r.steady_window);
  ASSERT_GT(r.steady_msgs, 0u);
  const double per_msg = static_cast<double>(r.steady_allocs) /
                         static_cast<double>(r.steady_msgs);
  std::cout << "steady-state allocations/message: " << per_msg << " ("
            << r.steady_allocs << " over " << r.steady_msgs
            << " messages; budget " << kMaxSteadyAllocsPerMsg << ")\n";
  EXPECT_LE(per_msg, kMaxSteadyAllocsPerMsg);
}

}  // namespace
}  // namespace dkf
