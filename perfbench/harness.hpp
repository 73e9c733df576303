// The benchmark's workloads: input generation, the closed-loop rank
// program, message checks and the measured run (README.md).
//
// Every workload is the same program shape. Each rank repeatedly posts a
// unit — a window of receives from its left neighbour and sends to its right
// one, one slot per tag — waits for all of it, checks every received
// message, and posts the next. The rings use 16 ranks and contiguous 1 KiB
// messages; bulk_mixed is the two-rank case of the same loop with one
// seeded ddtbench layout per slot and a barrier between iterations.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/memory.hpp"
#include "hw/cluster.hpp"
#include "mpi/runtime.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace dkf;
using Clock = std::chrono::steady_clock;

enum class Workload { EagerRing, LossyRing, BulkMixed };
std::optional<Workload> parseWorkload(const std::string& name);
const char* workloadName(Workload w);

// ---- Inputs: pure functions of the seed ----

/// Every message is its (sender, sequence) stamp followed by a body that is
/// a seeded function of (seed, sender, slot). Set-up writes whole messages;
/// each later post rewrites only the stamp.
struct Stamp {
  std::uint64_t sender{0};
  std::uint64_t seq{0};
};
inline constexpr std::size_t kStampBytes = sizeof(Stamp);

void fillMessage(std::span<std::byte> out, std::uint64_t seed,
                 std::uint64_t sender, std::size_t slot, std::uint64_t seq);
/// The seeded one-in-sixteen sample whose full bytes are compared.
bool sampledForFullCheck(std::uint64_t seed, std::uint64_t sender,
                         std::uint64_t seq);

/// One bulk_mixed buffer: which of the paper's four ddtbench layouts
/// (workloads::paperWorkloads order) at which dimension.
struct BulkLayout {
  std::size_t kind{0};
  std::size_t dim{0};
  friend bool operator==(const BulkLayout&, const BulkLayout&) = default;
};
/// The seed's layouts for `buffers` buffers (a multiple of 4): each layout
/// kind appears buffers/4 times, once per equal band of the 16-64
/// dimension range, at a seeded dimension within one of the band's center
/// and at a seeded buffer slot.
std::vector<BulkLayout> drawBulkLayouts(std::uint64_t seed,
                                        std::size_t buffers);
ddt::DatatypePtr bulkDatatype(const BulkLayout& l);
/// The paper's sparse/dense classification of a layout kind.
bool bulkSparse(const BulkLayout& l);

// ---- Checks ----

enum class Verdict { Ok, Missing, Stale, Misdelivered, Corrupted };

/// Classify a received stamp against the expected (sender, seq): a wrong
/// sender or a later sequence is misdelivered, an earlier one stale.
Verdict checkStamp(const Stamp& got, std::uint64_t sender, std::uint64_t seq);
/// Compare a sampled message's full bytes with what it must hold.
Verdict checkFull(std::span<const std::byte> got, std::uint64_t seed,
                  std::uint64_t sender, std::size_t slot, std::uint64_t seq,
                  std::vector<std::byte>& scratch);

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t missing{0};
  std::uint64_t stale{0};
  std::uint64_t misdelivered{0};
  std::uint64_t corrupted{0};
  std::uint64_t failed() const {
    return missing + stale + misdelivered + corrupted;
  }
  void add(Verdict v);
  Tally& operator+=(const Tally& o);
};

/// Word-wise FNV-1a step over a message's bytes (the received-bytes digest).
std::uint64_t digestBytes(std::uint64_t h, std::span<const std::byte> bytes);

// ---- Configuration ----

/// Ring message size: lassen's eager threshold is 8 KiB.
inline constexpr std::size_t kRingMsgBytes = 1024;

struct Config {
  std::uint64_t seed{1};
  std::size_t nodes{4};
  std::size_t gpus_per_node{4};
  /// Slots per unit: ring window depth, or bulk buffers per rank.
  std::size_t window{4096};
  bool lossy{false};            ///< 12% data+control loss, reliability on
  bool bulk{false};             ///< seeded ddtbench layouts + barriers
  std::size_t warmup_units{1};
  std::size_t units_per_round{1};
  std::size_t rounds{1};
  std::size_t setup_reps{1};
  /// Virtual-time budget per unit before the watchdog trips.
  DurationNs unit_watchdog{sec(1)};

  // Test hooks (never set by the benchmark itself).
  /// Called on every received buffer before it is checked.
  std::function<void(int rank, std::uint64_t seq, std::span<std::byte> msg)>
      tamper;
  /// Rank 0 never sends the message with this sequence number.
  std::optional<std::uint64_t> withhold_seq;

  std::size_t ranks() const { return nodes * gpus_per_node; }
  std::size_t msgsPerUnit() const { return ranks() * window; }
};

/// The benchmark's configuration of a workload, its measured phase sized so
/// it takes about `seconds` on the reference host (README.md).
Config benchConfig(Workload w, std::uint64_t seed, double seconds);

// ---- One set-up: cluster, runtime, buffers, warm-up ----

struct SetupTimes {
  double cluster_s{0};
  double runtime_s{0};
  double buffers_s{0};
  double warmup_s{0};
  double total() const { return cluster_s + runtime_s + buffers_s + warmup_s; }
};

/// One slot of a rank's unit: where it sends from and receives into.
struct Slot {
  gpu::MemSpan send;
  gpu::MemSpan recv;
  ddt::DatatypePtr type;
  std::size_t count{1};
  ddt::LayoutPtr layout;  ///< nullptr for contiguous ring messages
  std::size_t bytes{0};   ///< packed message size
  /// The buffer runs that hold the packed message's first kStampBytes.
  std::vector<ddt::Segment> stamp_runs;
};

struct RankState {
  std::vector<Slot> slots;
  std::uint64_t digest{1469598103934665603ull};
  std::vector<mpi::RequestPtr> recvs;  ///< the unit in flight
  std::vector<std::byte> scratch;  ///< a gathered sampled message
  std::vector<std::byte> expect;   ///< what the sampled message must hold
};

/// What the measured rounds accumulate.
struct Measure {
  bool active{false};  ///< false during warm-up
  bool traced{false};  ///< time the harness's own work in this round
  Tally tally;
  std::vector<std::int64_t> vlat_ns;  ///< the current round's receives
  double payload_bytes{0};
  std::uint64_t waitalls{0};      ///< waitall calls
  std::uint64_t waitall_ns{0};    ///< virtual time spent in them
  std::int64_t own_ns{0};           ///< harness work in traced rounds
};

class Instance {
 public:
  Instance(const Config& cfg, SetupTimes& times);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Run `units` units on every rank (one Runtime::runAll). Returns false
  /// when the watchdog tripped; the unit's unfinished receives are then
  /// counted as missing.
  bool runUnits(std::size_t units, Measure& m);

  const Config& config() const { return cfg_; }
  sim::Engine& engine() { return *eng_; }
  hw::Cluster& cluster() { return *cluster_; }
  mpi::Runtime& runtime() { return *rt_; }
  fault::FaultPlan* faultPlan() { return plan_.get(); }
  std::vector<RankState>& ranks() { return ranks_; }
  /// Digest over every rank's received bytes, position-sensitive per rank.
  std::uint64_t digest() const;

 private:
  sim::Task<void> rankBody(mpi::Proc& p, std::uint64_t first_unit,
                           std::size_t units, Measure& m);
  void allocateSlots();

  const Config& cfg_;
  std::unique_ptr<sim::Engine> eng_;
  std::unique_ptr<fault::FaultPlan> plan_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<mpi::Runtime> rt_;
  std::vector<RankState> ranks_;
  std::uint64_t next_unit_{0};
};

// ---- The measured run ----

struct RunResult {
  Tally tally;
  bool watchdog_tripped{false};
  std::vector<SetupTimes> setups;
  std::vector<double> round_rates;         ///< msgs/s of untraced rounds
  std::vector<double> traced_round_rates;  ///< msgs/s of traced rounds
  std::vector<TimeNs> round_vspans;        ///< virtual span of every round
  /// Measured receives per virtual latency in ns: one entry per distinct
  /// value, so the harness's share of peak RSS does not grow with the run.
  std::map<std::int64_t, std::uint64_t> vlat_counts;
  std::uint64_t msgs{0};
  double payload_bytes{0};
  TimeNs vspan{0};
  TimeNs vend{0};
  std::uint64_t digest{0};
  std::int64_t own_ns{0};
  std::uint64_t traced_msgs{0};
  /// Lifetime counters of the kept set-up at the start and end of the
  /// measured phase; identical across runs at a seed.
  std::map<std::string, std::uint64_t> counters_at_start;
  std::map<std::string, std::uint64_t> counters;
  MetricSet metrics;  ///< end-to-end, counter-based per-layer (and probes)
};

/// Set up `cfg.setup_reps` times (keeping the last), run the measured
/// rounds, read the counters and fill the end-to-end metrics. With `trace`,
/// odd rounds time the harness's own work and the probes run afterwards.
RunResult runBenchmark(const Config& cfg, bool trace);

/// The traced run's probes (probes.cpp): time single public calls on the
/// set-up's own inputs and attribute wall ns/msg to each layer.
void runProbes(Instance& inst, RunResult& res);

}  // namespace perfbench
