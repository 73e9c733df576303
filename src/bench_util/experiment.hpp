// Shared experiment harness for the paper's figures.
//
// `runBulkExchange` reproduces the paper's measurement loop (§V-A): two
// ranks on different nodes (or the same node for DirectIPC studies) perform
// `n_ops` back-to-back non-blocking exchanges of one workload datatype per
// iteration, separated by barriers; the reported latency is the mean over
// `iterations` timed iterations after `warmup` discarded ones (the paper
// uses 500 + 50; benches default lower where the sweep is wide, which
// changes nothing in virtual time — the simulation is deterministic).
#pragma once

#include <cstddef>
#include <string>

#include "common/stats.hpp"
#include "fault/fault_plan.hpp"
#include "hw/spec.hpp"
#include "mpi/runtime.hpp"
#include "schemes/factory.hpp"
#include "workloads/workloads.hpp"

namespace dkf::bench {

struct ExchangeConfig {
  hw::MachineSpec machine;
  schemes::Scheme scheme{schemes::Scheme::Proposed};
  std::size_t tuned_threshold{0};  ///< ProposedTuned override (bytes)
  std::size_t list_capacity{0};    ///< ProposedTuned request-list override
  std::size_t max_requests_per_kernel{0};  ///< ProposedTuned batch cap
  bool enable_direct_ipc{true};
  workloads::Workload workload;
  int n_ops{32};         ///< concurrent Isend/Irecv pairs per rank
  int iterations{100};   ///< timed iterations
  int warmup{10};        ///< discarded iterations
  bool intra_node{false};  ///< place both ranks on one node (DirectIPC)
  mpi::Protocol rendezvous{mpi::Protocol::RGet};

  // ---- Fault injection (off by default: identical to the seed harness) --
  bool inject_faults{false};      ///< attach `faults` as a FaultPlan
  fault::FaultSpec faults{};      ///< what to inject (when enabled)
  mpi::ReliabilityConfig reliability{};  ///< retransmission layer
  DurationNs watchdog{0};  ///< >0: trip the sim watchdog past this deadline
};

struct ExchangeResult {
  SampleSet latency_us;        ///< per-iteration end-to-end latency
  TimeBreakdown breakdown;     ///< rank-0 engine costs over timed iterations
  DurationNs total_elapsed{0};  ///< timed virtual time on rank 0
  std::size_t fused_kernels{0};
  std::size_t fallbacks{0};

  /// Injected faults that actually fired (zeroes without a FaultPlan).
  fault::FaultCounters fault_counters{};
  /// Reliable-transport work summed over both ranks.
  mpi::TransportCounters transport{};
  /// Compiled-plan cache traffic summed over both ranks: repeat-layout
  /// exchanges should show misses bounded by distinct (op, structure)
  /// pairs and everything else hitting.
  core::PlanCacheCounters plan_cache{};
  /// Final virtual time of the whole run (determinism/replay checks).
  TimeNs end_time{0};

  double meanLatencyUs() const { return latency_us.mean(); }
  /// Residual "observed communication" time per Fig. 11: elapsed minus the
  /// CPU-attributed categories.
  DurationNs observedCommunication() const;
};

ExchangeResult runBulkExchange(const ExchangeConfig& cfg);

}  // namespace dkf::bench
