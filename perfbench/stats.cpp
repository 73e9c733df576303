#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool tailReportable(std::size_t n, double p) {
  // Integer form of n * (1 - p) >= 10, exact for the percentiles we use.
  const auto beyond = static_cast<double>(n) -
                      std::ceil(p * static_cast<double>(n) - 1e-9);
  return beyond >= 10.0;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const std::vector<MetricDecl>& metricTable() {
  using B = Better;
  constexpr Scope E = Scope::EndToEnd;
  constexpr Scope L = Scope::PerLayer;
  static const std::vector<MetricDecl> table = {
      {"msgs_per_s", "msg/s", B::Higher, E},
      {"setup_s", "s", B::Lower, E},
      {"peak_rss_MiB", "MiB", B::Lower, E},
      {"vlat_p50_us", "us", B::Lower, E},
      {"vlat_p99_us", "us", B::Lower, E},
      {"vgoodput_GBps", "GB/s", B::Higher, E},

      {"setup.cluster_s", "s", B::Lower, L},
      {"setup.runtime_s", "s", B::Lower, L},
      {"setup.buffers_s", "s", B::Lower, L},
      {"setup.warmup_s", "s", B::Lower, L},
      {"vlat.samples", "count", B::Higher, L},
      {"sim.events_per_msg", "events/msg", B::Lower, L},
      {"sim.peak_pending", "count", B::Lower, L},
      {"sim.dispatch_ns", "ns", B::Lower, L},
      {"net.armed_events_per_delivery", "events/delivery", B::Lower, L},
      {"net.pool_hit_rate", "ratio", B::Higher, L},
      {"net.pool_peak_live_MiB", "MiB", B::Lower, L},
      {"net.capture_ns", "ns", B::Lower, L},
      {"net.wire_bytes_per_payload_byte", "ratio", B::Lower, L},
      {"mpi.post_ns", "ns", B::Lower, L},
      {"mpi.match_ns", "ns", B::Lower, L},
      {"mpi.pass_ns", "ns", B::Lower, L},
      {"mpi.retrans_per_msg", "count/msg", B::Lower, L},
      {"mpi.acks_per_msg", "count/msg", B::Lower, L},
      {"mpi.dups_per_msg", "count/msg", B::Lower, L},
      {"fault.drops_per_msg", "count/msg", B::Lower, L},
      {"ddt.pack_ns.sparse", "ns", B::Lower, L},
      {"ddt.pack_ns.dense", "ns", B::Lower, L},
      {"ddt.layout_hit_rate", "ratio", B::Higher, L},
      {"core.plan_hit_rate", "ratio", B::Higher, L},
      {"core.plan_find_ns", "ns", B::Lower, L},
      {"core.requests_per_fused_kernel", "count", B::Higher, L},
      {"gpu.kernels_per_msg", "count/msg", B::Lower, L},
      {"gpu.copies_per_msg", "count/msg", B::Lower, L},
      {"schemes.fallbacks_per_msg", "count/msg", B::Lower, L},
      {"schemes.vpack_us", "us", B::Lower, L},
      {"schemes.vlaunch_us", "us", B::Lower, L},
      {"schemes.vsched_us", "us", B::Lower, L},
      {"schemes.vsync_us", "us", B::Lower, L},
      {"schemes.vcomm_us", "us", B::Lower, L},
      {"bench.own_ns_per_msg", "ns/msg", B::Lower, L},
      {"attr.sim_ns_per_msg", "ns/msg", B::Lower, L},
      {"attr.net_ns_per_msg", "ns/msg", B::Lower, L},
      {"attr.mpi_ns_per_msg", "ns/msg", B::Lower, L},
      {"attr.ddt_ns_per_msg", "ns/msg", B::Lower, L},
      {"attr.core_ns_per_msg", "ns/msg", B::Lower, L},
      {"wall.ns_per_msg", "ns/msg", B::Lower, L},
      {"wall.attributed_share", "ratio", B::Higher, L},
      {"trace.overhead_share", "ratio", B::Lower, L},
  };
  return table;
}

const MetricDecl* findMetric(const std::string& name) {
  for (const MetricDecl& d : metricTable()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

void MetricSet::set(const std::string& name, double value) {
  if (findMetric(name) == nullptr) {
    throw std::logic_error("undeclared metric " + name);
  }
  values_[name] = value;
}

double MetricSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric not set: " + name);
  return it->second;
}

std::string MetricSet::json(Scope scope) const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricDecl& d : metricTable()) {
    if (d.scope != scope) continue;
    out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << fmtDouble(get(d.name)) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string fmtDouble(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
