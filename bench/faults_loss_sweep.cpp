// Fault-injection sweep: mean exchange latency per scheme as the packet
// loss rate rises from 0 to 20%, with the reliable-transport layer enabled
// (EXPERIMENTS.md loss-sweep appendix). Every cell is a full 2-rank bulk
// exchange of the dense MILC workload under a seeded FaultPlan; the rows
// also report how hard the reliability layer had to work (drops observed,
// retransmissions issued). Cells are independent simulations, so they fan
// out over the parallel sweep pool and merge in index order — the table
// and record are byte-identical to a serial run. Writes the record to
// BENCH_faults.json (or the path given as argv[1]); a failed write exits
// non-zero.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/experiment.hpp"
#include "bench_util/parallel.hpp"
#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "hw/machines.hpp"

int main(int argc, char** argv) {
  using namespace dkf;

  const std::vector<double> loss_rates = {0.0, 0.02, 0.05, 0.1, 0.2};

  bench::banner(std::cout,
                "Fault sweep — latency vs packet loss, retransmission on",
                "milc_zdown dim=64, 16 buffers; data+control loss at the "
                "given rate, per-run seeded FaultPlan");

  const std::vector<schemes::Scheme> scheme_list(std::begin(schemes::kAllSchemes),
                                                 std::end(schemes::kAllSchemes));
  const std::size_t n_cells = scheme_list.size() * loss_rates.size();
  std::vector<bench::ExchangeResult> results(n_cells);
  bench::parallelFor(n_cells, [&](std::size_t cell) {
    const schemes::Scheme scheme = scheme_list[cell / loss_rates.size()];
    const double loss = loss_rates[cell % loss_rates.size()];
    // The workload is built inside the cell: datatype trees lazily cache
    // their description, which must not be shared across pool threads.
    const auto wl = workloads::milcZdown(64);
    bench::ExchangeConfig cfg;
    cfg.machine = hw::lassen();
    cfg.scheme = scheme;
    cfg.workload = wl;
    cfg.n_ops = 16;
    cfg.iterations = 10;
    cfg.warmup = 2;
    cfg.reliability.enabled = true;
    cfg.reliability.base_timeout = us(40);
    cfg.reliability.max_timeout = us(2000);
    cfg.reliability.max_retries = 60;
    if (loss > 0.0) {
      cfg.inject_faults = true;
      cfg.faults.seed = 0x5EED + static_cast<std::uint64_t>(loss * 1000);
      cfg.faults.data_loss = loss;
      cfg.faults.control_loss = loss;
      cfg.watchdog = sec(5);
    }
    results[cell] = bench::runBulkExchange(cfg);
  });

  const std::string json_path = argc > 1 ? argv[1] : "BENCH_faults.json";
  bench::Record record(
      "faults_loss_sweep",
      "with retransmission on, every scheme completes every cell up to 20% "
      "data+control loss; the loss-free rows price the reliability layer "
      "itself");
  record.config() = bench::Json::object(
      {{"workload", workloads::milcZdown(64).name},
       {"loss_rates", loss_rates}});
  bench::Json& rows = record.deterministic()["rows"];

  bench::Table table({"scheme", "loss", "mean us", "data drops",
                      "ctrl drops", "retrans", "dup ignored"});
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const schemes::Scheme scheme = scheme_list[cell / loss_rates.size()];
    const double loss = loss_rates[cell % loss_rates.size()];
    const bench::ExchangeResult& r = results[cell];
    table.addRow({std::string(schemes::schemeName(scheme)),
                  bench::cell(loss), bench::cellUs(r.meanLatencyUs()),
                  std::to_string(r.fault_counters.data_drops),
                  std::to_string(r.fault_counters.control_drops),
                  std::to_string(r.transport.retransmissions),
                  std::to_string(r.transport.duplicates_ignored)});
    rows.push(bench::Json::object(
        {{"scheme", schemes::schemeName(scheme)},
         {"loss", loss},
         {"mean_us", r.meanLatencyUs()},
         {"data_drops", r.fault_counters.data_drops},
         {"control_drops", r.fault_counters.control_drops},
         {"retransmissions", r.transport.retransmissions},
         {"duplicates_ignored", r.transport.duplicates_ignored},
         {"end_time_ns", r.end_time}}));
  }
  table.print(std::cout);
  std::cout << "\nShape: the loss-free rows price the reliability layer "
               "itself (eager ACK round-trips; rendezvous is unchanged); "
               "latency rises with loss as retransmission timeouts are "
               "paid, but every cell completes and no scheme hangs.\n"
               "  JSON -> "
            << json_path << "\n";
  return record.write(json_path) ? 0 : 1;
}
