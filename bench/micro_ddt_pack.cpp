// Host-performance micro-benchmark for the DDT engine primitives on the
// critical path of every scheme: datatype flattening, layout-cache lookup,
// and the reference pack/unpack kernels.
//
// The count-compressed layout engine claims (a) flatten(type, count) costs
// O(blocks-per-element) regardless of count where the seed materialized
// count x blocks segments, (b) a layout occupies O(blocks-per-element)
// memory, and (c) a count sweep over one type costs ONE flatten through the
// LayoutCache (hit rate >= 99%). Each claim is measured against a *naive
// shadow* — the seed algorithm reimplemented locally (enumerate all
// count x blocks runs, globally sort + coalesce, pack per segment) — and
// the sweep is written as a record to BENCH_ddt_pack.json (or the path
// given as argv[1]). Every pack and unpack row also compares its bytes with
// the shadow's; the exit code is non-zero when any row differs.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/record.hpp"
#include "bench_util/table.hpp"
#include "common/rng.hpp"
#include "ddt/datatype.hpp"
#include "ddt/layout.hpp"
#include "ddt/pack.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dkf;

/// The seed's flatten: materialize every run of every element, then sort
/// and coalesce the full list. O(count x blocks) time and memory.
std::vector<ddt::Segment> naiveFlatten(const ddt::DatatypePtr& type,
                                       std::size_t count) {
  std::vector<ddt::Segment> segs;
  type->forEachBlock(count, [&](std::int64_t offset, std::size_t len) {
    segs.push_back(ddt::Segment{offset, len});
  });
  std::sort(segs.begin(), segs.end(),
            [](const ddt::Segment& a, const ddt::Segment& b) {
              return a.offset < b.offset;
            });
  std::vector<ddt::Segment> merged;
  merged.reserve(segs.size());
  for (const ddt::Segment& s : segs) {
    if (s.len == 0) continue;
    if (!merged.empty() &&
        merged.back().offset + static_cast<std::int64_t>(merged.back().len) ==
            s.offset) {
      merged.back().len += s.len;
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

/// Timed repetitions of every measured call; the tables print the median.
constexpr std::size_t kReps = 9;

volatile std::size_t g_sink = 0;

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Record record(
      "micro_ddt_pack",
      "flatten cost and layout memory are O(blocks-per-element) regardless "
      "of count (seed was linear in count x blocks); a count sweep costs one "
      "flatten through the layout cache; compiled pack/unpack bytes equal "
      "the naive shadow's");
  record.config()["reps"] = kReps;
  bench::Json& det = record.deterministic();
  bench::Json& wall = record.wall();

  bench::banner(std::cout,
                "Micro — count-compressed flatten vs naive segment "
                "materialization (cost and memory must be count-independent)");

  struct SizedWorkload {
    std::size_t dim;
    workloads::Workload wl;
  };
  const std::vector<SizedWorkload> types = {
      {32, workloads::specfem3dOc(32)}, {16, workloads::specfem3dCm(16)},
      {32, workloads::milcZdown(32)}, {32, workloads::nasMgFace(32)}};

  bench::Table ftable({"Workload", "Count", "Blocks", "Flatten ns",
                       "Naive ns", "Compressed B", "Naive B", "Groups"});
  for (const auto& [dim, wl] : types) {
    for (const std::size_t count : {1u, 8u, 64u, 256u, 1024u}) {
      const bench::Spread flat_ns = bench::timeNs([&] {
        const auto l = ddt::flatten(wl.type, count);
        g_sink = g_sink + l.blockCount();
      }, kReps);
      const bench::Spread naive_ns = bench::timeNs([&] {
        const auto segs = naiveFlatten(wl.type, count);
        g_sink = g_sink + segs.size();
      }, kReps);
      const auto layout = ddt::flatten(wl.type, count);
      const std::size_t naive_bytes =
          layout.blockCount() * sizeof(ddt::Segment);
      ftable.addRow({wl.name, std::to_string(count),
                     std::to_string(layout.blockCount()),
                     fmt1(flat_ns.median), fmt1(naive_ns.median),
                     std::to_string(layout.compressedBytes()),
                     std::to_string(naive_bytes),
                     std::to_string(layout.groupCount())});
      det["flatten_sweep"].push(bench::Json::object(
          {{"workload", wl.name},
           {"count", count},
           {"blocks", layout.blockCount()},
           {"compressed_bytes", layout.compressedBytes()},
           {"naive_bytes", naive_bytes},
           {"groups", layout.groupCount()}}));
      wall["flatten_sweep"][wl.name + " count " + std::to_string(count)] =
          bench::Json::object(
              {{"flatten_ns", flat_ns}, {"naive_flatten_ns", naive_ns}});
    }
  }
  ftable.print(std::cout);
  std::cout << "\nShape: compressed flatten ns and bytes stay ~flat as count "
               "grows (the body repetition is symbolic); the naive path "
               "grows linearly in count x blocks.\n";

  // ---- Pack/unpack throughput: compiled op list vs per-segment shadow ----
  bench::banner(std::cout,
                "Micro — packCpu/unpackCpu over the compiled op list vs "
                "naive per-segment copy (ns per payload byte, bytes "
                "checked against the shadow)");
  // The sweep above at counts 1/4/16, then each paper layout at
  // bulk_mixed's band-center dims, count 1.
  struct PackCase {
    workloads::Workload wl;
    std::size_t dim;
    std::size_t count;
  };
  std::vector<PackCase> cases;
  for (const auto& [dim, wl] : types) {
    for (const std::size_t count : {1u, 4u, 16u}) {
      cases.push_back({wl, dim, count});
    }
  }
  for (const std::size_t dim : {22u, 34u, 46u, 58u}) {
    for (const auto& wl : workloads::paperWorkloads(dim)) {
      cases.push_back({wl, dim, 1});
    }
  }

  std::size_t mismatches = 0;
  bench::Table ptable({"Workload", "Dim", "Count", "Payload B", "Pack ns/B",
                       "Naive ns/B", "Unpack ns/B", "Naive unpack ns/B",
                       "Bytes"});
  for (const PackCase& c : cases) {
    const auto layout = ddt::flatten(c.wl.type, c.count);
    if (layout.minOffset() < 0 || layout.size() == 0) continue;
    const auto span = static_cast<std::size_t>(layout.endOffset());
    std::vector<std::byte> origin(span);
    Rng rng(7);
    for (auto& b : origin) b = static_cast<std::byte>(rng.below(256));
    std::vector<std::byte> packed(layout.size());
    std::vector<std::byte> naive_packed(layout.size());
    std::vector<std::byte> unpacked(span, std::byte{0});
    std::vector<std::byte> naive_unpacked(span, std::byte{0});

    const bench::Spread pack_ns = bench::timeNs([&] {
      g_sink = g_sink + ddt::packCpu(layout, origin, packed);
    }, kReps);
    const auto segs = naiveFlatten(c.wl.type, c.count);
    const bench::Spread naive_ns = bench::timeNs([&] {
      std::size_t out = 0;
      for (const ddt::Segment& s : segs) {
        std::copy_n(origin.begin() + s.offset, s.len,
                    naive_packed.begin() + out);
        out += s.len;
      }
      g_sink = g_sink + out;
    }, kReps);
    const bench::Spread unpack_ns = bench::timeNs([&] {
      g_sink = g_sink + ddt::unpackCpu(layout, packed, unpacked);
    }, kReps);
    const bench::Spread naive_unpack_ns = bench::timeNs([&] {
      std::size_t in = 0;
      for (const ddt::Segment& s : segs) {
        std::copy_n(naive_packed.begin() + in, s.len,
                    naive_unpacked.begin() + s.offset);
        in += s.len;
      }
      g_sink = g_sink + in;
    }, kReps);
    const bool match = packed == naive_packed && unpacked == naive_unpacked;
    if (!match) {
      ++mismatches;
      std::cerr << "error: " << c.wl.name << " dim " << c.dim << " count "
                << c.count << ": pack/unpack bytes differ from the shadow\n";
    }
    const auto bytes = static_cast<double>(layout.size());
    const bench::Spread pack = pack_ns.per(bytes);
    const bench::Spread naive = naive_ns.per(bytes);
    const bench::Spread unpack = unpack_ns.per(bytes);
    const bench::Spread naive_unpack = naive_unpack_ns.per(bytes);
    ptable.addRow({c.wl.name, std::to_string(c.dim), std::to_string(c.count),
                   std::to_string(layout.size()), fmt1(pack.median * 1000),
                   fmt1(naive.median * 1000), fmt1(unpack.median * 1000),
                   fmt1(naive_unpack.median * 1000),
                   match ? "ok" : "MISMATCH"});
    det["pack_sweep"].push(bench::Json::object(
        {{"workload", c.wl.name},
         {"dim", c.dim},
         {"count", c.count},
         {"payload_bytes", layout.size()},
         {"bytes_match", match}}));
    wall["pack_sweep"][c.wl.name + " dim " + std::to_string(c.dim) +
                       " count " + std::to_string(c.count)] =
        bench::Json::object({{"pack_ns_per_byte", pack},
                             {"naive_pack_ns_per_byte", naive},
                             {"unpack_ns_per_byte", unpack},
                             {"naive_unpack_ns_per_byte", naive_unpack}});
  }
  ptable.print(std::cout);
  std::cout << "\n(ns/B columns are scaled x1000: picoseconds per byte.)\n";

  // ---- Layout-cache count sweep: one flatten total ----
  bench::banner(std::cout,
                "Micro — LayoutCache count sweep (one flatten per type, "
                "hit rate >= 99%)");
  ddt::LayoutCache cache;
  const auto sweep_wl = workloads::milcZdown(32);
  constexpr std::size_t kSweepCounts = 512;
  for (std::size_t count = 1; count <= kSweepCounts; ++count) {
    g_sink = g_sink + cache.get(sweep_wl.type, count)->blockCount();
  }
  const auto& cc = cache.counters();
  const double lookups = static_cast<double>(cc.hits + cc.misses);
  const double hit_rate = static_cast<double>(cc.hits) / lookups;
  std::cout << "lookups " << static_cast<std::size_t>(lookups) << ", misses "
            << cc.misses << " (element flattens), hits " << cc.hits
            << ", derivations " << cc.derivations << ", hit rate "
            << fmt1(hit_rate * 100.0) << "%, resident "
            << cache.residentBytes() << " B\n";

  det["cache_sweep"] = bench::Json::object(
      {{"counts", kSweepCounts},
       {"lookups", static_cast<std::size_t>(lookups)},
       {"misses", cc.misses},
       {"hits", cc.hits},
       {"derivations", cc.derivations},
       {"hit_rate", hit_rate},
       {"resident_bytes", cache.residentBytes()}});
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ddt_pack.json";
  if (!record.write(json_path)) return 1;
  std::cout << "\nrecord written to " << json_path << "\n";
  if (mismatches != 0) {
    std::cerr << "error: " << mismatches
              << " pack/unpack rows differ from the shadow\n";
    return 1;
  }
  return 0;
}
