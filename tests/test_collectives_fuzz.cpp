// Collective fuzz: randomized worlds (rank counts 2..512), random roots,
// random derived-datatype layouts and v-counts (zero-count blocks included),
// random algorithm/radix picks — every collective checked byte-for-byte
// against a serial host-side shadow model. Reductions are checked against
// the exact pinned-order fold (res = c_0, then res op= c_r for r = 1..n-1),
// so a topology that combined in any other order fails in the last ulp.
// Each world's virtual end time and fabric traffic are frozen too
// (collective_timing.hpp): kSmallWorldGoldens and the large-world tests.
//
// The iterations run under bench::parallelFor; gtest assertions are not
// thread-safe, so workers record failure strings and the main thread
// asserts after the join.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/parallel.hpp"
#include "collective_timing.hpp"
#include "common/rng.hpp"
#include "ddt/layout.hpp"
#include "hw/cluster.hpp"
#include "hw/machines.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "schemes/factory.hpp"

namespace dkf {
namespace {

using mpi::CollAlgo;
using mpi::CollTuning;
using mpi::ReduceOp;
using mpi::ReduceType;
using mpi::VBlock;

// ---- Random datatype / tuning generators --------------------------------

ddt::DatatypePtr randomBase(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return ddt::Datatype::int32();
    case 1:
      return ddt::Datatype::float64();
    default:
      return ddt::Datatype::char_();
  }
}

/// A random non-overlapping derived type over `base` (overlapping unpack
/// targets would make the result order-dependent, which MPI forbids too).
ddt::DatatypePtr randomType(Rng& rng, ddt::DatatypePtr base) {
  switch (rng.below(4)) {
    case 0:
      return ddt::Datatype::contiguous(1 + rng.below(4), base);
    case 1: {
      const std::size_t bl = 1 + rng.below(3);
      return ddt::Datatype::vector(
          1 + rng.below(4), bl, static_cast<std::int64_t>(bl + rng.below(4)),
          base);
    }
    case 2: {
      const std::size_t bl = 1 + rng.below(3);
      std::vector<std::int64_t> disp;
      std::int64_t cur = static_cast<std::int64_t>(rng.below(3));
      const std::size_t k = 1 + rng.below(4);
      for (std::size_t i = 0; i < k; ++i) {
        disp.push_back(cur);
        cur += static_cast<std::int64_t>(bl + rng.below(3));
      }
      return ddt::Datatype::indexedBlock(bl, disp, base);
    }
    default: {
      const std::size_t bl = 1 + rng.below(3);
      const auto stride_bytes =
          static_cast<std::int64_t>((bl + rng.below(3)) * base->size());
      return ddt::Datatype::hvector(1 + rng.below(3), bl, stride_bytes, base);
    }
  }
}

/// Small gappy float64 type for the large-world runs (kept tiny so a
/// 512-rank world's buffers stay in the low kilobytes per rank).
ddt::DatatypePtr tinyType(Rng& rng) {
  if (rng.below(2) == 0) {
    return ddt::Datatype::contiguous(1 + rng.below(2),
                                     ddt::Datatype::float64());
  }
  return ddt::Datatype::vector(2, 1, 2, ddt::Datatype::float64());
}

CollTuning randomTuning(Rng& rng) {
  CollTuning t;
  switch (rng.below(3)) {
    case 0:
      t.algo = CollAlgo::Flat;
      break;
    case 1:
      t.algo = CollAlgo::Ring;
      break;
    default:
      t.algo = CollAlgo::Tree;
      break;
  }
  t.radix = 2 + static_cast<int>(rng.below(3));
  return t;
}

ReduceOp randomOp(Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return ReduceOp::Sum;
    case 1:
      return ReduceOp::Min;
    default:
      return ReduceOp::Max;
  }
}

// ---- Host-side shadow primitives ----------------------------------------

std::vector<std::byte> hostPack(const std::vector<std::byte>& image,
                                const VBlock& b, const ddt::Layout& layout) {
  std::vector<std::byte> out(layout.size());
  std::size_t pos = 0;
  for (const auto& seg : layout.materialize()) {
    std::memcpy(out.data() + pos,
                image.data() + b.offset + static_cast<std::size_t>(seg.offset),
                seg.len);
    pos += seg.len;
  }
  return out;
}

void hostUnpack(std::vector<std::byte>& image, const VBlock& b,
                const ddt::Layout& layout, const std::byte* packed) {
  std::size_t pos = 0;
  for (const auto& seg : layout.materialize()) {
    std::memcpy(image.data() + b.offset + static_cast<std::size_t>(seg.offset),
                packed + pos, seg.len);
    pos += seg.len;
  }
}

template <typename T>
void foldTyped(std::byte* acc, const std::byte* contrib, std::size_t count,
               ReduceOp op) {
  for (std::size_t i = 0; i < count; ++i) {
    T a;
    T c;
    std::memcpy(&a, acc + i * sizeof(T), sizeof(T));
    std::memcpy(&c, contrib + i * sizeof(T), sizeof(T));
    switch (op) {
      case ReduceOp::Sum:
        a = a + c;
        break;
      case ReduceOp::Min:
        a = std::min(a, c);
        break;
      case ReduceOp::Max:
        a = std::max(a, c);
        break;
    }
    std::memcpy(acc + i * sizeof(T), &a, sizeof(T));
  }
}

/// acc op= contrib, element-wise — the exact operations the runtime's
/// combine performs, in the same order, so doubles match bitwise.
void hostFold(std::vector<std::byte>& acc, const std::vector<std::byte>& c,
              ReduceType type, ReduceOp op) {
  if (type == ReduceType::Float64) {
    foldTyped<double>(acc.data(), c.data(), acc.size() / 8, op);
  } else {
    foldTyped<std::int64_t>(acc.data(), c.data(), acc.size() / 8, op);
  }
}

/// Fill `image` with finite elements (raw random bytes could form NaNs,
/// whose payload propagation through min/max is not worth pinning).
void fillFinite(std::vector<std::byte>& image, ReduceType type, Rng& rng) {
  for (std::size_t i = 0; i + 8 <= image.size(); i += 8) {
    if (type == ReduceType::Float64) {
      const double v =
          (static_cast<double>(rng.below(4001)) - 2000.0) * 0.25;
      std::memcpy(image.data() + i, &v, 8);
    } else {
      const std::int64_t v =
          static_cast<std::int64_t>(rng.below(4001)) - 2000;
      std::memcpy(image.data() + i, &v, 8);
    }
  }
}

std::string describeDiff(const gpu::MemSpan& got,
                         const std::vector<std::byte>& want,
                         const char* what, int rank) {
  if (got.size() != want.size()) {
    std::ostringstream os;
    os << what << " rank " << rank << ": size mismatch " << got.size()
       << " vs " << want.size();
    return os.str();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got.bytes[i] != want[i]) {
      std::ostringstream os;
      os << what << " rank " << rank << ": byte " << i << " is 0x" << std::hex
         << static_cast<int>(got.bytes[i]) << ", shadow says 0x"
         << static_cast<int>(want[i]);
      return os.str();
    }
  }
  return {};
}

// ---- One fuzz world ------------------------------------------------------

struct FuzzParams {
  std::uint64_t seed{1};
  int n{0};              ///< 0 = random in [2, 24]
  bool tiny{false};      ///< tiny float64 types + 0/1 v-counts (large worlds)
  bool forced{false};    ///< force `tuning` for every collective
  CollTuning tuning{};
  bool run_a2a{true};    ///< bruck at 512 ranks is the one genuinely slow case
  CollTiming golden{};   ///< frozen end time and fabric traffic of the world
};

/// Builds a world from `fp.seed`, runs alltoallv + allgatherv + ddt
/// allreduce + contiguous allreduce + reduce + bcast, and compares every
/// output buffer against the serial shadow and the world's timing against
/// `fp.golden`. Returns "" on success, a description of the first
/// divergence otherwise. No gtest calls — safe to
/// run from parallelFor workers.
std::string runCollectiveFuzz(const FuzzParams& fp) {
  Rng rng(fp.seed * 0x9E3779B97F4A7C15ull + 1);
  const int n = fp.n > 0 ? fp.n : 2 + static_cast<int>(rng.below(23));
  const auto scheme =
      schemes::kAllSchemes[rng.below(std::size(schemes::kAllSchemes))];
  auto tuning = [&] { return fp.forced ? fp.tuning : randomTuning(rng); };
  const CollTuning t_a2a = tuning();
  const CollTuning t_ag = tuning();
  const CollTuning t_ar = tuning();
  const CollTuning t_arc = tuning();
  const CollTuning t_red = tuning();

  std::ostringstream trace;
  trace << "seed=0x" << std::hex << fp.seed << std::dec << " n=" << n
        << " scheme=" << schemes::schemeName(scheme)
        << " a2a=" << mpi::collAlgoName(t_a2a.algo) << "/" << t_a2a.radix
        << " ag=" << mpi::collAlgoName(t_ag.algo) << "/" << t_ag.radix
        << " ar=" << mpi::collAlgoName(t_ar.algo) << "/" << t_ar.radix;

  auto makeType = [&] {
    return fp.tiny ? tinyType(rng) : randomType(rng, randomBase(rng));
  };
  auto vcount = [&] { return fp.tiny ? rng.below(2) : rng.below(4); };
  // True data span of `c` elements — some derived types (e.g. indexed with
  // a trailing gap) end past count * extent(), and resolveBlock checks the
  // flattened endOffset, so block offsets must stride by it.
  auto extentOf = [](const ddt::DatatypePtr& t, std::size_t c) {
    return c == 0 ? std::size_t{0}
                  : static_cast<std::size_t>(ddt::flatten(t, c).endOffset());
  };

  // Alltoallv: per-pair counts, zero allowed (zero blocks skip the wire).
  const auto type_a2a = makeType();
  std::vector<std::size_t> cnt;
  if (fp.run_a2a) {
    cnt.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (auto& c : cnt) c = vcount();
  }
  auto cnt_at = [&](int s, int d) {
    return cnt[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(d)];
  };

  // Allgatherv: one block per rank, zero allowed.
  const auto type_ag = makeType();
  std::vector<std::size_t> gcnt(static_cast<std::size_t>(n));
  for (auto& c : gcnt) c = vcount();

  // Derived-datatype allreduce (element base fixed by the reduce type).
  const ReduceType elem_ar =
      rng.below(2) == 0 ? ReduceType::Float64 : ReduceType::Int64;
  const auto type_ar =
      fp.tiny ? tinyType(rng)
              : randomType(rng, elem_ar == ReduceType::Float64
                                    ? ddt::Datatype::float64()
                                    : ddt::Datatype::int64());
  const std::size_t count_ar = 1 + rng.below(3);
  const ReduceOp op_ar = randomOp(rng);

  // Contiguous allreduce + rooted reduce + typed bcast, random roots.
  const ReduceType elem_arc =
      rng.below(2) == 0 ? ReduceType::Float64 : ReduceType::Int64;
  const std::size_t count_arc = 1 + rng.below(6);
  const ReduceOp op_arc = randomOp(rng);
  const ReduceType elem_red =
      rng.below(2) == 0 ? ReduceType::Float64 : ReduceType::Int64;
  const std::size_t count_red = 1 + rng.below(6);
  const ReduceOp op_red = randomOp(rng);
  const int red_root = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  const auto type_bc = makeType();
  const std::size_t count_bc = 1 + rng.below(3);
  const int bc_root = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));

  // Blocks and buffer footprints (host side, identical on every rank).
  std::vector<std::vector<VBlock>> sblocks(static_cast<std::size_t>(n));
  std::vector<std::vector<VBlock>> rblocks(static_cast<std::size_t>(n));
  std::vector<std::size_t> ssize(static_cast<std::size_t>(n), 1);
  std::vector<std::size_t> rsize(static_cast<std::size_t>(n), 1);
  if (fp.run_a2a) {
    for (int s = 0; s < n; ++s) {
      std::size_t off = 0;
      for (int d = 0; d < n; ++d) {
        sblocks[static_cast<std::size_t>(s)].push_back(
            {type_a2a, cnt_at(s, d), off});
        off += extentOf(type_a2a, cnt_at(s, d));
      }
      ssize[static_cast<std::size_t>(s)] = std::max<std::size_t>(off, 1);
    }
    for (int d = 0; d < n; ++d) {
      std::size_t off = 0;
      for (int s = 0; s < n; ++s) {
        rblocks[static_cast<std::size_t>(d)].push_back(
            {type_a2a, cnt_at(s, d), off});
        off += extentOf(type_a2a, cnt_at(s, d));
      }
      rsize[static_cast<std::size_t>(d)] = std::max<std::size_t>(off, 1);
    }
  }
  std::vector<VBlock> gblocks;
  std::size_t ag_total = 0;
  for (int r = 0; r < n; ++r) {
    gblocks.push_back({type_ag, gcnt[static_cast<std::size_t>(r)], ag_total});
    ag_total += extentOf(type_ag, gcnt[static_cast<std::size_t>(r)]);
  }
  ag_total = std::max<std::size_t>(ag_total, 1);
  const std::size_t ar_region = extentOf(type_ar, count_ar);
  const std::size_t arc_region = count_arc * 8;
  const std::size_t red_region = count_red * 8;
  const std::size_t bc_region = extentOf(type_bc, count_bc);

  sim::Engine eng;
  hw::MachineSpec machine = hw::lassen();
  machine.node.gpus_per_node = 1;
  const std::size_t max_pair =
      *std::max_element(ssize.begin(), ssize.end()) +
      *std::max_element(rsize.begin(), rsize.end());
  const std::size_t per_rank = max_pair + 2 * ag_total + ar_region +
                               arc_region + red_region + bc_region;
  machine.node.gpu.arena_bytes =
      per_rank * 3 + (n > 64 ? (256u << 10) : (1u << 20));
  hw::Cluster cluster(eng, machine, n);
  mpi::RuntimeConfig cfg;
  cfg.scheme = scheme;
  mpi::Runtime rt(cluster, cfg);

  struct RankState {
    gpu::MemSpan a2a_send, a2a_recv, ag_send, ag_recv;
    gpu::MemSpan ar_buf, arc_buf, red_buf, bc_buf;
    std::vector<std::byte> h_a2a_send, h_ag_send;
    std::vector<std::byte> h_ar, h_arc, h_red, h_bc;
  };
  std::vector<RankState> st(static_cast<std::size_t>(n));
  for (int me = 0; me < n; ++me) {
    auto& p = rt.proc(me);
    auto& s = st[static_cast<std::size_t>(me)];
    if (fp.run_a2a) {
      s.a2a_send = p.allocDevice(ssize[static_cast<std::size_t>(me)]);
      s.a2a_recv = p.allocDevice(rsize[static_cast<std::size_t>(me)]);
    }
    s.ag_send = p.allocDevice(ag_total);
    s.ag_recv = p.allocDevice(ag_total);
    s.ar_buf = p.allocDevice(std::max<std::size_t>(ar_region, 8));
    s.arc_buf = p.allocDevice(arc_region);
    s.red_buf = p.allocDevice(red_region);
    s.bc_buf = p.allocDevice(std::max<std::size_t>(bc_region, 1));

    Rng fill(fp.seed * 0x100000001b3ull + static_cast<std::uint64_t>(me) + 7);
    auto randomImage = [&](std::size_t bytes) {
      std::vector<std::byte> img(bytes);
      for (auto& b : img) b = static_cast<std::byte>(fill.below(256));
      return img;
    };
    if (fp.run_a2a) {
      s.h_a2a_send = randomImage(s.a2a_send.size());
      std::memcpy(s.a2a_send.bytes.data(), s.h_a2a_send.data(),
                  s.h_a2a_send.size());
      std::memset(s.a2a_recv.bytes.data(), 0xAA, s.a2a_recv.size());
    }
    s.h_ag_send = randomImage(ag_total);
    std::memcpy(s.ag_send.bytes.data(), s.h_ag_send.data(), ag_total);
    std::memset(s.ag_recv.bytes.data(), 0xAA, ag_total);

    s.h_ar.resize(s.ar_buf.size());
    fillFinite(s.h_ar, elem_ar, fill);
    std::memcpy(s.ar_buf.bytes.data(), s.h_ar.data(), s.h_ar.size());
    s.h_arc.resize(arc_region);
    fillFinite(s.h_arc, elem_arc, fill);
    std::memcpy(s.arc_buf.bytes.data(), s.h_arc.data(), arc_region);
    s.h_red.resize(red_region);
    fillFinite(s.h_red, elem_red, fill);
    std::memcpy(s.red_buf.bytes.data(), s.h_red.data(), red_region);
    s.h_bc = randomImage(s.bc_buf.size());
    std::memcpy(s.bc_buf.bytes.data(), s.h_bc.data(), s.h_bc.size());
  }

  auto body = [&](mpi::Proc& p) -> sim::Task<void> {
    auto& s = st[static_cast<std::size_t>(p.rank())];
    if (fp.run_a2a) {
      co_await mpi::alltoallv(p, s.a2a_send, s.a2a_recv,
                              sblocks[static_cast<std::size_t>(p.rank())],
                              rblocks[static_cast<std::size_t>(p.rank())],
                              t_a2a);
    }
    co_await mpi::allgatherv(p, s.ag_send, s.ag_recv, gblocks, t_ag);
    co_await mpi::allreduceDdt(p, s.ar_buf, type_ar, count_ar, elem_ar,
                               op_ar, t_ar);
    co_await mpi::allreduce(p, s.arc_buf, count_arc, elem_arc, op_arc, t_arc);
    co_await mpi::reduce(p, s.red_buf, count_red, elem_red, op_red, red_root,
                         t_red);
    co_await mpi::bcast(p, s.bc_buf, type_bc, count_bc, bc_root);
  };
  rt.runAll(body);
  if (eng.unfinishedTasks() != 0) {
    return "deadlock (" + std::to_string(eng.unfinishedTasks()) +
           " unfinished tasks): " + trace.str();
  }

  // ---- Shadow model + comparison ----
  auto layoutOf = [&](const ddt::DatatypePtr& t, std::size_t c) {
    return ddt::flatten(t, c);
  };

  if (fp.run_a2a) {
    for (int d = 0; d < n; ++d) {
      std::vector<std::byte> expect(rsize[static_cast<std::size_t>(d)]);
      std::memset(expect.data(), 0xAA, expect.size());
      for (int s = 0; s < n; ++s) {
        const std::size_t c = cnt_at(s, d);
        if (c == 0) continue;
        const auto layout = layoutOf(type_a2a, c);
        const auto packed = hostPack(
            st[static_cast<std::size_t>(s)].h_a2a_send,
            sblocks[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)],
            layout);
        hostUnpack(expect,
                   rblocks[static_cast<std::size_t>(d)]
                          [static_cast<std::size_t>(s)],
                   layout, packed.data());
      }
      const auto err =
          describeDiff(st[static_cast<std::size_t>(d)].a2a_recv, expect,
                       "alltoallv", d);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  {
    std::vector<std::byte> expect(ag_total);
    std::memset(expect.data(), 0xAA, expect.size());
    for (int r = 0; r < n; ++r) {
      const std::size_t c = gcnt[static_cast<std::size_t>(r)];
      if (c == 0) continue;
      const auto layout = layoutOf(type_ag, c);
      const auto packed =
          hostPack(st[static_cast<std::size_t>(r)].h_ag_send,
                   gblocks[static_cast<std::size_t>(r)], layout);
      hostUnpack(expect, gblocks[static_cast<std::size_t>(r)], layout,
                 packed.data());
    }
    for (int r = 0; r < n; ++r) {
      const auto err = describeDiff(st[static_cast<std::size_t>(r)].ag_recv,
                                    expect, "allgatherv", r);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  {
    const auto layout = layoutOf(type_ar, count_ar);
    const VBlock whole{type_ar, count_ar, 0};
    auto acc = hostPack(st[0].h_ar, whole, layout);
    for (int r = 1; r < n; ++r) {
      const auto contrib =
          hostPack(st[static_cast<std::size_t>(r)].h_ar, whole, layout);
      hostFold(acc, contrib, elem_ar, op_ar);
    }
    for (int r = 0; r < n; ++r) {
      auto expect = st[static_cast<std::size_t>(r)].h_ar;
      hostUnpack(expect, whole, layout, acc.data());
      const auto err = describeDiff(st[static_cast<std::size_t>(r)].ar_buf,
                                    expect, "allreduceDdt", r);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  {
    auto acc = st[0].h_arc;
    for (int r = 1; r < n; ++r) {
      hostFold(acc, st[static_cast<std::size_t>(r)].h_arc, elem_arc, op_arc);
    }
    for (int r = 0; r < n; ++r) {
      const auto err = describeDiff(st[static_cast<std::size_t>(r)].arc_buf,
                                    acc, "allreduce", r);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  {
    auto acc = st[0].h_red;
    for (int r = 1; r < n; ++r) {
      hostFold(acc, st[static_cast<std::size_t>(r)].h_red, elem_red, op_red);
    }
    for (int r = 0; r < n; ++r) {
      // Root gets the fold; every other rank's buffer must be untouched.
      const auto& expect =
          r == red_root ? acc : st[static_cast<std::size_t>(r)].h_red;
      const auto err = describeDiff(st[static_cast<std::size_t>(r)].red_buf,
                                    expect, "reduce", r);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  {
    const auto layout = layoutOf(type_bc, count_bc);
    const VBlock whole{type_bc, count_bc, 0};
    const auto root_packed =
        hostPack(st[static_cast<std::size_t>(bc_root)].h_bc, whole, layout);
    for (int r = 0; r < n; ++r) {
      auto expect = st[static_cast<std::size_t>(r)].h_bc;
      hostUnpack(expect, whole, layout, root_packed.data());
      const auto err = describeDiff(st[static_cast<std::size_t>(r)].bc_buf,
                                    expect, "bcast", r);
      if (!err.empty()) return err + " | " + trace.str();
    }
  }

  const CollTiming actual = collTiming(eng, cluster);
  if (actual != fp.golden) {
    std::ostringstream os;
    os << "timing " << actual << ", golden " << fp.golden << " | "
       << trace.str();
    return os.str();
  }
  return {};
}

// ---- Tests ---------------------------------------------------------------

/// Timing of RandomSmallWorlds' world i (seed 0xC0FFEE + i * 977).
constexpr CollTiming kSmallWorldGoldens[] = {
    {94614, 90, 2757}, {248396, 117, 4330}, {265735, 410, 25968},
    {20304, 22, 618}, {93150, 12, 718}, {242400, 346, 15912},
    {644750, 580, 30960}, {292902, 1359, 65608}, {399696, 2324, 146702},
    {487450, 1228, 76448}, {357850, 1229, 38888}, {664400, 1036, 43508},
    {825050, 1005, 93820}, {118573, 930, 16376}, {157991, 174, 6728},
    {476500, 1108, 74992}, {92374, 844, 40968}, {687752, 601, 64400},
    {16345, 10, 265}, {437400, 342, 8520}, {55322, 449, 8489},
    {729400, 912, 25164}, {211300, 44, 972}, {418266, 1471, 81872},
};

TEST(CollectiveFuzz, RandomSmallWorlds) {
  constexpr std::size_t kIters = std::size(kSmallWorldGoldens);
  std::vector<std::string> errs(kIters);
  bench::parallelFor(kIters, [&](std::size_t i) {
    FuzzParams fp;
    fp.seed = 0xC0FFEE + i * 977;
    fp.golden = kSmallWorldGoldens[i];
    errs[i] = runCollectiveFuzz(fp);
  });
  for (const auto& err : errs) {
    EXPECT_TRUE(err.empty()) << err;
  }
}

TEST(CollectiveFuzz, LargeWorldRing129) {
  FuzzParams fp;
  fp.seed = 0x129;
  fp.n = 129;
  fp.tiny = true;
  fp.forced = true;
  fp.tuning = {CollAlgo::Ring, 2};
  fp.golden = {1292452, 66510, 1330400};
  const auto err = runCollectiveFuzz(fp);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(CollectiveFuzz, LargeWorldTree257Radix3) {
  FuzzParams fp;
  fp.seed = 0x257;
  fp.n = 257;
  fp.tiny = true;
  fp.forced = true;
  fp.tuning = {CollAlgo::Tree, 3};
  fp.golden = {383837, 7611, 4098264};
  const auto err = runCollectiveFuzz(fp);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(CollectiveFuzz, LargeWorldTree512) {
  FuzzParams fp;
  fp.seed = 0x512;
  fp.n = 512;
  fp.tiny = true;
  fp.forced = true;
  fp.tuning = {CollAlgo::Tree, 2};
  fp.run_a2a = false;  // bruck at 512 is covered at 257; keep the test fast
  fp.golden = {3214100, 3942, 2552616};
  const auto err = runCollectiveFuzz(fp);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(CollectiveFuzz, LargeWorldFlat64) {
  // Flat at a mid-size world: 63 simultaneous peers per rank.
  FuzzParams fp;
  fp.seed = 0x64;
  fp.n = 64;
  fp.tiny = true;
  fp.forced = true;
  fp.tuning = {CollAlgo::Flat, 2};
  fp.golden = {531550, 12495, 282408};
  const auto err = runCollectiveFuzz(fp);
  EXPECT_TRUE(err.empty()) << err;
}

}  // namespace
}  // namespace dkf
