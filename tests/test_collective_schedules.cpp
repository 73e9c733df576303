// Every collective schedule checked without a simulation. For each
// generator in mpi/schedule.hpp, every rank's schedule of one invocation is
// built for n = 1..33, 64 and 129 ranks, radix 2, 3 and 8 (tree
// generators), and every root for n <= 9 or roots 0, n/2 and n-1 above.
// The invocation as a whole must
//   - pair each send with exactly one receive of the same (source,
//     destination, tag) and packed byte count,
//   - repeat no (source, destination, tag),
//   - keep every tag inside the span the invocation reserves, and
//   - terminate in an abstract run, where a rank finishes a round once the
//     other end of each of its posts has been posted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mpi/schedule.hpp"

namespace dkf::mpi {
namespace {

constexpr int kTag = kCollectiveTagBase;

std::vector<int> rankCounts() {
  std::vector<int> out;
  for (int n = 1; n <= 33; ++n) out.push_back(n);
  out.push_back(64);
  out.push_back(129);
  return out;
}

std::vector<int> rootsFor(int n) {
  if (n <= 9) {
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = r;
    return all;
  }
  return {0, n / 2, n - 1};
}

/// One post of an invocation, with where it sits.
struct Located {
  int src, dst, tag;
  bool send;
  std::size_t bytes;  // packed
  int rank, round;
  auto key() const { return std::tie(src, dst, tag, send); }
  bool sameTriple(const Located& o) const {
    return src == o.src && dst == o.dst && tag == o.tag;
  }
};

/// Checks one invocation: `scheds[r]` is rank r's schedule, and the
/// invocation reserved tags [kTag, kTag + span). Returns "" when every
/// check holds, else a description of the first that fails.
std::string checkInvocation(const std::vector<Schedule>& scheds, int span) {
  const int n = static_cast<int>(scheds.size());
  std::vector<Located> posts;
  for (int r = 0; r < n; ++r) {
    const Schedule& sched = scheds[static_cast<std::size_t>(r)];
    for (int k = 0; k < static_cast<int>(sched.size()); ++k) {
      for (const Post& p : sched[static_cast<std::size_t>(k)]) {
        posts.push_back({p.send ? r : p.peer, p.send ? p.peer : r, p.tag,
                         p.send, p.type->size() * p.count, r, k});
      }
    }
  }
  std::ostringstream err;
  for (const Located& p : posts) {
    if (p.tag < kTag || p.tag >= kTag + span) {
      err << "tag " << p.tag - kTag << " outside the span of " << span;
      return err.str();
    }
  }
  // Sorted by (src, dst, tag, send), every receive must sit directly
  // before its one send; anything else is unmatched or repeated.
  std::sort(posts.begin(), posts.end(), [](const Located& a, const Located& b) {
    return a.key() < b.key();
  });
  for (std::size_t i = 0; i < posts.size(); i += 2) {
    const Located& p = posts[i];
    const bool paired = !p.send && i + 1 < posts.size() &&
                        posts[i + 1].send && posts[i + 1].sameTriple(p) &&
                        (i + 2 == posts.size() || !posts[i + 2].sameTriple(p));
    if (!paired) {
      err << "no single partner for the " << (p.send ? "send" : "receive")
          << " " << p.src << "->" << p.dst << " tag " << p.tag - kTag;
      return err.str();
    }
    if (posts[i + 1].bytes != p.bytes) {
      err << p.src << "->" << p.dst << " tag " << p.tag - kTag << " sends "
          << posts[i + 1].bytes << " bytes into a " << p.bytes
          << "-byte receive";
      return err.str();
    }
  }
  // Abstract run: a post is posted once its rank has reached its round,
  // and a rank leaves a round once every post in it has a posted other
  // end. Each wait is (rank, round) on (peer, peer's round).
  struct Wait {
    int rank, round, peer, peer_round;
  };
  std::vector<Wait> waits;
  for (std::size_t i = 0; i < posts.size(); i += 2) {
    const Located& a = posts[i];
    const Located& b = posts[i + 1];
    waits.push_back({a.rank, a.round, b.rank, b.round});
    waits.push_back({b.rank, b.round, a.rank, a.round});
  }
  std::vector<int> at(static_cast<std::size_t>(n), 0);  // current rounds
  for (bool moved = true; moved;) {
    moved = false;
    std::vector<char> blocked(static_cast<std::size_t>(n), 0);
    for (const Wait& w : waits) {
      if (at[static_cast<std::size_t>(w.rank)] == w.round &&
          at[static_cast<std::size_t>(w.peer)] < w.peer_round) {
        blocked[static_cast<std::size_t>(w.rank)] = 1;
      }
    }
    for (std::size_t r = 0; r < scheds.size(); ++r) {
      if (!blocked[r] && at[r] < static_cast<int>(scheds[r].size())) {
        ++at[r];
        moved = true;
      }
    }
  }
  for (std::size_t r = 0; r < scheds.size(); ++r) {
    if (at[r] != static_cast<int>(scheds[r].size())) {
      err << "rank " << r << " never leaves round " << at[r] << " of "
          << scheds[r].size();
      return err.str();
    }
  }
  return {};
}

/// Builds every rank's schedule with `gen(rank)` and checks the invocation.
template <class Gen>
void expectValid(int n, int span, Gen gen, const std::string& what) {
  std::vector<Schedule> scheds;
  for (int r = 0; r < n; ++r) scheds.push_back(gen(r));
  const std::string err = checkInvocation(scheds, span);
  EXPECT_TRUE(err.empty()) << what << " n=" << n << ": " << err;
}

/// Payload sizes with zeros among them, and sizes with none.
std::vector<std::vector<std::size_t>> sizePatterns(int n) {
  std::vector<std::size_t> mixed, full;
  for (int r = 0; r < n; ++r) {
    mixed.push_back(static_cast<std::size_t>((r * 7 + 3) % 5));
    full.push_back(static_cast<std::size_t>(1 + r % 3));
  }
  return {mixed, full};
}

/// Generators read no buffer byte, so every span can share one arena.
struct Arena {
  std::vector<std::byte> bytes = std::vector<std::byte>(1 << 16);
  gpu::MemSpan span() { return gpu::MemSpan::host(bytes); }
};

TEST(CollectiveSchedules, Allgathers) {
  Arena a;
  for (const int n : rankCounts()) {
    for (const auto& sizes : sizePatterns(n)) {
      expectValid(n, n, [&](int me) {
        return flatAllgather(me, n, sizes, a.span(), a.span(), kTag);
      }, "flatAllgather");
      expectValid(n, n, [&](int me) {
        return ringAllgather(me, n, sizes, a.span(), kTag);
      }, "ringAllgather");
    }
  }
}

TEST(CollectiveSchedules, Gathers) {
  Arena a;
  for (const int n : rankCounts()) {
    for (const int root : rootsFor(n)) {
      const std::string at = " root=" + std::to_string(root);
      for (const auto& sizes : sizePatterns(n)) {
        expectValid(n, n, [&](int me) {
          return flatGather(me, n, root, sizes, a.span(), a.span(), kTag);
        }, "flatGather" + at);
        for (const int radix : {2, 3, 8}) {
          expectValid(n, n, [&](int me) {
            return treeGather(me, n, root, radix, sizes, a.span(), kTag);
          }, "treeGather radix=" + std::to_string(radix) + at);
        }
      }
      for (const std::size_t bytes : {0, 2}) {
        expectValid(n, n, [&](int me) {
          return uniformGather(me, n, root, a.span(), a.span(), bytes, kTag);
        }, "uniformGather" + at);
      }
    }
  }
}

TEST(CollectiveSchedules, Bcasts) {
  Arena a;
  const auto type = ddt::Datatype::contiguous(3, ddt::Datatype::byte());
  for (const int n : rankCounts()) {
    for (const int root : rootsFor(n)) {
      const std::string at = " root=" + std::to_string(root);
      expectValid(n, n, [&](int me) {
        return binomialBcast(me, n, root, a.span(), type, 2, kTag);
      }, "binomialBcast" + at);
      for (const int radix : {2, 3, 8}) {
        for (const std::size_t bytes : {0, 5}) {
          expectValid(n, n, [&](int me) {
            return treeBcast(me, n, root, radix, a.span(), bytes, kTag);
          }, "treeBcast radix=" + std::to_string(radix) + at);
        }
      }
    }
  }
}

TEST(CollectiveSchedules, Alltoalls) {
  Arena a;
  const auto byte = ddt::Datatype::byte();
  for (const int n : rankCounts()) {
    for (const std::size_t bytes : {0, 2}) {
      expectValid(n, n, [&](int me) {
        return uniformAlltoall(me, n, a.span(), a.span(), bytes, kTag);
      }, "uniformAlltoall");
    }
    // Block s->d holds (3s + 5d) % 4 bytes, zero-count blocks included;
    // the sender's view and the receiver's agree on it.
    const auto view = [&](int s, int d) {
      const auto c = static_cast<std::size_t>((3 * s + 5 * d) % 4);
      return BlockView{byte, c, 0, c, c, nullptr};
    };
    const auto views = [&](int me, bool sending) {
      std::vector<BlockView> out;
      for (int p = 0; p < n; ++p) {
        out.push_back(sending ? view(me, p) : view(p, me));
      }
      return out;
    };
    expectValid(n, n, [&](int me) {
      return flatAlltoallv(me, n, a.span(), a.span(), views(me, true),
                           views(me, false), kTag);
    }, "flatAlltoallv");
    expectValid(n, n, [&](int me) {
      return ringAlltoallv(me, n, a.span(), a.span(), views(me, true),
                           views(me, false), kTag);
    }, "ringAlltoallv");
  }
}

TEST(CollectiveSchedules, NeighborExchange) {
  // A periodic ring neighborhood: face 0 faces left, face 1 right, and
  // face f pairs with the neighbor's face f ^ 1 (the halo convention).
  Arena a;
  const auto face = ddt::Datatype::contiguous(4, ddt::Datatype::byte());
  for (const int n : rankCounts()) {
    expectValid(n, 2, [&](int me) {
      const std::vector<NeighborOp> ops = {
          {(me - 1 + n) % n, face, face, 0, 1},
          {(me + 1) % n, face, face, 1, 0},
      };
      return neighborExchange(a.span(), ops, kTag);
    }, "neighborExchange");
  }
}

}  // namespace
}  // namespace dkf::mpi
