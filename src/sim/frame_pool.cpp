#include "sim/frame_pool.hpp"

#include <array>
#include <new>
#include <vector>

namespace dkf::sim {

namespace {

constexpr std::size_t kGranule = 64;
constexpr std::size_t kBuckets = 128;  // frames up to 8128 bytes recycle
constexpr std::size_t kMaxCachedPerBucket = 4096;

struct Cache {
  std::array<std::vector<void*>, kBuckets> buckets;

  ~Cache() {
    for (auto& b : buckets) {
      for (void* p : b) ::operator delete(p);
    }
  }
};

Cache& cache() {
  thread_local Cache c;
  return c;
}

constexpr std::size_t bucketOf(std::size_t bytes) {
  return (bytes + kGranule - 1) / kGranule;
}

}  // namespace

void* frameAlloc(std::size_t bytes) {
  Cache& c = cache();
  const std::size_t b = bucketOf(bytes);
  if (b < kBuckets) {
    auto& list = c.buckets[b];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    return ::operator new(b * kGranule);
  }
  return ::operator new(bytes);
}

void frameFree(void* p, std::size_t bytes) noexcept {
  Cache& c = cache();
  const std::size_t b = bucketOf(bytes);
  if (b < kBuckets && c.buckets[b].size() < kMaxCachedPerBucket) {
    try {
      c.buckets[b].push_back(p);
      return;
    } catch (...) {
      // fall through: the cache vector could not grow
    }
  }
  ::operator delete(p);
}

}  // namespace dkf::sim
