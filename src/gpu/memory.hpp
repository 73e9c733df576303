// Device memory emulation.
//
// Each simulated GPU owns a host-side byte arena standing in for its HBM.
// Every pack/unpack/copy in the simulator moves real bytes inside these
// arenas, so data correctness is testable end-to-end. `MemSpan` tags a span
// with the memory space it lives in; the cost models dispatch on the tag
// (host<->device copies cross the CPU-GPU link, device-local ones use HBM).
//
// An arena is `capacity` bytes (`GpuSpec::arena_bytes` in a cluster) of
// calloc address space: it reads zero when fresh, the host commits a page
// only when a run first writes it, and `capacity` is the simulated
// out-of-memory point.
//
// The allocator is a first-fit free list with coalescing — enough to let
// long benchmark runs allocate and release staging buffers without growing
// the arena, and simple enough to verify exhaustively in tests.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace dkf::fault {
class FaultPlan;
}

namespace dkf::gpu {

enum class MemSpace { Host, Device };

/// A typed view into simulation memory. `device` is the owning GPU's global
/// id for Device spans, -1 for Host.
struct MemSpan {
  std::span<std::byte> bytes{};
  MemSpace space{MemSpace::Host};
  int device{-1};

  std::size_t size() const { return bytes.size(); }
  bool onDevice() const { return space == MemSpace::Device; }

  MemSpan subspan(std::size_t offset, std::size_t len) const {
    DKF_CHECK(offset + len <= bytes.size());
    return MemSpan{bytes.subspan(offset, len), space, device};
  }

  /// Wrap host memory.
  static MemSpan host(std::span<std::byte> s) {
    return MemSpan{s, MemSpace::Host, -1};
  }
};

/// First-fit free-list allocator over one GPU's arena.
class DeviceMemory {
 public:
  DeviceMemory(std::size_t capacity, int device_id);

  /// Allocate `bytes` aligned to `align` (power of two). Throws
  /// CheckFailure on exhaustion — simulated out-of-memory is a bug in the
  /// experiment setup, not a recoverable condition.
  MemSpan allocate(std::size_t bytes, std::size_t align = 256);

  /// Fallible allocation for callers with a degradation path (staging
  /// buffers that can live in host memory instead): returns an empty span
  /// on genuine exhaustion or when an attached FaultPlan injects an
  /// allocation failure. allocate() never injects — setup allocations
  /// stay exempt from fault plans.
  MemSpan tryAllocate(std::size_t bytes, std::size_t align = 256);

  /// Attach a fault plan consulted by tryAllocate(). nullptr to detach.
  void setFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }

  /// Return a span previously obtained from allocate(). Frees by start
  /// address; partial frees are not supported.
  void deallocate(const MemSpan& span);

  std::size_t capacity() const { return capacity_; }
  std::size_t bytesInUse() const { return in_use_; }
  std::size_t bytesFree() const { return capacity_ - in_use_; }
  std::size_t liveAllocations() const { return live_.size(); }
  int deviceId() const { return device_id_; }

  /// The whole arena (for assertions and fabric copies).
  std::span<std::byte> arena() { return {arena_.get(), capacity_}; }

 private:
  struct FreeBlock {
    std::size_t offset;
    std::size_t len;
  };
  struct FreeArena {
    void operator()(std::byte* p) const { std::free(p); }
  };

  std::size_t offsetOf(const MemSpan& span) const;
  /// First-fit search; empty span when nothing fits.
  MemSpan findFit(std::size_t bytes, std::size_t align);

  fault::FaultPlan* faults_{nullptr};
  std::unique_ptr<std::byte, FreeArena> arena_;
  std::size_t capacity_;
  std::vector<FreeBlock> free_list_;           // sorted by offset
  std::map<std::size_t, std::size_t> live_;    // offset -> padded length
  std::size_t in_use_{0};
  int device_id_;
};

}  // namespace dkf::gpu
