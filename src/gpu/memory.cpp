#include "gpu/memory.hpp"

#include <algorithm>

#include "fault/fault_plan.hpp"

namespace dkf::gpu {

namespace {
std::size_t roundUp(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}
}  // namespace

DeviceMemory::DeviceMemory(std::size_t capacity, int device_id)
    : arena_(static_cast<std::byte*>(std::calloc(capacity, 1))),
      capacity_(capacity),
      device_id_(device_id) {
  DKF_CHECK_MSG(arena_ != nullptr, "device " << device_id_
                                             << ": host cannot reserve a "
                                             << capacity << "-byte arena");
  free_list_.push_back(FreeBlock{0, capacity});
}

MemSpan DeviceMemory::allocate(std::size_t bytes, std::size_t align) {
  const MemSpan span = findFit(bytes, align);
  DKF_CHECK_MSG(span.size() == bytes,
                "device " << device_id_ << " out of memory allocating "
                          << bytes << " bytes (in use: " << in_use_ << "/"
                          << capacity_ << ")");
  return span;
}

MemSpan DeviceMemory::tryAllocate(std::size_t bytes, std::size_t align) {
  if (faults_ && faults_->failAlloc()) return {};
  return findFit(bytes, align);
}

MemSpan DeviceMemory::findFit(std::size_t bytes, std::size_t align) {
  DKF_CHECK(bytes > 0);
  DKF_CHECK_MSG((align & (align - 1)) == 0, "alignment must be a power of two");
  for (std::size_t i = 0; i < free_list_.size(); ++i) {
    FreeBlock& blk = free_list_[i];
    const std::size_t aligned = roundUp(blk.offset, align);
    if (aligned + bytes > blk.offset + blk.len) continue;

    const std::size_t front_pad = aligned - blk.offset;
    const std::size_t back_len = blk.offset + blk.len - (aligned + bytes);
    if (front_pad > 0 && back_len > 0) {
      const std::size_t back_off = aligned + bytes;
      blk.len = front_pad;
      free_list_.insert(free_list_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        FreeBlock{back_off, back_len});
    } else if (front_pad > 0) {
      blk.len = front_pad;
    } else if (back_len > 0) {
      blk.offset = aligned + bytes;
      blk.len = back_len;
    } else {
      free_list_.erase(free_list_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    live_.emplace(aligned, bytes);
    in_use_ += bytes;
    return MemSpan{arena().subspan(aligned, bytes), MemSpace::Device,
                   device_id_};
  }
  return {};
}

std::size_t DeviceMemory::offsetOf(const MemSpan& span) const {
  DKF_CHECK_MSG(span.space == MemSpace::Device && span.device == device_id_,
                "span does not belong to device " << device_id_);
  const std::byte* base = arena_.get();
  DKF_CHECK(span.bytes.data() >= base &&
            span.bytes.data() + span.bytes.size() <= base + capacity_);
  return static_cast<std::size_t>(span.bytes.data() - base);
}

void DeviceMemory::deallocate(const MemSpan& span) {
  const std::size_t offset = offsetOf(span);
  auto it = live_.find(offset);
  DKF_CHECK_MSG(it != live_.end(), "double free or unknown allocation at offset "
                                       << offset);
  const std::size_t len = it->second;
  DKF_CHECK_MSG(span.bytes.size() == len,
                "deallocate size mismatch: " << span.bytes.size() << " vs "
                                             << len);
  live_.erase(it);
  in_use_ -= len;

  // Insert keeping offset order, then coalesce with neighbors.
  auto pos = std::lower_bound(
      free_list_.begin(), free_list_.end(), offset,
      [](const FreeBlock& b, std::size_t off) { return b.offset < off; });
  pos = free_list_.insert(pos, FreeBlock{offset, len});
  // Coalesce with next.
  if (auto next = pos + 1;
      next != free_list_.end() && pos->offset + pos->len == next->offset) {
    pos->len += next->len;
    free_list_.erase(next);
  }
  // Coalesce with previous.
  if (pos != free_list_.begin()) {
    auto prev = pos - 1;
    if (prev->offset + prev->len == pos->offset) {
      prev->len += pos->len;
      free_list_.erase(pos);
    }
  }
}

}  // namespace dkf::gpu
