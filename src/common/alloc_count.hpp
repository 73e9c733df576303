// Opt-in global allocation counting (CMake option DKF_COUNT_ALLOCS).
//
// When the option is ON, alloc_count.cpp replaces the global operator
// new/delete family (the new operators count; the deletes release with
// free, to match), and allocCount() reads the process-lifetime
// allocation total. Benches subtract two snapshots around
// a measured pass to report steady-state allocations per message — the
// payload plane's headline metric (MODEL.md §15). When the option is OFF
// (the default), the counters read zero and allocCountingEnabled() lets
// callers skip the measurement instead of reporting a misleading 0.
#pragma once

#include <cstdint>

namespace dkf {

/// True when this build replaces global new/delete with counting versions.
bool allocCountingEnabled() noexcept;

/// Allocations (operator new family calls) since process start; 0 when
/// counting is disabled.
std::uint64_t allocCount() noexcept;

}  // namespace dkf
