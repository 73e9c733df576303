// Virtual end time and fabric traffic of a finished collective run. The
// collective tests freeze these next to their byte checks, so a change to
// how a collective posts its messages cannot move virtual time, or the
// messages and bytes it puts on the wire, unnoticed.
#pragma once

#include <cstddef>
#include <ostream>

#include "hw/cluster.hpp"
#include "sim/engine.hpp"

namespace dkf {

struct CollTiming {
  TimeNs vtime{0};
  std::size_t messages{0};
  std::size_t bytes{0};
  bool operator==(const CollTiming&) const = default;
};

inline CollTiming collTiming(const sim::Engine& eng, hw::Cluster& cluster) {
  return {eng.now(), cluster.fabric().totalMessages(),
          cluster.fabric().totalBytesCarried()};
}

/// Prints the initializer a golden table takes, so a failure shows the
/// value to compare (or, for a new entry, to paste).
inline std::ostream& operator<<(std::ostream& os, const CollTiming& t) {
  return os << "{" << t.vtime << ", " << t.messages << ", " << t.bytes << "}";
}

}  // namespace dkf
