// One JSON record for every bench that writes one (the BENCH_*.json files).
//
//   {"bench": name, "claim": what the record shows,
//    "host": {"cpu", "compiler", "build_type"},
//    "config": what was run,
//    "deterministic": virtual times, counts, hashes and hit rates,
//    "wall": host time, every value a {median, min, max, n} spread}
//
// Deterministic values reproduce exactly on every host, so a diff against a
// committed record is a correctness check. Wall values are repeated runs
// (n >= kMinReps) and are never gated: no bench's exit status depends on
// one. A bench whose claim is in virtual time writes no wall block.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace dkf::bench {

/// Fewest repetitions a wall value may summarise.
inline constexpr std::size_t kMinReps = 3;

/// Repeated wall-time samples summarised.
struct Spread {
  double median{0.0};
  double min{0.0};
  double max{0.0};
  std::size_t n{0};

  /// The same spread with every value divided by `d` (e.g. per message).
  Spread per(double d) const { return {median / d, min / d, max / d, n}; }
};

/// Spread of `samples` (at least kMinReps of them); the median is
/// SampleSet's nearest-rank one, as every bench percentile is.
Spread spreadOf(const SampleSet& samples);

/// Wall nanoseconds of one call of `fn`.
template <class F>
double wallNs(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Wall nanoseconds of `reps` calls of `fn`, one sample per call.
template <class F>
Spread timeNs(F&& fn, std::size_t reps) {
  SampleSet samples;
  for (std::size_t r = 0; r < reps; ++r) samples.add(wallNs(fn));
  return spreadOf(samples);
}

/// The machine and build a record was measured on.
struct Host {
  std::string cpu;
  std::string compiler;
  std::string build_type;
};
Host host();

/// A JSON value: null, bool, integer (held as std::int64_t), double,
/// string, array, or an object whose members print in insertion order.
class Json {
 public:
  Json() = default;
  Json(bool b) : kind_(Kind::Bool), int_(b) {}
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T i) : kind_(Kind::Int), int_(static_cast<std::int64_t>(i)) {}
  Json(double d) : kind_(Kind::Double), double_(d) {}
  Json(const char* s) : kind_(Kind::String), string_(s) {}
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::String), string_(s) {}
  Json(const Spread& s);
  template <class T>
  Json(const std::vector<T>& values) : kind_(Kind::Array) {
    for (const T& v : values) items_.emplace_back(v);
  }

  static Json object(
      std::initializer_list<std::pair<std::string, Json>> members);

  /// Member `key` of an object, appended if new (null becomes an object).
  /// The reference is valid until a member is added to this object.
  Json& operator[](const std::string& key);
  /// Append to an array (null becomes an array); returns the new element.
  Json& push(Json value);

  bool isNull() const { return kind_ == Kind::Null; }

  /// Print as JSON. A container of scalars, or of such containers, prints
  /// on one line, except an array of containers (one element per line);
  /// anything deeper prints one member per line. The outermost value
  /// (indent 0) always prints one member per line.
  void write(std::ostream& os, int indent = 0) const;

 private:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };
  int height() const;

  Kind kind_{Kind::Null};
  std::int64_t int_{0};  // Bool and Int
  double double_{0.0};
  std::string string_;
  std::vector<std::string> keys_;  // Object: the key of each item
  std::vector<Json> items_;        // Array elements or Object values
};

/// A bench's record: fill config(), deterministic() and wall(), then
/// write(). The bench name, claim and host are fixed at construction.
class Record {
 public:
  Record(std::string bench, std::string claim);

  Json& config() { return config_; }
  Json& deterministic() { return deterministic_; }
  Json& wall() { return wall_; }

  /// Write the record to `path`. On failure prints an error to stderr and
  /// returns false; benches exit non-zero then.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  std::string claim_;
  Json config_;
  Json deterministic_;
  Json wall_;
};

}  // namespace dkf::bench
