#include "bench_util/record.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/check.hpp"

#ifndef DKF_BUILD_TYPE
#define DKF_BUILD_TYPE "unknown"
#endif

namespace dkf::bench {

Spread spreadOf(const SampleSet& samples) {
  DKF_CHECK_MSG(samples.count() >= kMinReps,
                "a wall value needs at least " << kMinReps << " samples, got "
                                               << samples.count());
  return {samples.median(), samples.min(), samples.max(), samples.count()};
}

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    const std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string literal (record strings are plain text: names and claims).
void writeString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Host host() { return {cpuModel(), compilerId(), DKF_BUILD_TYPE}; }

Json::Json(const Spread& s)
    : Json(object({{"median", s.median},
                   {"min", s.min},
                   {"max", s.max},
                   {"n", s.n}})) {
  DKF_CHECK_MSG(s.n >= kMinReps, "a wall value needs at least "
                                     << kMinReps << " samples, got " << s.n);
}

Json Json::object(
    std::initializer_list<std::pair<std::string, Json>> members) {
  Json j;
  j.kind_ = Kind::Object;
  for (const auto& [key, value] : members) j[key] = value;
  return j;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  DKF_CHECK_MSG(kind_ == Kind::Object,
                "member '" << key << "' of a non-object");
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  if (it != keys_.end()) {
    return items_[static_cast<std::size_t>(it - keys_.begin())];
  }
  keys_.push_back(key);
  return items_.emplace_back();
}

Json& Json::push(Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  DKF_CHECK_MSG(kind_ == Kind::Array, "push onto a non-array");
  return items_.emplace_back(std::move(value));
}

int Json::height() const {
  if (kind_ != Kind::Array && kind_ != Kind::Object) return 0;
  int h = 0;
  for (const Json& item : items_) h = std::max(h, item.height());
  return h + 1;
}

void Json::write(std::ostream& os, int indent) const {
  switch (kind_) {
    case Kind::Null:
      os << "null";
      return;
    case Kind::Bool:
      os << (int_ != 0 ? "true" : "false");
      return;
    case Kind::Int:
      os << int_;
      return;
    case Kind::Double: {
      if (!std::isfinite(double_)) {
        os << "null";
        return;
      }
      // Default stream formatting (6 significant digits) on a fresh
      // stream, whatever flags `os` carries.
      std::ostringstream num;
      num << double_;
      os << num.str();
      return;
    }
    case Kind::String:
      writeString(os, string_);
      return;
    case Kind::Array:
    case Kind::Object:
      break;
  }
  const bool object = kind_ == Kind::Object;
  const bool array_of_containers =
      !object && std::any_of(items_.begin(), items_.end(),
                             [](const Json& j) { return j.height() > 0; });
  const bool one_line = indent > 0 && height() <= 2 && !array_of_containers;
  const std::string pad(static_cast<std::size_t>(2 * (indent + 1)), ' ');
  os << (object ? '{' : '[');
  for (std::size_t i = 0; i < items_.size(); ++i) {
    os << (i > 0 ? (one_line ? ", " : ",\n") : (one_line ? "" : "\n"));
    if (!one_line) os << pad;
    if (object) {
      writeString(os, keys_[i]);
      os << ": ";
    }
    items_[i].write(os, indent + 1);
  }
  if (!one_line && !items_.empty()) {
    os << '\n' << std::string(static_cast<std::size_t>(2 * indent), ' ');
  }
  os << (object ? '}' : ']');
}

Record::Record(std::string bench, std::string claim)
    : bench_(std::move(bench)), claim_(std::move(claim)) {}

bool Record::write(const std::string& path) const {
  const Host h = host();
  Json root = Json::object(
      {{"bench", bench_},
       {"claim", claim_},
       {"host", Json::object({{"cpu", h.cpu},
                              {"compiler", h.compiler},
                              {"build_type", h.build_type}})}});
  root["config"] = config_.isNull() ? Json::object({}) : config_;
  root["deterministic"] =
      deterministic_.isNull() ? Json::object({}) : deterministic_;
  if (!wall_.isNull()) root["wall"] = wall_;

  std::ofstream out(path);
  if (out) {
    root.write(out);
    out << '\n';
    out.flush();
  }
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace dkf::bench
