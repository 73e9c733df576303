#include "ddt/layout.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dkf::ddt {

namespace {

/// Sort by offset, drop empty runs, coalesce adjacent runs, reject overlap.
std::vector<Segment> canonicalize(std::vector<Segment> segments) {
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.offset < b.offset;
            });
  std::vector<Segment> merged;
  merged.reserve(segments.size());
  for (const Segment& s : segments) {
    if (s.len == 0) continue;
    if (!merged.empty() &&
        merged.back().offset + static_cast<std::int64_t>(merged.back().len) ==
            s.offset) {
      merged.back().len += s.len;
    } else {
      DKF_CHECK_MSG(
          merged.empty() ||
              s.offset >= merged.back().offset +
                              static_cast<std::int64_t>(merged.back().len),
          "overlapping segments in layout");
      merged.push_back(s);
    }
  }
  return merged;
}

/// Greedily collapse maximal arithmetic progressions of equal-length runs
/// into groups. Input must be canonical; ragged sequences degenerate to
/// run_count == 1 groups (the ungrouped fallback).
std::vector<RunGroup> groupRuns(const std::vector<Segment>& segments) {
  std::vector<RunGroup> groups;
  for (const Segment& s : segments) {
    if (!groups.empty()) {
      RunGroup& g = groups.back();
      if (s.len == g.run_len) {
        if (g.run_count == 1) {
          g.stride = s.offset - g.base_offset;
          g.run_count = 2;
          continue;
        }
        if (s.offset ==
            g.base_offset +
                static_cast<std::int64_t>(g.run_count) * g.stride) {
          ++g.run_count;
          continue;
        }
      }
    }
    groups.push_back(RunGroup{s.offset, s.len, 0, 1});
  }
  return groups;
}

std::int64_t groupEnd(const RunGroup& g) {
  return g.base_offset +
         static_cast<std::int64_t>(g.run_count - 1) * g.stride +
         static_cast<std::int64_t>(g.run_len);
}

}  // namespace

// --------------------------------------------------------------- Layout ----

Layout::Layout(std::vector<Segment> segments, std::size_t extent) {
  head_ = groupRuns(canonicalize(std::move(segments)));
  finalize(extent);
}

Layout Layout::fromElement(std::vector<Segment> elem, std::size_t elem_extent,
                           std::size_t count) {
  Layout l;
  if (count == 0 || elem.empty()) {
    l.finalize(count * elem_extent);
    return l;
  }
  if (count == 1) {
    l.body_ = groupRuns(elem);
    l.body_reps_ = 1;
    // Not used for emission (rep 0 is unshifted) but keeps the signature of
    // a single element equal to that of any count of a cleanly repeating
    // type — count-independence must include count == 1.
    l.body_stride_ = static_cast<std::int64_t>(elem_extent);
    l.finalize(elem_extent);
    return l;
  }

  const std::int64_t e = static_cast<std::int64_t>(elem_extent);
  const std::int64_t first = elem.front().offset;
  const std::int64_t span_end =
      elem.back().offset + static_cast<std::int64_t>(elem.back().len);

  if (span_end > first + e) {
    // Non-periodic: the element overhangs its extent (resized() can shrink
    // it), so consecutive elements interleave. Materialize and re-sort —
    // the one case the compressed form cannot express symbolically.
    std::vector<Segment> all;
    all.reserve(elem.size() * count);
    for (std::size_t r = 0; r < count; ++r) {
      const std::int64_t shift = static_cast<std::int64_t>(r) * e;
      for (const Segment& s : elem) {
        all.push_back(Segment{s.offset + shift, s.len});
      }
    }
    l.head_ = groupRuns(canonicalize(std::move(all)));
    l.finalize(count * elem_extent);
    return l;
  }

  if (span_end == first + e) {
    // The element's last run touches the next element's first run: they
    // coalesce at every boundary, exactly as the seed's global sort+merge
    // produced.
    if (elem.size() == 1) {
      // Gap-free element: the whole layout is one contiguous run.
      l.body_.push_back(
          RunGroup{first, count * elem_extent, 0, 1});
      l.body_reps_ = 1;
    } else {
      // head: the first element's first run, intact.
      // body: runs 1..k-2 plus the merged (last + next-first) run, once per
      //       boundary — count-1 repetitions spaced by the extent.
      // tail: the last element's runs 1..k-1 (its first run was absorbed by
      //       the final merged run).
      const Segment& s0 = elem.front();
      const Segment& sk = elem.back();
      l.head_ = groupRuns({s0});
      std::vector<Segment> period(elem.begin() + 1, elem.end() - 1);
      period.push_back(Segment{sk.offset, sk.len + s0.len});
      l.body_ = groupRuns(period);
      l.body_reps_ = count - 1;
      l.body_stride_ = e;
      const std::int64_t last_shift = static_cast<std::int64_t>(count - 1) * e;
      std::vector<Segment> tail(elem.begin() + 1, elem.end());
      for (Segment& s : tail) s.offset += last_shift;
      l.tail_ = groupRuns(tail);
    }
    l.finalize(count * elem_extent);
    return l;
  }

  // Clean repetition: elements neither touch nor interleave.
  l.body_ = groupRuns(elem);
  l.body_reps_ = count;
  l.body_stride_ = e;
  l.finalize(count * elem_extent);
  return l;
}

void Layout::finalize(std::size_t extent) {
  extent_ = extent;
  size_ = 0;
  block_count_ = 0;
  min_block_ = 0;
  max_block_ = 0;
  const auto accumulate = [&](const std::vector<RunGroup>& groups,
                              std::size_t reps) {
    for (const RunGroup& g : groups) {
      size_ += reps * g.run_count * g.run_len;
      block_count_ += reps * g.run_count;
      min_block_ = min_block_ == 0 ? g.run_len
                                   : std::min(min_block_, g.run_len);
      max_block_ = std::max(max_block_, g.run_len);
    }
  };
  accumulate(head_, 1);
  accumulate(body_, body_reps_);
  accumulate(tail_, 1);
  if (body_reps_ == 0) body_.clear();

  min_offset_ = 0;
  end_offset_ = 0;
  if (!head_.empty()) {
    min_offset_ = head_.front().base_offset;
  } else if (!body_.empty()) {
    min_offset_ = body_.front().base_offset;
  } else if (!tail_.empty()) {
    min_offset_ = tail_.front().base_offset;
  }
  if (!tail_.empty()) {
    end_offset_ = groupEnd(tail_.back());
  } else if (!body_.empty()) {
    end_offset_ = groupEnd(body_.back()) +
                  static_cast<std::int64_t>(body_reps_ - 1) * body_stride_;
  } else if (!head_.empty()) {
    end_offset_ = groupEnd(head_.back());
  }

  // Canonical signature: FNV-1a over the group structure, excluding
  // body_reps_ and extent, with tail offsets shifted back by the body span —
  // see Layout::signature() for the count-independence contract.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mixGroup = [&](const RunGroup& g, std::int64_t shift) {
    mix(static_cast<std::uint64_t>(g.base_offset - shift));
    mix(g.run_len);
    mix(static_cast<std::uint64_t>(g.stride));
    mix(g.run_count);
  };
  mix(head_.size());
  for (const RunGroup& g : head_) mixGroup(g, 0);
  mix(body_.size());
  mix(static_cast<std::uint64_t>(body_stride_));
  for (const RunGroup& g : body_) mixGroup(g, 0);
  mix(tail_.size());
  const std::int64_t tail_shift =
      static_cast<std::int64_t>(body_reps_) * body_stride_;
  for (const RunGroup& g : tail_) mixGroup(g, tail_shift);
  signature_ = h;

  ops_.clear();
  op_offsets_.clear();
  compileSection(head_);
  body_ops_begin_ = ops_.size();
  compileSection(body_);
  body_ops_end_ = ops_.size();
  compileSection(tail_);
}

void Layout::compileSection(const std::vector<RunGroup>& groups) {
  const std::size_t first = ops_.size();
  for (const RunGroup& g : groups) {
    if (g.run_count >= kStridedOpMinRuns) {
      ops_.push_back(PackOp{PackOp::Kind::kStrided, g.run_len, g.run_count,
                            g.base_offset, g.stride});
      continue;
    }
    if (ops_.size() == first || ops_.back().kind != PackOp::Kind::kTable ||
        ops_.back().len != g.run_len) {
      ops_.push_back(PackOp{PackOp::Kind::kTable, g.run_len, 0,
                            static_cast<std::int64_t>(op_offsets_.size()), 0});
    }
    emitGroup(g, 0, [&](std::int64_t offset, std::size_t) {
      op_offsets_.push_back(offset);
    });
    ops_.back().count += g.run_count;
  }
}

double Layout::meanBlock() const {
  if (block_count_ == 0) return 0.0;
  return static_cast<double>(size_) / static_cast<double>(block_count_);
}

double Layout::density() const {
  if (extent_ == 0) return 1.0;
  return static_cast<double>(size_) / static_cast<double>(extent_);
}

std::vector<Segment> Layout::materialize() const {
  std::vector<Segment> segments;
  segments.reserve(block_count_);
  forEachRun([&](std::int64_t offset, std::size_t len) {
    segments.push_back(Segment{offset, len});
  });
  return segments;
}

const std::vector<RunGroup>* Layout::RunCursor::groups() const {
  switch (section_) {
    case 0: return &l_->head_;
    case 1: return &l_->body_;
    default: return &l_->tail_;
  }
}

void Layout::RunCursor::settle() {
  while (section_ < 3) {
    if (section_ == 1 && l_->body_reps_ == 0) {
      ++section_;
      continue;
    }
    if (groups()->empty()) {
      ++section_;
      continue;
    }
    return;
  }
}

void Layout::RunCursor::next() {
  const RunGroup& g = (*groups())[group_];
  if (++run_ < g.run_count) return;
  run_ = 0;
  if (++group_ < groups()->size()) return;
  group_ = 0;
  if (section_ == 1 && ++rep_ < l_->body_reps_) return;
  rep_ = 0;
  ++section_;
  settle();
}

// -------------------------------------------------------------- flatten ----

Layout flatten(const DatatypePtr& type, std::size_t count) {
  DKF_CHECK(type != nullptr);
  std::vector<Segment> elem;
  type->forEachBlock(1, [&](std::int64_t offset, std::size_t len) {
    elem.push_back(Segment{offset, len});
  });
  return Layout::fromElement(canonicalize(std::move(elem)), type->extent(),
                             count);
}

// ---------------------------------------------------------- LayoutCache ----

LayoutCache::LayoutCache(LayoutCacheLimits limits) : limits_(limits) {}

void LayoutCache::touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru);
}

void LayoutCache::insert(Key key, Entry e) {
  lru_.push_front(key);
  e.lru = lru_.begin();
  resident_bytes_ += e.bytes;
  if (key.elem) {
    ++element_entries_;
  } else {
    ++derived_entries_;
  }
  cache_.emplace(key, std::move(e));
}

void LayoutCache::enforceBudget(const Key& keep0, const Key& keep1) {
  const auto overBudget = [&] {
    return (limits_.max_entries != 0 && cache_.size() > limits_.max_entries) ||
           (limits_.max_bytes != 0 && resident_bytes_ > limits_.max_bytes);
  };
  auto victim = lru_.end();
  while (overBudget() && victim != lru_.begin()) {
    --victim;
    if (*victim == keep0 || *victim == keep1) continue;
    const Key key = *victim;
    const auto it = cache_.find(key);
    victim = lru_.erase(victim);
    resident_bytes_ -= it->second.bytes;
    if (key.elem) {
      --element_entries_;
    } else {
      --derived_entries_;
    }
    cache_.erase(it);
    ++counters_.evictions;
    if (tracer_ && tracer_->isEnabled()) {
      tracer_->counter(trace_name_ + ".evictions", clock_->now(),
                       static_cast<double>(counters_.evictions));
    }
  }
}

void LayoutCache::sampleTrace() {
  if (!tracer_ || !tracer_->isEnabled()) return;
  const TimeNs now = clock_->now();
  tracer_->counter(trace_name_ + ".resident_bytes", now,
                   static_cast<double>(resident_bytes_));
  tracer_->counter(trace_name_ + ".entries", now,
                   static_cast<double>(cache_.size()));
}

LayoutPtr LayoutCache::get(const DatatypePtr& type, std::size_t count) {
  DKF_CHECK(type != nullptr);
  const Key derived_key{type->id(), count, false};
  if (const auto it = cache_.find(derived_key); it != cache_.end()) {
    ++counters_.hits;
    touch(it->second);
    return it->second.layout;
  }

  // Element form: one flatten per distinct type, ever.
  const Key elem_key{type->id(), 0, true};
  std::shared_ptr<const ElementForm> form;
  if (const auto it = cache_.find(elem_key); it != cache_.end()) {
    ++counters_.hits;
    ++counters_.derivations;
    touch(it->second);
    form = it->second.form;
  } else {
    ++counters_.misses;
    auto fresh = std::make_shared<ElementForm>();
    type->forEachBlock(1, [&](std::int64_t offset, std::size_t len) {
      fresh->segments.push_back(Segment{offset, len});
    });
    fresh->segments = canonicalize(std::move(fresh->segments));
    fresh->extent = type->extent();
    form = fresh;
    Entry e;
    e.form = form;
    e.bytes = form->heapBytes();
    insert(elem_key, std::move(e));
  }

  auto layout = std::make_shared<const Layout>(
      Layout::fromElement(form->segments, form->extent, count));
  Entry e;
  e.layout = layout;
  e.bytes = layout->compressedBytes();
  insert(derived_key, std::move(e));
  enforceBudget(derived_key, elem_key);
  sampleTrace();
  return layout;
}

void LayoutCache::clear() {
  cache_.clear();
  lru_.clear();
  counters_ = LayoutCacheCounters{};
  resident_bytes_ = 0;
  derived_entries_ = 0;
  element_entries_ = 0;
}

void LayoutCache::setTracer(sim::Tracer* tracer, const sim::Engine* clock,
                            const std::string& name) {
  tracer_ = tracer;
  clock_ = clock;
  trace_name_ = name;
}

}  // namespace dkf::ddt
