// Count-compressed canonical datatype layouts and the layout cache.
//
// `flatten(type, count)` lowers a datatype tree to its canonical sequence of
// contiguous byte runs ("flattening on the fly", Träff et al. [35]): runs are
// sorted by offset and adjacent runs are coalesced. Unlike a flat segment
// list, the canonical form is *count-compressed* (the TEMPI canonical strided
// representation of Pearson et al.): equal-length, equally-spaced runs
// collapse into a single `RunGroup`, and the `count`-fold repetition of the
// single-element layout is kept symbolic as a body section repeated `count`
// times at the type's extent. Flattening therefore costs O(blocks-per-element)
// regardless of `count`, and a layout occupies O(blocks-per-element) memory
// where the seed implementation materialized count x blocks segments.
//
// The layout carries the statistics the schemes use for their heuristics —
// block count, min/mean block size, density — all computed in O(groups) and
// bit-identical to the segment-materialized values. The paper's
// sparse-vs-dense classification (§V-A: sparse >= thousands of small blocks)
// is computed here.
//
// Each layout is also compiled, once, into the op list packCpu/unpackCpu
// execute (TEMPI's lowering of the canonical form into specialized
// kernels): long run groups become strided ops, runs of short groups become
// offset tables, so a sparse layout copies in fixed-size loops instead of
// stepping through groups of two or three runs.
//
// `LayoutCache` memoizes flattening, the layout caching scheme of Chu et
// al. [24] that the fusion framework's requests reference ("data layout: the
// cached data layout entry", §IV-A1). It caches the *per-element* canonical
// form keyed by datatype id — so a count sweep over one type flattens exactly
// once — plus an LRU of derived (type, count) layouts bounded by a
// configurable entry/byte budget.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ddt/datatype.hpp"

namespace dkf::sim {
class Tracer;
class Engine;
}  // namespace dkf::sim

namespace dkf::ddt {

/// One contiguous byte run: `offset` bytes from the buffer origin, `len`
/// bytes long. Offsets may be produced negative by exotic lb/stride types;
/// packing requires them non-negative and checks.
struct Segment {
  std::int64_t offset{0};
  std::size_t len{0};

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// `run_count` runs of `run_len` bytes each, the first at `base_offset` and
/// consecutive run starts `stride` bytes apart. A group with run_count == 1
/// is a single ungrouped run (stride 0 by convention); ragged layouts whose
/// runs form no arithmetic progression degenerate to all-ungrouped groups.
struct RunGroup {
  std::int64_t base_offset{0};
  std::size_t run_len{0};
  std::int64_t stride{0};
  std::size_t run_count{1};

  friend bool operator==(const RunGroup&, const RunGroup&) = default;
};

/// One step of a layout's compiled pack program: `count` runs of `len`
/// bytes, copied in canonical order. A strided op is one run group of at
/// least kStridedOpMinRuns runs, the first at `base`, run starts `stride`
/// apart. A table op gathers consecutive shorter groups of one run length;
/// its run starts are entries [base, base + count) of Layout::opOffsets().
struct PackOp {
  enum class Kind : std::uint8_t { kStrided, kTable };

  Kind kind{Kind::kStrided};
  std::size_t len{0};
  std::size_t count{0};
  std::int64_t base{0};
  std::int64_t stride{0};  // strided ops only
};

/// Groups of at least this many runs compile to a strided op; shorter ones
/// go to offset tables, so a table holds fewer than this many entries per
/// group and the op list stays O(groups). For 4- and 8-byte runs, tables
/// are faster than strided ops up to at least 16 runs per group, but cost
/// 8 bytes per run against 40 per op: at 8 a group's entries take at most
/// 56 bytes (sweep in EXPERIMENTS.md).
inline constexpr std::size_t kStridedOpMinRuns = 8;

/// Canonical count-compressed layout of (type, count).
///
/// The run sequence is three sections emitted in order:
///   head  — groups emitted once (prologue of a boundary-coalesced repeat);
///   body  — groups emitted `bodyRepetitions()` times, instance r shifted by
///           r * bodyStride() bytes (the element-repetition descriptor);
///   tail  — groups emitted once (epilogue, already shifted).
/// The concatenated sequence is sorted by offset with adjacent runs merged —
/// exactly the seed's canonical segment list, never materialized.
class Layout {
 public:
  Layout() = default;
  /// Canonicalize an explicit run list (sort, coalesce, reject overlap) into
  /// a head-only layout, grouping whatever arithmetic progressions exist.
  Layout(std::vector<Segment> segments, std::size_t extent);

  /// Build the layout of `count` elements from the *canonical* (sorted,
  /// coalesced) single-element run list, in O(runs-per-element) for periodic
  /// layouts. Non-periodic layouts (element span overhanging the extent, as
  /// resized() can produce) fall back to materializing all count x runs.
  static Layout fromElement(std::vector<Segment> element_segments,
                            std::size_t element_extent, std::size_t count);

  /// Total data bytes (sum of run lengths).
  std::size_t size() const { return size_; }
  /// Byte span covered in the origin buffer (count * type extent).
  std::size_t extent() const { return extent_; }
  std::size_t blockCount() const { return block_count_; }
  std::size_t minBlock() const { return min_block_; }
  std::size_t maxBlock() const { return max_block_; }
  /// Average contiguous run length; the GPU access-efficiency model and the
  /// hybrid scheme's dense/sparse heuristic key off this.
  double meanBlock() const;
  /// size / extent in (0,1]; 1 means gap-free.
  double density() const;
  bool isContiguous() const { return block_count_ <= 1 && size_ == extent_; }
  /// Lowest byte offset touched (0 for empty layouts).
  std::int64_t minOffset() const { return min_offset_; }
  /// One past the highest byte offset touched.
  std::int64_t endOffset() const { return end_offset_; }

  /// Canonical structural signature (FNV-1a over the compressed sections).
  /// *Count-independent* for periodic layouts: the hash covers head/body/tail
  /// group structure and the body stride but NOT the repetition count (tail
  /// offsets are normalized by the body span), so (type, m) and (type, n)
  /// hash equal for any m, n >= 1 of a cleanly repeating type and any
  /// m, n >= 2 of a boundary-coalescing one. Only the non-periodic
  /// materialized fallback (overhanging resized types) and fully contiguous
  /// layouts keep a count-dependent signature — their structure genuinely
  /// changes with count. This is the plan-cache key: one compiled FusionPlan
  /// serves a whole count sweep over the same datatype.
  std::uint64_t signature() const { return signature_; }

  // ---- Run enumeration (canonical order, nothing materialized) ----

  /// Visit every run as (offset, len), sorted by offset and coalesced.
  template <class F>
  void forEachRun(F&& emit) const {
    for (const RunGroup& g : head_) emitGroup(g, 0, emit);
    for (std::size_t r = 0; r < body_reps_; ++r) {
      const std::int64_t shift =
          static_cast<std::int64_t>(r) * body_stride_;
      for (const RunGroup& g : body_) emitGroup(g, shift, emit);
    }
    for (const RunGroup& g : tail_) emitGroup(g, 0, emit);
  }

  /// O(1)-state cursor over the run sequence; lets two layouts be walked in
  /// lockstep (copyStrided) without materializing either side.
  class RunCursor {
   public:
    explicit RunCursor(const Layout& layout) : l_(&layout) { settle(); }
    bool done() const { return section_ == 3; }
    std::int64_t offset() const {
      const RunGroup& g = (*groups())[group_];
      std::int64_t off = g.base_offset +
                         static_cast<std::int64_t>(run_) * g.stride;
      if (section_ == 1) off += static_cast<std::int64_t>(rep_) * l_->body_stride_;
      return off;
    }
    std::size_t len() const { return (*groups())[group_].run_len; }
    void next();

   private:
    const std::vector<RunGroup>* groups() const;
    void settle();

    const Layout* l_;
    int section_{0};  // 0 = head, 1 = body, 2 = tail, 3 = end
    std::size_t group_{0};
    std::size_t rep_{0};
    std::size_t run_{0};
  };

  RunCursor runs() const { return RunCursor(*this); }

  /// Materialize the full segment list (tests and per-run consumers only —
  /// O(count x runs) memory, the cost the compressed form exists to avoid).
  std::vector<Segment> materialize() const;

  // ---- Compressed-form introspection ----

  /// Run groups across all three sections.
  std::size_t groupCount() const {
    return head_.size() + body_.size() + tail_.size();
  }
  std::size_t bodyRepetitions() const { return body_reps_; }
  std::int64_t bodyStride() const { return body_stride_; }
  /// Heap bytes held by the compressed representation and its op list.
  std::size_t compressedBytes() const {
    return (head_.capacity() + body_.capacity() + tail_.capacity()) *
               sizeof(RunGroup) +
           ops_.capacity() * sizeof(PackOp) +
           op_offsets_.capacity() * sizeof(std::int64_t);
  }

  // ---- Compiled pack program (built by finalize(), immutable after) ----

  /// Ops run once before the body.
  std::span<const PackOp> headOps() const {
    return std::span(ops_).first(body_ops_begin_);
  }
  /// Ops run bodyRepetitions() times, instance r shifted r * bodyStride().
  std::span<const PackOp> bodyOps() const {
    return std::span(ops_).subspan(body_ops_begin_,
                                   body_ops_end_ - body_ops_begin_);
  }
  /// Ops run once after the body.
  std::span<const PackOp> tailOps() const {
    return std::span(ops_).subspan(body_ops_end_);
  }
  /// Run starts of the table ops, indexed by PackOp::base.
  std::span<const std::int64_t> opOffsets() const { return op_offsets_; }

 private:
  template <class F>
  static void emitGroup(const RunGroup& g, std::int64_t shift, F&& emit) {
    std::int64_t off = g.base_offset + shift;
    for (std::size_t j = 0; j < g.run_count; ++j, off += g.stride) {
      emit(off, g.run_len);
    }
  }

  /// Compute the cached statistics from the populated sections, then
  /// compile the op list.
  void finalize(std::size_t extent);
  /// Append the ops of one section; table ops never span two sections.
  void compileSection(const std::vector<RunGroup>& groups);

  std::vector<RunGroup> head_;
  std::vector<RunGroup> body_;
  std::vector<RunGroup> tail_;
  std::size_t body_reps_{0};
  std::int64_t body_stride_{0};

  std::vector<PackOp> ops_;
  std::vector<std::int64_t> op_offsets_;
  std::size_t body_ops_begin_{0};
  std::size_t body_ops_end_{0};

  std::size_t size_{0};
  std::size_t extent_{0};
  std::size_t block_count_{0};
  std::size_t min_block_{0};
  std::size_t max_block_{0};
  std::int64_t min_offset_{0};
  std::int64_t end_offset_{0};
  std::uint64_t signature_{0};
};

using LayoutPtr = std::shared_ptr<const Layout>;

/// Flatten `count` elements of `type` into a canonical compressed layout in
/// O(blocks-per-element) (plus the one-off cost of the non-periodic
/// fallback, which only ragged resized/overhanging types take).
Layout flatten(const DatatypePtr& type, std::size_t count);

/// Entry/byte budget for the layout cache (see LayoutCache).
struct LayoutCacheLimits {
  /// Max resident entries (derived layouts + element forms). 0 = unbounded.
  std::size_t max_entries{4096};
  /// Max resident compressed-form bytes. 0 = unbounded.
  std::size_t max_bytes{8u << 20};
};

/// Lifetime counters of the cache. A *miss* is a get() that had to flatten
/// the element form (the only O(blocks) work); everything else — including a
/// new count derived from a cached element form — is a *hit*.
struct LayoutCacheCounters {
  std::size_t hits{0};
  std::size_t misses{0};
  /// Hits that built a count-specific layout from the cached element form.
  std::size_t derivations{0};
  std::size_t evictions{0};
};

/// Memoizing cache over flatten(). Two levels, one LRU:
///   element forms, keyed by type id  — the canonical single-element run
///     list; one flatten per distinct type, any count derivable in O(runs);
///   derived layouts, keyed by (type id, count) — the shared Layout handles
///     requests reference.
/// Both levels live in one LRU list bounded by LayoutCacheLimits.
class LayoutCache {
 public:
  LayoutCache() : LayoutCache(LayoutCacheLimits{}) {}
  explicit LayoutCache(LayoutCacheLimits limits);

  /// Returns the cached layout, flattening the element form on first use of
  /// the type and deriving the (type, count) layout on first use of the pair.
  LayoutPtr get(const DatatypePtr& type, std::size_t count);

  const LayoutCacheCounters& counters() const { return counters_; }
  std::size_t hits() const { return counters_.hits; }
  std::size_t misses() const { return counters_.misses; }
  std::size_t evictions() const { return counters_.evictions; }
  /// Compressed-form bytes currently resident (both levels).
  std::size_t residentBytes() const { return resident_bytes_; }
  /// Derived (type, count) layouts resident.
  std::size_t entries() const { return derived_entries_; }
  /// Per-element canonical forms resident.
  std::size_t elementForms() const { return element_entries_; }
  const LayoutCacheLimits& limits() const { return limits_; }

  /// Drop all entries and reset the counters.
  void clear();

  /// Attach a tracer (nullptr detaches): resident bytes/entries become a
  /// counter series named "<name>.*" sampled at `clock`'s current time, and
  /// evictions emit instants. `clock` outlives the cache.
  void setTracer(sim::Tracer* tracer, const sim::Engine* clock,
                 const std::string& name = "layout_cache");

 private:
  struct ElementForm {
    std::vector<Segment> segments;  // canonical: sorted, coalesced
    std::size_t extent{0};
    std::size_t heapBytes() const {
      return segments.capacity() * sizeof(Segment);
    }
  };
  /// count is meaningless for element forms (flagged by `elem`).
  struct Key {
    std::uint64_t id{0};
    std::size_t count{0};
    bool elem{false};
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    LayoutPtr layout;                         // derived entries
    std::shared_ptr<const ElementForm> form;  // element entries
    std::size_t bytes{0};
    std::list<Key>::iterator lru;
  };

  void touch(Entry& e);
  void insert(Key key, Entry e);
  /// Evict LRU entries until within budget, never touching `keep0`/`keep1`
  /// (the entries serving the current get()).
  void enforceBudget(const Key& keep0, const Key& keep1);
  void sampleTrace();

  LayoutCacheLimits limits_;
  std::map<Key, Entry> cache_;
  std::list<Key> lru_;  // front = most recently used
  LayoutCacheCounters counters_;
  std::size_t resident_bytes_{0};
  std::size_t derived_entries_{0};
  std::size_t element_entries_{0};

  sim::Tracer* tracer_{nullptr};
  const sim::Engine* clock_{nullptr};
  std::string trace_name_;
};

}  // namespace dkf::ddt
