// Global-memory coalescing model (Fermi-style).
//
// Per warp memory instruction, the active lanes' byte addresses are folded
// into memory segments:
//   * loads  — 128 B segments (L1 cache-line granularity). A small LRU
//     segment cache stands in for the per-warp slice of the 16 KB L1: with
//     ~48 resident warps contending for 128 lines, each warp effectively
//     keeps only a handful of lines alive between its own instructions —
//     exactly the eviction behaviour the paper describes for the AoS layout
//     ("the cache line holding the data will be evicted while all threads in
//     a group read their m").
//   * stores — 32 B segments, no caching (Fermi L1 is write-evict).
//
// The analyzer also tracks DRAM row locality: each transaction landing on a
// different 4 KB page than its predecessor counts a page switch, which the
// timing model charges a small activation penalty. Streaming access patterns
// pay almost nothing; the tiled kernel's frame-group gathers pay per frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mog/gpusim/device_spec.hpp"
#include "mog/gpusim/stats.hpp"

namespace mog::gpusim {

/// Open-row LRU of the DRAM model: GDDR5 keeps one row open per bank across
/// many banks and channels; 32 concurrently-open rows means streaming
/// patterns (a handful of array streams) pay almost nothing while wide
/// gathers across many regions (e.g. large tiled frame groups) pay
/// activations. Row state deliberately persists across warps *and* blocks —
/// the parallel block executor preserves those serial-order semantics by
/// replaying each block's recorded page sequence in block order (see
/// Device::launch).
class DramRowLru {
 public:
  /// Returns true when `page` is already open; opens it (LRU) otherwise.
  /// Inline: the serial launch path consults it once per DRAM transaction.
  bool access(std::uint64_t page) {
    for (int i = 0; i < open_count_; ++i) {
      if (open_rows_[i] == page) {
        for (int j = i; j > 0; --j) open_rows_[j] = open_rows_[j - 1];
        open_rows_[0] = page;
        return true;
      }
    }
    if (open_count_ < kOpenRows) ++open_count_;
    for (int j = open_count_ - 1; j > 0; --j)
      open_rows_[j] = open_rows_[j - 1];
    open_rows_[0] = page;
    return false;
  }

 private:
  static constexpr int kOpenRows = 32;
  std::uint64_t open_rows_[kOpenRows];
  int open_count_ = 0;
};

class SegmentCache {
 public:
  explicit SegmentCache(int capacity);

  /// Returns true on hit; inserts (LRU) on miss. Inline: consulted once per
  /// distinct load segment of every warp memory instruction.
  bool access(std::uint64_t segment_id) {
    // MRU-first linear scan; on hit, move to front.
    for (int i = 0; i < size_; ++i) {
      if (lines_[i] == segment_id) {
        for (int j = i; j > 0; --j) lines_[j] = lines_[j - 1];
        lines_[0] = segment_id;
        return true;
      }
    }
    // Miss: shift and insert at front, evicting the LRU tail.
    if (size_ < capacity_) ++size_;
    for (int j = size_ - 1; j > 0; --j) lines_[j] = lines_[j - 1];
    lines_[0] = segment_id;
    return false;
  }
  void clear();
  int capacity() const { return capacity_; }

 private:
  int capacity_;
  // Tiny capacity (≤ 16): a plain array beats any map.
  std::uint64_t lines_[16];
  int size_ = 0;
};

class Coalescer {
 public:
  Coalescer(const DeviceSpec& spec, int effective_l1_segments);

  enum class Kind { kLoad, kStore };

  /// Record one warp-level memory instruction. `addrs` are the active
  /// lanes' element byte addresses; `bytes_per_lane` the access width.
  void access(Kind kind, std::span<const std::uint64_t> addrs,
              unsigned bytes_per_lane, KernelStats& stats);

  /// The same instruction when its `lanes` active lanes address the
  /// contiguous run a0 + i * bytes_per_lane (i = 0..lanes-1): counted in
  /// closed form, bit-identical to access() on the expanded addresses.
  /// WarpCtx calls it directly for unit-stride index vectors, skipping the
  /// per-lane address array.
  void access_run(Kind kind, std::uint64_t a0, int lanes,
                  unsigned bytes_per_lane, KernelStats& stats);

  /// Reset per-warp state (segment cache) at warp start.
  void begin_warp();

  /// Restore construction state (cold caches, inline row accounting) so a
  /// persistent per-worker Coalescer can be reused across launches without
  /// reallocating — equivalent to destroying and rebuilding it.
  void reset();

  /// Deferred row accounting for the parallel block executor: while a trace
  /// is installed, DRAM-bound transactions append their page id to it
  /// instead of consulting the local open-row LRU, and dram_page_switches is
  /// *not* incremented inline. The launcher replays the per-block traces in
  /// block order through one DramRowLru afterwards, reproducing the serial
  /// execution's counts exactly regardless of which host worker ran which
  /// block. Pass nullptr to restore inline accounting (the standalone-use
  /// default, e.g. unit tests and the coalescing ablation bench).
  void set_page_trace(std::vector<std::uint64_t>* trace) {
    page_trace_ = trace;
  }

 private:
  /// LSU replay granularity: one re-issue per 128-byte L1 line beyond the
  /// first, whatever the access kind's segment size.
  static constexpr std::uint64_t kReplayLineBytes = 128;

  unsigned segment_bytes(Kind kind) const {
    return static_cast<unsigned>(kind == Kind::kLoad ? load_segment_bytes_
                                                     : store_segment_bytes_);
  }
  std::uint64_t segment_of(Kind kind, std::uint64_t addr) const {
    const int shift = kind == Kind::kLoad ? load_seg_shift_ : store_seg_shift_;
    return shift >= 0 ? addr >> shift : addr / segment_bytes(kind);
  }

  /// Shared tail of access()/access_run(): L1 lookup, ECC read-modify-write
  /// and DRAM row accounting per distinct segment (in first-touch order),
  /// LSU replay, and the instruction's counters.
  void commit(Kind kind, const std::uint64_t* segs,
              const std::uint64_t* covered, int n, int replay_lines,
              std::uint64_t requested, KernelStats& stats);

  int load_segment_bytes_;
  int store_segment_bytes_;
  int page_bytes_;
  // Segment/page sizes are powers of two on every real device, so the
  // address→segment and segment→page maps are shifts; -1 falls back to
  // division for a hypothetical non-power-of-two spec. Hardware 64-bit
  // division dominated Coalescer::access before this (dozens per warp
  // memory instruction).
  int load_seg_shift_;
  int store_seg_shift_;
  int page_shift_;
  SegmentCache l1_;
  DramRowLru rows_;
  std::vector<std::uint64_t>* page_trace_ = nullptr;
};

}  // namespace mog::gpusim
