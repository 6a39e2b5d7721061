// Tests for the GPU simulator: device memory, coalescing analysis (known
// address patterns → exact transaction counts), divergence accounting,
// masked commits, register tracking, shared-memory bank conflicts (the
// coalescer's and the bank model's exact fast paths are checked against
// brute-force references over fixed seeds), the occupancy calculator
// (checked against CUDA occupancy rules for cc2.0), the timing model, and
// the transfer schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mog/gpusim/kernel_launch.hpp"
#include "mog/gpusim/occupancy.hpp"
#include "mog/gpusim/timing_model.hpp"
#include "mog/gpusim/transfer_model.hpp"

namespace mog::gpusim {
namespace {

// ---------------------------------------------------------------------------
// DeviceMemory
// ---------------------------------------------------------------------------

TEST(DeviceMemory, AllocatesAlignedDisjointRegions) {
  DeviceMemory mem{1 << 20};
  const auto a = mem.alloc<double>(100);
  const auto b = mem.alloc<double>(100);
  EXPECT_EQ(a.dev_addr % 256, 0u);
  EXPECT_EQ(b.dev_addr % 256, 0u);
  EXPECT_GE(b.dev_addr, a.dev_addr + 100 * sizeof(double));
  EXPECT_NE(a.data, b.data);
}

TEST(DeviceMemory, OutOfMemoryThrows) {
  DeviceMemory mem{1024};
  EXPECT_THROW(mem.alloc<double>(1000), Error);
}

TEST(DeviceMemory, CopyRoundTrip) {
  DeviceMemory mem{1 << 16};
  auto span = mem.alloc<int>(16);
  std::vector<int> src(16);
  std::iota(src.begin(), src.end(), 0);
  EXPECT_EQ(copy_to_device(span, src.data(), 16), 16 * sizeof(int));
  std::vector<int> dst(16, -1);
  EXPECT_EQ(copy_from_device(dst.data(), span, 16), 16 * sizeof(int));
  EXPECT_EQ(src, dst);
}

TEST(DeviceMemory, SubspanAddressing) {
  DeviceMemory mem{1 << 16};
  const auto span = mem.alloc<double>(64);
  const auto sub = span.subspan(8, 16);
  EXPECT_EQ(sub.dev_addr, span.dev_addr + 8 * sizeof(double));
  EXPECT_EQ(sub.count, 16u);
  EXPECT_THROW(span.subspan(60, 8), Error);
}

// ---------------------------------------------------------------------------
// Coalescer
// ---------------------------------------------------------------------------

KernelStats run_access(Coalescer::Kind kind,
                       const std::vector<std::uint64_t>& addrs,
                       unsigned bytes_per_lane) {
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats stats;
  c.access(kind, addrs, bytes_per_lane, stats);
  return stats;
}

TEST(Coalescer, FullyCoalescedDoubleLoadIsTwoSegments) {
  // 32 consecutive doubles starting at a 128 B boundary: exactly two 128 B
  // load transactions, 100% efficiency.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 8 * i);
  const KernelStats s = run_access(Coalescer::Kind::kLoad, addrs, 8);
  EXPECT_EQ(s.load_transactions, 2u);
  EXPECT_EQ(s.bytes_requested_load, 256u);
  EXPECT_EQ(s.bytes_transferred_load, 256u);
  EXPECT_DOUBLE_EQ(s.memory_access_efficiency(), 1.0);
}

TEST(Coalescer, StridedAoSLoadWastesBandwidth) {
  // The paper's Fig. 4a: 72-byte stride (3 components x 3 params x 8 B)
  // spans 2304 B = 18 segments of 128 B for 256 useful bytes ≈ 11%.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 72 * i);
  const KernelStats s = run_access(Coalescer::Kind::kLoad, addrs, 8);
  EXPECT_EQ(s.load_transactions, 18u);
  EXPECT_NEAR(s.memory_access_efficiency(), 256.0 / (18 * 128), 1e-12);
}

TEST(Coalescer, CoalescedStoreUses32ByteSegments) {
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x20000 + 8 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 8);
  EXPECT_EQ(s.store_transactions, 8u);  // 256 B / 32 B
  EXPECT_EQ(s.rmw_transactions, 0u);    // fully covered: no ECC RMW
  EXPECT_DOUBLE_EQ(s.memory_access_efficiency(), 1.0);
}

TEST(Coalescer, PartialStoreTriggersEccReadModifyWrite) {
  // Every second lane stores: each 32 B segment is half-covered, so every
  // store transaction drags an RMW read along.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 16; ++i) addrs.push_back(0x20000 + 16 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 8);
  EXPECT_EQ(s.store_transactions, 8u);
  EXPECT_EQ(s.rmw_transactions, 8u);
  // transferred = 8 writes + 8 RMW reads, requested = 128 B.
  EXPECT_NEAR(s.memory_access_efficiency(), 128.0 / (16 * 32), 1e-12);
}

TEST(Coalescer, DuplicateLaneStoresCountCoverageOnce) {
  // 32 lanes all storing the same 4-byte word: one 32 B store segment with
  // only 4 of 32 bytes covered → the ECC read-modify-write must fire.
  // Summed per-lane extents would claim 128 bytes of coverage and mask it.
  std::vector<std::uint64_t> addrs(32, 0x20000);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 4);
  EXPECT_EQ(s.store_transactions, 1u);
  EXPECT_EQ(s.rmw_transactions, 1u);
}

TEST(Coalescer, OverlappingStoreExtentsDedupeByteCoverage) {
  // Lanes 0..15 write overlapping 4-byte spans at stride 2 covering bytes
  // [0, 34): segment 0 is fully covered (no RMW), segment 1 only holds two
  // bytes (RMW). The summed-extent bug saw 64 bytes on segment 0 either way,
  // but also masked genuinely partial patterns like segment 1's.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 16; ++i) addrs.push_back(0x20000 + 2 * i);
  const KernelStats s = run_access(Coalescer::Kind::kStore, addrs, 4);
  EXPECT_EQ(s.store_transactions, 2u);
  EXPECT_EQ(s.rmw_transactions, 1u);
}

TEST(Coalescer, L1WindowServesImmediateReuse) {
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats s;
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 8 * i);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  EXPECT_EQ(s.load_transactions, 2u);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);  // same lines again
  EXPECT_EQ(s.load_transactions, 2u) << "second access must hit L1";
}

TEST(Coalescer, L1WindowThrashesOnWideFootprints) {
  // An 18-segment AoS access evicts everything (capacity 4): re-reading the
  // same addresses misses again — the paper's AoS eviction behaviour.
  DeviceSpec spec;
  Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
  c.begin_warp();
  KernelStats s;
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(0x10000 + 72 * i);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  c.access(Coalescer::Kind::kLoad, addrs, 8, s);
  EXPECT_EQ(s.load_transactions, 36u);
}

TEST(Coalescer, InactiveWarpEmitsNothing) {
  const KernelStats s = run_access(Coalescer::Kind::kLoad, {}, 8);
  EXPECT_EQ(s.load_transactions, 0u);
  EXPECT_EQ(s.load_instructions, 0u);
}

TEST(Coalescer, LsuReplayCountsDistinctLinesOnce) {
  // Two ascending unaligned 8-byte accesses both straddling the same 128 B
  // line boundary: lines {0, 1} are touched, so the replay charge is one
  // re-issue — the monotone fast path must not recount the shared line_last
  // per element.
  const KernelStats s =
      run_access(Coalescer::Kind::kLoad, {0x10000 + 124, 0x10000 + 126}, 8);
  const KernelStats one =
      run_access(Coalescer::Kind::kLoad, {0x10000 + 124}, 8);
  EXPECT_EQ(s.issue_cycles - one.issue_cycles, 0u)
      << "second straddler touches no new line: no extra replay";
}

TEST(Coalescer, LsuReplayMatchesBetweenMonotoneAndScatterOrder) {
  // The same address multiset must charge the same replay cycles whether the
  // lanes issue it ascending (monotone fast path) or permuted (scatter
  // path): distinct-line count is order-independent.
  std::vector<std::uint64_t> asc;
  for (int i = 0; i < 32; ++i) asc.push_back(0x30000 + 124 + 2 * i);
  std::vector<std::uint64_t> perm = asc;
  std::swap(perm[0], perm[31]);
  std::swap(perm[5], perm[17]);
  const KernelStats a = run_access(Coalescer::Kind::kLoad, asc, 8);
  const KernelStats b = run_access(Coalescer::Kind::kLoad, perm, 8);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
}

TEST(SegmentCache, LruEviction) {
  SegmentCache cache{2};
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
  EXPECT_TRUE(cache.access(1));   // still resident, now MRU
  EXPECT_FALSE(cache.access(3));  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
}

// ---------------------------------------------------------------------------
// Coalescer vs. a brute-force reference
// ---------------------------------------------------------------------------

using Addrs = std::vector<std::uint64_t>;
using Kind = Coalescer::Kind;

/// LRU lookup, most recent first: true on a hit; inserts the key either way.
bool lru_touch(std::deque<std::uint64_t>& lru, std::uint64_t key, int cap) {
  const auto it = std::find(lru.begin(), lru.end(), key);
  const bool hit = it != lru.end();
  if (hit) lru.erase(it);
  lru.push_front(key);
  if (static_cast<int>(lru.size()) > cap) lru.pop_back();
  return hit;
}

/// The coalescing rules applied byte by byte, with none of Coalescer's
/// shortcuts: every byte of every active lane marks its segment (in first
/// touch order, which the L1 LRU depends on) and its 128-byte replay line;
/// a store segment is read-modify-written unless every one of its bytes was
/// written. The L1 window and the 32 open DRAM rows are plain deques.
class RefCoalescer {
 public:
  explicit RefCoalescer(const DeviceSpec& spec) : spec_(spec) {}

  void begin_warp() { l1_.clear(); }
  void set_page_trace(Addrs* trace) { trace_ = trace; }

  void access(Kind kind, const Addrs& addrs, unsigned bpl, KernelStats& s) {
    if (addrs.empty()) return;
    const bool load = kind == Kind::kLoad;
    const std::uint64_t seg = static_cast<std::uint64_t>(
        load ? spec_.load_segment_bytes : spec_.store_segment_bytes);
    Addrs order;
    std::map<std::uint64_t, std::set<std::uint64_t>> written;
    std::set<std::uint64_t> lines;
    for (const std::uint64_t a : addrs) {
      for (std::uint64_t b = a; b < a + bpl; ++b) {
        if (written.count(b / seg) == 0) order.push_back(b / seg);
        written[b / seg].insert(b);
        lines.insert(b / 128);
      }
    }
    std::uint64_t transactions = 0;
    std::uint64_t rmw = 0;
    for (const std::uint64_t sg : order) {
      if (load && lru_touch(l1_, sg, kEffectiveL1SegmentsPerWarp)) continue;
      ++transactions;
      if (!load && written[sg].size() != seg) ++rmw;
      const std::uint64_t page = sg * seg / spec_.dram_page_bytes;
      if (trace_ != nullptr) {
        trace_->push_back(page);
      } else if (!lru_touch(rows_, page, 32)) {
        ++s.dram_page_switches;
      }
    }
    s.issue_cycles += (lines.size() - 1) * kCyclesLsuReplay;
    const std::uint64_t requested = addrs.size() * bpl;
    if (load) {
      ++s.load_instructions;
      s.load_transactions += transactions;
      s.bytes_requested_load += requested;
      s.bytes_transferred_load += transactions * seg;
    } else {
      ++s.store_instructions;
      s.store_transactions += transactions;
      s.rmw_transactions += rmw;
      s.bytes_requested_store += requested;
      s.bytes_transferred_store += (transactions + rmw) * seg;
    }
  }

 private:
  DeviceSpec spec_;
  std::deque<std::uint64_t> l1_;
  std::deque<std::uint64_t> rows_;
  Addrs* trace_ = nullptr;
};

/// Every counter the coalescer writes, printed for a readable diff.
std::string memory_counters(const KernelStats& s) {
  std::ostringstream os;
  os << "ld " << s.load_instructions << '/' << s.load_transactions;
  os << '/' << s.bytes_requested_load << '/' << s.bytes_transferred_load;
  os << " st " << s.store_instructions << '/' << s.store_transactions;
  os << '/' << s.rmw_transactions << '/' << s.bytes_requested_store;
  os << '/' << s.bytes_transferred_store;
  os << " pages " << s.dram_page_switches << " issue " << s.issue_cycles;
  return os.str();
}

/// One random warp memory instruction's lane addresses. `pattern` 0 is a
/// contiguous run, 1 a uniform stride, 2 a scatter, 3 groups of lanes
/// sharing an address, 4 overlapping elements one byte apart. Bases are
/// unaligned and often sit just below a segment, line or page boundary,
/// so elements straddle it.
Addrs lane_addrs(std::mt19937_64& rng, unsigned bpl, int lanes, int pattern) {
  const std::uint64_t boundaries[] = {32, 128, 4096};
  std::uint64_t base = 0x40000 + rng() % (3 * 4096);
  if (rng() % 2 == 0) {
    const std::uint64_t b = boundaries[rng() % 3];
    base = (base / b + 1) * b - rng() % (lanes * bpl + 1);
  }
  Addrs addrs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(lanes); ++i) {
    if (pattern == 0) addrs.push_back(base + i * bpl);
    if (pattern == 1) addrs.push_back(base + i * bpl * 9);
    if (pattern == 2) addrs.push_back(base + rng() % 1024);
    if (pattern == 3) addrs.push_back(base + i / 4 * bpl);
    if (pattern == 4) addrs.push_back(base + i);
  }
  return addrs;
}

TEST(CoalescerDifferential, ContiguousRunsMatchBruteForce) {
  // The closed form (access_run()) and the monotone walk access() takes
  // for the same run, against the byte-by-byte reference: loads
  // and stores, 1/4/8-byte lanes, unaligned and boundary-straddling bases,
  // partial warps, with and without the deferred page trace. State carries
  // across instructions, so L1 and open-row history are compared too.
  const DeviceSpec spec;
  const unsigned widths[] = {1, 4, 8};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    for (const bool traced : {false, true}) {
      std::mt19937_64 rng{seed};
      Coalescer via_access{spec, kEffectiveL1SegmentsPerWarp};
      Coalescer via_run{spec, kEffectiveL1SegmentsPerWarp};
      RefCoalescer ref{spec};
      Addrs t_access, t_run, t_ref;
      if (traced) {
        via_access.set_page_trace(&t_access);
        via_run.set_page_trace(&t_run);
        ref.set_page_trace(&t_ref);
      }
      KernelStats s_access, s_run, s_ref;
      for (int step = 0; step < 400; ++step) {
        if (step % 16 == 0) {
          via_access.begin_warp();
          via_run.begin_warp();
          ref.begin_warp();
        }
        const Kind kind = rng() % 2 == 0 ? Kind::kLoad : Kind::kStore;
        const unsigned bpl = widths[rng() % 3];
        int lanes = kWarpSize;
        if (rng() % 3 == 0) lanes = static_cast<int>(1 + rng() % 32);
        const Addrs addrs = lane_addrs(rng, bpl, lanes, 0);
        via_access.access(kind, addrs, bpl, s_access);
        via_run.access_run(kind, addrs[0], lanes, bpl, s_run);
        ref.access(kind, addrs, bpl, s_ref);
        const std::string want = memory_counters(s_ref);
        ASSERT_EQ(memory_counters(s_access), want)
            << "access(), seed " << seed << " step " << step;
        ASSERT_EQ(memory_counters(s_run), want)
            << "access_run(), seed " << seed << " step " << step;
      }
      EXPECT_EQ(t_access, t_ref) << "seed " << seed;
      EXPECT_EQ(t_run, t_ref) << "seed " << seed;
      EXPECT_EQ(traced, !t_ref.empty());
    }
  }
}

TEST(CoalescerDifferential, EveryPatternMatchesBruteForce) {
  // Contiguous runs interleaved with the monotone (uniform stride, shared
  // and overlapping addresses) and scatter paths on one coalescer, so each
  // path also inherits L1 and open-row state left by the others.
  const DeviceSpec spec;
  const unsigned widths[] = {1, 4, 8};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    for (const bool traced : {false, true}) {
      std::mt19937_64 rng{seed};
      Coalescer c{spec, kEffectiveL1SegmentsPerWarp};
      RefCoalescer ref{spec};
      Addrs t_c, t_ref;
      if (traced) {
        c.set_page_trace(&t_c);
        ref.set_page_trace(&t_ref);
      }
      KernelStats s_c, s_ref;
      for (int step = 0; step < 400; ++step) {
        if (step % 16 == 0) {
          c.begin_warp();
          ref.begin_warp();
        }
        const Kind kind = rng() % 2 == 0 ? Kind::kLoad : Kind::kStore;
        const unsigned bpl = widths[rng() % 3];
        const int lanes = static_cast<int>(1 + rng() % 32);
        const int pattern = static_cast<int>(rng() % 5);
        const Addrs addrs = lane_addrs(rng, bpl, lanes, pattern);
        c.access(kind, addrs, bpl, s_c);
        ref.access(kind, addrs, bpl, s_ref);
        ASSERT_EQ(memory_counters(s_c), memory_counters(s_ref))
            << "pattern " << pattern << ", seed " << seed << " step " << step;
      }
      EXPECT_EQ(t_c, t_ref) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Warp execution
// ---------------------------------------------------------------------------

/// Harness: run `fn(WarpCtx&)` as a single full warp and return the stats.
template <typename Fn>
KernelStats run_warp(Fn&& fn, int lanes = 32) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = lanes;
  cfg.threads_per_block = 32;
  return dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { fn(w); });
  });
}

TEST(Warp, ElementwiseArithmetic) {
  run_warp([](WarpCtx&) {
    Vec<double> a = Vec<double>::iota(0.0);
    Vec<double> b(2.0);
    const Vec<double> sum = a + b;
    const Vec<double> prod = a * b;
    EXPECT_DOUBLE_EQ(sum[5], 7.0);
    EXPECT_DOUBLE_EQ(prod[5], 10.0);
    EXPECT_DOUBLE_EQ(vabs(a - Vec<double>(31.0))[0], 31.0);
    EXPECT_DOUBLE_EQ(vsqrt(Vec<double>(16.0))[3], 4.0);
    EXPECT_DOUBLE_EQ(vfma(a, b, b)[4], 10.0);
    EXPECT_DOUBLE_EQ(vmax(a, Vec<double>(10.0))[3], 10.0);
    EXPECT_DOUBLE_EQ(vmin(a, Vec<double>(10.0))[3], 3.0);
  });
}

TEST(Warp, PredicatesAndSelect) {
  run_warp([](WarpCtx&) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    const Pred low = vlt(lane, 16);
    EXPECT_TRUE(low.lane(3));
    EXPECT_FALSE(low.lane(20));
    const Vec<int32_t> sel = select(low, Vec<int32_t>(1), Vec<int32_t>(0));
    EXPECT_EQ(sel[3], 1);
    EXPECT_EQ(sel[20], 0);
    EXPECT_TRUE((low & ~low).bits == 0u);
    EXPECT_TRUE((low | ~low).bits == 0xffffffffu);
  });
}

TEST(Warp, DivergentBranchExecutesBothPathsUnderMask) {
  KernelStats s = run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    Vec<int32_t> out(0);
    int then_runs = 0, else_runs = 0;
    w.if_then_else(
        vlt(lane, 8),
        [&] {
          ++then_runs;
          w.set(out, Vec<int32_t>(1));
        },
        [&] {
          ++else_runs;
          w.set(out, Vec<int32_t>(2));
        });
    EXPECT_EQ(then_runs, 1);
    EXPECT_EQ(else_runs, 1);
    EXPECT_EQ(out[3], 1);   // then-path lanes
    EXPECT_EQ(out[20], 2);  // else-path lanes
  });
  EXPECT_EQ(s.branches_executed, 1u);
  EXPECT_EQ(s.branches_divergent, 1u);
}

TEST(Warp, UniformBranchIsNotDivergent) {
  KernelStats s = run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    int runs = 0;
    w.if_then(vlt(lane, 64), [&] { ++runs; });  // all lanes taken
    w.if_then(vlt(lane, -1), [&] { ++runs; });  // no lane taken
    EXPECT_EQ(runs, 1);
  });
  EXPECT_EQ(s.branches_executed, 2u);
  EXPECT_EQ(s.branches_divergent, 0u);
}

TEST(Warp, NestedMasksCompose) {
  run_warp([](WarpCtx& w) {
    const Vec<int32_t> lane = Vec<int32_t>::iota(0);
    Vec<int32_t> out(0);
    w.if_then(vlt(lane, 16), [&] {
      w.if_then(vge(lane, 8), [&] { w.set(out, Vec<int32_t>(7)); });
    });
    EXPECT_EQ(out[4], 0);
    EXPECT_EQ(out[12], 7);
    EXPECT_EQ(out[20], 0);
  });
}

TEST(Warp, MaskRestoredAfterBranch) {
  run_warp([](WarpCtx& w) {
    const std::uint32_t before = w.active_mask();
    w.if_then(vlt(Vec<int32_t>::iota(0), 4), [] {});
    EXPECT_EQ(w.active_mask(), before);
  });
}

TEST(Warp, WhileAnyDropsLanesOut) {
  KernelStats s = run_warp([](WarpCtx& w) {
    Vec<int32_t> remaining = Vec<int32_t>::iota(0);  // lane i loops i times
    Vec<int32_t> count(0);
    w.while_any([&] { return vgt(remaining, 0); },
                [&] {
                  w.set(count, count + Vec<int32_t>(1));
                  w.set(remaining, remaining - Vec<int32_t>(1));
                });
    EXPECT_EQ(count[0], 0);
    EXPECT_EQ(count[5], 5);
    EXPECT_EQ(count[31], 31);
    EXPECT_EQ(w.active_count(), 32);  // mask restored
  });
  // 32 loop-condition evaluations; every one except the final all-false
  // evaluation drops some-but-not-all lanes, i.e. diverges.
  EXPECT_EQ(s.branches_executed, 32u);
  EXPECT_EQ(s.branches_divergent, 31u);
}

TEST(Warp, RaggedLastWarpMasksHighLanes) {
  KernelStats s = run_warp(
      [](WarpCtx& w) {
        EXPECT_EQ(w.active_count(), 10);
        EXPECT_EQ(w.active_mask(), (1u << 10) - 1);
      },
      /*lanes=*/10);
  EXPECT_EQ(s.num_warps, 1u);
}

TEST(Warp, GlobalIdsFollowBlockDecomposition) {
  // Serial executor: the test records warp bases into a host vector and
  // asserts their order, which is only defined for single-threaded launches.
  DeviceSpec spec;
  spec.executor_threads = 1;
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 256;
  cfg.threads_per_block = 64;
  std::vector<std::int64_t> bases;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) { bases.push_back(w.global_base()); });
  });
  EXPECT_EQ(bases, (std::vector<std::int64_t>{0, 32, 64, 96, 128, 160, 192,
                                              224}));
}

TEST(Warp, LoadStoreRoundTripAndCounters) {
  Device dev;
  auto buf = dev.memory().alloc<double>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = i;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  const KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      Vec<double> v = w.load<double>(buf, idx);
      EXPECT_DOUBLE_EQ(v[7], 7.0);
      w.store(buf, idx, v + Vec<double>(1.0));
    });
  });
  EXPECT_DOUBLE_EQ(buf.data[7], 8.0);
  EXPECT_EQ(s.load_instructions, 1u);
  EXPECT_EQ(s.store_instructions, 1u);
  EXPECT_EQ(s.load_transactions, 2u);
  EXPECT_EQ(s.store_transactions, 8u);
}

TEST(Warp, MaskedStoreOnlyTouchesActiveLanes) {
  Device dev;
  auto buf = dev.memory().alloc<int>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = -1;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      w.if_then(vlt(Vec<int32_t>::iota(0), 4),
                [&] { w.store(buf, idx, Vec<int32_t>(9)); });
    });
  });
  EXPECT_EQ(buf.data[0], 9);
  EXPECT_EQ(buf.data[3], 9);
  EXPECT_EQ(buf.data[4], -1);
}

TEST(Warp, OutOfBoundsAccessIsCaught) {
  Device dev;
  auto buf = dev.memory().alloc<int>(16);
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  EXPECT_THROW(dev.launch(cfg,
                          [&](BlockCtx& blk) {
                            blk.parallel([&](WarpCtx& w) {
                              w.load<int>(buf, w.global_ids());
                            });
                          }),
               Error);
}

TEST(Warp, IotaAndCast) {
  run_warp([](WarpCtx&) {
    const Vec<int32_t> stepped = Vec<int32_t>::iota(10, 3);
    EXPECT_EQ(stepped[0], 10);
    EXPECT_EQ(stepped[4], 22);
    const Vec<double> as_double = vcast<double>(stepped);
    EXPECT_DOUBLE_EQ(as_double[4], 22.0);
    const Vec<int32_t> truncated = vcast<int32_t>(Vec<double>(3.9));
    EXPECT_EQ(truncated[7], 3);
  });
}

TEST(Warp, FloatArithmeticChargesLessThanDouble) {
  const KernelStats f32 = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f), b(2.0f);
    for (int i = 0; i < 10; ++i) a = a * b + b;
  });
  const KernelStats f64 = run_warp([](WarpCtx&) {
    Vec<double> a(1.0), b(2.0);
    for (int i = 0; i < 10; ++i) a = a * b + b;
  });
  EXPECT_LT(f32.issue_cycles, f64.issue_cycles);
}

TEST(Warp, DivisionAndSqrtAreExpensive) {
  const KernelStats cheap = run_warp([](WarpCtx&) {
    Vec<double> a(5.0), b(2.0);
    (void)(a * b);
  });
  const KernelStats costly = run_warp([](WarpCtx&) {
    Vec<double> a(5.0), b(2.0);
    (void)(a / b);
    (void)vsqrt(a);
  });
  EXPECT_GT(costly.issue_cycles, 10 * cheap.issue_cycles);
}

TEST(Warp, DivisionByZeroLanesStayFinite) {
  run_warp([](WarpCtx&) {
    Vec<double> num(4.0), den(0.0);
    const Vec<double> q = num / den;
    EXPECT_DOUBLE_EQ(q[0], 0.0);  // guarded, not inf/NaN
    EXPECT_DOUBLE_EQ((4.0 / Vec<double>(2.0))[3], 2.0);
  });
}

TEST(Warp, LaneMaxReduction) {
  run_warp([](WarpCtx& w) {
    const Vec<int32_t> v = Vec<int32_t>::iota(0);
    EXPECT_EQ(w.lane_max(v), 31);
    w.if_then(vlt(v, 5), [&] { EXPECT_EQ(w.lane_max(v), 4); });
    w.if_then(vlt(v, -1), [&] { FAIL() << "no lanes active"; });
  });
}

TEST(Warp, PartialWarpLoadLeavesInactiveLanesZero) {
  Device dev;
  auto buf = dev.memory().alloc<double>(32);
  for (int i = 0; i < 32; ++i) buf.data[i] = 7.0;
  LaunchConfig cfg;
  cfg.num_threads = 8;  // only 8 lanes active
  cfg.threads_per_block = 32;
  dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      const Vec<double> v = w.load<double>(buf, w.global_ids());
      EXPECT_DOUBLE_EQ(v[3], 7.0);
      EXPECT_DOUBLE_EQ(v[20], 0.0);
    });
  });
}

TEST(Stats, AveragedOverDividesExtensiveCounters) {
  KernelStats s;
  s.issue_cycles = 100;
  s.load_transactions = 40;
  s.regs_per_thread = 33;
  s.num_warps = 10;
  const KernelStats avg = s.averaged_over(10);
  EXPECT_EQ(avg.issue_cycles, 10u);
  EXPECT_EQ(avg.load_transactions, 4u);
  EXPECT_EQ(avg.num_warps, 1u);
  EXPECT_EQ(avg.regs_per_thread, 33);  // intensive: unchanged
}

TEST(Stats, AccumulateTakesMaxOfResources) {
  KernelStats a, b;
  a.regs_per_thread = 30;
  a.shared_bytes_per_block = 1024;
  b.regs_per_thread = 35;
  b.shared_bytes_per_block = 512;
  a += b;
  EXPECT_EQ(a.regs_per_thread, 35);
  EXPECT_EQ(a.shared_bytes_per_block, 1024u);
}

TEST(Occupancy, EmbeddedSpecUsesKeplerLimits) {
  const DeviceSpec spec = embedded_device_spec();
  EXPECT_EQ(spec.max_warps_per_sm, 64);
  // 32 regs, 128 tpb on Kepler: the 16-block limit binds first.
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 16);
  EXPECT_EQ(occ.warps_per_sm, 64);
  EXPECT_NEAR(occ.theoretical, 1.0, 1e-12);
}

TEST(Warp, RegisterTrackingSeesLiveVecs) {
  KernelStats few = run_warp([](WarpCtx&) {
    Vec<double> a(1.0), b(2.0);
    (void)(a + b);
  });
  KernelStats many = run_warp([](WarpCtx&) {
    std::vector<Vec<double>> arrs(8, Vec<double>(1.0));
    Vec<double> acc(0.0);
    for (auto& a : arrs) acc = acc + a;
  });
  EXPECT_GT(many.regs_per_thread, few.regs_per_thread);
}

TEST(Warp, VecConstructedOutsideKernelCannotUnderflowRegTracker) {
  // A Vec constructed while no kernel runs (exec_env() == nullptr) is never
  // register-tracked; destroying it while a later kernel runs on the same
  // thread must not release words it never allocated. Before the tracked_
  // flag, the release drove live_words negative, so the kernel's own Vecs
  // climbed back through zero and regs_per_thread under-reported.
  auto kernel_body = [](WarpCtx&) {
    std::vector<Vec<double>> arrs(4, Vec<double>(1.0));
    Vec<double> acc(0.0);
    for (auto& a : arrs) acc = acc + a;
  };
  const KernelStats clean = run_warp(kernel_body);

  auto outside = std::make_unique<Vec<double>>(5.0);  // untracked
  DeviceSpec spec;
  spec.executor_threads = 1;  // blocks run on this thread
  Device dev{spec};
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  const KernelStats poisoned = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.parallel([&](WarpCtx& w) {
      outside.reset();  // destroyed mid-warp, while exec_env() is installed
      kernel_body(w);
    });
  });
  EXPECT_EQ(poisoned.regs_per_thread, clean.regs_per_thread);
}

TEST(Warp, VcastChargesDestinationWidth) {
  // vcast cycle cost must follow the destination type: float→double runs on
  // the half-rate DP pipe, float→int on the int pipe (it used to flat-charge
  // kCyclesSpArith regardless).
  const KernelStats base = run_warp([](WarpCtx&) { Vec<float> a(1.0f); });
  const KernelStats to_dp = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f);
    (void)vcast<double>(a);
  });
  const KernelStats to_int = run_warp([](WarpCtx&) {
    Vec<float> a(1.0f);
    (void)vcast<std::int32_t>(a);
  });
  EXPECT_EQ(to_dp.issue_cycles - base.issue_cycles,
            static_cast<std::uint64_t>(kCyclesDpArith));
  EXPECT_EQ(to_int.issue_cycles - base.issue_cycles,
            static_cast<std::uint64_t>(kCyclesIntArith));
  EXPECT_EQ(to_dp.warp_instructions - base.warp_instructions, 1u);
}

TEST(Warp, SharedMemoryRoundTripAndConflicts) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<float>(64);
    blk.parallel([&](WarpCtx& w) {
      const Vec<Addr> idx = w.global_ids();
      w.shared_store(sh, idx, Vec<float>(3.5f));
      const Vec<float> v = w.shared_load(sh, idx);
      EXPECT_FLOAT_EQ(v[13], 3.5f);
    });
  });
  EXPECT_EQ(s.shared_bytes_per_block, 64 * sizeof(float));
  EXPECT_EQ(s.shared_accesses, 2u);
  // Conflict-free: stride-1 float across 32 banks.
  EXPECT_EQ(s.shared_cycles, 2u * kCyclesSharedF32);
}

TEST(Warp, SharedMemoryBankConflictsCharged) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    auto sh = blk.shared_alloc<float>(32 * 32);
    blk.parallel([&](WarpCtx& w) {
      // Stride-32 float: every lane hits bank 0 → 32-way conflict.
      const Vec<Addr> idx = Vec<Addr>::iota(0, 32);
      w.shared_load(sh, idx);
    });
  });
  EXPECT_EQ(s.shared_cycles, 32u * kCyclesSharedF32);
}

TEST(Warp, SharedOverCapacityThrows) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  EXPECT_THROW(
      dev.launch(cfg,
                 [&](BlockCtx& blk) { blk.shared_alloc<double>(7000); }),
      Error);
}

// ---------------------------------------------------------------------------
// Shared-memory bank conflicts vs. a brute-force reference
// ---------------------------------------------------------------------------

using Words = std::vector<std::uint32_t>;

/// Largest number of distinct words any of the 32 banks serves (at least
/// one): the bank model's definition, by brute force.
int ref_conflict_degree(const Words& words) {
  std::map<std::uint32_t, std::set<std::uint32_t>> banks;
  for (const std::uint32_t w : words) banks[w % 32].insert(w);
  std::size_t degree = 1;
  for (const auto& bank : banks) degree = std::max(degree, bank.second.size());
  return static_cast<int>(degree);
}

/// n strictly increasing words from w0 to w0 + span (2 <= n <= span + 1),
/// the interior drawn at random.
Words increasing(std::mt19937_64& rng, std::uint32_t w0, int span, int n) {
  Words interior(static_cast<std::size_t>(span - 1));
  std::iota(interior.begin(), interior.end(), w0 + 1);
  std::shuffle(interior.begin(), interior.end(), rng);
  interior.resize(static_cast<std::size_t>(n - 2));
  Words words{w0, w0 + static_cast<std::uint32_t>(span)};
  words.insert(words.end(), interior.begin(), interior.end());
  std::sort(words.begin(), words.end());
  return words;
}

TEST(SharedBankDifferential, ConflictDegreeMatchesBruteForce) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    std::mt19937_64 rng{seed};
    std::vector<Words> cases;
    cases.push_back({7});
    for (int rep = 0; rep < 50; ++rep) {
      const auto w0 = static_cast<std::uint32_t>(rng() % 5000);
      const int n = 2 + static_cast<int>(rng() % 31);
      // Spans either side of the one-word-per-bank limit, and a wide one.
      for (const int span : {31, 32, 33, 200})
        cases.push_back(increasing(rng, w0, span, std::min(n, span + 1)));
      cases.push_back(increasing(rng, w0, 31, 32));
      // A uniform word stride (1: 4-byte elements, 2: 8-byte ones), a
      // broadcast, a scatter, and the scatter sorted (repeats included).
      const auto stride = static_cast<std::uint32_t>(1 + rng() % 70);
      Words strided, scatter;
      for (int i = 0; i < n; ++i) {
        strided.push_back(w0 + static_cast<std::uint32_t>(i) * stride);
        scatter.push_back(w0 + static_cast<std::uint32_t>(rng() % 96));
      }
      cases.push_back(strided);
      cases.push_back(Words(static_cast<std::size_t>(n), w0));
      cases.push_back(scatter);
      std::sort(scatter.begin(), scatter.end());
      cases.push_back(scatter);
    }
    for (const Words& words : cases) {
      const int n = static_cast<int>(words.size());
      std::ostringstream os;
      for (const std::uint32_t w : words) os << w << ' ';
      ASSERT_EQ(detail::bank_conflict_degree(words.data(), n),
                ref_conflict_degree(words))
          << "seed " << seed << ", words " << os.str();
    }
  }
}

/// shared_cycles of one shared_load of `idx` under `mask`, run in a warp.
template <typename T>
std::uint64_t warp_shared_cycles(const std::vector<Addr>& idx, Pred mask) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 32;
  cfg.threads_per_block = 32;
  const KernelStats s = dev.launch(cfg, [&](BlockCtx& blk) {
    blk.shared_alloc<std::uint32_t>(3);  // the span below starts at byte 16
    const SharedSpan<T> sh = blk.shared_alloc<T>(4096 / sizeof(T));
    blk.parallel([&](WarpCtx& w) {
      Vec<Addr> v = Vec<Addr>::uninit();
      std::copy(idx.begin(), idx.end(), v.lanes().begin());
      w.if_then(mask, [&] { w.shared_load(sh, v); });
    });
  });
  return s.shared_cycles;
}

/// The bank model's charge for the same access, by brute force over the
/// active lanes' first words.
template <typename T>
std::uint64_t ref_shared_cycles(const std::vector<Addr>& idx, Pred mask) {
  Words words;
  for (int i = 0; i < kWarpSize; ++i) {
    const std::uint64_t byte = 16 + idx[i] * sizeof(T);
    if (mask.lane(i)) words.push_back(static_cast<std::uint32_t>(byte / 4));
  }
  const int cycles = sizeof(T) == 8 ? kCyclesSharedF64 : kCyclesSharedF32;
  return static_cast<std::uint64_t>(ref_conflict_degree(words) * cycles);
}

template <typename T>
void check_shared_charges(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const Addr last = static_cast<Addr>(4096 / sizeof(T)) - 1;
  for (int rep = 0; rep < 40; ++rep) {
    const auto stride = static_cast<Addr>(rng() % 34);  // 0: broadcast
    const auto base = static_cast<Addr>(rng() % 64);
    Pred mask{kFullMask};
    if (rep % 3 != 0) mask.bits = static_cast<std::uint32_t>(rng()) | 1u;
    std::vector<Addr> idx;
    for (int i = 0; i < kWarpSize; ++i)
      idx.push_back(std::min(base + stride * i, last));
    for (int order = 0; order < 2; ++order) {
      ASSERT_EQ(warp_shared_cycles<T>(idx, mask),
                ref_shared_cycles<T>(idx, mask))
          << sizeof(T) << "-byte, stride " << stride << ", order " << order;
      std::shuffle(idx.begin(), idx.end(), rng);
    }
  }
}

TEST(SharedBankDifferential, WarpChargesMatchBruteForce) {
  // Through WarpCtx: word addresses come from 4- and 8-byte element
  // indices (stride-1 doubles: word stride 2, degree 2), partial masks
  // compact the active lanes first, and a shuffled lane order sends the
  // same words through the dedupe instead of the increasing-order path.
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    check_shared_charges<float>(seed);
    check_shared_charges<std::int32_t>(seed);
    check_shared_charges<double>(seed);
  }
}

TEST(Launch, ValidatesConfig) {
  Device dev;
  LaunchConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
  cfg.num_threads = 128;
  cfg.threads_per_block = 48;  // not a warp multiple
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
  cfg.threads_per_block = 2048;  // beyond device limit
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
}

// ---------------------------------------------------------------------------
// Occupancy (cross-checked against the CUDA occupancy calculator, cc2.0)
// ---------------------------------------------------------------------------

TEST(Occupancy, UnconstrainedKernelHitsBlockLimit) {
  DeviceSpec spec;
  // 128 threads/block, 16 regs, no shared: 8-block limit → 32 warps of 48.
  const Occupancy occ = compute_occupancy(spec, 16, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 8);
  EXPECT_EQ(occ.warps_per_sm, 32);
  EXPECT_NEAR(occ.theoretical, 32.0 / 48.0, 1e-12);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kBlocks);
}

TEST(Occupancy, RegisterLimit) {
  DeviceSpec spec;
  // 36 regs → 1152 regs/warp → 28 resident warps → 7 blocks of 4 warps.
  const Occupancy occ = compute_occupancy(spec, 36, 128, 0);
  EXPECT_EQ(occ.blocks_per_sm, 7);
  EXPECT_EQ(occ.warps_per_sm, 28);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kRegisters);
  EXPECT_NEAR(occ.achieved, (28.0 / 48.0) * kAchievedOccupancyFactor, 1e-12);
}

TEST(Occupancy, SharedMemoryLimit) {
  DeviceSpec spec;
  // 46080 B/block (the tiled kernel at K=3, double): one block per SM.
  const Occupancy occ = compute_occupancy(spec, 20, 640, 46080);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_EQ(occ.warps_per_sm, 20);
  EXPECT_EQ(occ.limiter, Occupancy::Limiter::kSharedMem);
}

TEST(Occupancy, WarpLimitForLargeBlocks) {
  DeviceSpec spec;
  // 1024 threads/block = 32 warps: only one block fits the 48-warp SM.
  const Occupancy occ = compute_occupancy(spec, 16, 1024, 0);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_EQ(occ.warps_per_sm, 32);
}

TEST(Occupancy, MonotoneInRegisters) {
  DeviceSpec spec;
  double prev = 1.0;
  for (int regs = 20; regs <= 63; regs += 4) {
    const Occupancy occ = compute_occupancy(spec, regs, 128, 0);
    EXPECT_LE(occ.theoretical, prev + 1e-12);
    prev = occ.theoretical;
  }
}

TEST(Occupancy, RejectsBadInputs) {
  DeviceSpec spec;
  EXPECT_THROW(compute_occupancy(spec, 0, 128, 0), Error);
  EXPECT_THROW(compute_occupancy(spec, 32, 4096, 0), Error);
}

// ---------------------------------------------------------------------------
// Timing model
// ---------------------------------------------------------------------------

KernelStats synthetic_stats() {
  KernelStats s;
  s.issue_cycles = 10'000'000;
  s.load_transactions = 100'000;
  s.store_transactions = 100'000;
  s.bytes_transferred_load = 100'000 * 128;
  s.bytes_transferred_store = 100'000 * 32;
  s.bytes_requested_load = s.bytes_transferred_load;
  s.bytes_requested_store = s.bytes_transferred_store;
  s.regs_per_thread = 32;
  s.threads_per_block = 128;
  return s;
}

TEST(TimingModel, MoreComputeTakesLonger) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats a = synthetic_stats();
  KernelStats b = a;
  b.issue_cycles *= 2;
  EXPECT_GT(kernel_time(b, occ, spec).total_seconds,
            kernel_time(a, occ, spec).total_seconds);
}

TEST(TimingModel, HigherOccupancyHidesLatency) {
  DeviceSpec spec;
  const KernelStats s = synthetic_stats();
  const Occupancy low = compute_occupancy(spec, 60, 128, 0);
  const Occupancy high = compute_occupancy(spec, 20, 128, 0);
  ASSERT_LT(low.achieved, high.achieved);
  EXPECT_GT(kernel_time(s, low, spec).exposed_latency_seconds,
            kernel_time(s, high, spec).exposed_latency_seconds);
  EXPECT_GT(kernel_time(s, low, spec).total_seconds,
            kernel_time(s, high, spec).total_seconds);
}

TEST(TimingModel, BandwidthFloorBindsTrafficHeavyKernels) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats s = synthetic_stats();
  s.bytes_transferred_load = 4ull << 30;  // 4 GB of traffic
  const KernelTiming t = kernel_time(s, occ, spec);
  EXPECT_STREQ(t.bound_by, "bandwidth");
  EXPECT_NEAR(t.total_seconds,
              t.bandwidth_floor_seconds + t.launch_overhead_seconds, 1e-9);
}

TEST(TimingModel, LaunchOverheadAlwaysPresent) {
  DeviceSpec spec;
  const Occupancy occ = compute_occupancy(spec, 32, 128, 0);
  KernelStats s;  // empty kernel
  s.regs_per_thread = 32;
  s.threads_per_block = 128;
  EXPECT_GE(kernel_time(s, occ, spec).total_seconds, kKernelLaunchSeconds);
}

// ---------------------------------------------------------------------------
// Transfer model / schedules (Fig. 5)
// ---------------------------------------------------------------------------

TEST(TransferModel, BandwidthPlusSetup) {
  DeviceSpec spec;
  const double t = transfer_seconds(spec, 1 << 20);
  EXPECT_NEAR(t,
              spec.dma_setup_seconds +
                  (1 << 20) / (spec.pcie_effective_gbps * 1e9),
              1e-12);
  EXPECT_DOUBLE_EQ(transfer_seconds(spec, 0), 0.0);
}

TEST(TransferSchedules, OverlapNeverSlower) {
  FrameSchedule f;
  f.upload_seconds = 2e-3;
  f.kernel_seconds = 5e-3;
  f.download_seconds = 2e-3;
  for (std::uint64_t n : {1ull, 2ull, 10ull, 450ull}) {
    EXPECT_LE(overlapped_pipeline_seconds(f, n),
              sequential_pipeline_seconds(f, n) + 1e-12);
  }
}

TEST(TransferSchedules, OverlapHidesTransfersWhenKernelDominates) {
  // The paper's Fig. 5b: steady-state per-frame cost is max(kernel, up+down).
  FrameSchedule f;
  f.upload_seconds = 2e-3;
  f.kernel_seconds = 5e-3;
  f.download_seconds = 2e-3;
  const std::uint64_t n = 1000;
  const double total = overlapped_pipeline_seconds(f, n);
  EXPECT_NEAR(total / static_cast<double>(n), f.kernel_seconds, 1e-4);
}

TEST(TransferSchedules, TransferBoundWhenKernelIsShort) {
  FrameSchedule f;
  f.upload_seconds = 4e-3;
  f.kernel_seconds = 1e-3;
  f.download_seconds = 4e-3;
  const double total = overlapped_pipeline_seconds(f, 1000);
  EXPECT_NEAR(total / 1000.0, 8e-3, 1e-4);
}

TEST(TransferSchedules, SequentialIsSumOfParts) {
  FrameSchedule f;
  f.upload_seconds = 1e-3;
  f.kernel_seconds = 2e-3;
  f.download_seconds = 3e-3;
  EXPECT_DOUBLE_EQ(sequential_pipeline_seconds(f, 10), 60e-3);
  EXPECT_DOUBLE_EQ(overlapped_pipeline_seconds(f, 0), 0.0);
}

}  // namespace
}  // namespace mog::gpusim
