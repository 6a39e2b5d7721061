// paper_ladder: the reproduction run. One clip through GpuMogPipeline<double>
// (K = 3) at every optimization step A..G, then tiled g = 8 at F and at G.
// Untiled steps load the global-memory coalescer, tiled loads the
// shared-memory path, and G loads the fused post-processing epilogue.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "mog/cpu/serial_mog.hpp"
#include "mog/metrics/confusion.hpp"
#include "mog/obs/sampler.hpp"
#include "mog/pipeline/gpu_pipeline.hpp"
#include "mog/postproc/validation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mog::FrameU8;
using mog::kernels::OptLevel;
using Pipeline = mog::GpuMogPipeline<double>;

struct LadderCfg {
  const char* name;
  OptLevel level;
  bool tiled;
};
constexpr LadderCfg kLadder[] = {
    {"A", OptLevel::kA, false},     {"B", OptLevel::kB, false},
    {"C", OptLevel::kC, false},     {"D", OptLevel::kD, false},
    {"E", OptLevel::kE, false},     {"F", OptLevel::kF, false},
    {"G", OptLevel::kG, false},     {"tiled8", OptLevel::kF, true},
    {"tiled8G", OptLevel::kG, true}};
constexpr std::size_t kCfgs = std::size(kLadder);
constexpr std::size_t kF = 5, kG = 6, kTiled = 7, kTiledG = 8;
constexpr int kTiledGroup = 8;
// One-worker against all-worker passes per configuration in a traced run.
constexpr int kScalingPairs = 3;

// F and tiled g = 8 may flip threshold-straddling pixels (fused multiply-add,
// F's rewritten diff, the tiled residency). These are the bounds the test
// suite allows (tests/test_kernels.cpp), over frames from the fifth on.
constexpr double kMaxDisagreeVsSerial = 0.02;
constexpr double kMaxDisagreeTiledVsF = 0.01;
constexpr int kDisagreeFrom = 5;

// The library's sampling profiler splits gpusim internally during traced
// rounds (a prime rate, so sampling does not lock onto a periodic loop).
constexpr int kSampleHz = 997;
constexpr const char* kSampledTags[] = {"kernel_launch", "warp_dispatch",
                                        "coalescer_access"};

Pipeline::Config make_config(const Options& o, const LadderCfg& c,
                             int threads) {
  Pipeline::Config cfg;
  cfg.width = o.width;
  cfg.height = o.height;
  cfg.level = c.level;
  cfg.tiled = c.tiled;
  cfg.tiled_config.frame_group = kTiledGroup;
  cfg.executor_threads = threads;
  return cfg;
}

struct CfgRun {
  double host_s = 0;  ///< time inside process() and flush()
  std::vector<FrameU8> masks;
  std::vector<double> op_latency_s;  ///< process() call to mask returned
  double modeled_s_per_frame = 0;
  mog::gpusim::KernelStats per_frame;
  double launches_per_frame = 0;
  double occupancy = 0;
};

/// One pass of the clip through `p`. Masks are copied out between the timed
/// calls; a buffered (tiled) frame's latency runs from its own process()
/// call to the call that returned its mask.
CfgRun run_clip(Pipeline& p, const Clip& clip, const LadderCfg& c,
                Tracer& tracer) {
  CfgRun r;
  const int n = static_cast<int>(clip.frames.size());
  r.masks.reserve(static_cast<std::size_t>(n));
  std::vector<Clock::time_point> owed;
  auto deliver = [&](Clock::time_point now, const std::vector<FrameU8>& ms) {
    for (const Clock::time_point t0 : owed)
      r.op_latency_s.push_back(seconds_between(t0, now));
    owed.clear();
    r.masks.insert(r.masks.end(), ms.begin(), ms.end());
  };
  FrameU8 fg;
  for (int t = 0; t < n; ++t) {
    const Clock::time_point t0 = Clock::now();
    bool got = false;
    {
      SpanScope span(tracer, "pipeline.process", c.name, t);
      got = p.process(clip.frames[static_cast<std::size_t>(t)], fg);
    }
    const Clock::time_point t1 = Clock::now();
    r.host_s += seconds_between(t0, t1);
    owed.push_back(t0);
    if (got) deliver(t1, p.last_group_masks());
  }
  std::vector<FrameU8> tail;
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "pipeline.flush", c.name, n);
    p.flush(tail);
  }
  const Clock::time_point t1 = Clock::now();
  r.host_s += seconds_between(t0, t1);
  if (!tail.empty()) deliver(t1, tail);

  const auto frames = p.frames_processed();
  if (frames > 0) {
    r.modeled_s_per_frame = p.modeled_seconds() / static_cast<double>(frames);
    r.per_frame = p.per_frame_stats();
    r.launches_per_frame = static_cast<double>(p.kernel_launches()) /
                           static_cast<double>(frames);
    r.occupancy = p.occupancy().achieved;
  }
  return r;
}

struct Refs {
  std::vector<FrameU8> serial;  ///< SerialMog<double> masks of the clip
};

/// Checks one round; marks failed operations (cfg-major: op = cfg * n + t).
void check_round(const Options& o, const Clip& clip, const Refs& refs,
                 std::vector<CfgRun>& runs, Ledger& ledger) {
  const std::size_t n = clip.frames.size();
  std::vector<char> bad(kCfgs * n, 0);
  auto fail_cfg = [&](std::size_t c, const std::string& why) {
    ledger.problem(std::string(kLadder[c].name) + ": " + why);
    std::fill(bad.begin() + static_cast<std::ptrdiff_t>(c * n),
              bad.begin() + static_cast<std::ptrdiff_t>((c + 1) * n), 1);
  };
  for (std::size_t c = 0; c < kCfgs; ++c) {
    const CfgRun& r = runs[c];
    if (r.masks.size() != n)
      ledger.problem(std::string(kLadder[c].name) + ": " +
                     std::to_string(r.masks.size()) + " masks for " +
                     std::to_string(n) + " frames");
    for (std::size_t t = 0; t < n; ++t) {
      if (t >= r.masks.size() || !is_valid_mask(r.masks[t], o.width, o.height))
        bad[c * n + t] = 1;
      else if (c < kF && !same_pixels(r.masks[t], refs.serial[t]))
        bad[c * n + t] = 1;
    }
    if (c < kF && std::count(bad.begin() + static_cast<std::ptrdiff_t>(c * n),
                             bad.begin() + static_cast<std::ptrdiff_t>((c + 1) * n), 1))
      ledger.problem(std::string(kLadder[c].name) +
                     ": masks differ from SerialMog<double>");
  }
  auto complete = [&](std::size_t c) { return runs[c].masks.size() == n; };

  // F and tiled g = 8: bounded disagreement.
  auto mean_disagreement = [&](const std::vector<FrameU8>& a,
                               const std::vector<FrameU8>& b) {
    double sum = 0;
    for (std::size_t t = kDisagreeFrom; t < n; ++t)
      sum += mog::mask_disagreement(a[t], b[t]);
    return sum / static_cast<double>(n - kDisagreeFrom);
  };
  for (const std::size_t c : {kF, kTiled})
    if (complete(c)) {
      const double d = mean_disagreement(runs[c].masks, refs.serial);
      if (d >= kMaxDisagreeVsSerial)
        fail_cfg(c, "disagreement with SerialMog " + std::to_string(d));
    }
  if (complete(kF) && complete(kTiled)) {
    const double d = mean_disagreement(runs[kTiled].masks, runs[kF].masks);
    if (d >= kMaxDisagreeTiledVsF)
      fail_cfg(kTiled, "disagreement with F " + std::to_string(d));
  }
  // G is the host cleanup of F, fused on the device.
  for (const auto& [g, f] : {std::pair{kG, kF}, std::pair{kTiledG, kTiled}})
    if (complete(g) && complete(f))
      for (std::size_t t = 0; t < n; ++t)
        if (!same_pixels(runs[g].masks[t],
                         mog::validate_foreground(runs[f].masks[t],
                                                  mog::fused_validation_config()))) {
          bad[g * n + t] = 1;
          ledger.problem(std::string(kLadder[g].name) + ": frame " +
                         std::to_string(t) + " differs from host cleanup");
        }
  for (std::size_t c = 0; c < kCfgs; ++c) {
    if (!complete(c)) continue;
    QualityFloor q;
    for (std::size_t t = static_cast<std::size_t>(o.warmup); t < n; ++t)
      q.add(runs[c].masks[t], clip.truth[t]);
    if (!q.ok()) fail_cfg(c, "quality " + q.describe());
    const auto& s = runs[c].per_frame;
    const double mae = s.memory_access_efficiency(), be = s.branch_efficiency();
    if (s.bytes_transferred() < s.bytes_requested() || !(mae >= 0 && mae <= 1) ||
        !(be >= 0 && be <= 1) || !(runs[c].occupancy >= 0 && runs[c].occupancy <= 1))
      fail_cfg(c, "counters out of range");
  }
  ledger.attempted += bad.size();
  ledger.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

}  // namespace

void run_paper_ladder(const Options& o, Tracer& tracer, Report& report) {
  const Clip clip = render_clip(clip_scene(o), o.frames);
  const std::size_t n = clip.frames.size();
  Refs refs;
  {
    mog::SerialMog<double> serial{o.width, o.height};
    refs.serial.resize(n);
    for (std::size_t t = 0; t < n; ++t) serial.apply(clip.frames[t], refs.serial[t]);
  }
  const double pixels_per_round =
      static_cast<double>(kCfgs * n) * o.width * o.height;

  EndToEnd e2e;
  std::vector<std::vector<double>> cfg_host_s(kCfgs);  // untraced rounds
  std::vector<double> traced_host_s(kCfgs, 0.0);
  std::vector<CfgRun> last;
  Attribution attribution;
  double sampled_ticks = 0;
  std::vector<double> sampled_hits(std::size(kSampledTags), 0.0);
  bool first = true;

  drive_rounds(o.trace, o.seconds, [&](RoundKind kind) {
    const HostProbe probe;
    const bool traced = kind == RoundKind::kTraced;
    tracer.set_enabled(traced);
    const std::size_t span0 = tracer.spans().size();
    mog::obs::Sampler& sampler = mog::obs::Sampler::global();
    if (traced && !sampler.start(kSampleHz))
      throw std::runtime_error("the sampling profiler is already running");
    std::vector<CfgRun> runs;
    std::vector<double> setup;
    double round_s = 0;  // inside process() and flush()
    const Clock::time_point round0 = Clock::now();
    {
      SpanScope root(tracer, "bench.round", "paper_ladder");
      auto pipes = timed_setup(
          tracer,
          [&](int) {
            std::vector<std::unique_ptr<Pipeline>> built;
            for (const LadderCfg& c : kLadder) {
              SpanScope span(tracer, "setup.pipeline", c.name);
              built.push_back(std::make_unique<Pipeline>(
                  make_config(o, c, kExecutorThreads)));
            }
            return built;
          },
          setup);
      for (std::size_t c = 0; c < kCfgs; ++c) {
        runs.push_back(run_clip(*pipes[c], clip, kLadder[c], tracer));
        round_s += runs.back().host_s;
      }
    }
    const double round_wall_s = seconds_between(round0, Clock::now());
    tracer.set_enabled(false);
    if (traced) {
      sampler.stop();
      const mog::obs::FlameProfile profile = sampler.take();
      sampled_ticks += static_cast<double>(profile.ticks);
      for (const mog::obs::FlameStack& stack : profile.stacks)
        for (std::size_t i = 0; i < std::size(kSampledTags); ++i)
          if (std::find(stack.frames.begin(), stack.frames.end(),
                        kSampledTags[i]) != stack.frames.end())
            sampled_hits[i] += static_cast<double>(stack.count);
    }
    e2e.add_slowdown(probe.finish());
    if (first) {
      for (std::size_t c = 0; c < kCfgs; ++c)
        for (std::size_t t = 0; t < runs[c].masks.size(); ++t)
          maybe_corrupt(o, static_cast<long>(c * n + t), runs[c].masks[t]);
      first = false;
    }
    check_round(o, clip, refs, runs, report.ledger);
    if (kind == RoundKind::kMeasured) {
      attribution.untraced(round_wall_s);
      std::vector<double> latency_s;
      for (std::size_t c = 0; c < kCfgs; ++c) {
        cfg_host_s[c].push_back(runs[c].host_s);
        latency_s.insert(latency_s.end(), runs[c].op_latency_s.begin(),
                         runs[c].op_latency_s.end());
      }
      e2e.add_round(setup, pixels_per_round / round_s / 1e6, latency_s);
    } else if (traced) {
      attribution.traced(tracer, span0);
      for (const Span& s : tracer.since(span0))
        for (std::size_t c = 0; c < kCfgs; ++c)
          if (std::string_view(s.tag) == kLadder[c].name &&
              std::string_view(s.name) != "setup.pipeline")
            traced_host_s[c] += s.end - s.start;
    }
    // Only the counters outlive the round.
    for (CfgRun& r : runs) {
      r.masks = {};
      r.op_latency_s = {};
    }
    last = std::move(runs);
  });

  double modeled_sum = 0;
  for (const CfgRun& r : last) modeled_sum += r.modeled_s_per_frame;
  report.notes.push_back("paper_ladder: " + std::to_string(o.width) + "x" +
                         std::to_string(o.height) + ", " + std::to_string(n) +
                         " frames, K=3 double, executor_threads=" +
                         std::to_string(kExecutorThreads));

  if (!o.trace) {
    e2e.report(report);
    report.info("sim_mpix_s", e2e.host_mpix_s(), "Mpix/s");
    report.info("modeled_ms_per_frame", 1e3 * modeled_sum, "ms");
    for (std::size_t c = 0; c < kCfgs; ++c)
      report.info(std::string("pipeline.") + kLadder[c].name + ".host_ms_per_frame",
                  1e3 * median(cfg_host_s[c]) / static_cast<double>(n), "ms");
    return;
  }

  // --- traced run: per-layer metrics ----------------------------------------
  const double frames_traced = static_cast<double>(n) * attribution.traced_rounds();
  std::vector<double> host_ms(kCfgs);
  for (std::size_t c = 0; c < kCfgs; ++c) {
    host_ms[c] = 1e3 * traced_host_s[c] / frames_traced;
    report.layer(std::string("pipeline.") + kLadder[c].name + ".host_ms_per_frame",
                 host_ms[c], "ms");
  }
  for (std::size_t c = 0; c < kCfgs; ++c)
    report.layer(std::string("pipeline.") + kLadder[c].name +
                     ".modeled_ms_per_frame",
                 1e3 * last[c].modeled_s_per_frame, "ms");
  report.layer("sim_mpix_s", e2e.host_mpix_s(), "Mpix/s");
  report.layer("modeled_ms_per_frame", 1e3 * modeled_sum, "ms");
  report.layer("kernels.G.epilogue_host_ms_per_frame", host_ms[kG] - host_ms[kF], "ms");
  report.layer("kernels.tiled8G.epilogue_host_ms_per_frame",
               host_ms[kTiledG] - host_ms[kTiled], "ms");
  report.layer("kernels.G.launches_per_frame", last[kG].launches_per_frame, "count");

  double warp_instr = 0, transactions = 0, host_s_per_frame = 0;
  for (std::size_t c = 0; c < kCfgs; ++c) {
    warp_instr += static_cast<double>(last[c].per_frame.warp_instructions);
    transactions += static_cast<double>(last[c].per_frame.total_transactions());
    host_s_per_frame += host_ms[c] / 1e3;
  }
  report.layer("gpusim.warp_instructions_per_frame", warp_instr, "count");
  report.layer("gpusim.ns_per_warp_instruction", 1e9 * ratio(host_s_per_frame, warp_instr), "ns");
  report.layer("gpusim.mem_transactions_per_frame", transactions, "count");
  report.layer("gpusim.ns_per_mem_transaction", 1e9 * ratio(host_s_per_frame, transactions), "ns");
  const auto& f = last[kF].per_frame;
  report.layer("gpusim.bytes_transferred_per_frame",
               static_cast<double>(f.bytes_transferred()), "B");
  report.layer("gpusim.memory_access_efficiency", f.memory_access_efficiency(), "ratio");
  report.layer("gpusim.branch_efficiency", f.branch_efficiency(), "ratio");
  report.layer("gpusim.occupancy", last[kF].occupancy, "ratio");
  report.layer("gpusim.shared_accesses_per_frame",
               static_cast<double>(last[kTiled].per_frame.shared_accesses), "count");

  // Executor scaling: the clip on one worker against the clip on every
  // pinned thread, in back-to-back pairs so both sides see the same host
  // load; the median pair ratio.
  Tracer off{false};
  for (const std::size_t c : {kF, kTiled}) {
    std::vector<double> pair_ratios;
    for (int pair = 0; pair < kScalingPairs; ++pair) {
      Pipeline one{make_config(o, kLadder[c], 1)};
      const double one_s = run_clip(one, clip, kLadder[c], off).host_s;
      Pipeline wide{make_config(o, kLadder[c], parallel_threads())};
      pair_ratios.push_back(ratio(one_s, run_clip(wide, clip, kLadder[c], off).host_s));
    }
    report.layer(std::string("gpusim.executor_scaling_") + kLadder[c].name + "_x",
                 median(pair_ratios), "x");
  }

  // Sampled (not traced) share of the traced rounds' wall time spent inside
  // each gpusim phase, children included.
  for (std::size_t i = 0; i < std::size(kSampledTags); ++i)
    report.layer(std::string("sampled.gpusim.") + kSampledTags[i] + "_share",
                 ratio(sampled_hits[i], sampled_ticks), "ratio");
  attribution.report("paper_ladder", report);
}

}  // namespace perfbench
