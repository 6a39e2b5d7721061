// cpu_facade: the CPU production path. The clip runs through
// BackgroundSubtractor::apply with each CPU backend, and every mask goes
// through host validate_foreground with the default ValidationConfig (the
// `mogcli --validate` stage). Never enters gpusim: a simulator change should
// leave this workload unmoved.
#include <algorithm>
#include <memory>

#include "mog/core/background_subtractor.hpp"
#include "mog/cpu/serial_mog.hpp"
#include "mog/metrics/confusion.hpp"
#include "mog/postproc/validation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using mog::BackgroundSubtractor;
using mog::FrameU8;

struct BackendCfg {
  const char* name;
  BackgroundSubtractor::Backend backend;
};
constexpr BackendCfg kBackends[] = {
    {"serial", BackgroundSubtractor::Backend::kCpuSerial},
    {"simd", BackgroundSubtractor::Backend::kCpuSimd},
    {"parallel", BackgroundSubtractor::Backend::kCpuParallel}};
constexpr std::size_t kNumBackends = std::size(kBackends);
constexpr std::size_t kSerial = 0, kSimd = 1, kParallel = 2;

// SimdMog is the no-sort rewrite; its decisions may differ from the sorted
// reference on threshold-straddling pixels, within the bound the test suite
// allows the no-sort GPU steps.
constexpr double kMaxSimdDisagreement = 0.02;
constexpr std::size_t kDisagreeFrom = 5;

struct BackendRun {
  double apply_s = 0;
  double validate_s = 0;
  std::vector<double> apply_op_s, validate_op_s;
  std::vector<FrameU8> raw, clean;
};

struct Refs {
  std::vector<FrameU8> serial;        ///< SerialMog<double> masks
  std::vector<FrameU8> serial_clean;  ///< their host cleanup
};

void check_round(const Options& o, const Clip& clip, const Refs& refs,
                 const mog::ValidationConfig& validation,
                 const std::vector<BackendRun>& runs, Ledger& ledger) {
  const std::size_t n = clip.frames.size();
  std::vector<char> bad(kNumBackends * n, 0);
  auto fail_backend = [&](std::size_t b, const std::string& why) {
    ledger.problem(std::string(kBackends[b].name) + ": " + why);
    std::fill(bad.begin() + static_cast<std::ptrdiff_t>(b * n),
              bad.begin() + static_cast<std::ptrdiff_t>((b + 1) * n), 1);
  };
  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const BackendRun& r = runs[b];
    if (r.raw.size() != n || r.clean.size() != n) {
      fail_backend(b, "mask count differs from frame count");
      continue;
    }
    for (std::size_t t = 0; t < n; ++t) {
      bool ok = is_valid_mask(r.raw[t], o.width, o.height) &&
                is_valid_mask(r.clean[t], o.width, o.height);
      // The serial backend is SerialMog; the parallel one must equal it.
      // The no-sort SIMD masks are bounded below and cleaned like any other.
      if (ok && b != kSimd)
        ok = same_pixels(r.raw[t], refs.serial[t]) &&
             same_pixels(r.clean[t], refs.serial_clean[t]);
      else if (ok)
        ok = same_pixels(r.clean[t], mog::validate_foreground(r.raw[t], validation));
      if (!ok) {
        bad[b * n + t] = 1;
        ledger.problem(std::string(kBackends[b].name) + ": frame " +
                       std::to_string(t) + " mask check failed");
      }
    }
    QualityFloor q;
    for (std::size_t t = static_cast<std::size_t>(o.warmup); t < n; ++t)
      q.add(r.raw[t], clip.truth[t]);
    if (!q.ok()) fail_backend(b, "quality " + q.describe());
  }
  if (runs[kSimd].raw.size() == n) {
    double sum = 0;
    for (std::size_t t = kDisagreeFrom; t < n; ++t)
      sum += mog::mask_disagreement(runs[kSimd].raw[t], refs.serial[t]);
    const double d = sum / static_cast<double>(n - kDisagreeFrom);
    if (d >= kMaxSimdDisagreement)
      fail_backend(kSimd, "disagreement with SerialMog " + std::to_string(d));
  }
  ledger.attempted += bad.size();
  ledger.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

}  // namespace

void run_cpu_facade(const Options& o, Tracer& tracer, Report& report) {
  const int threads = parallel_threads();
  const Clip clip = render_clip(clip_scene(o), o.frames);
  const std::size_t n = clip.frames.size();
  const mog::ValidationConfig validation;  // mogcli --validate defaults
  Refs refs;
  {
    mog::SerialMog<double> serial{o.width, o.height};
    refs.serial.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      serial.apply(clip.frames[t], refs.serial[t]);
      refs.serial_clean.push_back(mog::validate_foreground(refs.serial[t], validation));
    }
  }
  const double px = static_cast<double>(o.width) * o.height;

  EndToEnd e2e;
  std::vector<std::vector<double>> apply_mpix(kNumBackends);
  std::vector<double> cleanup_mpix;
  std::vector<std::vector<double>> traced_apply(kNumBackends);
  std::vector<double> traced_validate;
  Attribution attribution;
  bool first = true;

  drive_rounds(o.trace, o.seconds, [&](RoundKind kind) {
    const HostProbe probe;
    const bool traced = kind == RoundKind::kTraced;
    tracer.set_enabled(traced);
    const std::size_t span0 = tracer.spans().size();
    std::vector<BackendRun> runs(kNumBackends);
    std::vector<double> setup;
    double round_s = 0;  // inside apply() and validate_foreground()
    const Clock::time_point round0 = Clock::now();
    {
      SpanScope root(tracer, "bench.round", "cpu_facade");
      auto subs = timed_setup(
          tracer,
          [&](int) {
            std::vector<std::unique_ptr<BackgroundSubtractor>> built;
            for (const BackendCfg& b : kBackends) {
              SpanScope span(tracer, "setup.core", b.name);
              BackgroundSubtractor::Config cfg;
              cfg.width = o.width;
              cfg.height = o.height;
              cfg.backend = b.backend;
              cfg.num_threads = threads;
              built.push_back(std::make_unique<BackgroundSubtractor>(cfg));
            }
            return built;
          },
          setup);
      for (std::size_t b = 0; b < kNumBackends; ++b) {
        BackendRun& r = runs[b];
        r.raw.resize(n);
        r.clean.reserve(n);
        for (std::size_t t = 0; t < n; ++t) {
          const Clock::time_point t0 = Clock::now();
          bool got = false;
          {
            SpanScope span(tracer, "core.apply", kBackends[b].name,
                           static_cast<std::int64_t>(t));
            got = subs[b]->apply(clip.frames[t], r.raw[t]);
          }
          const Clock::time_point t1 = Clock::now();
          FrameU8 clean;
          if (got) {
            SpanScope span(tracer, "postproc.validate", kBackends[b].name,
                           static_cast<std::int64_t>(t));
            clean = mog::validate_foreground(r.raw[t], validation);
          }
          const Clock::time_point t2 = Clock::now();
          if (got) r.clean.push_back(std::move(clean));
          r.apply_op_s.push_back(seconds_between(t0, t1));
          r.validate_op_s.push_back(seconds_between(t1, t2));
          r.apply_s += seconds_between(t0, t1);
          r.validate_s += seconds_between(t1, t2);
        }
        round_s += r.apply_s + r.validate_s;
      }
    }
    const double round_wall_s = seconds_between(round0, Clock::now());
    tracer.set_enabled(false);
    e2e.add_slowdown(probe.finish());
    if (first) {
      for (std::size_t b = 0; b < kNumBackends; ++b)
        for (std::size_t t = 0; t < n; ++t)
          if (t < runs[b].clean.size())
            maybe_corrupt(o, static_cast<long>(b * n + t), runs[b].clean[t]);
      first = false;
    }
    check_round(o, clip, refs, validation, runs, report.ledger);
    if (kind == RoundKind::kMeasured) {
      attribution.untraced(round_wall_s);
      std::vector<double> latency_s;
      double validate_s = 0;
      for (std::size_t b = 0; b < kNumBackends; ++b) {
        apply_mpix[b].push_back(static_cast<double>(n) * px / runs[b].apply_s / 1e6);
        validate_s += runs[b].validate_s;
        for (std::size_t t = 0; t < n; ++t)
          latency_s.push_back(runs[b].apply_op_s[t] + runs[b].validate_op_s[t]);
      }
      cleanup_mpix.push_back(static_cast<double>(kNumBackends * n) * px / validate_s / 1e6);
      e2e.add_round(setup, static_cast<double>(kNumBackends * n) * px / round_s / 1e6,
                    latency_s);
    } else if (traced) {
      attribution.traced(tracer, span0);
      for (const Span& s : tracer.since(span0)) {
        const std::string_view name = s.name;
        for (std::size_t b = 0; b < kNumBackends; ++b)
          if (name == "core.apply" && std::string_view(s.tag) == kBackends[b].name)
            traced_apply[b].push_back(s.end - s.start);
        if (name == "postproc.validate") traced_validate.push_back(s.end - s.start);
      }
    }
  });

  report.notes.push_back("cpu_facade: " + std::to_string(o.width) + "x" +
                         std::to_string(o.height) + ", " + std::to_string(n) +
                         " frames, K=3 double, ParallelMog num_threads=" +
                         std::to_string(threads));
  if (!o.trace) {
    e2e.report(report);
    for (std::size_t b = 0; b < kNumBackends; ++b)
      report.info(std::string("cpu_") + kBackends[b].name + "_mpix_s",
                  median(apply_mpix[b]), "Mpix/s");
    report.info("cleanup_mpix_s", median(cleanup_mpix), "Mpix/s");
    return;
  }

  for (std::size_t b = 0; b < kNumBackends; ++b) {
    const std::string p = std::string("cpu.") + kBackends[b].name;
    report.layer(p + ".apply_ms_p50", 1e3 * percentile(traced_apply[b], 50), "ms");
    report.layer(p + ".apply_ms_p90", 1e3 * percentile(traced_apply[b], 90), "ms");
  }
  // Same-process ratios of untraced throughput (base: the serial backend).
  report.layer("cpu.simd_over_serial_x",
               ratio(median(apply_mpix[kSimd]), median(apply_mpix[kSerial])), "x");
  report.layer("cpu.parallel_over_serial_x",
               ratio(median(apply_mpix[kParallel]), median(apply_mpix[kSerial])), "x");
  for (std::size_t b = 0; b < kNumBackends; ++b)
    report.layer(std::string("cpu_") + kBackends[b].name + "_mpix_s",
                 median(apply_mpix[b]), "Mpix/s");
  report.layer("cleanup_mpix_s", median(cleanup_mpix), "Mpix/s");
  report.layer("postproc.validate_ms_p50", 1e3 * percentile(traced_validate, 50), "ms");
  report.layer("postproc.validate_ms_p90", 1e3 * percentile(traced_validate, 90), "ms");

  attribution.report("cpu_facade", report);
}

}  // namespace perfbench
