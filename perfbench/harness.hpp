// Shared plumbing of the end-to-end benchmark: run options, statistics
// helpers, the host-speed probe, the span tracer of traced runs, output
// checks with operation accounting, and the result line.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around calls into the library's public functions, never inside
// them, so a measured (untraced) run executes exactly the code a user runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mog/common/image.hpp"
#include "mog/metrics/confusion.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measuring time of one run
  bool trace = false;

  // Input geometry. Measured runs always use these defaults; self-tests
  // shrink them to finish in seconds.
  int width = 192;
  int height = 108;
  int frames = 68;  ///< clip length (not a multiple of 8: tiled flush runs)
  int warmup = 48;  ///< frames excluded from the recall/precision floors

  /// Self-test hook: flip one pixel of this operation's mask (counted over
  /// the run's first round) before the checks run; -1 disables.
  long corrupt_op = -1;
  /// Where a traced run writes its spans (empty: keep them in memory only).
  std::string span_path;
};

/// Thread knobs of the library, pinned so that no more threads are busy at
/// once than the machine has. The simulator's block executor runs on one
/// worker in measured runs: on a shared host its multi-worker wall time
/// swings with the neighbours' load (see README), so executor scaling is a
/// per-layer ratio of the traced run instead. ParallelMog, the CPU backend
/// whose point is its threads, gets min(4, hardware threads).
inline constexpr int kExecutorThreads = 1;
int parallel_threads();

// --- statistics -------------------------------------------------------------

/// Percentile with linear interpolation between order statistics, `p` in
/// [0, 100] (numpy's default method). Throws on an empty sample.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}
/// num / den; throws when den is not positive (a ratio of a rate or time
/// against zero is a measurement bug, never a quantity).
double ratio(double num, double den);

// --- host speed -------------------------------------------------------------

/// Seconds the host-speed probe takes now: a fixed scalar double-precision
/// loop with a square root, a division and data-dependent branches over a
/// 2 MiB working set. The probe is the benchmark's own code, so no change to
/// the library moves it.
double probe_seconds();
/// The probe's time at nominal host speed. Calibrated metrics are rescaled
/// to the speed at which the probe takes this long.
inline constexpr double kNominalProbeSeconds = 0.05;

/// Brackets one round with probes: construct before the round, finish()
/// after its timed part. The result is the host's slowdown against nominal
/// during the round (above 1: slower).
class HostProbe {
 public:
  HostProbe() : before_(probe_seconds()) {}
  double finish() const {
    return (before_ + probe_seconds()) / (2.0 * kNominalProbeSeconds);
  }

 private:
  double before_;
};

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name = "";  ///< "<layer>.<call>", e.g. "pipeline.process"
  const char* tag = "";   ///< configuration or backend the call ran at
  std::int64_t frame = -1;  ///< shared id: the frame index of the clip
  int parent = -1;          ///< index of the enclosing span, -1 at the root
  double start = 0;         ///< seconds since the tracer's epoch
  double end = 0;
};

/// In-memory span recorder. Disabled, open()/close() do nothing, so the
/// measured runs pay one predictable branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  int open(const char* name, const char* tag, std::int64_t frame);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }
  /// Spans recorded since `first` (index into spans()).
  std::vector<Span> since(std::size_t first) const;
  /// Write every span as JSON (one object per span) to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, const char* tag = "",
            std::int64_t frame = -1)
      : t_(t), index_(t.open(name, tag, frame)) {}
  ~SpanScope() { t_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

/// Self time (duration minus the part covered by child spans), summed per
/// layer over `spans` (a closed set: every parent index refers into it or
/// is -1).
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, std::size_t first_index);

// --- checks and accounting --------------------------------------------------

/// Operations attempted and failed, plus the reason of every failed check.
/// An operation is one frame in and one mask out.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure reasons
  void problem(const std::string& what);
};

/// A mask the library returned: W×H and only {0, 255}.
bool is_valid_mask(const mog::FrameU8& m, int width, int height);
bool same_pixels(const mog::FrameU8& a, const mog::FrameU8& b);

/// Recall and precision floors against the scene's ground truth, applied to
/// the masks of frames at or after the warm-up (see README).
inline constexpr double kRecallFloor = 0.50;
inline constexpr double kPrecisionFloor = 0.50;
struct QualityFloor {
  mog::ConfusionCounts counts;
  void add(const mog::FrameU8& mask, const mog::FrameU8& truth) {
    counts += mog::compare_masks(mask, truth);
  }
  bool ok() const {
    return counts.recall() >= kRecallFloor &&
           counts.precision() >= kPrecisionFloor;
  }
  std::string describe() const;
};

/// Self-test hook (Options::corrupt_op): inverts one pixel of the mask of
/// operation `op_index` when it is the one to corrupt.
void maybe_corrupt(const Options& o, long op_index, mog::FrameU8& mask);

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;  ///< printed by untraced runs
  std::vector<Metric> per_layer;   ///< printed by traced runs
  std::vector<Metric> detail;      ///< informational, never on the last line
  Ledger ledger;
  std::vector<std::string> notes;  ///< human-readable lines (pinned values)

  void e2e(const std::string& n, double v, const std::string& u) {
    end_to_end.push_back({n, v, u});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    per_layer.push_back({n, v, u});
  }
  void info(const std::string& n, double v, const std::string& u) {
    detail.push_back({n, v, u});
  }
};

/// The least share of a traced round's wall time that the layers' self time
/// must cover; the rest is the benchmark's own code between the calls.
inline constexpr double kMinCoverage = 0.95;

/// Attribution of one workload's wall time to layers. Every round is timed
/// whole, from its first set-up build to its last library call (checks and
/// probes lie outside). A traced round's spans split that wall time into
/// per-layer self time; untraced rounds give the overhead baseline.
class Attribution {
 public:
  /// An untraced measured round's wall time.
  void untraced(double round_s) { untraced_s_.push_back(round_s); }
  /// A traced round whose spans start at index `span0` of `tracer`; the
  /// first of them is the round's root span ("bench.round").
  void traced(const Tracer& tracer, std::size_t span0);
  int traced_rounds() const { return static_cast<int>(traced_s_.size()); }
  /// Adds <workload>.self_ms.<layer> (per traced round),
  /// <workload>.traced_coverage (the worst traced round's share of wall
  /// time in layer self time) and <workload>.tracing_overhead_pct. A
  /// coverage below kMinCoverage fails the run.
  void report(const std::string& workload, Report& r) const;

 private:
  std::map<std::string, double> self_s_;
  std::vector<double> untraced_s_, traced_s_, coverage_;
};

/// End-to-end samples of the measured rounds. Throughput and latency are
/// reported rescaled to nominal host speed by the run's median slowdown
/// (HostProbe, every round): this shared host drifts by up to a third in
/// speed over minutes, which no amount of work in one run averages out. The
/// unscaled figures go on the detail line. Set-up time is reported as
/// measured: it is allocation-bound, which the probe does not track.
class EndToEnd {
 public:
  /// One measured round: its set-up build times, its throughput and its
  /// per-operation latencies.
  void add_round(const std::vector<double>& setup_s, double mpix_s,
                 const std::vector<double>& latency_s);
  /// The host slowdown during one round (any kind).
  void add_slowdown(double slowdown) { slowdown_.push_back(slowdown); }
  /// Median unscaled throughput.
  double host_mpix_s() const { return median(mpix_); }
  /// Adds setup_s, cal_mpix_s and cal_latency_ms_p50, and the unscaled
  /// throughput and latency as detail.
  void report(Report& r) const;

 private:
  std::vector<double> setup_, mpix_, latency_, slowdown_;
};

std::string metrics_json(const std::vector<Metric>& metrics);
std::string result_line(bool correct, const Ledger& ledger,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Builds per round; setup_s is the median over every build of the run.
inline constexpr int kSetupRepeats = 15;

/// Returns the process's free heap memory to the system (glibc malloc_trim),
/// inside a "setup.teardown" span. Run before every timed build, so that
/// each build faults in its memory afresh, as the set-up of a new process
/// does, whatever earlier builds and rounds left in the heap.
void release_free_memory(Tracer& tracer);

/// Builds the round's objects kSetupRepeats times, timing each build, and
/// returns the last one. Earlier builds are destroyed outside the timing,
/// inside a "setup.teardown" span.
template <typename Build>
auto timed_setup(Tracer& tracer, Build&& build, std::vector<double>& samples) {
  for (int i = 0;; ++i) {
    release_free_memory(tracer);
    const Clock::time_point t0 = Clock::now();
    auto built = build(i);
    samples.push_back(seconds_between(t0, Clock::now()));
    if (i + 1 == kSetupRepeats) return built;
    SpanScope teardown(tracer, "setup.teardown");
    [[maybe_unused]] const auto doomed = std::move(built);
  }
}

enum class RoundKind { kWarmup, kMeasured, kTraced };

/// Round scheduler shared by the workloads. A round is one whole pass of
/// the workload's operations. The first round warms caches and lazy set-up
/// and is checked but not measured; measured rounds follow until `budget`
/// seconds have passed, at least one of them. In a traced run measured
/// rounds alternate untraced and traced, so tracing overhead is read from
/// neighbouring rounds rather than from a separate process.
template <typename RoundFn>
void drive_rounds(bool traced, double budget, RoundFn&& round) {
  round(RoundKind::kWarmup);
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const bool enough = traced ? i >= 2 && i % 2 == 0 : i >= 1;
    if (enough && seconds_between(start, Clock::now()) >= budget) break;
    round(traced && i % 2 == 1 ? RoundKind::kTraced : RoundKind::kMeasured);
  }
}

}  // namespace perfbench
