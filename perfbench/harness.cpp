#include "harness.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace perfbench {

int parallel_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double ratio(double num, double den) {
  if (!(den > 0.0)) throw std::invalid_argument("ratio against a non-positive base");
  return num / den;
}

// --- host speed -------------------------------------------------------------

namespace {
// Receives the probe's result so the loop cannot be dropped as dead code.
volatile double g_probe_sink = 0;
}  // namespace

double probe_seconds() {
  constexpr std::size_t kCells = std::size_t{1} << 18;  // 2 MiB of doubles
  constexpr int kPasses = 16;
  static const std::vector<double> seed = [] {
    std::vector<double> v(kCells);
    std::uint64_t z = 0x9E3779B97F4A7C15ull;
    for (double& x : v) {
      z ^= z << 13;
      z ^= z >> 7;
      z ^= z << 17;
      x = static_cast<double>(z >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  std::vector<double> cells = seed;
  const Clock::time_point t0 = Clock::now();
  double sum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const double centre = 0.25 + 0.125 * (pass & 3);
    for (std::size_t i = 0; i < kCells; ++i) {
      std::uint64_t h = (i + static_cast<std::uint64_t>(pass)) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      double x = cells[i];
      const double d = (x - centre) / std::sqrt(x + 1.0);
      if (d * d < 0.01)
        x = 0.95 * x + 0.05 * centre;
      else if (h & 1)
        x = 0.999 * x + 0.0005;
      else
        x = 0.998 * x + 0.001;
      cells[i] = x;
      sum += x;
    }
  }
  const double elapsed = seconds_between(t0, Clock::now());
  g_probe_sink = sum;
  return elapsed;
}

// --- tracing ----------------------------------------------------------------

int Tracer::open(const char* name, const char* tag, std::int64_t frame) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.tag = tag;
  s.frame = frame;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = seconds_between(epoch_, Clock::now());
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(epoch_, Clock::now());
  // Scopes nest, so the span being closed is always the innermost one.
  stack_.pop_back();
}

std::vector<Span> Tracer::since(std::size_t first) const {
  return {spans_.begin() + static_cast<std::ptrdiff_t>(first), spans_.end()};
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"tag\":\"%s\",\"frame\":%lld,"
                  "\"parent\":%d,\"start\":%.9f,\"end\":%.9f}%s\n",
                  i, s.name, s.tag, static_cast<long long>(s.frame), s.parent,
                  s.start, s.end, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

namespace {

/// Layer of a span: its name up to the first '.'.
std::string span_layer(const Span& s) {
  const std::string name = s.name;
  return name.substr(0, name.find('.'));
}

}  // namespace

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, std::size_t first_index) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const std::size_t p = static_cast<std::size_t>(s.parent) - first_index;
      if (p < spans.size()) child[p] += s.end - s.start;
    }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[span_layer(spans[i])] += (spans[i].end - spans[i].start) - child[i];
  return out;
}

void Attribution::traced(const Tracer& tracer, std::size_t span0) {
  const std::vector<Span> spans = tracer.since(span0);
  if (spans.empty() || std::string_view(spans.front().name) != "bench.round")
    throw std::logic_error("a traced round must open with its root span");
  const double round_s = spans.front().end - spans.front().start;
  traced_s_.push_back(round_s);
  double layers_s = 0;
  for (const auto& [layer, sec] : self_seconds_by_layer(spans, span0)) {
    self_s_[layer] += sec;
    if (layer != "bench") layers_s += sec;
  }
  coverage_.push_back(ratio(layers_s, round_s));
}

void Attribution::report(const std::string& workload, Report& r) const {
  const double rounds = static_cast<double>(traced_s_.size());
  for (const auto& [layer, sec] : self_s_)
    r.layer(workload + ".self_ms." + layer, 1e3 * sec / rounds, "ms");
  const double coverage = *std::min_element(coverage_.begin(), coverage_.end());
  r.layer(workload + ".traced_coverage", coverage, "ratio");
  r.layer(workload + ".tracing_overhead_pct",
          100.0 * (ratio(median(traced_s_), median(untraced_s_)) - 1.0), "%");
  if (coverage < kMinCoverage)
    r.ledger.problem(workload + ": layers cover " + std::to_string(coverage) +
                     " of a traced round's wall time, below " +
                     std::to_string(kMinCoverage));
}

// --- checks -----------------------------------------------------------------

void Ledger::problem(const std::string& what) {
  if (problems.size() < 8) problems.push_back(what);
}

bool is_valid_mask(const mog::FrameU8& m, int width, int height) {
  if (m.width() != width || m.height() != height) return false;
  const std::uint8_t* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i)
    if (p[i] != 0 && p[i] != 255) return false;
  return true;
}

bool same_pixels(const mog::FrameU8& a, const mog::FrameU8& b) {
  return a.same_shape(b) &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

std::string QualityFloor::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "recall %.4f precision %.4f (floors %.2f/%.2f)",
                counts.recall(), counts.precision(), kRecallFloor,
                kPrecisionFloor);
  return buf;
}

void maybe_corrupt(const Options& o, long op_index, mog::FrameU8& mask) {
  if (op_index == o.corrupt_op && mask.size() > 0)
    mask.data()[mask.size() / 2] ^= 0xFF;
}

// --- results ----------------------------------------------------------------

void EndToEnd::add_round(const std::vector<double>& setup_s, double mpix_s,
                         const std::vector<double>& latency_s) {
  setup_.insert(setup_.end(), setup_s.begin(), setup_s.end());
  mpix_.push_back(mpix_s);
  latency_.insert(latency_.end(), latency_s.begin(), latency_s.end());
}

void EndToEnd::report(Report& r) const {
  const double slowdown = median(slowdown_);
  r.e2e("setup_s", median(setup_), "s");
  r.e2e("cal_mpix_s", median(mpix_) * slowdown, "Mpix/s");
  r.e2e("cal_latency_ms_p50", 1e3 * median(latency_) / slowdown, "ms");
  r.info("host_mpix_s", median(mpix_), "Mpix/s");
  r.info("host_latency_ms_p50", 1e3 * median(latency_), "ms");
  r.info("host_slowdown_x", slowdown, "x");
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

std::string result_line(bool correct, const Ledger& ledger,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(ledger.attempted) +
         ", \"failed\": " + std::to_string(ledger.failed) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

void release_free_memory(Tracer& tracer) {
  SpanScope span(tracer, "setup.teardown");
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
