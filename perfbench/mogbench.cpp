// mogbench: the repository's end-to-end benchmark.
//
//   mogbench --workload <paper_ladder|cpu_facade|camera_fleet> --seed <n>
//            --seconds <s> --trace <0|1> [--spans <path>]
//   mogbench --selftest
//
// A measured run (--trace 0) runs one workload and prints its end-to-end
// metrics. A traced run (--trace 1) runs all three workloads for the same
// time each and prints the per-layer metrics with each workload's
// attribution of its wall time to layers. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

Clip render_clip(const mog::SceneConfig& scene_config, int frames) {
  const mog::SyntheticScene scene{scene_config};
  Clip clip;
  clip.frames.resize(static_cast<std::size_t>(frames));
  clip.truth.resize(static_cast<std::size_t>(frames));
  for (int t = 0; t < frames; ++t)
    scene.render(t, &clip.frames[static_cast<std::size_t>(t)],
                 &clip.truth[static_cast<std::size_t>(t)]);
  return clip;
}

std::uint64_t scene_seed(std::uint64_t run_seed, int camera) {
  // Distinct, well-mixed scene seeds per (run seed, camera).
  std::uint64_t z = run_seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(camera + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

mog::SceneConfig clip_scene(const Options& o) {
  mog::SceneConfig sc;
  sc.width = o.width;
  sc.height = o.height;
  sc.seed = scene_seed(o.seed, -1);
  return sc;
}

namespace {

using WorkloadFn = void (*)(const Options&, Tracer&, Report&);
struct Workload {
  const char* name;
  WorkloadFn run;
};
constexpr Workload kWorkloads[] = {{"paper_ladder", run_paper_ladder},
                                   {"cpu_facade", run_cpu_facade},
                                   {"camera_fleet", run_camera_fleet}};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// Runs the requested mode into `report`; returns whether every check held.
bool run(const Options& o, Report& report) {
  const Workload* named = find_workload(o.workload);
  if (named == nullptr) throw std::invalid_argument("unknown workload: " + o.workload);
  Tracer tracer{false};
  if (!o.trace) {
    named->run(o, tracer, report);
    report.end_to_end.insert(report.end_to_end.begin() + 1,
                             Metric{"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    named->run(o, tracer, report);
    for (const Workload& w : kWorkloads)
      if (&w != named) w.run(o, tracer, report);
    if (!o.span_path.empty()) tracer.write(o.span_path);
  }
  return report.ledger.failed == 0 && report.ledger.problems.empty();
}

// --- self-tests --------------------------------------------------------------

int g_selftest_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_selftest_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void selftest_helpers() {
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "percentile: median of 1..4 is 2.5");
  expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1),
         "percentile: p90 of 1..10 is 9.1 (linear interpolation)");
  expect(near(percentile({7}, 90), 7), "percentile: one sample is every percentile");
  expect(near(percentile({1, 2, 3}, 0), 1) && near(percentile({1, 2, 3}, 100), 3),
         "percentile: p0 and p100 are min and max");
  expect(throws([] { percentile({}, 50); }), "percentile: no samples throws");
  expect(throws([] { percentile({1}, 101); }), "percentile: p outside [0,100] throws");
  expect(near(ratio(6, 3), 2), "ratio: 6 / 3 is 2");
  expect(throws([] { ratio(1, 0); }), "ratio: zero base throws");

  // bench.round [0,10] > pipeline.process [1,4] and [5,9] > gpusim.x [2,3]
  std::vector<Span> spans(4);
  spans[0] = {"bench.round", "", -1, -1, 0, 10};
  spans[1] = {"pipeline.process", "", 0, 0, 1, 4};
  spans[2] = {"gpusim.x", "", 0, 1, 2, 3};
  spans[3] = {"pipeline.process", "", 1, 0, 5, 9};
  const auto self = self_seconds_by_layer(spans, 0);
  expect(near(self.at("bench"), 3) && near(self.at("pipeline"), 6) &&
             near(self.at("gpusim"), 1),
         "self time: parents lose the time their children cover");

  mog::FrameU8 m(4, 2, 0);
  m.data()[3] = 255;
  expect(is_valid_mask(m, 4, 2), "mask check: {0,255} W x H passes");
  expect(!is_valid_mask(m, 2, 4), "mask check: wrong shape fails");
  m.data()[1] = 7;
  expect(!is_valid_mask(m, 4, 2), "mask check: a value outside {0,255} fails");
}

void selftest_coverage() {
  // A traced round whose layer call covers a quarter of it fails the run;
  // one whose layer call covers nearly all of it passes.
  for (const bool gap : {false, true}) {
    Tracer tracer{true};
    Attribution a;
    a.untraced(0.02);
    {
      SpanScope root(tracer, "bench.round");
      if (gap) std::this_thread::sleep_for(std::chrono::milliseconds(15));
      SpanScope call(tracer, "pipeline.process");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    a.traced(tracer, 0);
    Report r;
    a.report("test", r);
    expect(r.ledger.problems.empty() != gap,
           gap ? "coverage: a round the layers leave 3/4 uncovered fails"
               : "coverage: a round the layers cover passes");
  }
}

Options tiny(const char* workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.05;
  o.trace = trace;
  o.width = 96;
  o.height = 54;
  o.frames = 60;
  o.warmup = 44;
  return o;
}

void selftest_workloads() {
  for (const Workload& w : kWorkloads) {
    Report clean;
    Options o = tiny(w.name, false);
    const bool ok = run(o, clean);
    expect(ok && clean.ledger.attempted > 0 && clean.ledger.failed == 0,
           std::string(w.name) + ": tiny run passes every check (" +
               std::to_string(clean.ledger.attempted) + " operations)");
    for (const std::string& p : clean.ledger.problems) std::printf("     %s\n", p.c_str());
    bool positive = clean.end_to_end.size() == 4;
    for (const Metric& m : clean.end_to_end) positive = positive && m.value > 0;
    expect(positive, std::string(w.name) + ": every end-to-end metric is positive");

    // Negative case: one corrupted mask must fail its operation and the run.
    for (const long op : {0L, static_cast<long>(o.frames) + 3}) {
      Report bad;
      Options c = o;
      c.corrupt_op = op;
      const bool bad_ok = run(c, bad);
      expect(!bad_ok && bad.ledger.failed >= 1,
             std::string(w.name) + ": corrupting the mask of operation " +
                 std::to_string(op) + " fails the run (" +
                 std::to_string(bad.ledger.failed) + " failed)");
    }
  }
  Report traced;
  const bool ok = run(tiny("camera_fleet", true), traced);
  expect(ok && traced.per_layer.size() > 60,
         "traced run covers all three workloads (" +
             std::to_string(traced.per_layer.size()) + " per-layer metrics)");
}

int selftest() {
  selftest_helpers();
  selftest_coverage();
  selftest_workloads();
  std::printf("%s: %d failure(s)\n", g_selftest_failures ? "FAILED" : "PASSED",
              g_selftest_failures);
  return g_selftest_failures ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mogbench --workload <paper_ladder|cpu_facade|camera_fleet> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n"
               "       mogbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--selftest") return selftest();
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0 && o.seconds <= 600)) return usage();
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        o.trace = value == "1";
      } else if (arg == "--spans") {
        o.span_path = value;
      } else {
        return usage();
      }
    }
    if (!have_workload) return usage();

    Report report;
    const bool correct = run(o, report);
    std::printf("seed %llu, pinned threads: executor_threads %d, ParallelMog num_threads %d\n",
                static_cast<unsigned long long>(o.seed), kExecutorThreads,
                parallel_threads());
    for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
    if (!report.detail.empty())
      std::printf("detail %s\n", metrics_json(report.detail).c_str());
    for (const std::string& p : report.ledger.problems)
      std::printf("check failed: %s\n", p.c_str());
    std::printf("%s\n", result_line(correct, report.ledger,
                                    o.trace ? report.per_layer : report.end_to_end)
                            .c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
