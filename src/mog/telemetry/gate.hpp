// Perf-regression gating over BENCH_*.json reports.
//
// gate_reports() diffs a freshly generated report against a checked-in
// baseline, metric by metric, with relative tolerance bands. The band is
// symmetric — the simulator is deterministic, so *any* unexplained movement
// (faster or slower, fewer or more transactions) means the model changed
// and the baseline must be consciously regenerated, not silently absorbed.
//
// Tolerance resolution, most specific wins:
//   1. the baseline report's "tolerances" object ({metric: rel_tol}),
//   2. GateOptions::default_rel_tol.
// Metrics prefixed "wall_" are wall-clock noise and are skipped unless
// GateOptions::include_wall. Cases or metrics present in the baseline but
// missing from the fresh report fail the gate; extra metrics in the fresh
// report are ignored (forward compatibility while baselines lag).
#pragma once

#include <string>
#include <vector>

#include "mog/telemetry/json.hpp"

namespace mog::telemetry {

struct GateOptions {
  double default_rel_tol = 0.02;  ///< 2% band when the baseline has no override
  /// Absolute slack: |fresh - baseline| below this always passes (guards
  /// metrics whose baseline value is 0, where a relative band is undefined).
  double abs_tol = 1e-12;
  bool include_wall = false;  ///< also gate "wall_*" metrics
  /// Non-fatal wall-clock tripwire: when > 0 (and include_wall is off), a
  /// "wall_*" metric whose fresh value exceeds baseline × factor records a
  /// warning instead of a failure — visibility into gross slowdowns without
  /// making CI flake on machine noise. 0 disables.
  double warn_wall_factor = 0;
};

struct GateFinding {
  enum class Kind {
    kRegression,     ///< metric moved outside its tolerance band
    kMissingCase,    ///< baseline case absent from the fresh report
    kMissingMetric,  ///< baseline metric absent from the fresh case
    kSchemaMismatch, ///< schema_version differs or structure malformed
    kWallSlowdown,   ///< wall_* metric past the warn factor (warning only)
  };
  Kind kind = Kind::kRegression;
  std::string case_name;
  std::string metric;
  double baseline = 0;
  double fresh = 0;
  double rel_delta = 0;  ///< |fresh - baseline| / |baseline|
  double tolerance = 0;

  std::string describe() const;
};

/// Outcome of one metric row. A value type, so comparing verdicts compares
/// values, never string-literal addresses.
enum class GateVerdict { kPass, kFail, kSkippedWall, kWarnWall, kMissing };

/// "pass", "fail", "skipped_wall", "warn_wall" or "missing".
const char* to_string(GateVerdict verdict);

/// One baseline-vs-fresh metric comparison, recorded pass or fail — the
/// machine-readable row behind bench_gate --json.
struct GateComparison {
  std::string case_name;
  std::string metric;
  double baseline = 0;
  double fresh = 0;
  double rel_delta = 0;
  double tolerance = 0;
  GateVerdict verdict = GateVerdict::kPass;
};

struct GateResult {
  int cases_compared = 0;
  int metrics_compared = 0;
  int metrics_skipped = 0;  ///< wall_* metrics not gated
  std::vector<GateFinding> failures;
  /// Non-fatal findings (kWallSlowdown); never affect ok().
  std::vector<GateFinding> warnings;
  /// Every metric row visited, verdicts included — not just the failures.
  std::vector<GateComparison> comparisons;

  bool ok() const { return failures.empty(); }
};

/// Compare one fresh report against one baseline report.
GateResult gate_reports(const Json& baseline, const Json& fresh,
                        const GateOptions& options = {});

/// Human-readable verdict table for one comparison.
std::string format_gate_result(const std::string& label,
                               const GateResult& result);

/// Machine-readable diff ({label, ok, counts, comparisons[], failures[]})
/// for CI artifacts.
Json gate_result_to_json(const std::string& label, const GateResult& result);

}  // namespace mog::telemetry
