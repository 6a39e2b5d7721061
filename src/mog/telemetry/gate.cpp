#include "mog/telemetry/gate.hpp"

#include <cmath>
#include <limits>

#include "mog/common/strutil.hpp"
#include "mog/telemetry/bench_report.hpp"

namespace mog::telemetry {

namespace {

bool is_wall_metric(const std::string& name) {
  return name.rfind(BenchReporter::kWallPrefix, 0) == 0;
}

const Json* find_case(const Json& report, const std::string& name) {
  const Json* cases = report.find("cases");
  if (cases == nullptr || !cases->is_array()) return nullptr;
  for (const Json& c : cases->as_array()) {
    const Json* n = c.find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &c;
  }
  return nullptr;
}

double schema_version(const Json& report) {
  const Json* v = report.find("schema_version");
  return v != nullptr && v->is_number() ? v->as_number() : -1.0;
}

double tolerance_for(const Json& baseline, const std::string& metric,
                     const GateOptions& options) {
  const Json* tols = baseline.find("tolerances");
  if (tols != nullptr) {
    const Json* t = tols->find(metric);
    if (t != nullptr && t->is_number()) return t->as_number();
  }
  return options.default_rel_tol;
}

}  // namespace

std::string GateFinding::describe() const {
  switch (kind) {
    case Kind::kSchemaMismatch:
      return strprintf("schema mismatch: baseline v%g vs fresh v%g", baseline,
                       fresh);
    case Kind::kMissingCase:
      return strprintf("case '%s' missing from fresh report",
                       case_name.c_str());
    case Kind::kMissingMetric:
      return strprintf("metric '%s/%s' missing from fresh report",
                       case_name.c_str(), metric.c_str());
    case Kind::kRegression:
      return strprintf(
          "'%s/%s' moved %.3g -> %.3g (%.2f%% > %.2f%% tolerance)",
          case_name.c_str(), metric.c_str(), baseline, fresh,
          100.0 * rel_delta, 100.0 * tolerance);
    case Kind::kWallSlowdown:
      // tolerance carries the warn *factor* here (×), not a relative band.
      return strprintf("'%s/%s' wall-clock %.3g -> %.3g (%.2fx > %.2gx warn "
                       "factor; not fatal)",
                       case_name.c_str(), metric.c_str(), baseline, fresh,
                       baseline > 0 ? fresh / baseline : 0.0, tolerance);
  }
  return "?";
}

GateResult gate_reports(const Json& baseline, const Json& fresh,
                        const GateOptions& options) {
  GateResult result;

  const double bv = schema_version(baseline);
  const double fv = schema_version(fresh);
  if (bv != fv || bv < 0) {
    GateFinding f;
    f.kind = GateFinding::Kind::kSchemaMismatch;
    f.baseline = bv;
    f.fresh = fv;
    result.failures.push_back(f);
    return result;
  }

  const Json* cases = baseline.find("cases");
  if (cases == nullptr || !cases->is_array()) return result;

  for (const Json& bc : cases->as_array()) {
    const Json* name = bc.find("name");
    const std::string case_name =
        name != nullptr && name->is_string() ? name->as_string() : "?";
    const Json* fc = find_case(fresh, case_name);
    if (fc == nullptr) {
      GateFinding f;
      f.kind = GateFinding::Kind::kMissingCase;
      f.case_name = case_name;
      result.failures.push_back(f);
      continue;
    }
    ++result.cases_compared;

    const Json* bmetrics = bc.find("metrics");
    const Json* fmetrics = fc->find("metrics");
    if (bmetrics == nullptr || !bmetrics->is_object()) continue;

    for (const auto& [metric, bval] : bmetrics->as_object()) {
      if (!bval.is_number()) continue;

      GateComparison row;
      row.case_name = case_name;
      row.metric = metric;
      row.baseline = bval.as_number();
      row.tolerance = tolerance_for(baseline, metric, options);

      if (!options.include_wall && is_wall_metric(metric)) {
        ++result.metrics_skipped;
        row.verdict = GateVerdict::kSkippedWall;
        const Json* fval =
            fmetrics != nullptr ? fmetrics->find(metric) : nullptr;
        if (fval != nullptr && fval->is_number()) row.fresh = fval->as_number();
        // Non-fatal tripwire: flag gross wall-clock slowdowns (fresh beyond
        // baseline × factor) without letting machine noise fail the gate.
        if (options.warn_wall_factor > 0 && row.baseline > options.abs_tol &&
            row.fresh > row.baseline * options.warn_wall_factor) {
          GateFinding w;
          w.kind = GateFinding::Kind::kWallSlowdown;
          w.case_name = case_name;
          w.metric = metric;
          w.baseline = row.baseline;
          w.fresh = row.fresh;
          w.rel_delta = (row.fresh - row.baseline) / row.baseline;
          w.tolerance = options.warn_wall_factor;
          result.warnings.push_back(std::move(w));
          row.verdict = GateVerdict::kWarnWall;
        }
        result.comparisons.push_back(std::move(row));
        continue;
      }
      const Json* fval =
          fmetrics != nullptr ? fmetrics->find(metric) : nullptr;
      if (fval == nullptr || !fval->is_number()) {
        GateFinding f;
        f.kind = GateFinding::Kind::kMissingMetric;
        f.case_name = case_name;
        f.metric = metric;
        result.failures.push_back(f);
        row.verdict = GateVerdict::kMissing;
        result.comparisons.push_back(std::move(row));
        continue;
      }
      ++result.metrics_compared;

      const double b = bval.as_number();
      const double v = fval->as_number();
      row.fresh = v;
      const double abs_delta = std::fabs(v - b);
      const double tol = row.tolerance;
      const double rel =
          std::fabs(b) > 0 ? abs_delta / std::fabs(b)
                           : std::numeric_limits<double>::infinity();
      if (abs_delta > options.abs_tol) row.rel_delta = rel;
      if (abs_delta > options.abs_tol && rel > tol) {
        GateFinding f;
        f.kind = GateFinding::Kind::kRegression;
        f.case_name = case_name;
        f.metric = metric;
        f.baseline = b;
        f.fresh = v;
        f.rel_delta = rel;
        f.tolerance = tol;
        result.failures.push_back(f);
        row.verdict = GateVerdict::kFail;
      }
      result.comparisons.push_back(std::move(row));
    }
  }
  return result;
}

const char* to_string(GateVerdict verdict) {
  switch (verdict) {
    case GateVerdict::kPass: return "pass";
    case GateVerdict::kFail: return "fail";
    case GateVerdict::kSkippedWall: return "skipped_wall";
    case GateVerdict::kWarnWall: return "warn_wall";
    case GateVerdict::kMissing: return "missing";
  }
  return "?";
}

std::string format_gate_result(const std::string& label,
                               const GateResult& result) {
  std::string out = strprintf(
      "%s: %s — %d cases, %d metrics compared, %d wall metrics skipped",
      label.c_str(), result.ok() ? "PASS" : "FAIL", result.cases_compared,
      result.metrics_compared, result.metrics_skipped);
  if (!result.warnings.empty())
    out += strprintf(", %zu wall warning%s", result.warnings.size(),
                     result.warnings.size() == 1 ? "" : "s");
  for (const GateFinding& f : result.failures)
    out += "\n  ✗ " + f.describe();
  for (const GateFinding& w : result.warnings)
    out += "\n  ⚠ " + w.describe();
  return out;
}

Json gate_result_to_json(const std::string& label, const GateResult& result) {
  Json root = Json::object();
  root.set("label", label);
  root.set("ok", result.ok());
  root.set("cases_compared", result.cases_compared);
  root.set("metrics_compared", result.metrics_compared);
  root.set("metrics_skipped", result.metrics_skipped);

  Json rows = Json::array();
  for (const GateComparison& c : result.comparisons) {
    Json row = Json::object();
    row.set("case", c.case_name);
    row.set("metric", c.metric);
    row.set("baseline", c.baseline);
    row.set("fresh", c.fresh);
    // rel_delta is infinite when the baseline is 0 and the fresh value is
    // not; JSON has no Inf, so that degenerate band renders as null.
    row.set("rel_delta",
            std::isfinite(c.rel_delta) ? Json{c.rel_delta} : Json{nullptr});
    row.set("tolerance", c.tolerance);
    row.set("verdict", to_string(c.verdict));
    rows.push_back(std::move(row));
  }
  root.set("comparisons", std::move(rows));

  Json failures = Json::array();
  for (const GateFinding& f : result.failures) failures.push_back(f.describe());
  root.set("failures", std::move(failures));

  Json warnings = Json::array();
  for (const GateFinding& w : result.warnings) warnings.push_back(w.describe());
  root.set("warnings", std::move(warnings));
  return root;
}

}  // namespace mog::telemetry
