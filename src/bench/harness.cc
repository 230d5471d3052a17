#include "bench/harness.h"

#include <algorithm>

#include "bench/gate_expr.h"
#include "common/timer.h"

namespace tcdp {
namespace bench {

void SuiteContext::Record(const std::string& case_name,
                          std::map<std::string, double> params,
                          std::map<std::string, double> metrics) {
  BenchRecord record;
  record.suite = suite_;
  record.case_name = case_name;
  record.mode = opts_.smoke ? "smoke" : "full";
  record.params = std::move(params);
  record.metrics = std::move(metrics);
  record.timestamp_unix = NowUnixSeconds();
  record.timestamp_iso = NowIso8601();
  report_->records.push_back(std::move(record));
}

void SuiteContext::Skip(const std::string& case_name,
                        const std::string& reason) {
  report_->skips.push_back(SkipEntry{suite_, case_name, reason});
}

void SuiteContext::Derived(const std::string& name, double value) {
  report_->derived[suite_][name] = value;
}

double SuiteContext::TimeBestOf(const std::function<void()>& fn) const {
  double best = -1.0;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, repetitions_);
       ++rep) {
    WallTimer timer;
    fn();
    const double seconds = timer.ElapsedSeconds();
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

void Harness::Register(SuiteSpec spec, SuiteRunFn run) {
  entries_.push_back(Entry{std::move(spec), std::move(run)});
}

std::vector<std::string> Harness::SuiteNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.spec.name);
  return names;
}

const SuiteSpec* Harness::FindSpec(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.spec.name == name) return &entry.spec;
  }
  return nullptr;
}

StatusOr<BenchReport> Harness::Run(const RunOptions& options,
                                   const std::vector<std::string>& suites,
                                   std::ostream& log) const {
  RunOptions opts = options;
  if (opts.cores == 0) opts.cores = Hardware().cores;

  std::vector<const Entry*> selected;
  if (suites.empty()) {
    for (const Entry& entry : entries_) selected.push_back(&entry);
  } else {
    for (const std::string& name : suites) {
      const Entry* found = nullptr;
      for (const Entry& entry : entries_) {
        if (entry.spec.name == name) found = &entry;
      }
      if (found == nullptr) {
        return Status::NotFound("unknown bench suite '" + name +
                                "' (see `tcdp bench --list`)");
      }
      selected.push_back(found);
    }
  }

  BenchReport report;
  report.smoke = opts.smoke;
  report.hardware = Hardware();
  report.hardware.cores = opts.cores;
  report.build = Build();
  report.started_unix = NowUnixSeconds();
  report.started_iso = NowIso8601();

  for (const Entry* entry : selected) {
    const SuiteSpec& spec = entry->spec;
    report.suites_run.push_back(spec.name);
    report.policies[spec.name] = spec.metric_policies;
    log << "=== suite " << spec.name << " (" << report.mode() << "): "
        << spec.description << "\n";
    const std::size_t repetitions =
        opts.repetitions > 0 ? opts.repetitions : spec.repetitions;
    const std::size_t record_base = report.records.size();
    SuiteContext context(spec.name, opts, repetitions, &report);
    WallTimer suite_timer;
    TCDP_RETURN_IF_ERROR(entry->run(&context));

    // Gate variables: suite-level derived values plus every case
    // metric as `case.metric`.
    std::map<std::string, double> variables = report.derived[spec.name];
    for (std::size_t i = record_base; i < report.records.size(); ++i) {
      const BenchRecord& record = report.records[i];
      for (const auto& [metric, value] : record.metrics) {
        variables[record.case_name + "." + metric] = value;
      }
    }

    for (const GateSpec& gate : spec.gates) {
      GateResult result;
      result.suite = spec.name;
      result.name = gate.name;
      result.expression = gate.expression;
      if (gate.min_cores > opts.cores) {
        result.enforced = false;
        result.reason = "requires >= " + std::to_string(gate.min_cores) +
                        " cores, host has " + std::to_string(opts.cores);
      } else if (gate.full_only && opts.smoke) {
        result.enforced = false;
        result.reason = "full-run gate, skipped in --smoke mode";
      } else {
        result.enforced = true;
        auto value = EvalGateExpression(gate.expression, variables);
        if (!value.ok()) {
          result.passed = false;
          result.reason = value.status().ToString();
        } else {
          result.passed = *value != 0.0;
          if (!result.passed) result.reason = "expression evaluated false";
        }
      }
      log << "    gate " << gate.name << ": "
          << (result.enforced ? (result.passed ? "PASS" : "FAIL")
                              : "SKIP (" + result.reason + ")")
          << "\n";
      report.gates.push_back(std::move(result));
    }
    log << "    " << (report.records.size() - record_base) << " cases in "
        << suite_timer.ElapsedSeconds() << "s\n";
  }

  report.finished_unix = NowUnixSeconds();
  return report;
}

}  // namespace bench
}  // namespace tcdp
