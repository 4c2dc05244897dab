#ifndef D2STGNN_EXPERIMENT_RUNNER_H_
#define D2STGNN_EXPERIMENT_RUNNER_H_

#include <string>
#include <vector>

#include "experiment/spec.h"

// The experiment runner: expands a declarative Spec into its matrix of
// measurement cells and drives the existing stacks — Trainer + Evaluator for
// `kind = training` (Tables 3-5), the synthetic generator for
// `kind = dataset` (Table 2) — routing every result through MetricsSink
// (table + BENCH_*.json) and, when a baseline is configured, through the
// RegressionGate. Serving timings are perfbench's (perfbench/run.py);
// serving correctness is the gtests'.

namespace d2stgnn::experiment {

struct RunOptions {
  /// Directory the BENCH_*.json lands in ("." when empty).
  std::string out_dir;
  /// Baseline JSON path; overrides the spec's [output] baseline. The
  /// sentinel "none" disables gating even when the spec names a baseline.
  std::string baseline_path;
  /// Expand and validate only; nothing runs, nothing is written.
  bool dry_run = false;
};

struct RunResult {
  bool ok = false;
  /// True when the only failure is a regression-gate violation (callers map
  /// this to exit code 2; other failures are exit 1).
  bool gate_violation = false;
  std::string error;        ///< why !ok (includes the gate diff)
  std::string experiment;   ///< [experiment] name
  std::string kind;         ///< [experiment] kind
  std::string json_path;    ///< written results file ("" on dry runs)
  int64_t cells = 0;        ///< expanded matrix size
  std::string table;        ///< rendered result table ("" on dry runs)
  std::string gate_report;  ///< RegressionGate output ("" when ungated)
};

/// Expands the spec's matrix without running anything: one line per cell
/// ("dataset=METR-LA model=D2STGNN", "dataset=PEMS08", ...).
/// Validates every axis name against the registry. False on any error.
bool ExpandMatrix(const Spec& spec, std::vector<std::string>* cells,
                  std::string* error);

/// Runs one spec end to end. Never throws; all failure modes land in the
/// returned RunResult.
RunResult RunSpec(const Spec& spec, const RunOptions& options);

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_RUNNER_H_
