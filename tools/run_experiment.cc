// The one experiment CLI: expands declarative spec files (specs/*.spec) into
// their measurement matrices and drives the training and dataset stacks
// through the experiment runner, printing the result table and writing
// schema-versioned BENCH_*.json. When the spec (or --baseline) names a
// baseline JSON, the regression gate compares the fresh numbers against its
// bounds and a violation exits with code 2 and a readable diff.
//
//   run_experiment specs/table3_main.spec
//   run_experiment --dry-run specs/table5_ablation.spec
//   run_experiment --set trainer.epochs=2 specs/smoke_training.spec
//   run_experiment --list
//
// Exit codes: 0 success, 1 error (bad spec, failed run, unreadable
// baseline), 2 regression-gate violation.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "experiment/registry.h"
#include "experiment/runner.h"
#include "experiment/spec.h"
#include "tensor/kernels/registry.h"

namespace d2stgnn::experiment {
namespace {

void PrintRegistry() {
  std::printf("datasets:\n");
  for (const DatasetEntry& d : AllDatasets()) {
    std::printf("  %-16s %s\n", d.name.c_str(), d.description.c_str());
  }
  std::printf("\nmodels:\n");
  for (const ModelEntry& m : AllModels()) {
    std::printf("  %-20s %-12s %s\n", m.name.c_str(), m.family.c_str(),
                m.description.c_str());
  }
  std::printf("\ntrainer scenarios:\n");
  for (const TrainerScenario& s : TrainerScenarios()) {
    std::printf("  %-16s %s\n", s.name.c_str(), s.description.c_str());
  }
  std::printf("\nkernel backends (--backend):\n");
  for (const BackendEntry& b : AllBackends()) {
    std::printf("  %-16s %s\n", b.name.c_str(), b.description.c_str());
  }
}

/// Applies one `--set section.key=value` override to the spec.
bool ApplyOverride(const std::string& override_text, Spec* spec,
                   std::string* error) {
  const size_t eq = override_text.find('=');
  if (eq == std::string::npos) {
    *error = "--set needs section.key=value, got '" + override_text + "'";
    return false;
  }
  const std::string path = override_text.substr(0, eq);
  const std::string value = override_text.substr(eq + 1);
  const size_t dot = path.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= path.size()) {
    *error = "--set needs section.key=value, got '" + override_text + "'";
    return false;
  }
  spec->Set(path.substr(0, dot), path.substr(dot + 1), value);
  return true;
}

int Main(int argc, char** argv) {
  bool list = false;
  bool dry_run = false;
  std::string out_dir = D2STGNN_REPO_ROOT;
  std::string baseline;
  std::string backend;
  std::vector<std::string> overrides;
  std::vector<std::string> spec_paths;

  FlagParser flags("run_experiment",
                   "runs declarative experiment specs (see specs/)");
  flags.AddBool("list", &list, "list the registry axes and exit");
  flags.AddBool("dry-run", &dry_run,
                "expand and validate the matrix without running");
  flags.AddString("backend", &backend,
                  "kernel backend to run under (see --list; default: "
                  "runtime detection, D2STGNN_FORCE_BACKEND honored)");
  flags.AddString("out-dir", &out_dir,
                  "directory for BENCH_*.json (default: repo root)");
  flags.AddString("baseline", &baseline,
                  "baseline JSON for the regression gate; 'none' disables "
                  "gating even when the spec names one");
  flags.AddStringList("set", &overrides,
                      "override a spec key: --set trainer.epochs=2 "
                      "(repeatable)");
  flags.AddTrailing("spec", &spec_paths, "spec file(s) to run");
  if (!flags.Parse(argc, argv)) {
    if (flags.help_requested()) {
      std::fputs(flags.Usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "run_experiment: %s\n%s", flags.error().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  if (!backend.empty()) {
    std::string resolved;
    std::string error;
    if (!ResolveBackend(backend, &resolved, &error) ||
        !d2stgnn::kernels::SetActiveBackend(resolved, &error)) {
      std::fprintf(stderr, "run_experiment: %s\n", error.c_str());
      return 1;
    }
    std::printf("kernel backend: %s\n", resolved.c_str());
  }

  if (list) {
    PrintRegistry();
    return 0;
  }
  if (spec_paths.empty()) {
    std::fprintf(stderr, "run_experiment: no spec files given\n%s",
                 flags.Usage().c_str());
    return 1;
  }

  RunOptions options;
  options.out_dir = out_dir;
  options.baseline_path = baseline;
  options.dry_run = dry_run;

  bool gate_violation = false;
  for (const std::string& path : spec_paths) {
    Spec spec;
    std::string error;
    if (!Spec::ParseFile(path, &spec, &error)) {
      std::fprintf(stderr, "run_experiment: %s\n", error.c_str());
      return 1;
    }
    for (const std::string& override_text : overrides) {
      if (!ApplyOverride(override_text, &spec, &error)) {
        std::fprintf(stderr, "run_experiment: %s\n", error.c_str());
        return 1;
      }
    }

    const RunResult result = RunSpec(spec, options);
    if (!result.experiment.empty()) {
      std::printf("== %s (%s, %lld cell%s) ==\n", result.experiment.c_str(),
                  result.kind.c_str(), static_cast<long long>(result.cells),
                  result.cells == 1 ? "" : "s");
    }
    if (!result.table.empty()) std::fputs(result.table.c_str(), stdout);
    if (!result.ok) {
      std::fprintf(stderr, "run_experiment: %s: %s\n", path.c_str(),
                   result.error.c_str());
      if (!result.gate_violation) return 1;
      gate_violation = true;
      continue;
    }
    if (!result.json_path.empty()) {
      std::printf("wrote %s\n", result.json_path.c_str());
    }
    if (!result.gate_report.empty()) {
      std::fputs(result.gate_report.c_str(), stdout);
    }
  }
  return gate_violation ? 2 : 0;
}

}  // namespace
}  // namespace d2stgnn::experiment

int main(int argc, char** argv) {
  return d2stgnn::experiment::Main(argc, argv);
}
