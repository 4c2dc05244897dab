// The benchmark driver: runs one workload with one seed, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of BENCHMARK.json (untraced run) or its
// per-layer metrics (traced run).
//
//   perfbench --workload fleet_reload --seed 1 --seconds 12 --trace 0
//
// Run it from the root of the checkout (perfbench/run.py builds and runs
// it); it reads BENCHMARK.json and perfbench/workloads.json there and
// writes its full report and span trace under .bench_out/.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "tensor/kernels/registry.h"
#include "workloads.h"

namespace {

using perfbench::RunContext;

constexpr char kBenchmarkPath[] = "BENCHMARK.json";
constexpr char kConfigPath[] = "perfbench/workloads.json";
constexpr char kOutRoot[] = ".bench_out";  // reports, traces, checkpoints

std::vector<std::string> MetricNames(const d2stgnn::json::Value& benchmark,
                                     const std::string& key) {
  std::vector<std::string> names;
  const d2stgnn::json::Value& list = benchmark.Get(key);
  for (size_t i = 0; i < list.size(); ++i) {
    names.push_back(list.at(i).Get("name").AsString());
  }
  return names;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 0;
  double seconds = 0.0;
  int64_t trace = 0;
  d2stgnn::FlagParser flags("perfbench", "D2STGNN end-to-end benchmark");
  flags.AddString("workload", &workload, "fleet_reload | train_table3");
  flags.AddInt("seed", &seed, "workload seed (inputs and arrivals)");
  flags.AddDouble("seconds", &seconds, "measured seconds");
  flags.AddInt("trace", &trace, "1: traced run with per-layer metrics");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "perfbench: --workload, --seconds > 0 and --trace 0|1 are "
                 "required\n");
    return 2;
  }

  d2stgnn::json::Value benchmark;
  std::string error;
  if (!d2stgnn::json::Value::ParseFile(kBenchmarkPath, &benchmark, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  RunContext ctx;
  if (!ctx.config.Load(kConfigPath, workload, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  ctx.workload = workload;
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.tracer.set_enabled(ctx.trace);
  ctx.nproc = perfbench::AvailableCpus();
  ctx.out_dir = std::string(kOutRoot) + "/" + workload + "-" +
                std::to_string(::getpid());
  std::filesystem::create_directories(ctx.out_dir);

  if (workload == "fleet_reload") {
    perfbench::RunFleetReload(&ctx);
  } else if (workload == "train_table3") {
    perfbench::RunTrainTable3(&ctx);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(ctx.out_dir, ec);  // checkpoints

  const std::vector<std::string> names =
      MetricNames(benchmark, ctx.trace ? "per_layer" : "end_to_end");
  for (const std::string& name : names) {
    ctx.report.Check(ctx.report.Has(name), "metric " + name + " measured");
  }

  // Provenance stamp of the run.
  using d2stgnn::json::Value;
  perfbench::Report& report = ctx.report;
  report.Note("workload", Value::Str(workload));
  report.Note("seed", Value::Int(seed));
  report.Note("seconds", Value::Number(seconds));
  report.Note("trace", Value::Bool(ctx.trace));
  report.Note("git_sha", Value::Str(EnvOr("PERFBENCH_GIT_SHA", "unknown")));
  report.Note("git_dirty", Value::Str(EnvOr("PERFBENCH_GIT_DIRTY", "unknown")));
  report.Note("source_digest",
              Value::Str(EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown")));
  report.Note("build_type", Value::Str(PERFBENCH_BUILD_TYPE));
  report.Note("compiler", Value::Str(PERFBENCH_COMPILER));
  report.Note("backend",
              Value::Str(d2stgnn::kernels::ActiveBackend().name));
  report.Note("detected_backend",
              Value::Str(d2stgnn::kernels::DetectedBackendName()));
  report.Note("cpu_features", Value::Str(d2stgnn::kernels::CpuFeatureSummary()));
  report.Note("nproc", Value::Int(ctx.nproc));
  report.Note("pool_threads", Value::Int(ctx.config.Int("pool_threads")));
  if (ctx.trace) {
    report.Note("spans", Value::Int(ctx.tracer.span_count()));
  }

  std::printf("perfbench %s seed=%lld seconds=%g trace=%lld | backend=%s "
              "(detected %s, %s) nproc=%lld pool=%lld build=%s %s sha=%s "
              "dirty=%s source=%s\n",
              workload.c_str(), static_cast<long long>(seed), seconds,
              static_cast<long long>(trace),
              d2stgnn::kernels::ActiveBackend().name,
              d2stgnn::kernels::DetectedBackendName(),
              d2stgnn::kernels::CpuFeatureSummary().c_str(),
              static_cast<long long>(ctx.nproc),
              static_cast<long long>(ctx.config.Int("pool_threads")),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              EnvOr("PERFBENCH_GIT_SHA", "unknown").c_str(),
              EnvOr("PERFBENCH_GIT_DIRTY", "unknown").c_str(),
              EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown").c_str());
  report.Print();

  const std::string stem =
      std::string(kOutRoot) + "/" + workload + (ctx.trace ? "-trace" : "");
  {
    std::ofstream out(stem + "-report.json");
    out << report.ToJson().Dump(2) << "\n";
  }
  if (ctx.trace && !ctx.tracer.WriteJson(stem + "-spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n",
                 stem.c_str());
  }
  std::printf("%s\n", report.ResultLine(names).c_str());
  std::fflush(stdout);
  return report.correct() && report.valid() ? 0 : 1;
}
