// Tests of the declarative experiment harness (src/experiment/): the spec
// format (parse, round-trip, line-numbered rejection of unknown and
// ill-typed keys), the JSON value type beneath the sinks and gates, the
// registry of named axes (every listed model must resolve and build), the
// MetricsSink schema, the RegressionGate's pass/fail/diff behavior, matrix
// expansion counts and value checks, a dry run of every checked-in spec,
// and a small end-to-end RunSpec.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/synthetic_traffic.h"
#include "experiment/metrics_sink.h"
#include "experiment/registry.h"
#include "experiment/regression_gate.h"
#include "experiment/runner.h"
#include "experiment/spec.h"
#include "train/trainer.h"

#ifndef D2STGNN_SOURCE_DIR
#error "tests/CMakeLists.txt must define D2STGNN_SOURCE_DIR"
#endif

namespace d2stgnn::experiment {
namespace {

// ---------------------------------------------------------------------------
// Spec format

TEST(SpecTest, ParsesSectionsKeysAndComments) {
  const std::string text =
      "# full-line comment\n"
      "[experiment]\n"
      "name = demo  # trailing comment\n"
      "kind = training\n"
      "\n"
      "[data]\n"
      "datasets = METR-LA, PEMS08\n"
      "scale = 0.05\n";
  Spec spec;
  std::string error;
  ASSERT_TRUE(Spec::ParseText(text, &spec, &error)) << error;
  EXPECT_EQ(spec.GetString("experiment", "name", ""), "demo");
  EXPECT_EQ(spec.GetString("experiment", "kind", ""), "training");
  EXPECT_DOUBLE_EQ(spec.GetDouble("data", "scale", 0.0), 0.05);
  const std::vector<std::string> datasets = spec.GetList("data", "datasets");
  ASSERT_EQ(datasets.size(), 2u);
  EXPECT_EQ(datasets[0], "METR-LA");
  EXPECT_EQ(datasets[1], "PEMS08");
  EXPECT_EQ(spec.LineOf("data", "scale"), 8);
  EXPECT_EQ(spec.Validate(), "");  // everything consumed, no type errors
}

TEST(SpecTest, RoundTripsThroughToText) {
  const std::string text =
      "[experiment]\n"
      "name = rt\n"
      "[serving]\n"
      "threads = 1, 2, 4\n"
      "iters = 40\n";
  Spec spec;
  std::string error;
  ASSERT_TRUE(Spec::ParseText(text, &spec, &error)) << error;
  Spec reparsed;
  ASSERT_TRUE(Spec::ParseText(spec.ToText(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.GetString("experiment", "name", ""), "rt");
  const std::vector<int64_t> threads = reparsed.GetIntList("serving", "threads");
  ASSERT_EQ(threads.size(), 3u);
  EXPECT_EQ(threads[2], 4);
  EXPECT_EQ(reparsed.GetInt("serving", "iters", 0), 40);
  EXPECT_EQ(spec.ToText(), reparsed.ToText());
}

TEST(SpecTest, ParseErrorsCarryLineNumbers) {
  Spec spec;
  std::string error;
  EXPECT_FALSE(Spec::ParseText("[a]\nx = 1\nnonsense\n", &spec, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;

  EXPECT_FALSE(Spec::ParseText("x = 1\n", &spec, &error));
  EXPECT_NE(error.find("key before any [section]"), std::string::npos)
      << error;

  EXPECT_FALSE(Spec::ParseText("[a\n", &spec, &error));
  EXPECT_NE(error.find("unterminated section header"), std::string::npos)
      << error;

  EXPECT_FALSE(Spec::ParseText("[a]\nx = 1\nx = 2\n", &spec, &error));
  EXPECT_NE(error.find("duplicate key 'x'"), std::string::npos) << error;
  EXPECT_NE(error.find("first defined on line 2"), std::string::npos)
      << error;
}

TEST(SpecTest, ValidateReportsUnconsumedKeysWithLineNumbers) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(
      Spec::ParseText("[a]\nknown = 1\ntypo = 2\n", &spec, &error));
  (void)spec.GetInt("a", "known", 0);
  const std::string report = spec.Validate();
  EXPECT_NE(report.find("line 3: unknown key 'typo' in [a]"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("'known'"), std::string::npos) << report;
}

TEST(SpecTest, ValidateReportsTypeErrors) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(Spec::ParseText("[a]\nn = abc\n", &spec, &error));
  EXPECT_EQ(spec.GetInt("a", "n", 7), 7);  // fallback on type error
  const std::string report = spec.Validate();
  EXPECT_NE(report.find("line 2"), std::string::npos) << report;
  EXPECT_NE(report.find("not an integer"), std::string::npos) << report;
}

TEST(SpecTest, SetOverridesAndInserts) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(Spec::ParseText("[t]\nepochs = 10\n", &spec, &error));
  spec.Set("t", "epochs", "2");          // override
  spec.Set("data", "scale", "0.1");      // insert into a new section
  EXPECT_EQ(spec.GetInt("t", "epochs", 0), 2);
  EXPECT_DOUBLE_EQ(spec.GetDouble("data", "scale", 0.0), 0.1);
  EXPECT_EQ(spec.Validate(), "");
}

// ---------------------------------------------------------------------------
// JSON value type

TEST(JsonTest, ParsesAndDumpsNestedDocuments) {
  const std::string text =
      "{\"a\": 1, \"b\": [true, null, 2.5], \"c\": {\"d\": \"x\"}}";
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::Value::Parse(text, &v, &error)) << error;
  EXPECT_EQ(v.Get("a").AsInt(-1), 1);
  EXPECT_TRUE(v.Get("b").at(0).AsBool());
  EXPECT_TRUE(v.Get("b").at(1).is_null());
  EXPECT_DOUBLE_EQ(v.Get("b").at(2).AsDouble(), 2.5);
  EXPECT_EQ(v.Get("c").Get("d").AsString(), "x");

  json::Value reparsed;
  ASSERT_TRUE(json::Value::Parse(v.Dump(), &reparsed, &error)) << error;
  EXPECT_EQ(v.Dump(), reparsed.Dump());
}

TEST(JsonTest, RejectsMalformedInput) {
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::Value::Parse("{\"a\": }", &v, &error));
  EXPECT_FALSE(json::Value::Parse("[1, 2", &v, &error));
  EXPECT_FALSE(json::Value::Parse("{} trailing", &v, &error));
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, EveryListedModelResolves) {
  for (const ModelEntry& listed : AllModels()) {
    ModelEntry entry;
    std::string error;
    EXPECT_TRUE(ResolveModel(listed.name, &entry, &error)) << error;
    EXPECT_EQ(entry.name, listed.name);
  }
}

TEST(RegistryTest, EveryBaselineRegistryNameIsListed) {
  // The baselines --list surface and the experiment registry must agree.
  for (const std::string& name : baselines::AllModelNames()) {
    ModelEntry entry;
    std::string error;
    EXPECT_TRUE(ResolveModel(name, &entry, &error)) << name << ": " << error;
    EXPECT_EQ(entry.family, "deep");
  }
}

TEST(RegistryTest, EveryDeepAndAblationModelBuilds) {
  data::SyntheticTrafficOptions options;
  options.network.num_nodes = 6;
  options.num_steps = 64;
  const data::SyntheticTraffic traffic =
      data::GenerateSyntheticTraffic(options);
  baselines::ModelConfig config;
  config.num_nodes = 6;
  config.hidden_dim = 8;
  config.embed_dim = 4;
  for (const ModelEntry& entry : AllModels()) {
    Rng rng(1);
    std::string error;
    auto model = BuildModel(entry, config,
                            traffic.dataset.network.adjacency, rng, &error);
    if (entry.family == "statistical") {
      EXPECT_EQ(model, nullptr) << entry.name;
      EXPECT_FALSE(error.empty()) << entry.name;
    } else {
      ASSERT_NE(model, nullptr) << entry.name << ": " << error;
      EXPECT_GT(model->ParameterCount(), 0) << entry.name;
    }
  }
}

TEST(RegistryTest, UnknownNamesFailWithKnownNamesListed) {
  ModelEntry entry;
  std::string error;
  EXPECT_FALSE(ResolveModel("NO-SUCH", &entry, &error));
  EXPECT_NE(error.find("D2STGNN"), std::string::npos) << error;

  data::DatasetPreset preset;
  Spec spec;
  EXPECT_FALSE(ResolveDataset("NO-SUCH", 0.05f, spec, &preset, &error));
  EXPECT_NE(error.find("METR-LA"), std::string::npos) << error;
}

TEST(RegistryTest, SyntheticDatasetReadsGeometryFromSpec) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(Spec::ParseText(
      "[data]\nnum_nodes = 5\nnum_steps = 128\nseed = 9\n", &spec, &error));
  data::DatasetPreset preset;
  ASSERT_TRUE(ResolveDataset("synthetic", 0.05f, spec, &preset, &error))
      << error;
  EXPECT_EQ(preset.options.network.num_nodes, 5);
  EXPECT_EQ(preset.options.num_steps, 128);
  EXPECT_EQ(preset.options.seed, 9u);
}

TEST(RegistryTest, TrainerScenariosApply) {
  train::TrainerOptions standard;
  std::string error;
  ASSERT_TRUE(ApplyTrainerScenario("standard", &standard, &error)) << error;
  EXPECT_TRUE(standard.curriculum_learning);

  train::TrainerOptions no_curriculum;
  ASSERT_TRUE(ApplyTrainerScenario("no-curriculum", &no_curriculum, &error));
  EXPECT_FALSE(no_curriculum.curriculum_learning);

  train::TrainerOptions patient;
  ASSERT_TRUE(ApplyTrainerScenario("patient", &patient, &error));
  EXPECT_EQ(patient.patience, 2 * standard.patience);

  EXPECT_FALSE(ApplyTrainerScenario("NO-SUCH", &standard, &error));
}

// ---------------------------------------------------------------------------
// MetricsSink

TEST(MetricsSinkTest, EmitsSchemaVersionedEnvelope) {
  MetricsSink sink("demo", "training");
  json::Value record = json::Value::Object();
  record.Set("model", json::Value::Str("HA"));
  record.Set("h12_mae", json::Value::Number(4.5));
  sink.AddRecord(std::move(record));
  sink.SetSummary("best_model", json::Value::Str("HA"));

  const json::Value doc = sink.ToJson();
  EXPECT_EQ(doc.Get("schema_version").AsInt(-1), kMetricsSchemaVersion);
  EXPECT_EQ(doc.Get("experiment").AsString(), "demo");
  EXPECT_EQ(doc.Get("kind").AsString(), "training");
  ASSERT_EQ(doc.Get("records").size(), 1u);
  EXPECT_DOUBLE_EQ(doc.Get("records").at(0).Get("h12_mae").AsDouble(), 4.5);
  EXPECT_EQ(doc.Get("summary").Get("best_model").AsString(), "HA");

  const std::string table = sink.RenderTable();
  EXPECT_NE(table.find("model"), std::string::npos);
  EXPECT_NE(table.find("4.5000"), std::string::npos);
}

TEST(MetricsSinkTest, WritesParseableJson) {
  const std::string path = testing::TempDir() + "/sink_test.json";
  MetricsSink sink("demo", "serving");
  json::Value record = json::Value::Object();
  record.Set("threads", json::Value::Int(4));
  sink.AddRecord(std::move(record));
  std::string error;
  ASSERT_TRUE(sink.WriteJson(path, &error)) << error;
  json::Value doc;
  ASSERT_TRUE(json::Value::ParseFile(path, &doc, &error)) << error;
  EXPECT_EQ(doc.Get("records").at(0).Get("threads").AsInt(-1), 4);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RegressionGate

json::Value GateResults() {
  MetricsSink sink("gate_demo", "training");
  json::Value record = json::Value::Object();
  record.Set("model", json::Value::Str("D2STGNN"));
  record.Set("h12_mae", json::Value::Number(5.0));
  record.Set("throughput_rps", json::Value::Number(800.0));
  sink.AddRecord(std::move(record));
  sink.SetSummary("plan_speedup", json::Value::Number(1.5));
  return sink.ToJson();
}

json::Value ParseJson(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::Value::Parse(text, &v, &error)) << error;
  return v;
}

TEST(RegressionGateTest, PassesWhenBoundsHold) {
  const json::Value baseline = ParseJson(
      "{\"schema_version\": 1, \"bounds\": ["
      "{\"match\": {\"model\": \"D2STGNN\"}, \"metric\": \"h12_mae\","
      " \"max\": 6.0},"
      "{\"match\": {\"model\": \"D2STGNN\"}, \"metric\": \"throughput_rps\","
      " \"min\": 100.0}],"
      "\"summary_bounds\": [{\"metric\": \"plan_speedup\", \"min\": 1.1}]}");
  GateReport report;
  std::string error;
  ASSERT_TRUE(CheckAgainstBaseline(GateResults(), baseline, &report, &error))
      << error;
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.bounds_checked, 3);
  EXPECT_NE(report.ToString().find("3 bounds OK"), std::string::npos);
}

TEST(RegressionGateTest, FailsWithReadableDiffOnViolations) {
  const json::Value baseline = ParseJson(
      "{\"schema_version\": 1, \"bounds\": ["
      "{\"match\": {\"model\": \"D2STGNN\"}, \"metric\": \"h12_mae\","
      " \"max\": 4.0},"
      "{\"match\": {\"model\": \"D2STGNN\"}, \"metric\": \"throughput_rps\","
      " \"min\": 1000.0}],"
      "\"summary_bounds\": [{\"metric\": \"plan_speedup\", \"min\": 2.0}]}");
  GateReport report;
  std::string error;
  ASSERT_TRUE(CheckAgainstBaseline(GateResults(), baseline, &report, &error))
      << error;
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 3u);
  const std::string diff = report.ToString();
  EXPECT_NE(diff.find("regression gate FAILED"), std::string::npos) << diff;
  EXPECT_NE(diff.find("h12_mae = 5.0000 exceeds the baseline bound 4.0000"),
            std::string::npos)
      << diff;
  EXPECT_NE(diff.find("below the baseline floor"), std::string::npos) << diff;
  EXPECT_NE(diff.find("plan_speedup"), std::string::npos) << diff;
}

TEST(RegressionGateTest, BoundMatchingNoRecordsIsAViolation) {
  const json::Value baseline = ParseJson(
      "{\"schema_version\": 1, \"bounds\": ["
      "{\"match\": {\"model\": \"RENAMED\"}, \"metric\": \"h12_mae\","
      " \"max\": 6.0}]}");
  GateReport report;
  std::string error;
  ASSERT_TRUE(CheckAgainstBaseline(GateResults(), baseline, &report, &error));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("matched no records"), std::string::npos);
}

TEST(RegressionGateTest, StructurallyInvalidBaselinesAreErrors) {
  GateReport report;
  std::string error;
  EXPECT_FALSE(CheckAgainstBaseline(
      GateResults(), ParseJson("{\"schema_version\": 99, \"bounds\": []}"),
      &report, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;

  EXPECT_FALSE(CheckAgainstBaseline(GateResults(),
                                    ParseJson("{\"schema_version\": 1}"),
                                    &report, &error));

  EXPECT_FALSE(CheckAgainstBaseline(
      GateResults(),
      ParseJson("{\"schema_version\": 1, \"bounds\": [{\"metric\": \"x\"}]}"),
      &report, &error));
}

// ---------------------------------------------------------------------------
// Matrix expansion and RunSpec

Spec ParseSpec(const std::string& text) {
  Spec spec;
  std::string error;
  EXPECT_TRUE(Spec::ParseText(text, &spec, &error)) << error;
  return spec;
}

TEST(RunnerTest, TrainingMatrixIsDatasetsTimesModels) {
  const Spec spec = ParseSpec(
      "[experiment]\nname = m\nkind = training\n"
      "[data]\ndatasets = METR-LA, PEMS08\n"
      "[models]\nnames = HA, VAR, D2STGNN\n");
  std::vector<std::string> cells;
  std::string error;
  ASSERT_TRUE(ExpandMatrix(spec, &cells, &error)) << error;
  EXPECT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells.front(), "dataset=METR-LA model=HA");
  EXPECT_EQ(cells.back(), "dataset=PEMS08 model=D2STGNN");
}

// Serving is perfbench's to time and the gtests' to check, so a serving
// spec is refused up front with the kinds that do run.
TEST(RunnerTest, ServingKindFailsNamingTheKnownKinds) {
  const Spec spec = ParseSpec(
      "[experiment]\nname = s\nkind = serving\n"
      "[serving]\nscenarios = parity\n");
  std::vector<std::string> cells;
  std::string error;
  EXPECT_FALSE(ExpandMatrix(spec, &cells, &error));
  EXPECT_TRUE(cells.empty());
  EXPECT_NE(error.find("'serving'"), std::string::npos) << error;
  EXPECT_NE(error.find("training"), std::string::npos) << error;
  EXPECT_NE(error.find("dataset"), std::string::npos) << error;

  RunOptions options;
  options.dry_run = true;
  const RunResult result = RunSpec(spec, options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.gate_violation);
  EXPECT_EQ(result.error, error);
}

// Every checked-in spec expands, and consumes every key it sets.
TEST(RunnerTest, EveryCheckedInSpecDryRuns) {
  RunOptions options;
  options.dry_run = true;
  int64_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(D2STGNN_SOURCE_DIR) / "specs")) {
    if (entry.path().extension() != ".spec") continue;
    ++specs;
    const std::string path = entry.path().string();
    Spec spec;
    std::string error;
    ASSERT_TRUE(Spec::ParseFile(path, &spec, &error)) << path << ": " << error;
    const RunResult result = RunSpec(spec, options);
    EXPECT_TRUE(result.ok) << path << ": " << result.error;
    EXPECT_GT(result.cells, 0) << path;
  }
  EXPECT_GT(specs, 0) << "no specs/*.spec found";
}

TEST(RunnerTest, ExpansionFailsOnUnknownAxisNames) {
  std::vector<std::string> cells;
  std::string error;
  EXPECT_FALSE(ExpandMatrix(
      ParseSpec("[experiment]\nname = m\nkind = training\n"
                "[data]\ndatasets = METR-LA\n[models]\nnames = NO-SUCH\n"),
      &cells, &error));
  EXPECT_NE(error.find("NO-SUCH"), std::string::npos) << error;

  EXPECT_FALSE(ExpandMatrix(
      ParseSpec("[experiment]\nname = m\nkind = warp\n"), &cells, &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;
}

TEST(RunnerTest, RunSpecRejectsUnknownKeysWithLineNumbers) {
  const Spec spec = ParseSpec(
      "[experiment]\nname = t\nkind = dataset\n"
      "[data]\ndatasets = synthetic\nnum_nodes = 5\ntypo_key = 1\n");
  RunOptions options;
  options.dry_run = true;
  const RunResult result = RunSpec(spec, options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown key 'typo_key'"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("line 7"), std::string::npos) << result.error;
}

TEST(RunnerTest, DatasetRunWritesGatedSchemaVersionedJson) {
  const Spec spec = ParseSpec(
      "[experiment]\nname = e2e_dataset\nkind = dataset\n"
      "[data]\ndatasets = synthetic\nnum_nodes = 6\nnum_steps = 128\n");
  RunOptions options;
  options.out_dir = testing::TempDir();
  options.baseline_path = "none";
  const RunResult result = RunSpec(spec, options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.cells, 1);
  EXPECT_NE(result.table.find("synthetic"), std::string::npos);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Value::ParseFile(result.json_path, &doc, &error))
      << error;
  EXPECT_EQ(doc.Get("schema_version").AsInt(-1), kMetricsSchemaVersion);
  EXPECT_EQ(doc.Get("kind").AsString(), "dataset");
  EXPECT_EQ(doc.Get("records").at(0).Get("nodes").AsInt(-1), 6);
  std::remove(result.json_path.c_str());
}

TEST(RunnerTest, GateViolationIsDistinguishedFromOtherFailures) {
  // A baseline this run cannot meet: the synthetic graph has > 1 node.
  const std::string baseline_path =
      testing::TempDir() + "/impossible_baseline.json";
  {
    std::FILE* f = std::fopen(baseline_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"schema_version\": 1, \"bounds\": ["
        "{\"match\": {\"dataset\": \"synthetic\"}, \"metric\": \"nodes\","
        " \"max\": 1}]}\n",
        f);
    std::fclose(f);
  }
  const Spec spec = ParseSpec(
      "[experiment]\nname = e2e_gate\nkind = dataset\n"
      "[data]\ndatasets = synthetic\nnum_nodes = 6\nnum_steps = 128\n");
  RunOptions options;
  options.out_dir = testing::TempDir();
  options.baseline_path = baseline_path;
  const RunResult result = RunSpec(spec, options);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.gate_violation);
  EXPECT_NE(result.error.find("exceeds the baseline bound"),
            std::string::npos)
      << result.error;
  std::remove(result.json_path.c_str());
  std::remove(baseline_path.c_str());
}

}  // namespace
}  // namespace d2stgnn::experiment
