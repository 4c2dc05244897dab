#ifndef D2STGNN_EXPERIMENT_REGISTRY_H_
#define D2STGNN_EXPERIMENT_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/rng.h"
#include "data/presets.h"
#include "experiment/spec.h"
#include "train/forecasting_model.h"
#include "train/trainer.h"

// The registry of named experiment axes a spec can reference: datasets,
// models (statistical baselines, the deep registry, and the Table-5 ablation
// variants), trainer scenarios, and kernel backends. `run_experiment --list`
// dumps all four; Resolve* is how a spec's names are validated before
// anything expensive runs.

namespace d2stgnn::experiment {

/// One model axis entry. `family` is "statistical" (HA/VAR/SVR — Fit/Predict
/// APIs, no trainer), "deep" (baselines::MakeModel names), or "ablation"
/// (the "D2STGNN/..." Table-5 variants built from D2StgnnConfig switches).
struct ModelEntry {
  std::string name;
  std::string family;
  std::string description;
  /// Train without curriculum learning ("D2STGNN/no-cl").
  bool disable_curriculum = false;
};

/// Every model a spec's [models] names list may reference.
const std::vector<ModelEntry>& AllModels();

/// Looks `name` up in AllModels(). False (with an error naming the axis and
/// the known names) when unknown.
bool ResolveModel(const std::string& name, ModelEntry* out,
                  std::string* error);

/// Constructs the model for a "deep" or "ablation" entry. Statistical
/// entries have no ForecastingModel — the runner drives their Fit/Predict
/// APIs directly; calling this for one returns null with an error.
std::unique_ptr<train::ForecastingModel> BuildModel(
    const ModelEntry& entry, const baselines::ModelConfig& config,
    const Tensor& adjacency, Rng& rng, std::string* error);

/// One dataset axis entry ("METR-LA", ..., "synthetic").
struct DatasetEntry {
  std::string name;
  std::string description;
};

const std::vector<DatasetEntry>& AllDatasets();

/// Resolves a dataset name into a generator preset at `scale`. The
/// "synthetic" dataset reads its geometry from the spec's [data] section
/// (num_nodes, num_steps, seed — all optional). False on an unknown name.
bool ResolveDataset(const std::string& name, float scale, const Spec& spec,
                    data::DatasetPreset* out, std::string* error);

/// Named trainer recipes layered on the shared protocol defaults.
struct TrainerScenario {
  std::string name;
  std::string description;
};

const std::vector<TrainerScenario>& TrainerScenarios();

/// Applies scenario `name` on top of `options`. False on an unknown name.
bool ApplyTrainerScenario(const std::string& name,
                          train::TrainerOptions* options, std::string* error);

/// One kernel-backend axis entry: "auto" plus every backend this host can
/// actually run (tensor/kernels/registry.h).
struct BackendEntry {
  std::string name;
  std::string description;
};

const std::vector<BackendEntry>& AllBackends();

/// Resolves a spec's backend name into a concrete registry backend: "auto"
/// maps to the startup-selected backend (cpuid detection, with
/// D2STGNN_FORCE_BACKEND honored). False (with an error listing the known
/// names) when `name` is unknown or not runnable on this host.
bool ResolveBackend(const std::string& name, std::string* resolved,
                    std::string* error);

}  // namespace d2stgnn::experiment

#endif  // D2STGNN_EXPERIMENT_REGISTRY_H_
