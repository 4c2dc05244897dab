#include "experiment/registry.h"

#include <algorithm>
#include <sstream>

#include "core/d2stgnn.h"
#include "tensor/kernels/registry.h"

namespace d2stgnn::experiment {
namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::ostringstream out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ", ";
    out << names[i];
  }
  return out.str();
}

/// Applies the D2StgnnConfig switches of a Table-5 ablation name
/// ("D2STGNN/<suffix>"). Returns false for an unknown suffix.
bool ApplyAblation(const std::string& suffix, core::D2StgnnConfig* config) {
  if (suffix == "switch") {
    config->inherent_first = true;
  } else if (suffix == "no-gate") {
    config->use_gate = false;
  } else if (suffix == "no-res") {
    config->use_residual = false;
  } else if (suffix == "no-decouple") {
    config->use_decouple = false;
    config->use_gate = false;
    config->use_residual = false;
  } else if (suffix == "no-dg") {
    config->use_dynamic_graph = false;
  } else if (suffix == "no-apt") {
    config->use_adaptive = false;
  } else if (suffix == "no-gru") {
    config->use_gru = false;
  } else if (suffix == "no-msa") {
    config->use_msa = false;
  } else if (suffix == "no-ar") {
    config->autoregressive = false;
  } else if (suffix == "no-cl") {
    // Architecture unchanged; the trainer drops curriculum learning.
  } else {
    return false;
  }
  return true;
}

std::vector<ModelEntry> MakeModelEntries() {
  std::vector<ModelEntry> entries = {
      {"HA", "statistical", "historical average (weekly periodicity)", false},
      {"VAR", "statistical", "vector auto-regression (ridge least squares)",
       false},
      {"SVR", "statistical", "linear support vector regression", false},
  };
  for (const std::string& name : baselines::AllModelNames()) {
    std::string description = "deep registry model";
    if (name == "DGCRN-static") description = "DGCRN+ (Table 4: static graph)";
    if (name == "D2STGNN-static") {
      description = "D2STGNN+ (Table 4: decoupled, static graph)";
    }
    if (name == "D2STGNN-coupled") {
      description = "D2STGNN# (Table 4: coupled framework)";
    }
    entries.push_back({name, "deep", description, false});
  }
  const struct {
    const char* suffix;
    const char* description;
  } kAblations[] = {
      {"switch", "Table 5: inherent model first"},
      {"no-gate", "Table 5: w/o estimation gates"},
      {"no-res", "Table 5: w/o residual decomposition"},
      {"no-decouple", "Table 5: w/o decoupling (gate+residual off)"},
      {"no-dg", "Table 5: w/o dynamic graph"},
      {"no-apt", "Table 5: w/o self-adaptive transition"},
      {"no-gru", "Table 5: w/o GRU in the inherent model"},
      {"no-msa", "Table 5: w/o multi-head self-attention"},
      {"no-ar", "Table 5: w/o autoregressive forecast"},
      {"no-cl", "Table 5: w/o curriculum learning"},
  };
  for (const auto& ablation : kAblations) {
    ModelEntry entry;
    entry.name = std::string("D2STGNN/") + ablation.suffix;
    entry.family = "ablation";
    entry.description = ablation.description;
    entry.disable_curriculum = std::string(ablation.suffix) == "no-cl";
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace

const std::vector<ModelEntry>& AllModels() {
  static const std::vector<ModelEntry> kEntries = MakeModelEntries();
  return kEntries;
}

bool ResolveModel(const std::string& name, ModelEntry* out,
                  std::string* error) {
  std::vector<std::string> known;
  for (const ModelEntry& entry : AllModels()) {
    if (entry.name == name) {
      *out = entry;
      return true;
    }
    known.push_back(entry.name);
  }
  *error = "unknown model '" + name + "' (known: " + JoinNames(known) + ")";
  return false;
}

std::unique_ptr<train::ForecastingModel> BuildModel(
    const ModelEntry& entry, const baselines::ModelConfig& config,
    const Tensor& adjacency, Rng& rng, std::string* error) {
  if (entry.family == "statistical") {
    *error = "statistical model '" + entry.name +
             "' has no ForecastingModel; the runner drives its Fit/Predict "
             "API directly";
    return nullptr;
  }
  if (entry.family == "deep") {
    return baselines::MakeModel(entry.name, config, adjacency, rng);
  }
  // Ablation: "D2STGNN/<suffix>".
  core::D2StgnnConfig d2 = baselines::ToD2Config(config);
  const std::string suffix = entry.name.substr(entry.name.find('/') + 1);
  if (!ApplyAblation(suffix, &d2)) {
    *error = "unknown ablation suffix '" + suffix + "' in " + entry.name;
    return nullptr;
  }
  return std::make_unique<core::D2Stgnn>(d2, adjacency, rng);
}

const std::vector<DatasetEntry>& AllDatasets() {
  static const std::vector<DatasetEntry> kEntries = {
      {"METR-LA", "speed, 207 nodes / 34272 steps at scale 1"},
      {"PEMS-BAY", "speed, 325 nodes / 52116 steps at scale 1"},
      {"PEMS04", "flow, 307 nodes / 16992 steps at scale 1"},
      {"PEMS08", "flow, 170 nodes / 17856 steps at scale 1"},
      {"synthetic", "free-form generator; [data] num_nodes/num_steps/seed"},
  };
  return kEntries;
}

bool ResolveDataset(const std::string& name, float scale, const Spec& spec,
                    data::DatasetPreset* out, std::string* error) {
  if (name == "synthetic") {
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = spec.GetInt("data", "num_nodes", 8);
    options.num_steps = spec.GetInt("data", "num_steps", 600);
    options.seed =
        static_cast<uint64_t>(spec.GetInt("data", "seed", 17));
    *out = {"synthetic", options, 0.7f, 0.1f};
    return true;
  }
  for (const data::DatasetPreset& preset : data::AllPresets(scale)) {
    if (preset.name == name) {
      *out = preset;
      return true;
    }
  }
  std::vector<std::string> known;
  for (const DatasetEntry& entry : AllDatasets()) known.push_back(entry.name);
  *error = "unknown dataset '" + name + "' (known: " + JoinNames(known) + ")";
  return false;
}

const std::vector<TrainerScenario>& TrainerScenarios() {
  static const std::vector<TrainerScenario> kScenarios = {
      {"standard", "Adam + masked MAE + curriculum + early stopping"},
      {"no-curriculum", "standard with curriculum learning off"},
      {"patient", "standard with doubled early-stopping patience"},
  };
  return kScenarios;
}

bool ApplyTrainerScenario(const std::string& name,
                          train::TrainerOptions* options,
                          std::string* error) {
  if (name == "standard") return true;
  if (name == "no-curriculum") {
    options->curriculum_learning = false;
    return true;
  }
  if (name == "patient") {
    options->patience *= 2;
    return true;
  }
  std::vector<std::string> known;
  for (const TrainerScenario& s : TrainerScenarios()) known.push_back(s.name);
  *error = "unknown trainer scenario '" + name +
           "' (known: " + JoinNames(known) + ")";
  return false;
}

const std::vector<BackendEntry>& AllBackends() {
  static const std::vector<BackendEntry> kBackends = [] {
    std::vector<BackendEntry> entries = {
        {"auto",
         "the backend startup selection picked (cpuid detection; "
         "D2STGNN_FORCE_BACKEND honored)"}};
    for (const std::string& name : kernels::AvailableBackendNames()) {
      std::string description = "kernel backend";
      if (name == "scalar") {
        description = "portable scalar reference kernels (bitwise baseline)";
      } else if (name == "avx2") {
        description = "AVX2+FMA vectorized kernels (runtime cpuid gated)";
      }
      entries.push_back({name, description});
    }
    return entries;
  }();
  return kBackends;
}

bool ResolveBackend(const std::string& name, std::string* resolved,
                    std::string* error) {
  if (name == "auto") {
    *resolved = kernels::ActiveBackend().name;
    return true;
  }
  const std::vector<std::string> available = kernels::AvailableBackendNames();
  if (std::find(available.begin(), available.end(), name) !=
      available.end()) {
    *resolved = name;
    return true;
  }
  std::vector<std::string> known = {"auto"};
  known.insert(known.end(), available.begin(), available.end());
  *error = "unknown or unavailable kernel backend '" + name +
           "' (known: " + JoinNames(known) + ")";
  return false;
}

}  // namespace d2stgnn::experiment
