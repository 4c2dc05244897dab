#include "optim/adam.h"

#include <cmath>

#include "common/check.h"
#include "common/logging.h"

namespace d2stgnn::optim {
namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Tensor> params, float learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  D2_CHECK_GT(learning_rate, 0.0f);
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i];
    D2_CHECK(p.defined());
    D2_CHECK(p.RequiresGrad()) << "optimizer parameter must require grad";
    m_[i].assign(p.Data().size(), 0.0f);
    v_[i].assign(p.Data().size(), 0.0f);
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++step_count_;
  const float bias1 =
      1.0f - std::pow(kBeta1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(kBeta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    const std::vector<float>& grad = p.GradData();
    if (grad.empty()) continue;
    std::vector<float>& data = p.Data();
    std::vector<float>& m = m_[i];
    std::vector<float>& v = v_[i];
    for (size_t j = 0; j < data.size(); ++j) {
      const float g = grad[j];
      m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * g;
      v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * g * g;
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      data[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + kEpsilon);
    }
  }
}

OptimizerState Adam::ExportState() const {
  OptimizerState state;
  state.type = "adam";
  state.step_count = step_count_;
  state.learning_rate = learning_rate_;
  state.slots.emplace_back("m", m_);
  state.slots.emplace_back("v", v_);
  return state;
}

bool Adam::ImportState(const OptimizerState& state) {
  if (state.type != "adam") {
    D2_LOG(ERROR) << "cannot import optimizer state of type '" << state.type
                  << "' into Adam";
    return false;
  }
  if (state.slots.size() != 2 || state.slots[0].first != "m" ||
      state.slots[1].first != "v") {
    D2_LOG(ERROR) << "Adam state must have slots m, v";
    return false;
  }
  if (!SlotMatchesParams("m", state.slots[0].second) ||
      !SlotMatchesParams("v", state.slots[1].second)) {
    return false;
  }
  step_count_ = state.step_count;
  learning_rate_ = state.learning_rate;
  m_ = state.slots[0].second;
  v_ = state.slots[1].second;
  return true;
}

bool Adam::SlotMatchesParams(
    const std::string& name,
    const std::vector<std::vector<float>>& slot) const {
  if (slot.size() != params_.size()) {
    D2_LOG(ERROR) << "optimizer state slot '" << name << "' has "
                  << slot.size() << " entries, optimizer has "
                  << params_.size() << " parameters";
    return false;
  }
  for (size_t i = 0; i < slot.size(); ++i) {
    if (slot[i].size() != params_[i].Data().size()) {
      D2_LOG(ERROR) << "optimizer state slot '" << name << "' entry " << i
                    << " has " << slot[i].size() << " elements, parameter has "
                    << params_[i].Data().size();
      return false;
    }
  }
  return true;
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  D2_CHECK_GT(max_norm, 0.0f);
  double sum_sq = 0.0;
  for (const Tensor& p : params) {
    for (float g : p.GradData()) sum_sq += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(sum_sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const Tensor& p : params) {
      auto& grad = p.impl()->grad;
      for (float& g : grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace d2stgnn::optim
