#include "infer/session.h"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "exec/graph_capture.h"
#include "exec/plan_verifier.h"
#include "tensor/kernels/registry.h"
#include "train/checkpoint.h"

namespace d2stgnn::infer {

bool DefaultVerifyPlans() {
#ifndef NDEBUG
  return true;  // debug builds always verify
#else
  const char* env = std::getenv("D2STGNN_VERIFY_PLANS");
  return env != nullptr && std::strcmp(env, "1") == 0;
#endif
}

InferenceSession::InferenceSession(
    std::unique_ptr<train::ForecastingModel> model,
    const data::StandardScaler& scaler, const SessionOptions& options)
    : model_(std::move(model)), scaler_(scaler), options_(options) {
  model_->SetTraining(false);  // frozen: inference mode, no tape (see Predict)
  if (options_.use_arena) arena_ = std::make_shared<BufferArena>();
}

std::unique_ptr<InferenceSession> InferenceSession::Wrap(
    std::unique_ptr<train::ForecastingModel> model,
    const data::StandardScaler& scaler, const SessionOptions& options) {
  if (model == nullptr) {
    D2_LOG(ERROR) << "infer: cannot create a session around a null model";
    return nullptr;
  }
  if (options.num_nodes <= 0 || options.input_len <= 0 ||
      options.steps_per_day <= 0) {
    D2_LOG(ERROR) << "infer: invalid session options (num_nodes="
                  << options.num_nodes << ", input_len=" << options.input_len
                  << ", steps_per_day=" << options.steps_per_day << ")";
    return nullptr;
  }
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(std::move(model), scaler, options));
}

std::unique_ptr<InferenceSession> InferenceSession::Load(
    std::unique_ptr<train::ForecastingModel> model,
    const std::string& checkpoint_path, const data::StandardScaler& scaler,
    const SessionOptions& options) {
  if (model == nullptr) {
    D2_LOG(ERROR) << "infer: cannot load " << checkpoint_path
                  << " into a null model";
    return nullptr;
  }
  if (fault::ConsumeFault("infer.checkpoint_load")) {
    D2_LOG(ERROR) << "infer: injected fault while loading "
                  << checkpoint_path;
    return nullptr;
  }
  // LoadCheckpoint is transactional: on corrupt / truncated / mismatched
  // files the model is untouched and we fail before any session exists.
  if (!train::LoadCheckpoint(model.get(), checkpoint_path)) {
    D2_LOG(ERROR) << "infer: checkpoint " << checkpoint_path
                  << " rejected; no session created";
    return nullptr;
  }
  return Wrap(std::move(model), scaler, options);
}

std::string InferenceSession::ValidateRequest(
    const ForecastRequest& request) const {
  const int64_t expected = options_.input_len * options_.num_nodes;
  if (static_cast<int64_t>(request.window.size()) != expected) {
    std::ostringstream os;
    os << "bad request: window has " << request.window.size()
       << " readings, expected input_len * num_nodes = " << expected;
    return os.str();
  }
  if (request.time_of_day < 0 || request.time_of_day >= options_.steps_per_day) {
    return "bad request: time_of_day out of [0, steps_per_day)";
  }
  if (request.day_of_week < 0 || request.day_of_week >= 7) {
    return "bad request: day_of_week out of [0, 7)";
  }
  if (request.deadline_us < 0) {
    return "bad request: deadline_us must be >= 0";
  }
  return "";
}

data::Batch InferenceSession::AssembleBatch(
    const std::vector<ForecastRequest>& requests) const {
  const int64_t b = static_cast<int64_t>(requests.size());
  const int64_t th = options_.input_len;
  const int64_t n = options_.num_nodes;
  D2_CHECK_GT(b, 0);

  data::Batch batch;
  batch.batch_size = b;
  batch.input_len = th;
  batch.time_of_day.resize(static_cast<size_t>(b * th));
  batch.day_of_week.resize(static_cast<size_t>(b * th));

  Tensor x({b, th, n, data::kInputFeatures});
  for (int64_t i = 0; i < b; ++i) {
    const ForecastRequest& req = requests[static_cast<size_t>(i)];
    D2_CHECK_EQ(static_cast<int64_t>(req.window.size()), th * n)
        << "unvalidated request reached AssembleBatch";
    data::EncodeWindow(req.window.data(), th, n, req.time_of_day,
                       req.day_of_week, options_.steps_per_day, scaler_,
                       x.Data().data() + i * th * n * data::kInputFeatures,
                       batch.time_of_day.data() + i * th,
                       batch.day_of_week.data() + i * th);
  }
  batch.x = std::move(x);
  return batch;
}

Tensor InferenceSession::Predict(const data::Batch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  DropForeignPlansLocked();
  NoGradGuard no_grad;
  std::optional<ArenaGuard> arena_scope;
  if (arena_ != nullptr) arena_scope.emplace(arena_);
  Tensor eager;
  const exec::PlanExecutor* replayed = ForwardLocked(batch, &eager);
  if (replayed == nullptr) return eager;
  const Shape& shape = replayed->plan().output_shape();
  Tensor prediction(shape);
  std::copy(replayed->output(), replayed->output() + NumElements(shape),
            prediction.Data().begin());
  return prediction;
}

const exec::PlanExecutor* InferenceSession::ForwardLocked(
    const data::Batch& batch, Tensor* eager) {
  const auto it =
      batch.x.defined() ? plans_.find(batch.batch_size) : plans_.end();
  if (it != plans_.end()) {
    exec::PlanExecutor& executor = *it->second.executor;
    const std::vector<exec::InputBinding> inputs = {
        {batch.x.Data().data(), batch.x.numel()}};
    const std::vector<const std::vector<int64_t>*> index_inputs = {
        &batch.time_of_day, &batch.day_of_week};
    std::string error;
    switch (executor.Run(inputs, index_inputs,
                         exec::ReplayMode::kSerial, &error)) {
      case exec::ReplayStatus::kOk:
        ++stats_.plan_replays;
        return &executor;
      case exec::ReplayStatus::kBindingMismatch:
        // A batch with this batch size but different geometry (input_len /
        // nodes) than the plan captured; the eager path handles it.
        D2_LOG(WARNING) << "infer: plan binding mismatch, running eager: "
                        << error;
        break;
      case exec::ReplayStatus::kStaleConstants:
      case exec::ReplayStatus::kBackendMismatch:
        // Parameter storage was reassigned, or the backend switched under
        // the plan: every cached plan is stale alike, so drop them all and
        // serve eagerly until the next Warmup recaptures.
        D2_LOG(WARNING) << "infer: dropping " << plans_.size()
                        << " execution plan(s): " << error;
        DropPlansLocked();
        break;
    }
  }
  ++stats_.eager_forwards;
  *eager = scaler_.InverseTransform(model_->Forward(batch));
  return nullptr;
}

void InferenceSession::DropPlansLocked() const {
  stats_.plan_invalidations += static_cast<int64_t>(plans_.size());
  plans_.clear();
}

void InferenceSession::DropForeignPlansLocked() const {
  if (plans_.empty()) return;
  const std::string& captured =
      plans_.begin()->second.executor->plan().backend_name();
  const char* active = kernels::ActiveBackend().name;
  if (captured == active) return;
  D2_LOG(WARNING) << "infer: kernel backend is now " << active
                  << "; dropping " << plans_.size() << " plan(s) captured "
                  << "under " << captured;
  DropPlansLocked();
}

ForecastRequest InferenceSession::BlankRequest() const {
  ForecastRequest blank;
  blank.window.assign(
      static_cast<size_t>(options_.input_len * options_.num_nodes), 0.0f);
  return blank;
}

bool InferenceSession::CapturePlanLocked(int64_t batch_size) {
  const std::vector<ForecastRequest> requests(static_cast<size_t>(batch_size),
                                              BlankRequest());
  // Only the assembled input comes from the session arena (it returns to
  // the pool for this size's replays). The capture's forward runs outside
  // it: that forward runs once per plan, so pooling its buffers would only
  // park them for eager forwards the plan replaces.
  const data::Batch batch = [&] {
    std::optional<ArenaGuard> arena_scope;
    if (arena_ != nullptr) arena_scope.emplace(arena_);
    return AssembleBatch(requests);
  }();
  NoGradGuard no_grad;
  exec::GraphCapture capture;
  capture.BindInput("x", batch.x);
  capture.BindIndexInput("tod", batch.time_of_day);
  capture.BindIndexInput("dow", batch.day_of_week);
  const Tensor out = scaler_.InverseTransform(model_->Forward(batch));
  std::shared_ptr<const exec::ExecutionPlan> plan = capture.Finish(out);
  if (plan == nullptr) {
    D2_LOG(WARNING) << "infer: plan capture failed for batch size "
                    << batch_size << " (" << capture.error()
                    << "); serving eagerly";
    return false;
  }
  D2_LOG(INFO) << "infer: captured batch-" << batch_size << " "
               << plan->Summary();
  std::optional<exec::VerifierReport> report;
  if (options_.verify_plans) {
    report = exec::VerifyPlan(*plan);
    ++stats_.plans_verified;
    // Test seam: a scripted "infer.plan_verify" fault stands in for a
    // verifier rejection, so the verify-reject -> eager-fallback -> repair
    // accounting is testable with plans that are in fact clean.
    if (report->ok() && fault::ConsumeFault("infer.plan_verify")) {
      report->errors = 1;
    }
    if (!report->ok()) {
      stats_.plan_verifier_errors += report->errors;
      D2_LOG(ERROR) << "infer: batch-" << batch_size
                    << " plan rejected by the static verifier; serving "
                    << "eagerly\n"
                    << report->ToString();
      return false;
    }
  }
  plans_[batch_size] = CachedPlan{
      std::make_unique<exec::PlanExecutor>(std::move(plan)), std::move(report)};
  ++stats_.plans_built;
  return true;
}

std::vector<Forecast> InferenceSession::PredictRequests(
    const std::vector<ForecastRequest>& requests) {
  std::vector<Forecast> results(requests.size());
  std::vector<size_t> valid;
  valid.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string error = ValidateRequest(requests[i]);
    if (error.empty()) {
      valid.push_back(i);
    } else {
      results[i].error = std::move(error);
      results[i].reason = RejectReason::kBadRequest;
    }
  }
  if (valid.empty()) return results;

  std::vector<ForecastRequest> batch_requests;
  batch_requests.reserve(valid.size());
  for (size_t i : valid) batch_requests.push_back(requests[i]);

  const int64_t tf = horizon();
  const int64_t n = options_.num_nodes;
  const int64_t num_valid = static_cast<int64_t>(valid.size());
  std::lock_guard<std::mutex> lock(mu_);
  DropForeignPlansLocked();
  NoGradGuard no_grad;
  std::optional<ArenaGuard> arena_scope;
  if (arena_ != nullptr) arena_scope.emplace(arena_);

  // Serve from a captured plan when one matches. A batch smaller than every
  // plan is padded with blank requests up to the nearest plan size — model
  // forwards are batch-independent (asserted by the parity tests), so the
  // padding rows only cost compute and are dropped below.
  const auto planned = plans_.lower_bound(num_valid);
  const int64_t plan_size =
      planned != plans_.end() ? planned->first : num_valid;
  if (plan_size > num_valid) {
    batch_requests.resize(static_cast<size_t>(plan_size), BlankRequest());
  }
  const data::Batch batch = AssembleBatch(batch_requests);
  Tensor eager;  // keeps the eager result alive for the copy below
  const exec::PlanExecutor* replayed = ForwardLocked(batch, &eager);
  const float* pd = nullptr;
  if (replayed != nullptr) {
    if (plan_size > num_valid) ++stats_.padded_replays;
    pd = replayed->output();
  } else {
    D2_CHECK_EQ(eager.numel(), batch.batch_size * tf * n);
    pd = eager.Data().data();
  }
  for (size_t k = 0; k < valid.size(); ++k) {
    Forecast& out = results[valid[k]];
    out.ok = true;
    out.horizon = tf;
    out.num_nodes = n;
    const float* src = pd + static_cast<int64_t>(k) * tf * n;
    out.values.assign(src, src + tf * n);
  }
  return results;
}

Forecast InferenceSession::PredictOne(const ForecastRequest& request) {
  std::vector<Forecast> results = PredictRequests({request});
  return std::move(results.front());
}

void InferenceSession::Warmup(int64_t batch_size, int64_t runs) {
  D2_CHECK_GT(batch_size, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DropForeignPlansLocked();
    if (options_.use_plans && plans_.find(batch_size) == plans_.end() &&
        CapturePlanLocked(batch_size)) {
      --runs;  // the capture's own forward was the first warm-up forward
    }
  }
  const std::vector<ForecastRequest> requests(
      static_cast<size_t>(batch_size), BlankRequest());
  for (int64_t r = 0; r < runs; ++r) PredictRequests(requests);
}

BufferArenaStats InferenceSession::arena_stats() const {
  if (arena_ == nullptr) return BufferArenaStats{};
  return arena_->stats();
}

SessionStats InferenceSession::session_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<int64_t> InferenceSession::planned_batch_sizes() const {
  std::lock_guard<std::mutex> lock(mu_);
  DropForeignPlansLocked();
  std::vector<int64_t> sizes;
  sizes.reserve(plans_.size());
  for (const auto& [size, entry] : plans_) sizes.push_back(size);
  return sizes;
}

std::map<int64_t, exec::VerifierReport> InferenceSession::verifier_reports()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  DropForeignPlansLocked();
  std::map<int64_t, exec::VerifierReport> reports;
  for (const auto& [size, entry] : plans_) {
    if (entry.report.has_value()) reports.emplace(size, *entry.report);
  }
  return reports;
}

void InferenceSession::InvalidatePlans() {
  std::lock_guard<std::mutex> lock(mu_);
  DropPlansLocked();
}

}  // namespace d2stgnn::infer
