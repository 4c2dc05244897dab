#include "infer/fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace d2stgnn::infer {

const std::vector<SloClass>& BuiltinSloClasses() {
  static const std::vector<SloClass>* const classes =
      new std::vector<SloClass>{
          {"gold", /*priority=*/0, /*target_p99_ms=*/50, /*weight=*/4.0},
          {"silver", /*priority=*/1, /*target_p99_ms=*/150, /*weight=*/2.0},
          {"bronze", /*priority=*/2, /*target_p99_ms=*/400, /*weight=*/1.0},
      };
  return *classes;
}

bool ResolveSloClass(const std::string& name, SloClass* slo) {
  for (const SloClass& builtin : BuiltinSloClasses()) {
    if (builtin.name == name) {
      if (slo != nullptr) *slo = builtin;
      return true;
    }
  }
  return false;
}

bool ParseTenants(const std::vector<std::string>& entries,
                  std::vector<TenantSpec>* out, std::string* error) {
  out->clear();
  for (const std::string& entry : entries) {
    TenantSpec tenant;
    const size_t colon = entry.find(':');
    tenant.id = entry.substr(0, colon);
    if (tenant.id.empty()) {
      *error = "entry '" + entry + "' has an empty model id";
      return false;
    }
    if (colon != std::string::npos &&
        !ResolveSloClass(entry.substr(colon + 1), &tenant.slo)) {
      *error = "entry '" + entry + "' names an unknown SLO class '" +
               entry.substr(colon + 1) + "' (known: gold, silver, bronze)";
      return false;
    }
    for (const TenantSpec& other : *out) {
      if (other.id == tenant.id) {
        *error = "'" + tenant.id + "' is listed twice";
        return false;
      }
    }
    out->push_back(std::move(tenant));
  }
  if (out->empty()) {
    *error = "no models listed";
    return false;
  }
  return true;
}

FleetArbiter::FleetArbiter(int64_t shared_capacity,
                           double arbitration_watermark)
    : shared_capacity_(shared_capacity), watermark_(arbitration_watermark) {
  D2_CHECK_GE(watermark_, 0.0);
  D2_CHECK_LE(watermark_, 1.0);
}

void FleetArbiter::AddLane(const std::string& model_id, int64_t priority,
                           double weight) {
  D2_CHECK_GT(weight, 0.0);
  D2_CHECK(lanes_.find(model_id) == lanes_.end());
  Lane lane;
  lane.priority = priority;
  lane.weight = weight;
  // A newcomer starts at the virtual floor: no retroactive credit for the
  // time before it existed.
  lane.virtual_time = virtual_floor_;
  lanes_.emplace(model_id, lane);
  total_weight_ += weight;
}

bool FleetArbiter::QuotaArmed(int64_t total_depth) const {
  if (shared_capacity_ <= 0) return false;
  return static_cast<double>(total_depth) >=
         watermark_ * static_cast<double>(shared_capacity_);
}

int64_t FleetArbiter::Quota(const std::string& model_id) const {
  if (shared_capacity_ <= 0) return std::numeric_limits<int64_t>::max();
  const auto it = lanes_.find(model_id);
  if (it == lanes_.end()) return 0;
  const double share = it->second.weight / total_weight_;
  const int64_t quota = static_cast<int64_t>(
      share * static_cast<double>(shared_capacity_));
  return std::max<int64_t>(quota, 1);
}

std::string FleetArbiter::Pick(const std::vector<std::string>& ready) const {
  std::string best;
  int64_t best_priority = 0;
  double best_vt = 0.0;
  for (const std::string& id : ready) {
    const auto it = lanes_.find(id);
    if (it == lanes_.end()) continue;
    const Lane& lane = it->second;
    // An idle lane's stale virtual time is floored: it competes from "now",
    // not from credit accumulated while it had nothing to send.
    const double vt = std::max(lane.virtual_time, virtual_floor_);
    if (best.empty() || lane.priority < best_priority ||
        (lane.priority == best_priority &&
         (vt < best_vt || (vt == best_vt && id < best)))) {
      best = id;
      best_priority = lane.priority;
      best_vt = vt;
    }
  }
  return best;
}

void FleetArbiter::Account(const std::string& model_id, int64_t batch_size) {
  const auto it = lanes_.find(model_id);
  if (it == lanes_.end() || batch_size <= 0) return;
  Lane& lane = it->second;
  const double start = std::max(lane.virtual_time, virtual_floor_);
  lane.virtual_time = start + static_cast<double>(batch_size) / lane.weight;
  // Start-time fairness: the floor tracks the start tag of the batch in
  // service, so lanes that go idle cannot fall behind it.
  virtual_floor_ = start;
}

bool ModelFleet::AddModel(std::shared_ptr<InferenceSession> session,
                          const FleetModelOptions& options,
                          std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (session == nullptr) return fail("fleet: null session");
  if (options.model_id.empty()) return fail("fleet: empty model_id");
  if (options.max_batch_size <= 0) {
    return fail("fleet: max_batch_size must be positive for model '" +
                options.model_id + "'");
  }
  if (options.max_wait_us < 0) {
    return fail("fleet: max_wait_us must be >= 0 for model '" +
                options.model_id + "'");
  }
  if (options.slo.weight <= 0.0) {
    return fail("fleet: slo weight must be positive for model '" +
                options.model_id + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.find(options.model_id) != entries_.end()) {
    return fail("fleet: duplicate model_id '" + options.model_id + "'");
  }
  Entry entry;
  entry.options = options;
  entry.session = std::move(session);
  entries_.emplace(options.model_id, std::move(entry));
  ids_.push_back(options.model_id);
  return true;
}

std::vector<std::string> ModelFleet::model_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ids_;
}

size_t ModelFleet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::shared_ptr<InferenceSession> ModelFleet::session(
    const std::string& model_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : it->second.session;
}

const FleetModelOptions* ModelFleet::model_options(
    const std::string& model_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : &it->second.options;
}

void ModelFleet::SetSession(const std::string& model_id,
                            std::shared_ptr<InferenceSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(model_id);
  if (it != entries_.end() && session != nullptr) {
    it->second.session = std::move(session);
  }
}

bool ModelFleet::AttachReloader(const std::string& model_id, SessionHost* host,
                                ModelFactory factory,
                                const data::StandardScaler& scaler,
                                const SessionOptions& session_options,
                                const HotReloadOptions& options,
                                std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (host == nullptr) return fail("fleet: null host");
  if (factory == nullptr) return fail("fleet: null model factory");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(model_id);
  if (it == entries_.end()) {
    return fail("fleet: unknown model_id '" + model_id + "'");
  }
  if (it->second.reloader != nullptr) {
    return fail("fleet: model '" + model_id + "' already has a reloader");
  }
  it->second.reloader = std::make_unique<CheckpointReloader>(
      host, std::move(factory), scaler, session_options, options);
  return true;
}

CheckpointReloader* ModelFleet::reloader(const std::string& model_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : it->second.reloader.get();
}

void ModelFleet::StartReloaders() {
  // Start/Stop run outside mu_: a watcher mid-swap re-enters the fleet via
  // SetSession, so joining it under mu_ (Stop) would deadlock. The pointers
  // are stable — entries are never removed.
  std::vector<CheckpointReloader*> reloaders;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : entries_) {
      if (entry.reloader != nullptr) reloaders.push_back(entry.reloader.get());
    }
  }
  for (CheckpointReloader* reloader : reloaders) reloader->Start();
}

void ModelFleet::StopReloaders() {
  std::vector<CheckpointReloader*> reloaders;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : entries_) {
      if (entry.reloader != nullptr) reloaders.push_back(entry.reloader.get());
    }
  }
  for (CheckpointReloader* reloader : reloaders) reloader->Stop();
}

}  // namespace d2stgnn::infer
