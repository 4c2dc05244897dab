#include "infer/batching_server.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace d2stgnn::infer {

namespace {

// The routing key of the one lane.
constexpr char kModelId[] = "model";

// Registers `session` as the only model of `fleet` and returns the fleet,
// so the FleetServer member can be built from it in the initializer list.
ModelFleet* RegisterOnlyModel(ModelFleet* fleet,
                              std::shared_ptr<InferenceSession> session,
                              const BatchingOptions& options) {
  FleetModelOptions model;
  model.model_id = kModelId;
  model.max_batch_size = options.max_batch_size;
  model.max_wait_us = options.max_wait_us;
  model.warmup = options.warmup;
  model.admission = options.admission;
  std::string error;
  D2_CHECK(fleet->AddModel(std::move(session), model, &error)) << error;
  return fleet;
}

FleetOptions OneLaneOptions(const BatchingOptions& options) {
  FleetOptions fleet;
  fleet.max_queue_depth = options.max_queue_depth;
  return fleet;
}

}  // namespace

BatchingServer::BatchingServer(std::shared_ptr<InferenceSession> session,
                               const BatchingOptions& options)
    : options_(options),
      server_(RegisterOnlyModel(&fleet_, std::move(session), options),
              OneLaneOptions(options)) {}

BatchingServer::BatchingServer(InferenceSession* session,
                               const BatchingOptions& options)
    : BatchingServer(
          std::shared_ptr<InferenceSession>(session,
                                            [](InferenceSession*) {}),
          options) {}

std::future<Forecast> BatchingServer::Submit(ForecastRequest request) {
  return server_.Submit(kModelId, std::move(request));
}

void BatchingServer::SwapSession(std::shared_ptr<InferenceSession> next) {
  server_.SwapSession(kModelId, std::move(next));
}

std::shared_ptr<InferenceSession> BatchingServer::session() const {
  return server_.session(kModelId);
}

void BatchingServer::Shutdown(bool drain) { server_.Shutdown(drain); }

int64_t BatchingServer::QueueDepth() const { return server_.QueueDepth(); }

BatchingServerStats BatchingServer::stats() const {
  return server_.stats().models.at(kModelId);
}

}  // namespace d2stgnn::infer
