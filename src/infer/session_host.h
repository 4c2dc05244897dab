#ifndef D2STGNN_INFER_SESSION_HOST_H_
#define D2STGNN_INFER_SESSION_HOST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "infer/session.h"

namespace d2stgnn::infer {

/// Anything that serves one (swappable) InferenceSession: one model lane of
/// the serving core. CheckpointReloader stages shadow sessions against this
/// interface. FleetServer::host(model_id) hands out one per lane, and a
/// BatchingServer — a one-lane FleetServer — is one itself.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Atomically replaces the served session. In-flight work finishes on the
  /// old session (implementations pin it per batch); every later dispatch
  /// runs on `next`.
  virtual void SwapSession(std::shared_ptr<InferenceSession> next) = 0;

  /// The largest batch this host dispatches — the default shadow-warmup
  /// size, so staged plans cover what the host will actually replay.
  virtual int64_t max_batch_size() const = 0;
};

/// The batch sizes a lane is warmed at before it serves: 1 and, when it is
/// larger, the lane's max batch. FleetServer warms new lanes at these sizes
/// and CheckpointReloader warms (and requires plans at) them for a staged
/// session.
inline std::vector<int64_t> WarmupBatchSizes(int64_t max_batch_size) {
  if (max_batch_size > 1) return {1, max_batch_size};
  return {1};
}

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_SESSION_HOST_H_
