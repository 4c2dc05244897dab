#ifndef D2STGNN_INFER_SESSION_HOST_H_
#define D2STGNN_INFER_SESSION_HOST_H_

#include <algorithm>
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

/// The batch sizes a lane is warmed at before it serves: every power of two
/// below the lane's max batch, then the max itself (8 gives {1, 2, 4, 8},
/// 6 gives {1, 2, 4, 6}, 1 gives {1}). A formed batch pads up to the
/// nearest of these, so padding stays under half the replayed rows.
/// FleetServer warms new lanes at these sizes and CheckpointReloader warms
/// (and requires plans at) them for a staged session.
inline std::vector<int64_t> WarmupBatchSizes(int64_t max_batch_size) {
  std::vector<int64_t> sizes;
  for (int64_t size = 1; size < max_batch_size; size *= 2) {
    sizes.push_back(size);
  }
  sizes.push_back(std::max<int64_t>(max_batch_size, 1));
  return sizes;
}

}  // namespace d2stgnn::infer

#endif  // D2STGNN_INFER_SESSION_HOST_H_
