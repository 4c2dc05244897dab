#ifndef D2STGNN_EXEC_GRAPH_CAPTURE_H_
#define D2STGNN_EXEC_GRAPH_CAPTURE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/plan.h"
#include "tensor/tensor.h"

// Records one eager forward pass into an ExecutionPlan (DESIGN.md §10).
//
// Every op in tensor/ops.cc computes its eager forward by running a
// shape-specialized StepIo closure. While a GraphCapture is alive on a
// thread, ops.cc hands that same closure to RecordStep below, so a replayed
// step runs exactly the code the eager forward ran. The caller binds the
// per-request tensors by identity *before* running the forward, runs it
// once eagerly (the capture run produces normal, correct results), then
// calls Finish() with the output:
//
//   exec::GraphCapture capture;
//   capture.BindInput("x", batch.x);
//   capture.BindIndexInput("tod", batch.time_of_day);
//   Tensor out = model.Forward(batch);          // eager, but recorded
//   auto plan = capture.Finish(out);            // null + error() on failure
//
// Each input an op reads is resolved when the op is recorded: to the output
// of an earlier recorded step, to a bound input, or, when it is neither, to
// a plan constant (weights, scaler statistics). A record keeps only that
// resolution and its output's size, so the forward's intermediates die as
// the eager pass drops them; only constants and bound inputs stay pinned
// until Finish. Steps that do not contribute to the output are pruned,
// levels are assigned for the parallel schedule, and the memory planner
// lays every intermediate into one slab.

namespace d2stgnn::exec {

namespace internal {

/// True when ops.cc should record the op it is about to dispatch. Kept as
/// a cheap thread-local flag check so the eager fast path is unaffected.
bool CaptureActive();

/// Records a dispatched op. `inputs` are the tensors whose buffers the
/// closure reads (in StepIo::inputs order), resolved here and not kept;
/// `output` the tensor it writes, `run` the shape-specialized closure that
/// computed `output`.
/// `zero_output` marks kernels that accumulate (+=) into their output.
/// `indices`, when set, is the int64 index vector the closure reads through
/// StepIo::indices (EmbeddingLookup): replay passes the bound vector when
/// `indices` matches a BindIndexInput address, otherwise a snapshot taken
/// here. No-op when capture is inactive.
void RecordStep(const char* op, const std::vector<Tensor>& inputs,
                const Tensor& output, std::function<void(const StepIo&)> run,
                bool zero_output = false,
                const std::vector<int64_t>* indices = nullptr);

}  // namespace internal

class GraphCapture {
 public:
  /// Activates capture on the current thread. At most one GraphCapture may
  /// be alive per thread.
  GraphCapture();
  ~GraphCapture();
  GraphCapture(const GraphCapture&) = delete;
  GraphCapture& operator=(const GraphCapture&) = delete;

  /// Declares `t` as a per-request float input: replay reads it from a
  /// caller-provided pointer instead of a captured constant. Matched by
  /// tensor identity, so bind the exact handle the forward will consume.
  void BindInput(const std::string& name, const Tensor& t);

  /// Declares `indices` as a per-request index vector (time-of-day /
  /// day-of-week). Matched by vector address, so bind the exact vector the
  /// forward will pass to EmbeddingLookup.
  void BindIndexInput(const std::string& name,
                      const std::vector<int64_t>& indices);

  /// Resolves the recorded steps against `output` and builds the plan.
  /// Returns null if the output was not produced by a recorded op; error()
  /// says why.
  /// Recording stops either way; Finish may be called once.
  std::shared_ptr<const ExecutionPlan> Finish(const Tensor& output);

  /// Why Finish() returned null (empty on success / before Finish).
  const std::string& error() const { return error_; }

  /// True if a capture is active on the current thread.
  static bool Active();

 private:
  // `inputs` are resolved at record time: kSlot indexes recorded_, kInput
  // float_bindings_, kConstant constants_ (renumbered in Finish).
  struct Recorded {
    std::string op;
    std::vector<ValueRef> inputs;
    int64_t numel = 0;  // of the output
    std::function<void(const StepIo&)> run;
    bool zero_output = false;
    const std::vector<int64_t>* indices_addr = nullptr;  // null: not indexed
    std::vector<int64_t> baked_indices;
  };

  struct FloatBinding {
    std::string name;
    Tensor tensor;
  };
  struct IndexBinding {
    std::string name;
    const std::vector<int64_t>* indices = nullptr;
  };

  // A recorded step's output, keyed by impl address. The weak pointer
  // does not pin the buffer; an expired entry is a dead intermediate whose
  // address a later tensor may reuse, so it never counts as a producer.
  struct Producer {
    std::weak_ptr<d2stgnn::internal::TensorImpl> impl;
    size_t step = 0;
  };

  ValueRef Resolve(const Tensor& t);
  void Record(Recorded recorded, const Tensor& output);

  std::vector<Recorded> recorded_;
  std::unordered_map<const d2stgnn::internal::TensorImpl*, Producer>
      producer_;
  std::vector<Tensor> constants_;  // pinned, in first-read order
  std::unordered_map<const d2stgnn::internal::TensorImpl*, int32_t>
      constant_of_;
  std::vector<FloatBinding> float_bindings_;
  std::vector<IndexBinding> index_bindings_;
  std::string error_;
  bool finished_ = false;

  friend void internal::RecordStep(const char*, const std::vector<Tensor>&,
                                   const Tensor&,
                                   std::function<void(const StepIo&)>, bool,
                                   const std::vector<int64_t>*);
};

}  // namespace d2stgnn::exec

#endif  // D2STGNN_EXEC_GRAPH_CAPTURE_H_
