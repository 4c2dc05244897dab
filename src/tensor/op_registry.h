#ifndef D2STGNN_TENSOR_OP_REGISTRY_H_
#define D2STGNN_TENSOR_OP_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

// Op-coverage gradcheck registry: every differentiable op exported by
// tensor/ops.h registers a sample-input factory here, and the test suite
// (tests/op_gradcheck_test.cc) both finite-difference-checks every entry
// and fails when an op declared in ops.h lacks one — so an op whose
// backward was never verified cannot ship.

namespace d2stgnn {

/// One ready-to-run gradient-check scenario for a single op.
struct OpGradCheckCase {
  /// The ops.h function name this case exercises ("MatMul", "Softmax", ...).
  std::string op;
  /// Leaf parameters (requires_grad set) that `loss` closes over.
  std::vector<Tensor> params;
  /// Deterministic, re-evaluable scalar loss whose graph contains `op`.
  std::function<Tensor()> loss;
};

/// Builds a case from a seeded generator. Factories that need exact kink
/// placement (Relu, Abs) may ignore the generator and use fixed
/// data.
using OpGradCheckFactory = std::function<OpGradCheckCase(Rng&)>;

/// Process-wide registry mapping op name -> gradcheck case factory.
class OpGradCheckRegistry {
 public:
  /// The singleton, with every built-in op of ops.h pre-registered.
  static OpGradCheckRegistry& Instance();

  /// Registers (or replaces) the factory for `op`.
  void Register(const std::string& op, OpGradCheckFactory factory);

  /// True if `op` has a factory.
  bool Contains(const std::string& op) const;

  /// All registered op names, sorted.
  std::vector<std::string> OpNames() const;

  /// Instantiates the case for `op`. Aborts if `op` is unregistered.
  OpGradCheckCase MakeCase(const std::string& op, Rng& rng) const;

  /// Ops declared in ops.h that are exempt from gradcheck coverage (shape
  /// or bookkeeping helpers with no backward of their own). Currently
  /// empty: every Tensor-returning function in ops.h is differentiable.
  static const std::vector<std::string>& NonDifferentiableAllowlist();

 private:
  OpGradCheckRegistry();

  std::map<std::string, OpGradCheckFactory> factories_;
};

/// Extracts the op names from the text of tensor/ops.h: every free function
/// declared at column zero returning `Tensor` (operator overloads are
/// excluded; overload sets collapse to one name). The completeness test
/// compares this against the registry, making the coverage requirement
/// self-enforcing as ops.h grows.
std::vector<std::string> ParseOpsHeaderOpNames(const std::string& header_text);

/// Replay-time classification of one plan-step op — the read/write contract
/// the static plan verifier (exec/plan_verifier.h) checks captured
/// ExecutionPlans against. Every step reads each of its inputs in full and
/// writes its whole output slot; the traits record the exceptions to the
/// plain overwrite model.
struct PlanOpTraits {
  /// The kernel accumulates (+=) into its output, so the replay executor
  /// must zero the slot first (PlanStep::zero_output must be set).
  bool accumulates = false;
  /// The op consumes an int64 index vector (PlanStep::index_input or
  /// baked_indices); non-indexed ops must carry neither.
  bool indexed = false;
  /// The output is a verbatim element-order copy of the single input —
  /// a copy-elimination / fusion candidate the verifier flags as advisory.
  bool pure_copy = false;
};

/// Traits for `op`, or nullptr when `op` is not a name GraphCapture ever
/// records ("SumDim" aliases the dim overload of Sum; composed ops such as
/// Mean or Transpose never appear in plans — they lower to these). The
/// verifier treats an unknown name as an error, so this table must grow
/// with the capture surface in ops.cc.
const PlanOpTraits* FindPlanOpTraits(const std::string& op);

/// Every op name plans may contain, sorted (the domain of FindPlanOpTraits).
std::vector<std::string> PlanOpNames();

}  // namespace d2stgnn

#endif  // D2STGNN_TENSOR_OP_REGISTRY_H_
