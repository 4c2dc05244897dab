// Tests of the static plan-IR verifier (DESIGN.md §12): a race-free
// captured plan passes with zero errors, each plan_mutator.h corruption
// class is detected with the matching diagnostic code and step/op/level
// provenance, the per-op traits table agrees with the capture surface, and
// reports render with stable code names.

#include "exec/plan_verifier.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/graph_capture.h"
#include "exec/plan_mutator.h"
#include "tensor/op_registry.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace d2stgnn {
namespace {

// A small forward with every structural feature the verifier reasons about:
// parallel same-level branches (the two MatMul arms), an accumulating op
// (MatMul), an indexed op (EmbeddingLookup, bound), a pure copy (Reshape),
// captured constants, and a multi-level reduction chain.
class PlanVerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    w1_ = Tensor::Randn({4, 5}, rng);
    w2_ = Tensor::Randn({4, 5}, rng);
    table_ = Tensor::Randn({7, 5}, rng);
    x_ = Tensor::Randn({2, 3, 4}, rng);
    idx_ = {0, 3, 6, 2, 5, 1};
  }

  std::shared_ptr<const exec::ExecutionPlan> Capture() {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x_);
    capture.BindIndexInput("idx", idx_);
    Tensor a = MatMul(x_, w1_);                      // [2,3,5]
    Tensor b = MatMul(x_, w2_);                      // same level as `a`
    Tensor e = EmbeddingLookup(table_, idx_, {2, 3});
    Tensor h = Relu(Add(a, Mul(b, e)));
    Tensor flat = Reshape(h, {2, 15});               // pure copy
    Tensor out = Sum(Softmax(flat, -1), 1, /*keepdim=*/true);
    auto plan = capture.Finish(out);
    EXPECT_NE(plan, nullptr) << capture.error();
    return plan;
  }

  /// First diagnostic carrying `code`, which must exist.
  static exec::Diagnostic FindDiag(const exec::VerifierReport& report,
                                   exec::DiagCode code) {
    for (const exec::Diagnostic& d : report.diagnostics) {
      if (d.code == code) return d;
    }
    ADD_FAILURE() << "no diagnostic with code " << exec::DiagCodeName(code)
                  << " in:\n"
                  << report.ToString();
    return exec::Diagnostic{};
  }

  Tensor w1_, w2_, table_, x_;
  std::vector<int64_t> idx_;
};

// The negative test: a real race-free captured plan verifies clean.
TEST_F(PlanVerifierTest, CleanCapturedPlanPassesWithZeroErrors) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  const exec::VerifierReport report = exec::VerifyPlan(*plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.errors, 0);
  // The Reshape shows up as the fusion-worklist advisory, not an error.
  EXPECT_TRUE(report.HasCode(exec::DiagCode::kCopyStep)) << report.ToString();
  EXPECT_GE(report.advisories, 1);
}

TEST_F(PlanVerifierTest, OverlappingSameLevelWritesAreDetected) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant =
      exec::MutatePlan(*plan, exec::PlanMutation::kOverlapSameLevelWrites);
  ASSERT_NE(mutant, nullptr) << "plan has no level with two steps";

  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.HasCode(exec::DiagCode::kSameLevelWriteOverlap))
      << report.ToString();
  const exec::Diagnostic d =
      FindDiag(report, exec::DiagCode::kSameLevelWriteOverlap);
  // Pairwise provenance: two distinct steps, same level, named op.
  EXPECT_GE(d.step, 0);
  EXPECT_GE(d.other_step, 0);
  EXPECT_NE(d.step, d.other_step);
  EXPECT_FALSE(d.op.empty());
  EXPECT_GE(d.level, 1);
  EXPECT_NE(d.message.find("write/write race"), std::string::npos)
      << d.message;
  // The aliased bytes also violate the planner's interference claim.
  EXPECT_TRUE(report.HasCode(exec::DiagCode::kSlabInterference));
}

TEST_F(PlanVerifierTest, ReadOfReusedSlabRegionIsDetected) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant =
      exec::MutatePlan(*plan, exec::PlanMutation::kReadReusedSlabRegion);
  ASSERT_NE(mutant, nullptr);

  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.HasCode(exec::DiagCode::kLifetimeTooShort))
      << report.ToString();
  const exec::Diagnostic d =
      FindDiag(report, exec::DiagCode::kLifetimeTooShort);
  EXPECT_GE(d.step, 0);
  EXPECT_GE(d.other_step, 0) << "must name the producing step";
  EXPECT_FALSE(d.op.empty());
  EXPECT_NE(d.message.find("lifetime"), std::string::npos) << d.message;
}

TEST_F(PlanVerifierTest, DanglingValueRefIsDetected) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant = exec::MutatePlan(*plan, exec::PlanMutation::kDanglingValueRef);
  ASSERT_NE(mutant, nullptr);

  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.HasCode(exec::DiagCode::kValueRefOutOfRange))
      << report.ToString();
  const exec::Diagnostic d =
      FindDiag(report, exec::DiagCode::kValueRefOutOfRange);
  EXPECT_GE(d.step, 0);
  EXPECT_FALSE(d.op.empty());
  EXPECT_GE(d.level, 1);
  EXPECT_NE(d.message.find("dangles"), std::string::npos) << d.message;
}

TEST_F(PlanVerifierTest, WrongZeroOutputIsDetected) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant = exec::MutatePlan(*plan, exec::PlanMutation::kWrongZeroOutput);
  ASSERT_NE(mutant, nullptr);

  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.HasCode(exec::DiagCode::kWrongZeroOutput))
      << report.ToString();
  const exec::Diagnostic d = FindDiag(report, exec::DiagCode::kWrongZeroOutput);
  EXPECT_GE(d.step, 0);
  EXPECT_FALSE(d.op.empty());
  EXPECT_NE(d.message.find(d.op), std::string::npos)
      << "message must name the op: " << d.message;
}

TEST_F(PlanVerifierTest, StaleConstantPointerIsDetected) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant =
      exec::MutatePlan(*plan, exec::PlanMutation::kStaleConstantPointer);
  ASSERT_NE(mutant, nullptr);

  const exec::VerifierReport report = exec::VerifyPlan(*mutant);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.HasCode(exec::DiagCode::kConstantMismatch))
      << report.ToString();
  const exec::Diagnostic d =
      FindDiag(report, exec::DiagCode::kConstantMismatch);
  EXPECT_NE(d.message.find("constant"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("stale"), std::string::npos) << d.message;
}

// MutatePlan corrupts a clone: after every mutation the original plan must
// still verify clean (mutation tests cannot poison each other).
TEST_F(PlanVerifierTest, MutationNeverTouchesTheOriginalPlan) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  for (const exec::PlanMutation mutation :
       {exec::PlanMutation::kOverlapSameLevelWrites,
        exec::PlanMutation::kReadReusedSlabRegion,
        exec::PlanMutation::kDanglingValueRef,
        exec::PlanMutation::kWrongZeroOutput,
        exec::PlanMutation::kStaleConstantPointer}) {
    ASSERT_NE(exec::MutatePlan(*plan, mutation), nullptr);
    const exec::VerifierReport report = exec::VerifyPlan(*plan);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST_F(PlanVerifierTest, ToStringCarriesCodeNamesAndSeverities) {
  auto plan = Capture();
  ASSERT_NE(plan, nullptr);
  auto mutant = exec::MutatePlan(*plan, exec::PlanMutation::kDanglingValueRef);
  ASSERT_NE(mutant, nullptr);
  const std::string text = exec::VerifyPlan(*mutant).ToString();
  EXPECT_NE(text.find("error[ValueRefOutOfRange]"), std::string::npos) << text;
  EXPECT_NE(text.find("plan verification:"), std::string::npos) << text;

  const std::string clean = exec::VerifyPlan(*plan).ToString();
  EXPECT_NE(clean.find("0 error(s)"), std::string::npos) << clean;
  EXPECT_NE(clean.find("advisory[CopyStep]"), std::string::npos) << clean;
}

// ---------------------------------------------------------------------------
// Per-op replay traits (the read/write contract the verifier checks).

TEST(PlanOpTraitsTest, TraitsMatchTheCaptureSurface) {
  const PlanOpTraits* matmul = FindPlanOpTraits("MatMul");
  ASSERT_NE(matmul, nullptr);
  EXPECT_TRUE(matmul->accumulates);
  EXPECT_FALSE(matmul->indexed);

  const PlanOpTraits* lookup = FindPlanOpTraits("EmbeddingLookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_TRUE(lookup->indexed);
  EXPECT_FALSE(lookup->accumulates);

  const PlanOpTraits* reshape = FindPlanOpTraits("Reshape");
  ASSERT_NE(reshape, nullptr);
  EXPECT_TRUE(reshape->pure_copy);

  const PlanOpTraits* add = FindPlanOpTraits("Add");
  ASSERT_NE(add, nullptr);
  EXPECT_FALSE(add->accumulates);
  EXPECT_FALSE(add->indexed);
  EXPECT_FALSE(add->pure_copy);

  // Composed ops never appear in plans and must not be in the table.
  EXPECT_EQ(FindPlanOpTraits("Mean"), nullptr);
  EXPECT_EQ(FindPlanOpTraits("Transpose"), nullptr);
  EXPECT_EQ(FindPlanOpTraits("NotAnOp"), nullptr);
}

TEST(PlanOpTraitsTest, PlanOpNamesIsSortedAndCoversTheVocabulary) {
  const std::vector<std::string> names = PlanOpNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 19u);
  for (const std::string& name : names) {
    EXPECT_NE(FindPlanOpTraits(name), nullptr) << name;
  }
  // "SumDim" (the dim overload of Sum) is a recorded name of its own.
  EXPECT_TRUE(std::binary_search(names.begin(), names.end(), "SumDim"));
}

}  // namespace
}  // namespace d2stgnn
