// Op-coverage gradient checking: every differentiable op declared in
// tensor/ops.h must have a registry entry (the completeness test parses the
// header, so a new op without a case fails the suite), and every registered
// case must pass a finite-difference check at 1 and 4 threads. A negative
// test with a deliberately wrong backward guards the checker itself against
// passing vacuously.

#include "tensor/op_registry.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

#ifndef D2STGNN_SOURCE_DIR
#error "tests/CMakeLists.txt must define D2STGNN_SOURCE_DIR"
#endif

namespace d2stgnn {
namespace {

std::string ReadOpsHeader() {
  const std::string path = std::string(D2STGNN_SOURCE_DIR) +
                           "/src/tensor/ops.h";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(OpsHeaderParserTest, ExtractsDeclarationsOnly) {
  const std::string header =
      "Tensor Add(const Tensor& a, const Tensor& b);\n"
      "Tensor Sum(const Tensor& a);\n"
      "Tensor Sum(const Tensor& a, int64_t dim, bool keepdim);\n"
      "Tensor operator+(const Tensor& a, const Tensor& b);\n"
      "Shape BroadcastShapes(const Shape& a, const Shape& b);\n"
      "  Tensor indented_is_not_a_declaration(int x);\n"
      "Tensor EmbeddingLookup(const Tensor& weight,\n"
      "                       const std::vector<int64_t>& indices);\n"
      "[[nodiscard]] Tensor Clamp(const Tensor& x, float lo, float hi);\n"
      "Tensor\n"
      "Softmax(const Tensor& x, int64_t dim);\n"
      "TensorImpl not_a_tensor_declaration(int x);\n";
  const std::vector<std::string> names = ParseOpsHeaderOpNames(header);
  EXPECT_EQ(names, (std::vector<std::string>{"Add", "Clamp", "EmbeddingLookup",
                                             "Softmax", "Sum"}));
}

TEST(OpGradCheckRegistryTest, CoversEveryOpDeclaredInOpsHeader) {
  const std::vector<std::string> declared =
      ParseOpsHeaderOpNames(ReadOpsHeader());
  ASSERT_GT(declared.size(), 20u) << "ops.h parse looks broken";

  const OpGradCheckRegistry& registry = OpGradCheckRegistry::Instance();
  const std::vector<std::string>& allowlist =
      OpGradCheckRegistry::NonDifferentiableAllowlist();
  for (const std::string& op : declared) {
    const bool allowlisted =
        std::find(allowlist.begin(), allowlist.end(), op) != allowlist.end();
    EXPECT_TRUE(registry.Contains(op) || allowlisted)
        << "op '" << op << "' is declared in tensor/ops.h but has no "
        << "gradcheck entry in tensor/op_registry.cc (and is not on the "
        << "non-differentiable allowlist); register a sample-input factory "
        << "so its backward is verified";
  }

  // And no stale entries: everything registered must still exist in ops.h.
  const std::set<std::string> declared_set(declared.begin(), declared.end());
  for (const std::string& op : OpGradCheckRegistry::Instance().OpNames()) {
    EXPECT_TRUE(declared_set.count(op) > 0)
        << "registry entry '" << op << "' has no declaration in tensor/ops.h";
  }
}

class OpGradCheckThreadsTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_P(OpGradCheckThreadsTest, AllRegisteredOpsPassFiniteDifferenceCheck) {
  SetNumThreads(GetParam());
  const OpGradCheckRegistry& registry = OpGradCheckRegistry::Instance();
  for (const std::string& op : registry.OpNames()) {
    Rng rng(7);
    const OpGradCheckCase c = registry.MakeCase(op, rng);
    const GradCheckResult result = CheckGradients(c.loss, c.params, rng);
    EXPECT_TRUE(result.ok)
        << "op '" << op << "' failed gradcheck at " << GetParam()
        << " threads: max_rel_err=" << result.max_relative_error
        << " param=" << result.bad_param << " entry=" << result.bad_entry
        << " analytic=" << result.bad_analytic
        << " numeric=" << result.bad_numeric;
    EXPECT_GT(result.checked, 0) << "op '" << op << "' checked no entries";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OpGradCheckThreadsTest,
                         ::testing::Values(1, 4));

// An op that lies about its derivative: forward y = 2x, backward claims 3.
Tensor BadDouble(const Tensor& a) {
  std::vector<float> out(a.Data().size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = 2.0f * a.Data()[i];
  return MakeOpResult("BadDouble", a.shape(), std::move(out), {a},
                      [a](const Tensor& output) {
                        if (!a.RequiresGrad()) return;
                        std::vector<float> grad = output.GradData();
                        for (float& g : grad) g *= 3.0f;
                        AccumulateGrad(a, std::move(grad));
                      });
}

TEST(OpGradCheckNegativeTest, WrongBackwardIsRejected) {
  Rng rng(11);
  Tensor x = Tensor::Rand({2, 3}, rng, 0.5f, 1.5f).SetRequiresGrad(true);
  GradCheckOptions options;
  options.log_mismatches = false;  // failures are expected here
  const GradCheckResult result = CheckGradients(
      [x]() { return Sum(BadDouble(x)); }, {x}, rng, options);
  EXPECT_FALSE(result.ok)
      << "gradcheck accepted a backward that is off by 1.5x — the checker "
      << "is vacuous";
  EXPECT_GT(result.max_relative_error, 0.3f);
  // The first-mismatch diagnostics must point at the bad comparison.
  EXPECT_EQ(result.bad_param, 0);
  EXPECT_GE(result.bad_entry, 0);
  EXPECT_NEAR(result.bad_analytic, 3.0f, 0.1f);
  EXPECT_NEAR(result.bad_numeric, 2.0f, 0.1f);
}

TEST(OpGradCheckNegativeTest, CorrectBackwardOfSameShapePasses) {
  // Control for the negative test: the identical harness with the true
  // derivative passes, so the rejection above is the checker working.
  Rng rng(11);
  Tensor x = Tensor::Rand({2, 3}, rng, 0.5f, 1.5f).SetRequiresGrad(true);
  const GradCheckResult result =
      CheckGradients([x]() { return Sum(MulScalar(x, 2.0f)); }, {x}, rng);
  EXPECT_TRUE(result.ok);
}

}  // namespace
}  // namespace d2stgnn
