// Tests of the capture/plan/replay subsystem (DESIGN.md §10): the static
// memory planner's interval allocation, eager-vs-replay bitwise parity over
// an op zoo covering every recorded kernel, plan hygiene (dead-step pruning,
// registered step names, level schedule invariants), staleness and binding
// semantics, zero allocator traffic during replay, and session-level plan
// serving on the paper's model — parity at 1 and 4 threads in both serial
// and level-parallel modes, shape-miss fallback, padded replays, and plan
// invalidation when parameter storage is reassigned.

#include "exec/graph_capture.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/d2stgnn.h"
#include "data/sliding_window.h"
#include "data/synthetic_traffic.h"
#include "exec/memory_planner.h"
#include "exec/plan_executor.h"
#include "exec/plan_verifier.h"
#include "infer/session.h"
#include "tensor/buffer_arena.h"
#include "tensor/op_registry.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

#ifndef D2STGNN_SOURCE_DIR
#error "tests/CMakeLists.txt must define D2STGNN_SOURCE_DIR"
#endif

namespace d2stgnn {
namespace {

// ---------------------------------------------------------------------------
// Memory planner.

TEST(MemoryPlannerTest, DisjointLifetimesShareBytes) {
  const std::vector<exec::BufferRequest> requests = {
      {64, 1, 1},  // dead after level 1
      {64, 2, 2},  // born at level 2: may reuse the first buffer's bytes
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  ASSERT_EQ(assignment.offsets.size(), 2u);
  EXPECT_EQ(assignment.offsets[0], assignment.offsets[1]);
  EXPECT_EQ(assignment.slab_floats, 64);
}

TEST(MemoryPlannerTest, OverlappingLifetimesGetDistinctBytes) {
  const std::vector<exec::BufferRequest> requests = {
      {64, 1, 2},
      {64, 2, 3},  // both live at level 2
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  EXPECT_NE(assignment.offsets[0], assignment.offsets[1]);
  EXPECT_GE(assignment.slab_floats, 128);
}

// Same-level buffers may be written concurrently under the level-parallel
// schedule, so they must never alias even though neither is read later.
TEST(MemoryPlannerTest, SameLevelBuffersNeverAlias) {
  const std::vector<exec::BufferRequest> requests = {
      {32, 3, 3},
      {32, 3, 3},
      {32, 3, 3},
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  std::set<int64_t> offsets(assignment.offsets.begin(),
                            assignment.offsets.end());
  EXPECT_EQ(offsets.size(), 3u);
}

TEST(MemoryPlannerTest, OffsetsRespectAlignment) {
  // Odd sizes: every assigned offset must still land on the alignment grid.
  const std::vector<exec::BufferRequest> requests = {
      {5, 1, 2}, {7, 1, 3}, {3, 2, 3}, {13, 3, 4}, {1, 4, 4},
  };
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests, 16);
  for (const int64_t offset : assignment.offsets) {
    EXPECT_EQ(offset % 16, 0) << "offset " << offset;
  }
}

// A chain (each value dies as soon as the next is produced) needs only ~2
// live buffers at a time, so the slab must come out far below the sum.
TEST(MemoryPlannerTest, ChainReusesInsteadOfSummingSizes) {
  std::vector<exec::BufferRequest> requests;
  int64_t total = 0;
  for (int32_t i = 1; i <= 10; ++i) {
    requests.push_back({256, i, i + 1});
    total += 256;
  }
  const exec::BufferAssignment assignment = exec::PlanBuffers(requests);
  EXPECT_LT(assignment.slab_floats, total / 2);
  EXPECT_GE(assignment.slab_floats, 512);  // two live links minimum
}

TEST(MemoryPlannerTest, AssignmentIsDeterministic) {
  const std::vector<exec::BufferRequest> requests = {
      {100, 1, 3}, {40, 1, 2}, {60, 2, 4}, {100, 3, 5}, {8, 4, 5},
  };
  const exec::BufferAssignment a = exec::PlanBuffers(requests);
  const exec::BufferAssignment b = exec::PlanBuffers(requests);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.slab_floats, b.slab_floats);
}

// ---------------------------------------------------------------------------
// Capture + replay on an op zoo.

// Exercises every op a capture records (the bitwise replay test checks this
// against PlanOpNames()): MatMul, same-shape, bias and non-bias broadcast
// binary ops, every unary op, EmbeddingLookup, Softmax, dim and full
// reductions, BroadcastTo, Concat, Slice, Permute, Reshape.
Tensor Zoo(const Tensor& x, const Tensor& w, const Tensor& bias,
           const Tensor& table, const std::vector<int64_t>& idx) {
  Tensor h = Relu(Add(MatMul(x, w), bias));        // [2,3,5]
  Tensor e = EmbeddingLookup(table, idx, {2, 3});  // [2,3,5]
  Tensor m = Mul(h, e);
  Tensor d = Mul(Sub(h, e), AddScalar(Abs(e), 1.0f));
  Tensor s = Softmax(Add(m, d), -1);
  Tensor r = Sum(s, 1, /*keepdim=*/true);          // [2,1,5]
  Tensor b = BroadcastTo(r, {2, 3, 5});
  Tensor c = Concat({m, b}, 2);                    // [2,3,10]
  Tensor sl = Slice(c, 2, 2, 7);                   // [2,3,5]
  Tensor p = Permute(sl, {1, 0, 2});               // [3,2,5]
  Tensor folded = Sum(p, 0, /*keepdim=*/false);    // [2,5]
  Tensor total = Sum(folded);                      // scalar
  Tensor scaled = MulScalar(folded, 1.25f);
  Tensor acts = Add(Sigmoid(d), Tanh(d));
  Tensor mixed = Mul(acts, r);                        // [2,3,5] x [2,1,5]
  Tensor last = Sum(mixed, 1, /*keepdim=*/false);     // [2,5]
  return Add(Add(scaled, last), BroadcastTo(Reshape(total, {1, 1}), {2, 5}));
}

class ZooCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    w_ = Tensor::Randn({4, 5}, rng);
    bias_ = Tensor::Randn({5}, rng);
    table_ = Tensor::Randn({7, 5}, rng);
    x_ = Tensor::Randn({2, 3, 4}, rng);
    idx_ = {0, 3, 6, 2, 5, 1};
  }

  // Captures the zoo with x and idx bound as per-request inputs.
  std::shared_ptr<const exec::ExecutionPlan> CapturePlan() {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x_);
    capture.BindIndexInput("idx", idx_);
    Tensor out = Zoo(x_, w_, bias_, table_, idx_);
    auto plan = capture.Finish(out);
    EXPECT_NE(plan, nullptr) << capture.error();
    return plan;
  }

  std::vector<float> EagerZoo(const Tensor& x,
                              const std::vector<int64_t>& idx) const {
    NoGradGuard no_grad;
    return Zoo(x, w_, bias_, table_, idx).Data();
  }

  Tensor w_, bias_, table_, x_;
  std::vector<int64_t> idx_;
};

TEST_F(ZooCaptureTest, ReplayMatchesEagerBitwiseOnFreshInputs) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  // The plan holds every plan op, so the parity below covers them all.
  std::set<std::string> recorded;
  for (const exec::PlanStep& step : plan->steps()) recorded.insert(step.op);
  const std::vector<std::string> names = PlanOpNames();
  ASSERT_EQ(recorded, std::set<std::string>(names.begin(), names.end()));
  exec::PlanExecutor executor(plan);

  Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor x2 = Tensor::Randn({2, 3, 4}, rng);
    const std::vector<int64_t> idx2 = {6, 1, 4, 0, 2, 3};
    const std::vector<float> reference = EagerZoo(x2, idx2);

    for (const exec::ReplayMode mode :
         {exec::ReplayMode::kSerial, exec::ReplayMode::kLevelParallel}) {
      std::string error;
      const exec::ReplayStatus status = executor.Run(
          {{x2.Data().data(), x2.numel()}}, {&idx2}, mode, &error);
      ASSERT_EQ(status, exec::ReplayStatus::kOk) << error;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(executor.output()[i], reference[i])
            << "trial " << trial << " element " << i;
      }
    }
  }
}

// Without BindIndexInput the capture bakes a snapshot of the index vector;
// replay keeps using it even after the original vector mutates.
TEST_F(ZooCaptureTest, UnboundIndicesAreBakedAtCaptureTime) {
  std::vector<int64_t> idx = idx_;
  std::shared_ptr<const exec::ExecutionPlan> plan;
  {
    NoGradGuard no_grad;
    exec::GraphCapture capture;
    capture.BindInput("x", x_);
    Tensor out = Zoo(x_, w_, bias_, table_, idx);
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  EXPECT_TRUE(plan->index_inputs().empty());
  const std::vector<float> reference = EagerZoo(x_, idx_);

  idx.assign(idx.size(), 0);  // must not affect the baked snapshot
  exec::PlanExecutor executor(plan);
  const exec::ReplayStatus status = executor.Run(
      {{x_.Data().data(), x_.numel()}}, {}, exec::ReplayMode::kSerial);
  ASSERT_EQ(status, exec::ReplayStatus::kOk);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(executor.output()[i], reference[i]) << "element " << i;
  }
}

// Constants are read through the captured tensor handle, so in-place
// parameter updates (optimizer steps, checkpoint loads into existing
// buffers) are picked up by the very next replay.
TEST_F(ZooCaptureTest, InPlaceConstantMutationIsVisibleToReplay) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  w_.Data()[3] += 0.75f;
  bias_.Data()[0] -= 0.5f;
  ASSERT_TRUE(plan->ConstantsValid());

  const std::vector<float> reference = EagerZoo(x_, idx_);
  const exec::ReplayStatus status = executor.Run(
      {{x_.Data().data(), x_.numel()}}, {&idx_}, exec::ReplayMode::kSerial);
  ASSERT_EQ(status, exec::ReplayStatus::kOk);
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(executor.output()[i], reference[i]) << "element " << i;
  }
}

// Reassigned constant storage (vector reallocation) makes the plan stale:
// Run refuses with kStaleConstants instead of reading freed memory.
TEST_F(ZooCaptureTest, ReallocatedConstantStorageIsDetectedAsStale) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  w_.Data().reserve(w_.Data().capacity() * 4 + 64);  // forces reallocation
  EXPECT_FALSE(plan->ConstantsValid());

  std::string error;
  const exec::ReplayStatus status =
      executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                   exec::ReplayMode::kSerial, &error);
  EXPECT_EQ(status, exec::ReplayStatus::kStaleConstants);
  EXPECT_FALSE(error.empty());
}

TEST_F(ZooCaptureTest, MismatchedBindingsAreRejectedWithoutRunning) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  // Wrong input size.
  std::string error;
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel() - 1}}, {&idx_},
                         exec::ReplayMode::kSerial, &error),
            exec::ReplayStatus::kBindingMismatch);
  EXPECT_FALSE(error.empty());

  // Wrong index count.
  const std::vector<int64_t> short_idx = {1, 2};
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&short_idx},
                         exec::ReplayMode::kSerial),
            exec::ReplayStatus::kBindingMismatch);

  // Wrong binding count.
  EXPECT_EQ(executor.Run({}, {&idx_}, exec::ReplayMode::kSerial),
            exec::ReplayStatus::kBindingMismatch);

  // A correct call afterwards still succeeds — rejection is stateless.
  EXPECT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                         exec::ReplayMode::kSerial),
            exec::ReplayStatus::kOk);
}

// Replay must be allocation-free by construction: running under a fresh
// arena guard records zero acquires of any kind.
TEST_F(ZooCaptureTest, ReplayPerformsZeroArenaTraffic) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  exec::PlanExecutor executor(plan);

  auto arena = std::make_shared<BufferArena>();
  {
    ArenaGuard guard(arena);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(executor.Run({{x_.Data().data(), x_.numel()}}, {&idx_},
                             exec::ReplayMode::kLevelParallel),
                exec::ReplayStatus::kOk);
    }
  }
  const BufferArenaStats stats = arena->stats();
  EXPECT_EQ(stats.fresh_allocations, 0);
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.external_adopts, 0);
}

TEST_F(ZooCaptureTest, SlabReusesBytesAcrossSlotLifetimes) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->slab_floats(), 0);
  EXPECT_LT(plan->slab_floats(), plan->total_slot_floats())
      << "a 15-step chain with short-lived intermediates must share bytes";
}

TEST_F(ZooCaptureTest, LevelScheduleIsSortedContiguousAndDependencySafe) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);

  // Steps are sorted by level and the level ranges tile [0, steps).
  int32_t next_begin = 0;
  int32_t prev_level = 0;
  for (const auto& [begin, end] : plan->levels()) {
    ASSERT_EQ(begin, next_begin);
    ASSERT_LT(begin, end);
    const int32_t level = plan->steps()[static_cast<size_t>(begin)].level;
    ASSERT_GT(level, prev_level);
    for (int32_t s = begin; s < end; ++s) {
      ASSERT_EQ(plan->steps()[static_cast<size_t>(s)].level, level);
    }
    prev_level = level;
    next_begin = end;
  }
  ASSERT_EQ(static_cast<size_t>(next_begin), plan->steps().size());

  // Every slot input was produced at a strictly earlier level.
  for (const exec::PlanStep& step : plan->steps()) {
    for (const exec::ValueRef& input : step.inputs) {
      if (input.kind != exec::ValueRef::Kind::kSlot) continue;
      const exec::SlotInfo& slot =
          plan->slots()[static_cast<size_t>(input.index)];
      EXPECT_LT(slot.def_level, step.level);
      EXPECT_GE(slot.last_use_level, step.level);
    }
  }
}

// Every step name a capture emits must be an op declared in ops.h (the
// registry completeness test parses the same header), keeping the plan
// vocabulary in sync with the dispatch surface. "SumDim" aliases the dim
// overload of Sum, which shares its declaration name.
TEST_F(ZooCaptureTest, StepNamesComeFromTheOpsHeader) {
  const std::string path =
      std::string(D2STGNN_SOURCE_DIR) + "/src/tensor/ops.h";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<std::string> declared =
      ParseOpsHeaderOpNames(text.str());
  ASSERT_GT(declared.size(), 20u) << "ops.h parse looks broken";
  std::set<std::string> known(declared.begin(), declared.end());
  known.insert("SumDim");

  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  ASSERT_GE(plan->steps().size(), 15u);
  for (const exec::PlanStep& step : plan->steps()) {
    EXPECT_TRUE(known.count(step.op))
        << "step name '" << step.op << "' is not declared in ops.h";
  }
}

// Every zoo-captured plan must prove race- and lifetime-sound under the
// static verifier (DESIGN.md §12) — the same analysis Warmup applies to
// session plans — with its Reshape surfacing as the copy-step advisory.
TEST_F(ZooCaptureTest, CapturedPlansPassStaticVerification) {
  auto plan = CapturePlan();
  ASSERT_NE(plan, nullptr);
  const exec::VerifierReport report = exec::VerifyPlan(*plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasCode(exec::DiagCode::kCopyStep)) << report.ToString();

  // The baked-indices variant verifies too (index_input = -1 everywhere).
  NoGradGuard no_grad;
  exec::GraphCapture capture;
  capture.BindInput("x", x_);
  Tensor out = Zoo(x_, w_, bias_, table_, idx_);
  auto baked = capture.Finish(out);
  ASSERT_NE(baked, nullptr) << capture.error();
  const exec::VerifierReport baked_report = exec::VerifyPlan(*baked);
  EXPECT_TRUE(baked_report.ok()) << baked_report.ToString();
}

TEST(GraphCaptureTest, StepsNotReachingTheOutputArePruned) {
  NoGradGuard no_grad;
  Rng rng(3);
  const Tensor x = Tensor::Randn({4, 4}, rng);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  Tensor kept = Relu(x);
  Tensor unused = Sigmoid(Tanh(x));  // recorded, but dead
  (void)unused;
  auto plan = capture.Finish(kept);
  ASSERT_NE(plan, nullptr) << capture.error();

  ASSERT_EQ(plan->steps().size(), 1u);
  EXPECT_EQ(plan->steps()[0].op, "Relu");
}

TEST(GraphCaptureTest, OutputNotProducedByARecordedOpFails) {
  NoGradGuard no_grad;
  Rng rng(3);
  const Tensor x = Tensor::Randn({4, 4}, rng);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  auto plan = capture.Finish(x);  // no op ever wrote x
  EXPECT_EQ(plan, nullptr);
  EXPECT_FALSE(capture.error().empty());
}

// A capture resolves each input when the op is recorded and keeps no
// handle to the op's tensors: an intermediate the forward drops dies before
// Finish, yet the plan still replays the whole chain.
TEST(GraphCaptureTest, DroppedIntermediatesAreNotPinned) {
  NoGradGuard no_grad;
  Rng rng(3);
  const Tensor x = Tensor::Randn({4, 4}, rng);
  const Tensor w = Tensor::Randn({4, 4}, rng);

  exec::GraphCapture capture;
  capture.BindInput("x", x);
  Tensor h = Tanh(MatMul(x, w));
  const std::weak_ptr<internal::TensorImpl> dropped = h.impl();
  Tensor out = Sigmoid(h);
  h = Tensor();
  EXPECT_TRUE(dropped.expired()) << "the capture pinned an intermediate";
  auto plan = capture.Finish(out);
  ASSERT_NE(plan, nullptr) << capture.error();
  ASSERT_EQ(plan->steps().size(), 3u);
  EXPECT_EQ(plan->constants().size(), 1u);  // w

  const Tensor fresh = Tensor::Randn({4, 4}, rng);
  const Tensor want = Sigmoid(Tanh(MatMul(fresh, w)));
  exec::PlanExecutor executor(plan);
  ASSERT_EQ(executor.Run({{fresh.Data().data(), fresh.numel()}}, {},
                         exec::ReplayMode::kSerial),
            exec::ReplayStatus::kOk);
  EXPECT_TRUE(std::equal(want.Data().begin(), want.Data().end(),
                         executor.output()));
}

// ---------------------------------------------------------------------------
// Session-level plan serving on the paper's model.

constexpr int64_t kNodes = 6;
constexpr int64_t kInputLen = 12;

class ExecSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = GetNumThreads();
    data::SyntheticTrafficOptions options;
    options.network.num_nodes = kNodes;
    options.num_steps = 600;
    options.seed = 31;
    traffic_ = data::GenerateSyntheticTraffic(options);
    scaler_.Fit(traffic_.dataset.values, 400, true);
  }

  void TearDown() override { SetNumThreads(original_threads_); }

  infer::SessionOptions Options() const {
    infer::SessionOptions options;
    options.num_nodes = kNodes;
    options.input_len = kInputLen;
    options.steps_per_day = traffic_.dataset.steps_per_day;
    return options;
  }

  infer::ForecastRequest MakeRequest(int64_t start) const {
    infer::ForecastRequest request;
    const std::vector<float>& values = traffic_.dataset.values.Data();
    request.window.assign(values.data() + start * kNodes,
                          values.data() + (start + kInputLen) * kNodes);
    request.time_of_day = traffic_.dataset.TimeOfDay(start);
    request.day_of_week = traffic_.dataset.DayOfWeek(start);
    return request;
  }

  // The paper's model with deterministic init: two calls with the same seed
  // build bitwise-identical parameter sets, so a plan-serving session can be
  // compared against an eager twin without a checkpoint round-trip.
  std::unique_ptr<core::D2Stgnn> NewModel(uint64_t seed) const {
    core::D2StgnnConfig config;
    config.num_nodes = kNodes;
    config.input_len = kInputLen;
    config.output_len = 3;
    config.hidden_dim = 8;
    config.embed_dim = 4;
    config.num_layers = 1;
    config.num_heads = 2;
    config.steps_per_day = traffic_.dataset.steps_per_day;
    Rng rng(seed);
    return std::make_unique<core::D2Stgnn>(
        config, traffic_.dataset.network.adjacency, rng);
  }

  std::vector<infer::ForecastRequest> Requests(int64_t count) const {
    std::vector<infer::ForecastRequest> requests;
    for (int64_t i = 0; i < count; ++i) requests.push_back(MakeRequest(i * 3));
    return requests;
  }

  static void ExpectForecastsEqual(const std::vector<infer::Forecast>& a,
                                   const std::vector<infer::Forecast>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i].ok) << a[i].error;
      ASSERT_TRUE(b[i].ok) << b[i].error;
      EXPECT_EQ(a[i].values, b[i].values) << "request " << i;
    }
  }

  data::SyntheticTraffic traffic_;
  data::StandardScaler scaler_;
  int original_threads_ = 0;
};

class ExecSessionParityTest : public ExecSessionTest,
                              public ::testing::WithParamInterface<int> {};

// The tentpole contract on the full D2STGNN forward (diffusion block,
// inherent block, estimation gate, dynamic graph — every core block):
// plan-served forecasts are bitwise identical to eager ones, at 1 and 4
// threads, and serial replay of the captured plan is bitwise identical to
// the level-parallel replay sessions serve with.
TEST_P(ExecSessionParityTest, PlanReplayMatchesEagerBitwise) {
  SetNumThreads(GetParam());

  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  ASSERT_NE(eager, nullptr);
  const std::vector<infer::ForecastRequest> requests = Requests(4);
  const std::vector<infer::Forecast> reference =
      eager->PredictRequests(requests);
  EXPECT_EQ(eager->session_stats().plans_built, 0);

  infer::SessionOptions plan_options = Options();
  // Every plan this test replays must first be accepted by the static
  // verifier: the bitwise-parity assertions below are then exercised only
  // on verifier-accepted plans, at 1 and 4 threads.
  plan_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               plan_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(/*batch_size=*/4, /*runs=*/2);
  ASSERT_EQ(planned->planned_batch_sizes(), std::vector<int64_t>{4});

  const auto reports = planned->verifier_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports.at(4).ok()) << reports.at(4).ToString();

  const infer::SessionStats before = planned->session_stats();
  EXPECT_EQ(before.plans_built, 1);
  EXPECT_EQ(before.plans_verified, 1);
  EXPECT_EQ(before.plan_verifier_errors, 0);
  EXPECT_GT(before.plan_replays, 0) << "warmup runs must replay";

  const std::vector<infer::Forecast> served =
      planned->PredictRequests(requests);
  ExpectForecastsEqual(served, reference);

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays + 1);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards);

  // Both replay modes on the same captured full-model plan: each must
  // reproduce the eager forecasts bitwise, request after request.
  const data::Batch batch = eager->AssembleBatch(requests);
  std::shared_ptr<const exec::ExecutionPlan> plan;
  {
    exec::GraphCapture capture;
    capture.BindInput("x", batch.x);
    capture.BindIndexInput("tod", batch.time_of_day);
    capture.BindIndexInput("dow", batch.day_of_week);
    const Tensor out = eager->Predict(batch);
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  const exec::VerifierReport report = exec::VerifyPlan(*plan);
  ASSERT_TRUE(report.ok()) << report.ToString();
  std::vector<float> expected;
  for (const infer::Forecast& forecast : reference) {
    expected.insert(expected.end(), forecast.values.begin(),
                    forecast.values.end());
  }
  exec::PlanExecutor executor(plan);
  for (const exec::ReplayMode mode :
       {exec::ReplayMode::kSerial, exec::ReplayMode::kLevelParallel}) {
    std::string error;
    ASSERT_EQ(executor.Run({{batch.x.Data().data(), batch.x.numel()}},
                           {&batch.time_of_day, &batch.day_of_week}, mode,
                           &error),
              exec::ReplayStatus::kOk)
        << error;
    const std::vector<float> replayed(executor.output(),
                                      executor.output() + expected.size());
    EXPECT_EQ(replayed, expected)
        << (mode == exec::ReplayMode::kSerial ? "serial" : "level-parallel");
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecSessionParityTest,
                         ::testing::Values(1, 4));

// A batch size larger than every captured plan cannot be padded into one;
// it must fall back to the eager path and still serve correct forecasts.
TEST_F(ExecSessionTest, OversizedBatchFallsBackToEager) {
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/2);
  const infer::SessionStats before = planned->session_stats();

  const std::vector<infer::ForecastRequest> requests = Requests(5);
  ExpectForecastsEqual(planned->PredictRequests(requests),
                       eager->PredictRequests(requests));

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards + 1);
}

// A batch smaller than a captured plan is padded with blank requests up to
// the plan size and replayed; the padding rows never leak into results.
TEST_F(ExecSessionTest, UndersizedBatchIsPaddedIntoThePlan) {
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/4);
  const infer::SessionStats before = planned->session_stats();

  const std::vector<infer::ForecastRequest> requests = Requests(3);
  ExpectForecastsEqual(planned->PredictRequests(requests),
                       eager->PredictRequests(requests));

  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays, before.plan_replays + 1);
  EXPECT_EQ(after.padded_replays, before.padded_replays + 1);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards);
}

// In-place parameter mutation (what optimizers and checkpoint loads do)
// flows into replays; reassigned parameter storage invalidates the plan and
// the session transparently recovers on the eager path.
TEST_F(ExecSessionTest, ParameterMutationAndInvalidationSemantics) {
  auto model = NewModel(7);
  core::D2Stgnn* raw = model.get();
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;  // so staleness must also drop reports
  auto planned = infer::InferenceSession::Wrap(std::move(model), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(/*batch_size=*/1, /*runs=*/1);
  ASSERT_EQ(planned->verifier_reports().size(), 1u);

  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto twin_model = NewModel(7);
  core::D2Stgnn* twin_raw = twin_model.get();
  auto eager = infer::InferenceSession::Wrap(std::move(twin_model), scaler_,
                                             eager_options);
  ASSERT_NE(eager, nullptr);

  // In-place mutation on both models: the next replay must already see it.
  raw->Parameters()[0].Data()[0] += 0.25f;
  twin_raw->Parameters()[0].Data()[0] += 0.25f;
  const infer::Forecast mutated = planned->PredictOne(MakeRequest(0));
  const infer::Forecast mutated_ref = eager->PredictOne(MakeRequest(0));
  ASSERT_TRUE(mutated.ok && mutated_ref.ok);
  EXPECT_EQ(mutated.values, mutated_ref.values);
  EXPECT_GT(planned->session_stats().plan_replays, 0);
  EXPECT_EQ(planned->session_stats().plan_invalidations, 0);

  // Storage reassignment: the stale plan is dropped, the request is served
  // eagerly, and the forecast is unchanged (reserve keeps the values).
  Tensor param = raw->Parameters()[0];
  param.Data().reserve(param.Data().capacity() * 4 + 64);
  const infer::Forecast after_realloc = planned->PredictOne(MakeRequest(0));
  ASSERT_TRUE(after_realloc.ok) << after_realloc.error;
  EXPECT_EQ(after_realloc.values, mutated_ref.values);
  EXPECT_GE(planned->session_stats().plan_invalidations, 1);
  EXPECT_TRUE(planned->planned_batch_sizes().empty());
  EXPECT_TRUE(planned->verifier_reports().empty())
      << "the staleness path must drop the verifier reports with the plans";

  // Warmup rebuilds the plan against the new storage and serving resumes.
  planned->Warmup(/*batch_size=*/1);
  const int64_t replays = planned->session_stats().plan_replays;
  const infer::Forecast rebuilt = planned->PredictOne(MakeRequest(0));
  ASSERT_TRUE(rebuilt.ok);
  EXPECT_EQ(rebuilt.values, mutated_ref.values);
  EXPECT_GT(planned->session_stats().plan_replays, replays);
}

// Warmup verification semantics: every fresh capture is verified exactly
// once, a warm cache hit does not re-verify (the report is cached with the
// plan), and a session with verification off keeps no reports.
TEST_F(ExecSessionTest, WarmupVerifiesFreshAndCacheHitPlansOnce) {
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);

  planned->Warmup(/*batch_size=*/1);
  planned->Warmup(/*batch_size=*/2);
  infer::SessionStats stats = planned->session_stats();
  EXPECT_EQ(stats.plans_verified, 2);
  EXPECT_EQ(stats.plan_verifier_errors, 0);
  const auto reports = planned->verifier_reports();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& [batch_size, report] : reports) {
    EXPECT_TRUE(report.ok()) << "batch " << batch_size << ":\n"
                             << report.ToString();
  }

  // Cache hit: the plan and its report already exist, nothing re-runs.
  planned->Warmup(/*batch_size=*/1);
  EXPECT_EQ(planned->session_stats().plans_verified, 2);

  infer::SessionOptions off_options = Options();
  off_options.verify_plans = false;
  auto unverified = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                                  off_options);
  ASSERT_NE(unverified, nullptr);
  unverified->Warmup(/*batch_size=*/1);
  EXPECT_EQ(unverified->session_stats().plans_verified, 0);
  EXPECT_TRUE(unverified->verifier_reports().empty());
}

// Plan replay serves a request without the eager per-op machinery. After
// warm-up a replayed request runs the captured kernels over the plan's slab
// and takes one buffer from the session arena, its assembled input window;
// an eager forward also takes one for every op output (860 per request on
// this model). The check counts work instead of timing it, so a loaded
// machine cannot fail it.
TEST_F(ExecSessionTest, PlanReplayTakesNoPerOpBuffers) {
  SetNumThreads(4);
  infer::SessionOptions eager_options = Options();
  eager_options.use_plans = false;
  auto eager = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                             eager_options);
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               Options());
  ASSERT_NE(eager, nullptr);
  ASSERT_NE(planned, nullptr);
  eager->Warmup(/*batch_size=*/1, /*runs=*/2);
  planned->Warmup(/*batch_size=*/1, /*runs=*/2);

  const auto taken = [](const infer::InferenceSession& session) {
    const BufferArenaStats stats = session.arena_stats();
    return stats.fresh_allocations + stats.pool_hits + stats.external_adopts;
  };
  const int64_t eager_before = taken(*eager);
  const int64_t plan_before = taken(*planned);
  const infer::SessionStats before = planned->session_stats();
  const infer::ForecastRequest request = MakeRequest(0);
  constexpr int64_t kRequests = 8;
  for (int64_t i = 0; i < kRequests; ++i) {
    const infer::Forecast want = eager->PredictOne(request);
    const infer::Forecast got = planned->PredictOne(request);
    ASSERT_TRUE(want.ok) << want.error;
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.values, want.values);
  }
  const infer::SessionStats after = planned->session_stats();
  EXPECT_EQ(after.plan_replays - before.plan_replays, kRequests);
  EXPECT_EQ(after.eager_forwards, before.eager_forwards);
  const int64_t plan_taken = taken(*planned) - plan_before;
  const int64_t eager_taken = taken(*eager) - eager_before;
  EXPECT_EQ(plan_taken, kRequests)
      << "a replayed request takes only its input buffer from the arena";
  EXPECT_GT(eager_taken, 100 * plan_taken)
      << "the eager forward takes one buffer per op output";
}

// Capturing the paper's model holds only what its plan keeps. Under a fresh
// arena an eager forward takes about one fresh buffer per simultaneously
// live tensor, since dead intermediates return to the pool; a capture may
// add at most one per plan constant. A capture that pinned its
// intermediates would take one per recorded step.
TEST_F(ExecSessionTest, CaptureTakesNoMoreFreshBuffersThanAnEagerForward) {
  infer::SessionOptions options = Options();
  options.use_plans = false;
  options.use_arena = false;
  auto assembler =
      infer::InferenceSession::Wrap(NewModel(7), scaler_, options);
  ASSERT_NE(assembler, nullptr);
  const data::Batch batch = assembler->AssembleBatch(Requests(4));
  auto model = NewModel(7);
  NoGradGuard no_grad;

  auto eager_arena = std::make_shared<BufferArena>();
  {
    ArenaGuard guard(eager_arena);
    (void)model->Forward(batch);
  }
  auto capture_arena = std::make_shared<BufferArena>();
  std::shared_ptr<const exec::ExecutionPlan> plan;
  {
    ArenaGuard guard(capture_arena);
    exec::GraphCapture capture;
    capture.BindInput("x", batch.x);
    capture.BindIndexInput("tod", batch.time_of_day);
    capture.BindIndexInput("dow", batch.day_of_week);
    const Tensor out = model->Forward(batch);
    plan = capture.Finish(out);
    ASSERT_NE(plan, nullptr) << capture.error();
  }
  const int64_t eager_fresh = eager_arena->stats().fresh_allocations;
  const int64_t capture_fresh = capture_arena->stats().fresh_allocations;
  EXPECT_GT(static_cast<int64_t>(plan->steps().size()), 4 * eager_fresh)
      << "the model is too small to tell pinning from pooling";
  EXPECT_LE(capture_fresh,
            eager_fresh + static_cast<int64_t>(plan->constants().size()))
      << plan->steps().size() << " recorded steps";
}

TEST_F(ExecSessionTest, InvalidatePlansDropsEveryPlan) {
  infer::SessionOptions verify_options = Options();
  verify_options.verify_plans = true;
  auto planned = infer::InferenceSession::Wrap(NewModel(7), scaler_,
                                               verify_options);
  ASSERT_NE(planned, nullptr);
  planned->Warmup(1);
  planned->Warmup(4);
  ASSERT_EQ(planned->planned_batch_sizes().size(), 2u);
  ASSERT_EQ(planned->verifier_reports().size(), 2u);

  planned->InvalidatePlans();
  EXPECT_TRUE(planned->planned_batch_sizes().empty());
  EXPECT_TRUE(planned->verifier_reports().empty());
  EXPECT_GE(planned->session_stats().plan_invalidations, 2);

  const int64_t eager_before = planned->session_stats().eager_forwards;
  EXPECT_TRUE(planned->PredictOne(MakeRequest(0)).ok);
  EXPECT_EQ(planned->session_stats().eager_forwards, eager_before + 1);
}

}  // namespace
}  // namespace d2stgnn
