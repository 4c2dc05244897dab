#include "exec/graph_capture.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "exec/memory_planner.h"
#include "tensor/kernels/registry.h"

namespace d2stgnn::exec {
namespace {

thread_local GraphCapture* g_active_capture = nullptr;

}  // namespace

namespace internal {

bool CaptureActive() { return g_active_capture != nullptr; }

void RecordStep(const char* op, std::vector<Tensor> inputs,
                const Tensor& output, std::function<void(const StepIo&)> run,
                bool zero_output, const std::vector<int64_t>* indices) {
  GraphCapture* capture = g_active_capture;
  if (capture == nullptr) return;
  GraphCapture::Recorded recorded;
  recorded.op = op;
  recorded.inputs = std::move(inputs);
  recorded.output = output;
  recorded.run = std::move(run);
  recorded.zero_output = zero_output;
  if (indices != nullptr) {
    recorded.indices_addr = indices;
    recorded.baked_indices = *indices;  // dropped in Finish if bound
  }
  capture->Record(std::move(recorded));
}

}  // namespace internal

GraphCapture::GraphCapture() {
  D2_CHECK(g_active_capture == nullptr)
      << "nested GraphCapture on one thread";
  g_active_capture = this;
}

GraphCapture::~GraphCapture() {
  if (g_active_capture == this) g_active_capture = nullptr;
}

bool GraphCapture::Active() { return g_active_capture != nullptr; }

void GraphCapture::BindInput(const std::string& name, const Tensor& t) {
  D2_CHECK(t.defined()) << "BindInput(" << name << "): undefined tensor";
  for (const FloatBinding& b : float_bindings_) {
    D2_CHECK(b.name != name) << "duplicate input binding: " << name;
    D2_CHECK(b.tensor.impl() != t.impl())
        << "tensor bound twice: " << b.name << " and " << name;
  }
  float_bindings_.push_back(FloatBinding{name, t});
}

void GraphCapture::BindIndexInput(const std::string& name,
                                  const std::vector<int64_t>& indices) {
  for (const IndexBinding& b : index_bindings_) {
    D2_CHECK(b.name != name) << "duplicate index binding: " << name;
    D2_CHECK(b.indices != &indices)
        << "index vector bound twice: " << b.name << " and " << name;
  }
  index_bindings_.push_back(IndexBinding{name, &indices});
}

void GraphCapture::Record(Recorded recorded) {
  D2_CHECK(recorded.output.defined());
  D2_CHECK(recorded.run != nullptr);
  recorded_.push_back(std::move(recorded));
}

std::shared_ptr<const ExecutionPlan> GraphCapture::Finish(
    const Tensor& output) {
  D2_CHECK(!finished_) << "GraphCapture::Finish called twice";
  finished_ = true;
  if (g_active_capture == this) g_active_capture = nullptr;

  D2_CHECK(output.defined()) << "Finish: undefined output";

  // Producer lookup by impl address. Addresses are unique across recorded
  // steps because every Recorded holds its output handle alive.
  std::unordered_map<const d2stgnn::internal::TensorImpl*, size_t> producer;
  producer.reserve(recorded_.size());
  for (size_t i = 0; i < recorded_.size(); ++i) {
    const auto* impl = recorded_[i].output.impl().get();
    D2_CHECK(producer.emplace(impl, i).second)
        << "two recorded steps share an output tensor";
  }

  const auto output_it = producer.find(output.impl().get());
  if (output_it == producer.end()) {
    error_ = "output tensor was not produced by a recorded op";
    return nullptr;
  }

  // Prune steps that do not feed the output (computed eagerly but dead for
  // replay purposes).
  std::vector<char> live(recorded_.size(), 0);
  std::vector<size_t> stack{output_it->second};
  live[output_it->second] = 1;
  while (!stack.empty()) {
    const size_t step = stack.back();
    stack.pop_back();
    for (const Tensor& in : recorded_[step].inputs) {
      const auto it = producer.find(in.impl().get());
      if (it != producer.end() && !live[it->second]) {
        live[it->second] = 1;
        stack.push_back(it->second);
      }
    }
  }

  // Levels: 1 + max over producing steps, in capture order (producers
  // always precede consumers on the tape).
  std::vector<int32_t> level(recorded_.size(), 0);
  int32_t max_level = 0;
  for (size_t i = 0; i < recorded_.size(); ++i) {
    if (!live[i]) continue;
    int32_t lvl = 1;
    for (const Tensor& in : recorded_[i].inputs) {
      const auto it = producer.find(in.impl().get());
      if (it != producer.end()) {
        D2_CHECK_LT(it->second, i) << "consumer recorded before producer";
        lvl = std::max(lvl, level[it->second] + 1);
      }
    }
    level[i] = lvl;
    max_level = std::max(max_level, lvl);
  }

  // Execution order: by level, capture order within a level. slot id ==
  // position in this order.
  std::vector<size_t> order;
  order.reserve(recorded_.size());
  for (size_t i = 0; i < recorded_.size(); ++i) {
    if (live[i]) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return level[a] < level[b]; });
  std::unordered_map<size_t, int32_t> slot_of;
  slot_of.reserve(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    slot_of.emplace(order[pos], static_cast<int32_t>(pos));
  }

  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->steps_.reserve(order.size());
  plan->slots_.resize(order.size());

  for (const FloatBinding& b : float_bindings_) {
    plan->inputs_.push_back(PlanInput{b.name, b.tensor.numel()});
  }
  for (const IndexBinding& b : index_bindings_) {
    plan->index_inputs_.push_back(
        PlanIndexInput{b.name, static_cast<int64_t>(b.indices->size())});
  }

  std::unordered_map<const d2stgnn::internal::TensorImpl*, int32_t>
      constant_of;
  auto resolve = [&](const Tensor& t) -> ValueRef {
    const auto* impl = t.impl().get();
    const auto prod = producer.find(impl);
    if (prod != producer.end()) {
      return ValueRef{ValueRef::Kind::kSlot, slot_of.at(prod->second)};
    }
    for (size_t b = 0; b < float_bindings_.size(); ++b) {
      if (float_bindings_[b].tensor.impl().get() == impl) {
        return ValueRef{ValueRef::Kind::kInput, static_cast<int32_t>(b)};
      }
    }
    const auto it = constant_of.find(impl);
    if (it != constant_of.end()) {
      return ValueRef{ValueRef::Kind::kConstant, it->second};
    }
    const int32_t id = static_cast<int32_t>(plan->constants_.size());
    plan->constants_.push_back(
        PlanConstant{t, t.Data().data(), t.numel()});
    constant_of.emplace(impl, id);
    return ValueRef{ValueRef::Kind::kConstant, id};
  };

  for (size_t pos = 0; pos < order.size(); ++pos) {
    Recorded& rec = recorded_[order[pos]];
    PlanStep step;
    step.op = rec.op;
    step.output_slot = static_cast<int32_t>(pos);
    step.level = level[order[pos]];
    step.zero_output = rec.zero_output;
    step.run = std::move(rec.run);
    step.inputs.reserve(rec.inputs.size());
    for (const Tensor& in : rec.inputs) step.inputs.push_back(resolve(in));
    if (rec.indices_addr != nullptr) {
      for (size_t b = 0; b < index_bindings_.size(); ++b) {
        if (index_bindings_[b].indices == rec.indices_addr) {
          step.index_input = static_cast<int32_t>(b);
          break;
        }
      }
      if (step.index_input < 0) {
        step.baked_indices = std::move(rec.baked_indices);
      }
    }
    plan->steps_.push_back(std::move(step));

    SlotInfo& slot = plan->slots_[pos];
    slot.numel = rec.output.numel();
    slot.def_level = level[order[pos]];
    slot.last_use_level = slot.def_level;
  }

  // Slot lifetimes: last use is the highest level of any consumer; the
  // output slot stays live to the final level so nothing overwrites it.
  for (const PlanStep& step : plan->steps_) {
    for (const ValueRef& in : step.inputs) {
      if (in.kind != ValueRef::Kind::kSlot) continue;
      SlotInfo& slot = plan->slots_[static_cast<size_t>(in.index)];
      slot.last_use_level = std::max(slot.last_use_level, step.level);
    }
  }
  plan->output_slot_ = slot_of.at(output_it->second);
  plan->slots_[static_cast<size_t>(plan->output_slot_)].last_use_level =
      max_level;
  plan->output_shape_ = output.shape();
  // The recorded closures hold the backend that was active while the eager
  // pass ran; the plan is only replayable under that same backend.
  plan->backend_name_ = kernels::ActiveBackend().name;

  std::vector<BufferRequest> requests;
  requests.reserve(plan->slots_.size());
  for (const SlotInfo& slot : plan->slots_) {
    requests.push_back(
        BufferRequest{slot.numel, slot.def_level, slot.last_use_level});
  }
  const BufferAssignment assignment = PlanBuffers(requests);
  for (size_t i = 0; i < plan->slots_.size(); ++i) {
    plan->slots_[i].offset = assignment.offsets[i];
  }
  plan->slab_floats_ = assignment.slab_floats;

  plan->levels_.reserve(static_cast<size_t>(max_level));
  int32_t begin = 0;
  for (int32_t pos = 0; pos <= static_cast<int32_t>(plan->steps_.size());
       ++pos) {
    const bool boundary =
        pos == static_cast<int32_t>(plan->steps_.size()) ||
        (pos > begin &&
         plan->steps_[static_cast<size_t>(pos)].level !=
             plan->steps_[static_cast<size_t>(begin)].level);
    if (boundary) {
      if (pos > begin) plan->levels_.emplace_back(begin, pos);
      begin = pos;
    }
  }

  recorded_.clear();  // release pinned tensors; constants stay via plan
  return plan;
}

}  // namespace d2stgnn::exec
