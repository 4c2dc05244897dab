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

void RecordStep(const char* op, const std::vector<Tensor>& inputs,
                const Tensor& output, std::function<void(const StepIo&)> run,
                bool zero_output, const std::vector<int64_t>* indices) {
  GraphCapture* capture = g_active_capture;
  if (capture == nullptr) return;
  GraphCapture::Recorded recorded;
  recorded.op = op;
  recorded.inputs.reserve(inputs.size());
  for (const Tensor& in : inputs) {
    recorded.inputs.push_back(capture->Resolve(in));
  }
  recorded.run = std::move(run);
  recorded.zero_output = zero_output;
  if (indices != nullptr) {
    recorded.indices_addr = indices;
    recorded.baked_indices = *indices;  // dropped in Finish if bound
  }
  capture->Record(std::move(recorded), output);
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

ValueRef GraphCapture::Resolve(const Tensor& t) {
  const auto* impl = t.impl().get();
  const auto prod = producer_.find(impl);
  if (prod != producer_.end() && !prod->second.impl.expired()) {
    return ValueRef{ValueRef::Kind::kSlot,
                    static_cast<int32_t>(prod->second.step)};
  }
  for (size_t b = 0; b < float_bindings_.size(); ++b) {
    if (float_bindings_[b].tensor.impl().get() == impl) {
      return ValueRef{ValueRef::Kind::kInput, static_cast<int32_t>(b)};
    }
  }
  const auto [it, inserted] = constant_of_.emplace(
      impl, static_cast<int32_t>(constants_.size()));
  if (inserted) constants_.push_back(t);
  return ValueRef{ValueRef::Kind::kConstant, it->second};
}

void GraphCapture::Record(Recorded recorded, const Tensor& output) {
  D2_CHECK(output.defined());
  D2_CHECK(recorded.run != nullptr);
  Producer& prod = producer_[output.impl().get()];
  D2_CHECK(prod.impl.expired()) << "two recorded steps share an output tensor";
  prod = Producer{output.impl(), recorded_.size()};
  recorded.numel = output.numel();
  recorded_.push_back(std::move(recorded));
}

std::shared_ptr<const ExecutionPlan> GraphCapture::Finish(
    const Tensor& output) {
  D2_CHECK(!finished_) << "GraphCapture::Finish called twice";
  finished_ = true;
  if (g_active_capture == this) g_active_capture = nullptr;

  D2_CHECK(output.defined()) << "Finish: undefined output";

  const auto output_it = producer_.find(output.impl().get());
  if (output_it == producer_.end() || output_it->second.impl.expired()) {
    error_ = "output tensor was not produced by a recorded op";
    return nullptr;
  }
  const size_t output_step = output_it->second.step;
  producer_.clear();

  // Prune steps that do not feed the output (computed eagerly but dead for
  // replay purposes).
  std::vector<char> live(recorded_.size(), 0);
  std::vector<size_t> stack{output_step};
  live[output_step] = 1;
  while (!stack.empty()) {
    const size_t step = stack.back();
    stack.pop_back();
    for (const ValueRef& in : recorded_[step].inputs) {
      const auto producer = static_cast<size_t>(in.index);
      if (in.kind == ValueRef::Kind::kSlot && !live[producer]) {
        live[producer] = 1;
        stack.push_back(producer);
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
    for (const ValueRef& in : recorded_[i].inputs) {
      if (in.kind != ValueRef::Kind::kSlot) continue;
      const auto producer = static_cast<size_t>(in.index);
      D2_CHECK_LT(producer, i) << "consumer recorded before producer";
      lvl = std::max(lvl, level[producer] + 1);
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

  // Constants are numbered in execution order, as each is first read by a
  // live step; those only dead steps read are dropped.
  std::vector<int32_t> constant_id(constants_.size(), -1);
  auto resolve = [&](ValueRef ref) -> ValueRef {
    const auto i = static_cast<size_t>(ref.index);
    switch (ref.kind) {
      case ValueRef::Kind::kSlot:
        ref.index = slot_of.at(i);
        break;
      case ValueRef::Kind::kConstant:
        if (constant_id[i] < 0) {
          constant_id[i] = static_cast<int32_t>(plan->constants_.size());
          const Tensor& t = constants_[i];
          plan->constants_.push_back(
              PlanConstant{t, t.Data().data(), t.numel()});
        }
        ref.index = constant_id[i];
        break;
      case ValueRef::Kind::kInput:
        break;
    }
    return ref;
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
    for (const ValueRef& in : rec.inputs) step.inputs.push_back(resolve(in));
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
    slot.numel = rec.numel;
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
  plan->output_slot_ = slot_of.at(output_step);
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

  // Release the pinned tensors; the plan holds the constants it reads.
  recorded_.clear();
  constants_.clear();
  constant_of_.clear();
  return plan;
}

}  // namespace d2stgnn::exec
