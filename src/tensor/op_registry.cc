#include "tensor/op_registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "tensor/ops.h"

namespace d2stgnn {
namespace {

// Deterministic non-parameter weights so every loss is a *weighted* sum of
// the op output. A plain Sum would give constant output gradients (and for
// Softmax a constant loss), leaving parts of the backward unexercised.
Tensor FixedWeights(const Shape& shape) {
  std::vector<float> data(static_cast<size_t>(NumElements(shape)));
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.4f + 0.6f * std::sin(1.3f * static_cast<float>(i) + 0.7f);
  }
  return Tensor(shape, std::move(data));
}

Tensor WeightedSum(const Tensor& t) {
  return Sum(Mul(t, FixedWeights(t.shape())));
}

// Leaf with |value| in [0.6, 1.4] and random sign: clear of the kinks at 0
// that Relu/Abs-style ops have, at the default eps=1e-2.
Tensor SignedLeaf(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::Rand(shape, rng, 0.6f, 1.4f);
  for (float& v : t.Data()) {
    if (rng.Uniform() < 0.5f) v = -v;
  }
  return t.SetRequiresGrad(true);
}

// Leaf with handpicked data, for ops whose derivative jumps at data-driven
// thresholds (Relu, Abs): entries stay several eps away from
// every kink so the finite difference never straddles one.
Tensor FixedLeaf(const Shape& shape, std::vector<float> data) {
  return Tensor(shape, std::move(data)).SetRequiresGrad(true);
}

// Shorthand: a case with one parameter and a loss of the form
// WeightedSum(op(param)).
OpGradCheckCase UnaryCase(const std::string& op, Tensor x,
                          std::function<Tensor(const Tensor&)> apply) {
  OpGradCheckCase c;
  c.op = op;
  c.params = {x};
  c.loss = [x, apply = std::move(apply)]() { return WeightedSum(apply(x)); };
  return c;
}

}  // namespace

OpGradCheckRegistry& OpGradCheckRegistry::Instance() {
  static OpGradCheckRegistry* registry = new OpGradCheckRegistry();
  return *registry;
}

void OpGradCheckRegistry::Register(const std::string& op,
                                   OpGradCheckFactory factory) {
  factories_[op] = std::move(factory);
}

bool OpGradCheckRegistry::Contains(const std::string& op) const {
  return factories_.count(op) > 0;
}

std::vector<std::string> OpGradCheckRegistry::OpNames() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

OpGradCheckCase OpGradCheckRegistry::MakeCase(const std::string& op,
                                              Rng& rng) const {
  auto it = factories_.find(op);
  D2_CHECK(it != factories_.end()) << "no gradcheck case registered for op '"
                                   << op << "'";
  OpGradCheckCase c = it->second(rng);
  D2_CHECK_EQ(c.op, op);
  D2_CHECK(!c.params.empty()) << "gradcheck case for '" << op
                              << "' has no parameters";
  return c;
}

const std::vector<std::string>&
OpGradCheckRegistry::NonDifferentiableAllowlist() {
  static const std::vector<std::string>* allowlist =
      new std::vector<std::string>();  // every ops.h Tensor op has a backward
  return *allowlist;
}

namespace {

// Parses an identifier starting at `pos` that is immediately followed by
// '(' — a declaration, not an operator overload or a stray mention.
// Returns "" if the text at `pos` is not of that form.
std::string ParseCalleeName(const std::string& line, size_t pos) {
  size_t end = pos;
  while (end < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[end])) ||
          line[end] == '_')) {
    ++end;
  }
  if (end == pos || end >= line.size() || line[end] != '(') return "";
  return line.substr(pos, end - pos);
}

}  // namespace

std::vector<std::string> ParseOpsHeaderOpNames(
    const std::string& header_text) {
  std::set<std::string> names;
  std::vector<std::string> lines;
  {
    std::istringstream in(header_text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    // Top-level declarations start at column 0, optionally behind
    // [[attribute]] prefixes ([[nodiscard]] Tensor Foo(...)).
    size_t pos = 0;
    while (line.compare(pos, 2, "[[") == 0) {
      const size_t close = line.find("]]", pos);
      if (close == std::string::npos) break;
      pos = close + 2;
      while (pos < line.size() && line[pos] == ' ') ++pos;
    }
    constexpr const char kType[] = "Tensor";
    constexpr size_t kTypeLen = sizeof(kType) - 1;
    if (line.compare(pos, kTypeLen, kType) != 0) continue;
    pos += kTypeLen;
    if (line.find_first_not_of(" \t", pos) == std::string::npos) {
      // Return type alone on its line: the name starts the next line.
      if (i + 1 >= lines.size()) continue;
      const std::string& next = lines[i + 1];
      const size_t name_pos = next.find_first_not_of(" \t");
      if (name_pos == std::string::npos) continue;
      const std::string name = ParseCalleeName(next, name_pos);
      if (!name.empty()) names.insert(name);
      continue;
    }
    if (line[pos] != ' ') continue;  // e.g. "TensorImpl ..." — another type
    const std::string name = ParseCalleeName(line, pos + 1);
    if (!name.empty()) names.insert(name);
  }
  return {names.begin(), names.end()};
}

namespace {

// One row per op name GraphCapture records (the Dispatch call sites in
// ops.cc). Composed ops (Mean, Transpose, Unsqueeze, Squeeze, Stack,
// Select, PadFront) lower to these and never appear in plans under
// their own names.
const std::map<std::string, PlanOpTraits>& PlanOpTable() {
  static const auto* table = new std::map<std::string, PlanOpTraits>{
      // Elementwise binary (same-shape and broadcast variants).
      {"Add", {}},
      {"Sub", {}},
      {"Mul", {}},
      // Elementwise unary (scalar-parameterized included).
      {"AddScalar", {}},
      {"MulScalar", {}},
      {"Relu", {}},
      {"Sigmoid", {}},
      {"Tanh", {}},
      {"Abs", {}},
      // Linear algebra: BatchedMatMul accumulates into its output.
      {"MatMul", {/*accumulates=*/true, /*indexed=*/false, /*pure_copy=*/false}},
      // Reductions.
      {"Sum", {}},
      {"SumDim", {}},
      {"Softmax", {}},
      // Shape ops. Reshape replays as a verbatim std::copy.
      {"Reshape", {/*accumulates=*/false, /*indexed=*/false, /*pure_copy=*/true}},
      {"Permute", {}},
      {"BroadcastTo", {}},
      {"Concat", {}},
      {"Slice", {}},
      // Indexing.
      {"EmbeddingLookup",
       {/*accumulates=*/false, /*indexed=*/true, /*pure_copy=*/false}},
  };
  return *table;
}

}  // namespace

const PlanOpTraits* FindPlanOpTraits(const std::string& op) {
  const auto& table = PlanOpTable();
  const auto it = table.find(op);
  return it == table.end() ? nullptr : &it->second;
}

std::vector<std::string> PlanOpNames() {
  std::vector<std::string> names;
  names.reserve(PlanOpTable().size());
  for (const auto& [name, traits] : PlanOpTable()) names.push_back(name);
  return names;
}

OpGradCheckRegistry::OpGradCheckRegistry() {
  // --- Elementwise binary ops (each with a broadcast on one side). ---
  Register("Add", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Add";
    Tensor a = SignedLeaf({2, 3}, rng);
    Tensor b = SignedLeaf({1, 3}, rng);
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(Add(a, b)); };
    return c;
  });
  Register("Sub", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Sub";
    Tensor a = SignedLeaf({2, 3}, rng);
    Tensor b = SignedLeaf({3}, rng);
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(Sub(a, b)); };
    return c;
  });
  Register("Mul", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Mul";
    Tensor a = SignedLeaf({2, 3}, rng);
    Tensor b = SignedLeaf({2, 1}, rng);
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(Mul(a, b)); };
    return c;
  });
  Register("AddScalar", [](Rng& rng) {
    return UnaryCase("AddScalar", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return AddScalar(x, 0.7f); });
  });
  Register("MulScalar", [](Rng& rng) {
    return UnaryCase("MulScalar", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return MulScalar(x, -1.3f); });
  });
  // --- Elementwise unary ops. ---
  Register("Relu", [](Rng&) {
    return UnaryCase("Relu",
                     FixedLeaf({2, 3}, {-1.2f, 0.8f, -0.4f, 1.5f, 0.6f, -0.9f}),
                     [](const Tensor& x) { return Relu(x); });
  });
  Register("Sigmoid", [](Rng& rng) {
    return UnaryCase("Sigmoid", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return Sigmoid(x); });
  });
  Register("Tanh", [](Rng& rng) {
    return UnaryCase("Tanh", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return Tanh(x); });
  });
  Register("Abs", [](Rng&) {
    return UnaryCase("Abs",
                     FixedLeaf({2, 3}, {-1.3f, 0.9f, -0.6f, 1.2f, 0.4f, -0.7f}),
                     [](const Tensor& x) { return Abs(x); });
  });
  // --- Linear algebra. ---
  Register("MatMul", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "MatMul";
    Tensor a = SignedLeaf({2, 2, 3}, rng);  // batched lhs
    Tensor b = SignedLeaf({3, 2}, rng);     // broadcast rhs
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(MatMul(a, b)); };
    return c;
  });

  // --- Reductions (the loss exercises both the full and the dim overload).
  Register("Sum", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Sum";
    Tensor x = SignedLeaf({2, 3}, rng);
    c.params = {x};
    c.loss = [x]() {
      return Add(Sum(x), WeightedSum(Sum(x, 1, /*keepdim=*/false)));
    };
    return c;
  });
  Register("Mean", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Mean";
    Tensor x = SignedLeaf({2, 3}, rng);
    c.params = {x};
    c.loss = [x]() {
      return Add(Mean(x), WeightedSum(Mean(x, 0, /*keepdim=*/true)));
    };
    return c;
  });
  Register("Softmax", [](Rng& rng) {
    return UnaryCase("Softmax", SignedLeaf({2, 4}, rng),
                     [](const Tensor& x) { return Softmax(x, -1); });
  });

  // --- Shape manipulation. ---
  Register("Reshape", [](Rng& rng) {
    return UnaryCase("Reshape", SignedLeaf({2, 6}, rng),
                     [](const Tensor& x) { return Reshape(x, {3, -1}); });
  });
  Register("Permute", [](Rng& rng) {
    return UnaryCase("Permute", SignedLeaf({2, 3, 4}, rng),
                     [](const Tensor& x) { return Permute(x, {2, 0, 1}); });
  });
  Register("Transpose", [](Rng& rng) {
    return UnaryCase("Transpose", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return Transpose(x, -1, -2); });
  });
  Register("Unsqueeze", [](Rng& rng) {
    return UnaryCase("Unsqueeze", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return Unsqueeze(x, 1); });
  });
  Register("Squeeze", [](Rng& rng) {
    return UnaryCase("Squeeze", SignedLeaf({2, 1, 3}, rng),
                     [](const Tensor& x) { return Squeeze(x, 1); });
  });
  Register("BroadcastTo", [](Rng& rng) {
    return UnaryCase("BroadcastTo", SignedLeaf({2, 1, 3}, rng),
                     [](const Tensor& x) { return BroadcastTo(x, {2, 4, 3}); });
  });
  Register("Concat", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Concat";
    Tensor a = SignedLeaf({2, 2}, rng);
    Tensor b = SignedLeaf({2, 3}, rng);
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(Concat({a, b}, 1)); };
    return c;
  });
  Register("Stack", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "Stack";
    Tensor a = SignedLeaf({2, 3}, rng);
    Tensor b = SignedLeaf({2, 3}, rng);
    c.params = {a, b};
    c.loss = [a, b]() { return WeightedSum(Stack({a, b}, 0)); };
    return c;
  });
  Register("Slice", [](Rng& rng) {
    return UnaryCase("Slice", SignedLeaf({3, 4}, rng),
                     [](const Tensor& x) { return Slice(x, 1, 1, 3); });
  });
  Register("Select", [](Rng& rng) {
    return UnaryCase("Select", SignedLeaf({3, 4}, rng),
                     [](const Tensor& x) { return Select(x, 0, 1); });
  });
  Register("PadFront", [](Rng& rng) {
    return UnaryCase("PadFront", SignedLeaf({2, 3}, rng),
                     [](const Tensor& x) { return PadFront(x, 0, 2); });
  });
  Register("ReduceToShape", [](Rng& rng) {
    return UnaryCase("ReduceToShape", SignedLeaf({2, 3, 4}, rng),
                     [](const Tensor& x) { return ReduceToShape(x, {3, 1}); });
  });

  // --- Indexing. ---
  Register("EmbeddingLookup", [](Rng& rng) {
    OpGradCheckCase c;
    c.op = "EmbeddingLookup";
    Tensor weight = SignedLeaf({5, 3}, rng);
    c.params = {weight};
    // The repeated index 2 exercises the scatter-add in the backward.
    c.loss = [weight]() {
      return WeightedSum(EmbeddingLookup(weight, {0, 2, 2, 4}, {4}));
    };
    return c;
  });
}

}  // namespace d2stgnn
