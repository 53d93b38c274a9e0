#include "autograd/var.h"

#include <array>
#include <bitset>
#include <stdexcept>
#include <unordered_map>

#include "autograd/ops.h"

namespace quickdrop::ag {

Var Var::leaf(Tensor value) {
  auto n = std::make_shared<detail::Node>();
  n->value = std::move(value);
  n->requires_grad = true;
  n->op = "leaf";
  return Var(std::move(n));
}

Var Var::constant(Tensor value) {
  auto n = std::make_shared<detail::Node>();
  n->value = std::move(value);
  n->requires_grad = false;
  n->op = "const";
  return Var(std::move(n));
}

const Tensor& Var::value() const {
  if (!node_) throw std::logic_error("Var::value: null Var");
  return node_->value;
}

Tensor& Var::mutable_value() {
  if (!node_) throw std::logic_error("Var::mutable_value: null Var");
  return node_->value;
}

bool Var::requires_grad() const { return node_ && node_->requires_grad; }

Var Var::detach() const { return constant(value()); }

Var Var::make_op(const char* op, Tensor value, std::vector<Var> parents, VjpFn vjp) {
  if (parents.size() > detail::kMaxParents) {
    throw std::logic_error(std::string("Var::make_op: more parents than the needs mask holds in ") +
                           op);
  }
  auto n = std::make_shared<detail::Node>();
  n->value = std::move(value);
  n->op = op;
  bool any_grad = false;
  n->parents.reserve(parents.size());
  for (const auto& p : parents) {
    if (!p.defined()) throw std::logic_error("Var::make_op: null parent");
    any_grad = any_grad || p.requires_grad();
    n->parents.push_back(p.node());
  }
  n->requires_grad = any_grad;
  if (any_grad) n->vjp = std::move(vjp);  // constants need no backward closure
  return Var(std::move(n));
}

namespace {

using detail::Node;

/// Tape index of a node not yet placed, or of a parent that takes no gradient.
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

struct TapeEntry {
  Node* node;
  /// Tape index of each parent slot; kNoIndex where the parent does not
  /// require grad. A parent always precedes its child on the tape.
  std::array<std::size_t, detail::kMaxParents> parents;
};

/// The requires_grad subgraph reachable from a root, numbered in topological
/// order (parents before children).
struct Tape {
  std::vector<TapeEntry> order;
  /// Node -> tape index. Lookup-only: pointer-keyed hash order varies with
  /// allocation addresses, so any range-for/begin() walk here would break
  /// bitwise reproducibility (enforced statically by qdlint
  /// det-unordered-iter; pinned by GradDeterminismTest).
  std::unordered_map<Node*, std::size_t> index;
};

/// One iterative post-order DFS from `root` (which must require grad): each
/// node is numbered when its last parent is done, and its parents' indices
/// are recorded on the way, so no node is looked up twice. The graph is a
/// DAG, so a node found in `index` is already placed.
Tape build_tape(Node* root) {
  struct Frame {
    Node* node;
    std::size_t* slot;  // this node's entry in tape.index
    std::size_t next_parent = 0;
    std::array<std::size_t, detail::kMaxParents> parents{};
  };
  Tape tape;
  std::vector<Frame> stack;
  stack.push_back({root, &tape.index.try_emplace(root, kNoIndex).first->second});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& parents = frame.node->parents;
    bool descended = false;
    while (frame.next_parent < parents.size()) {
      const std::size_t p = frame.next_parent++;
      Node* parent = parents[p].get();
      if (!parent->requires_grad) {
        frame.parents[p] = kNoIndex;
        continue;
      }
      const auto [it, inserted] = tape.index.try_emplace(parent, kNoIndex);
      if (!inserted) {
        frame.parents[p] = it->second;
        continue;
      }
      stack.push_back({parent, &it->second});  // invalidates `frame`
      descended = true;
      break;
    }
    if (descended) continue;
    const std::size_t placed = tape.order.size();
    *frame.slot = placed;
    tape.order.push_back({frame.node, frame.parents});
    stack.pop_back();
    if (!stack.empty()) stack.back().parents[stack.back().next_parent - 1] = placed;
  }
  return tape;
}

}  // namespace

std::vector<Var> grad(const Var& output, std::span<const Var> inputs, const GradOptions& options) {
  if (!output.defined()) throw std::invalid_argument("grad: null output");
  if (output.value().numel() != 1) {
    throw std::invalid_argument("grad: output must be a single element, got shape " +
                                shape_to_string(output.shape()));
  }
  for (const auto& input : inputs) {
    if (!input.defined()) throw std::invalid_argument("grad: null input");
  }

  // Tape index of each input, or kNoIndex if it does not reach the output.
  std::vector<std::size_t> input_index(inputs.size(), kNoIndex);
  // Gradient per tape index. Only needed nodes get one, and a node's is
  // released once its VJP has run unless the node is an input.
  std::vector<Var> grads;
  if (output.requires_grad()) {
    const Tape tape = build_tape(output.node().get());
    const std::size_t n = tape.order.size();
    std::vector<char> is_input(n, 0);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const auto it = tape.index.find(inputs[k].node().get());
      if (it == tape.index.end()) continue;
      input_index[k] = it->second;
      is_input[it->second] = 1;
    }
    // A node is needed if it is an input or has a needed parent: exactly the
    // nodes on a path from an input to the output. Parents come first, so
    // one forward pass settles it, along with each node's needs mask.
    std::vector<char> needed(n, 0);
    std::vector<std::bitset<detail::kMaxParents>> needs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& entry = tape.order[i];
      for (std::size_t p = 0; p < entry.node->parents.size(); ++p) {
        needs[i][p] = entry.parents[p] != kNoIndex && needed[entry.parents[p]] != 0;
      }
      needed[i] = is_input[i] != 0 || needs[i].any() ? 1 : 0;
    }

    grads.resize(n);
    grads[n - 1] = Var::constant(Tensor::full(output.shape(), 1.0f));  // the root
    // Children appear after their parents; sweep in reverse. Only needed
    // nodes receive gradients, and one with an empty mask is an input (or
    // the root of a pass that reaches no input): its VJP has nothing to do.
    for (std::size_t i = n; i-- > 0;) {
      const auto& entry = tape.order[i];
      const Node* node = entry.node;
      if (!grads[i].defined() || needs[i].none() || !node->vjp) continue;
      Var gy = grads[i];
      if (!is_input[i]) grads[i] = Var();
      if (!options.create_graph) gy = gy.detach();
      const auto parent_grads = node->vjp(gy, needs[i]);
      if (parent_grads.size() != node->parents.size()) {
        throw std::logic_error(std::string("grad: vjp arity mismatch in op ") + node->op);
      }
      for (std::size_t p = 0; p < node->parents.size(); ++p) {
        const auto& pg = parent_grads[p];
        if (!needs[i][p] || !pg.defined()) continue;
        check_same_shape(pg.shape(), node->parents[p]->value.shape(),
                         (std::string("grad: vjp shape for op ") + node->op).c_str());
        auto& existing = grads[entry.parents[p]];
        existing = existing.defined() ? add(existing, pg) : pg;
      }
    }
  }

  std::vector<Var> result;
  result.reserve(inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::size_t i = input_index[k];
    if (i == kNoIndex || !grads[i].defined()) {
      result.push_back(Var::constant(Tensor::zeros(inputs[k].shape())));
    } else {
      result.push_back(options.create_graph ? grads[i] : grads[i].detach());
    }
  }
  return result;
}

std::vector<Var> grad(const Var& output, std::initializer_list<Var> inputs,
                      const GradOptions& options) {
  const std::vector<Var> v(inputs);
  return grad(output, std::span<const Var>(v), options);
}

}  // namespace quickdrop::ag
