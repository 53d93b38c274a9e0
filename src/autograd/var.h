// Define-by-run automatic differentiation.
//
// A Var is a handle to a node in a dynamically built computation graph. Every
// primitive op (see ops.h) records a vector-Jacobian-product (VJP) closure
// that is itself expressed in terms of primitive ops, so gradients are
// ordinary graph nodes and can be differentiated again — the engine supports
// arbitrary-order differentiation (PyTorch's `create_graph=True` semantics).
// QuickDrop's gradient-matching distillation relies on this to differentiate
// a distance between parameter gradients with respect to synthetic pixels.
#pragma once

#include <bitset>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace quickdrop::ag {

class Var;

namespace detail {
/// Most parents an op node may have: the VJP needs mask holds one bit each.
inline constexpr std::size_t kMaxParents = 4;
}  // namespace detail

/// Maps the gradient w.r.t. a node's output to gradients w.r.t. its parents
/// (same order as the parents vector; a default-constructed Var means "no
/// gradient for this parent"). Bit i of `needs` is set when grad() wants
/// parent i's gradient; a VJP builds only those and may return a default Var
/// for the rest. grad() never calls a VJP with an empty mask, so a VJP with a
/// single parent can ignore the mask.
using VjpFn = std::function<std::vector<Var>(const Var& grad_output,
                                             std::bitset<detail::kMaxParents> needs)>;

namespace detail {
struct Node {
  Tensor value;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  VjpFn vjp;          // empty for leaves and constants
  const char* op = "";  // op name, for diagnostics
};
}  // namespace detail

/// Handle to a graph node. Cheap to copy; the graph is reference counted and
/// freed when the last handle to it is dropped.
class Var {
 public:
  /// Null handle; defined() is false.
  Var() = default;

  /// Differentiable leaf wrapping the given tensor (storage is shared, so an
  /// optimizer update to the tensor is visible through the Var).
  static Var leaf(Tensor value);

  /// Non-differentiable constant.
  static Var constant(Tensor value);

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Tensor& value() const;

  /// Mutable access to the underlying tensor. Only meaningful for leaves
  /// (parameters updated in place by an optimizer); mutating an op node's
  /// output would silently desynchronize the graph.
  [[nodiscard]] Tensor& mutable_value();
  [[nodiscard]] const Shape& shape() const { return value().shape(); }
  [[nodiscard]] bool requires_grad() const;

  /// A constant view of this value: gradients do not flow past it.
  [[nodiscard]] Var detach() const;

  /// Internal: constructs an op node. Used by ops.cpp. Throws
  /// std::logic_error for a null parent or more than detail::kMaxParents.
  static Var make_op(const char* op, Tensor value, std::vector<Var> parents, VjpFn vjp);

  [[nodiscard]] const std::shared_ptr<detail::Node>& node() const { return node_; }

 private:
  explicit Var(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}
  std::shared_ptr<detail::Node> node_;
};

/// Options for grad().
struct GradOptions {
  /// When true, the returned gradients are themselves differentiable graph
  /// nodes (needed for higher-order derivatives). When false, gradient
  /// chains are cut eagerly to keep memory bounded.
  bool create_graph = false;
};

/// Reverse-mode gradient of a scalar `output` w.r.t. each of `inputs`.
/// Inputs that do not influence the output receive zero gradients of their
/// own shape. Only nodes on a path from an input to `output` run their VJP,
/// and each builds only the parent gradients on such a path. Throws
/// std::invalid_argument if output is not a single element.
std::vector<Var> grad(const Var& output, std::span<const Var> inputs,
                      const GradOptions& options = {});

/// Convenience overload.
std::vector<Var> grad(const Var& output, std::initializer_list<Var> inputs,
                      const GradOptions& options = {});

}  // namespace quickdrop::ag
