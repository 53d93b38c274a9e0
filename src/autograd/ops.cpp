#include "autograd/ops.h"

#include <bitset>

#include "tensor/kernels.h"

namespace quickdrop::ag {
namespace k = quickdrop::kernels;

namespace {
/// Which parents a VJP must build gradients for (see VjpFn). Binary VJPs
/// build only those; a unary VJP runs only when its parent is needed.
using Needs = std::bitset<detail::kMaxParents>;
}  // namespace

Var add(const Var& a, const Var& b) {
  return Var::make_op("add", k::add(a.value(), b.value()), {a, b},
                      [a, b](const Var& gy, Needs needs) {
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = reduce_sum_to(gy, a.shape());
                        if (needs[1]) g[1] = reduce_sum_to(gy, b.shape());
                        return g;
                      });
}

Var sub(const Var& a, const Var& b) {
  return Var::make_op("sub", k::sub(a.value(), b.value()), {a, b},
                      [a, b](const Var& gy, Needs needs) {
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = reduce_sum_to(gy, a.shape());
                        if (needs[1]) g[1] = reduce_sum_to(neg(gy), b.shape());
                        return g;
                      });
}

Var mul(const Var& a, const Var& b) {
  return Var::make_op("mul", k::mul(a.value(), b.value()), {a, b},
                      [a, b](const Var& gy, Needs needs) {
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = reduce_sum_to(mul(gy, b), a.shape());
                        if (needs[1]) g[1] = reduce_sum_to(mul(gy, a), b.shape());
                        return g;
                      });
}

Var div(const Var& a, const Var& b) {
  return Var::make_op("div", k::div(a.value(), b.value()), {a, b},
                      [a, b](const Var& gy, Needs needs) {
                        // d/da = gy / b ; d/db = -gy * a / b^2
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = reduce_sum_to(div(gy, b), a.shape());
                        if (needs[1]) {
                          g[1] = reduce_sum_to(neg(div(mul(gy, a), mul(b, b))), b.shape());
                        }
                        return g;
                      });
}

Var neg(const Var& a) {
  return Var::make_op("neg", k::neg(a.value()), {a},
                      [](const Var& gy, Needs) { return std::vector<Var>{neg(gy)}; });
}

Var exp(const Var& a) {
  return Var::make_op("exp", k::exp(a.value()), {a}, [a](const Var& gy, Needs) {
    // Recompute exp(a) rather than capturing the output Var, which would
    // create a reference cycle (node -> vjp -> node).
    return std::vector<Var>{mul(gy, exp(a))};
  });
}

Var log(const Var& a) {
  return Var::make_op("log", k::log(a.value()), {a},
                      [a](const Var& gy, Needs) { return std::vector<Var>{div(gy, a)}; });
}

Var sqrt(const Var& a) {
  return Var::make_op("sqrt", k::sqrt(a.value()), {a}, [a](const Var& gy, Needs) {
    return std::vector<Var>{mul_scalar(div(gy, sqrt(a)), 0.5f)};
  });
}

Var relu(const Var& a) {
  return Var::make_op("relu", k::relu(a.value()), {a}, [a](const Var& gy, Needs) {
    // The mask is piecewise constant; a constant factor is the exact VJP a.e.
    const Var mask = Var::constant(k::gt_zero_mask(a.value()));
    return std::vector<Var>{mul(gy, mask)};
  });
}

Var add_scalar(const Var& a, float s) {
  return Var::make_op("add_scalar", k::add_scalar(a.value(), s), {a},
                      [](const Var& gy, Needs) { return std::vector<Var>{gy}; });
}

Var mul_scalar(const Var& a, float s) {
  return Var::make_op("mul_scalar", k::mul_scalar(a.value(), s), {a},
                      [s](const Var& gy, Needs) { return std::vector<Var>{mul_scalar(gy, s)}; });
}

Var matmul(const Var& a, const Var& b) {
  return Var::make_op("matmul", k::matmul(a.value(), b.value()), {a, b},
                      [a, b](const Var& gy, Needs needs) {
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = matmul(gy, transpose(b));
                        if (needs[1]) g[1] = matmul(transpose(a), gy);
                        return g;
                      });
}

Var transpose(const Var& a) {
  return Var::make_op("transpose", k::transpose2d(a.value()), {a},
                      [](const Var& gy, Needs) { return std::vector<Var>{transpose(gy)}; });
}

Var reshape(const Var& a, Shape shape) {
  const Shape original = a.shape();
  return Var::make_op("reshape", a.value().reshaped(std::move(shape)), {a},
                      [original](const Var& gy, Needs) {
                        return std::vector<Var>{reshape(gy, original)};
                      });
}

Var permute(const Var& a, std::vector<int> dims) {
  std::vector<int> inverse(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    inverse[static_cast<std::size_t>(dims[i])] = static_cast<int>(i);
  }
  return Var::make_op("permute", k::permute(a.value(), dims), {a},
                      [inverse](const Var& gy, Needs) {
                        return std::vector<Var>{permute(gy, inverse)};
                      });
}

Var im2col(const Var& x, int k, int pad, int stride) {
  const Shape image_shape = x.shape();
  return Var::make_op("im2col", k::im2col(x.value(), k, pad, stride), {x},
                      [image_shape, k, pad, stride](const Var& gy, Needs) {
                        return std::vector<Var>{col2im(gy, image_shape, k, pad, stride)};
                      });
}

Var col2im(const Var& cols, Shape image_shape, int k, int pad, int stride) {
  return Var::make_op("col2im", k::col2im(cols.value(), image_shape, k, pad, stride), {cols},
                      [k, pad, stride](const Var& gy, Needs) {
                        return std::vector<Var>{im2col(gy, k, pad, stride)};
                      });
}

Var reduce_sum_to(const Var& a, Shape target_shape) {
  if (a.shape() == target_shape) return a;  // no-op; keeps graphs small
  const Shape original = a.shape();
  return Var::make_op("reduce_sum_to", k::reduce_sum_to(a.value(), target_shape), {a},
                      [original](const Var& gy, Needs) {
                        return std::vector<Var>{broadcast_to(gy, original)};
                      });
}

Var broadcast_to(const Var& a, Shape shape) {
  if (a.shape() == shape) return a;
  const Shape original = a.shape();
  return Var::make_op("broadcast_to", k::broadcast_to(a.value(), shape), {a},
                      [original](const Var& gy, Needs) {
                        return std::vector<Var>{reduce_sum_to(gy, original)};
                      });
}

Var sum_all(const Var& a) { return reduce_sum_to(a, Shape{}); }

Var mean_all(const Var& a) {
  return mul_scalar(sum_all(a), 1.0f / static_cast<float>(a.value().numel()));
}

Var square(const Var& a) { return mul(a, a); }

Var row_max_const(const Var& a) { return Var::constant(k::row_max(a.value())); }

Var log_softmax_rows(const Var& logits) {
  const Var m = row_max_const(logits);            // [N,1], constant
  const Var z = sub(logits, m);                   // broadcast
  const auto n = logits.shape()[0];
  const Var lse = log(reduce_sum_to(exp(z), Shape{n, 1}));
  return sub(z, lse);
}

Var cross_entropy(const Var& logits, const std::vector<int>& labels) {
  const auto num_classes = static_cast<int>(logits.shape()[1]);
  const Var onehot = Var::constant(k::one_hot(labels, num_classes));
  const Var logp = log_softmax_rows(logits);
  const Var picked = sum_all(mul(onehot, logp));
  return mul_scalar(picked, -1.0f / static_cast<float>(labels.size()));
}

Var scalar(float v) { return Var::constant(Tensor::scalar(v)); }

}  // namespace quickdrop::ag
