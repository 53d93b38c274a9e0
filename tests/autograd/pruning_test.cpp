// grad() runs only the VJPs on a path from a requested input to the output,
// and asks each binary VJP only for the parent gradients on such a path.
// These tests pin both halves of that contract and show that pruning moves
// no bit: every gradient a pruned pass returns equals, byte for byte, the
// same entry of a pass over all leaves (which needs every node, like the old
// full sweep), at first and second order.
#include <gtest/gtest.h>

#include <bitset>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "autograd/var.h"
#include "core/distillation.h"
#include "nn/convnet.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace quickdrop::ag {
namespace {

using Needs = std::bitset<detail::kMaxParents>;

Tensor filled(Shape shape, float start, float step) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = start + step * static_cast<float>(i % 13);
  }
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// An elementwise a + b whose VJP appends the needs mask it gets to `calls`.
Var probe_add(const Var& a, const Var& b, std::shared_ptr<std::vector<Needs>> calls) {
  return Var::make_op("probe_add", kernels::add(a.value(), b.value()), {a, b},
                      [calls](const Var& gy, Needs needs) {
                        calls->push_back(needs);
                        std::vector<Var> g(2);
                        if (needs[0]) g[0] = gy;
                        if (needs[1]) g[1] = gy;
                        return g;
                      });
}

/// The identity, with a VJP that counts its calls in `calls`.
Var probe_identity(const Var& a, std::shared_ptr<int> calls) {
  return Var::make_op("probe_identity", a.value().clone(), {a}, [calls](const Var& gy, Needs) {
    ++*calls;
    return std::vector<Var>{gy};
  });
}

TEST(GradPruning, BinaryVjpGetsTheNeedsMaskOfItsRequestedParents) {
  const Var a = Var::leaf(filled({2, 3}, 0.5f, 0.25f));
  const Var b = Var::leaf(filled({2, 3}, -1.0f, 0.125f));
  auto calls = std::make_shared<std::vector<Needs>>();
  const Var y = sum_all(probe_add(a, b, calls));

  const auto ga = grad(y, {a});
  ASSERT_EQ(calls->size(), 1u);
  EXPECT_TRUE(calls->at(0)[0]);
  EXPECT_FALSE(calls->at(0)[1]);
  EXPECT_TRUE(bitwise_equal(ga[0].value(), Tensor::full(a.shape(), 1.0f)));

  grad(y, {b});
  ASSERT_EQ(calls->size(), 2u);
  EXPECT_FALSE(calls->at(1)[0]);
  EXPECT_TRUE(calls->at(1)[1]);

  grad(y, {a, b});
  ASSERT_EQ(calls->size(), 3u);
  EXPECT_TRUE(calls->at(2)[0]);
  EXPECT_TRUE(calls->at(2)[1]);
  // Bits above the op's parents stay clear.
  EXPECT_EQ(calls->at(2).count(), 2u);
}

TEST(GradPruning, ConstantParentIsNeverNeeded) {
  const Var a = Var::leaf(filled({4}, 0.5f, 0.25f));
  const Var c = Var::constant(filled({4}, 2.0f, 0.5f));
  auto calls = std::make_shared<std::vector<Needs>>();
  grad(sum_all(probe_add(c, a, calls)), {a});
  ASSERT_EQ(calls->size(), 1u);
  EXPECT_FALSE(calls->at(0)[0]);
  EXPECT_TRUE(calls->at(0)[1]);
}

TEST(GradPruning, BranchThatReachesNoInputIsNeverRun) {
  const Var x = Var::leaf(filled({3, 4}, 0.1f, 0.2f));
  const Var w = Var::leaf(filled({4, 2}, -0.3f, 0.05f));
  const Var other = Var::leaf(filled({3, 2}, 1.0f, -0.1f));
  auto unary_calls = std::make_shared<int>(0);
  auto binary_calls = std::make_shared<std::vector<Needs>>();
  // `other` feeds the output through both probes, but is not requested.
  const Var side = probe_add(probe_identity(other, unary_calls), other, binary_calls);
  const Var y = sum_all(mul(relu(matmul(x, w)), side));

  const auto gx = grad(y, {x});
  EXPECT_EQ(*unary_calls, 0);
  EXPECT_TRUE(binary_calls->empty());

  // Once `other` is requested, both probes run, and x's gradient is the same.
  const auto all = grad(y, {x, w, other});
  EXPECT_EQ(*unary_calls, 1);
  ASSERT_EQ(binary_calls->size(), 1u);
  EXPECT_EQ(binary_calls->at(0).count(), 2u);
  EXPECT_TRUE(bitwise_equal(gx[0].value(), all[0].value()));
}

TEST(GradPruning, InteriorInputKeepsItsGradientWhenItsVjpAlsoRuns) {
  const Var x = Var::leaf(filled({3, 4}, 0.1f, 0.2f));
  const Var w = Var::leaf(filled({4, 2}, -0.3f, 0.05f));
  const Var h = matmul(x, w);
  const Var y = sum_all(mul(h, add_scalar(h, 0.5f)));
  // h's gradient is complete before its VJP runs on the way to x.
  const auto both = grad(y, {h, x});
  const auto h_only = grad(y, {h});
  const auto x_only = grad(y, {x});
  EXPECT_TRUE(bitwise_equal(both[0].value(), h_only[0].value()));
  EXPECT_TRUE(bitwise_equal(both[1].value(), x_only[0].value()));
  EXPECT_FALSE(bitwise_equal(both[0].value(), Tensor::zeros(h.shape())));
}

TEST(GradPruning, UnreachableInputGetsZerosWithoutRunningAnyVjp) {
  const Var x = Var::leaf(filled({3}, 0.1f, 0.2f));
  const Var unused = Var::leaf(filled({2, 2}, 0.5f, 0.5f));
  auto calls = std::make_shared<int>(0);
  const auto g = grad(sum_all(probe_identity(x, calls)), {unused});
  EXPECT_EQ(*calls, 0);
  EXPECT_TRUE(bitwise_equal(g[0].value(), Tensor::zeros(unused.shape())));
}

TEST(GradPruning, MakeOpRejectsMoreParentsThanTheMaskHolds) {
  const Var a = Var::leaf(filled({2}, 0.5f, 0.25f));
  const std::vector<Var> parents(detail::kMaxParents + 1, a);
  EXPECT_THROW(Var::make_op("too_many", a.value().clone(), parents,
                            [](const Var&, Needs) { return std::vector<Var>{}; }),
               std::logic_error);
}

/// A small ConvNet on a leaf batch of pixels: conv, instance norm, pooling
/// and a linear head, so every VJP in the model's path takes part.
struct PixelNet {
  std::unique_ptr<nn::Sequential> model;
  std::vector<Var> params;
  Var pixels;
  std::vector<int> labels{0, 2, 1};

  PixelNet() {
    nn::ConvNetConfig config;
    config.in_channels = 2;
    config.image_size = 8;
    config.num_classes = 3;
    config.width = 4;
    config.depth = 2;
    Rng rng(11);
    model = nn::make_convnet(config, rng);
    params = model->parameters();
    pixels = Var::leaf(filled({3, 2, 8, 8}, -0.7f, 0.11f));
  }

  [[nodiscard]] Var loss() const { return cross_entropy(model->forward(pixels), labels); }

  [[nodiscard]] std::vector<Var> all_leaves() const {
    auto leaves = params;
    leaves.push_back(pixels);
    return leaves;
  }
};

void expect_subset_matches_all_leaves(bool create_graph) {
  const PixelNet net;
  const Var loss = net.loss();
  const auto leaves = net.all_leaves();
  const auto full = grad(loss, std::span<const Var>(leaves), {.create_graph = create_graph});
  ASSERT_EQ(full.size(), leaves.size());

  // Subsets as index lists into `leaves`: parameters only, pixels only, the
  // first conv weight, the head's last parameter, and a mix.
  const std::size_t pixel_slot = leaves.size() - 1;
  std::vector<std::vector<std::size_t>> subsets;
  subsets.emplace_back();
  for (std::size_t i = 0; i < net.params.size(); ++i) subsets.back().push_back(i);
  subsets.push_back({pixel_slot});
  subsets.push_back({0});
  subsets.push_back({net.params.size() - 1});
  subsets.push_back({pixel_slot, 1, 0});
  for (const auto& subset : subsets) {
    std::vector<Var> inputs;
    for (const std::size_t i : subset) inputs.push_back(leaves[i]);
    const auto part = grad(loss, std::span<const Var>(inputs), {.create_graph = create_graph});
    ASSERT_EQ(part.size(), subset.size());
    for (std::size_t k = 0; k < subset.size(); ++k) {
      EXPECT_EQ(part[k].requires_grad(), full[subset[k]].requires_grad());
      EXPECT_TRUE(bitwise_equal(part[k].value(), full[subset[k]].value()))
          << "leaf " << subset[k] << " of " << leaves.size()
          << (create_graph ? " with" : " without") << " create_graph";
    }
  }
}

TEST(GradPruning, LeafSubsetEqualsAllLeavesOnConvNet) { expect_subset_matches_all_leaves(false); }

TEST(GradPruning, LeafSubsetEqualsAllLeavesOnConvNetWithGraph) {
  expect_subset_matches_all_leaves(true);
}

/// The distillation step's second-order pass: the matching distance between
/// synthetic and real parameter gradients, differentiated w.r.t. pixels.
Tensor second_order_pixel_grad(const PixelNet& net, bool first_pass_includes_pixels) {
  std::vector<Tensor> real;
  for (std::size_t i = 0; i < net.params.size(); ++i) {
    real.push_back(filled(net.params[i].shape(), 0.05f * static_cast<float>(i + 1), -0.01f));
  }
  const Var loss = net.loss();
  auto inputs = first_pass_includes_pixels ? net.all_leaves() : net.params;
  auto grad_synth = grad(loss, std::span<const Var>(inputs), {.create_graph = true});
  grad_synth.resize(net.params.size());
  const Var dist = core::matching_distance(grad_synth, real);
  return grad(dist, {net.pixels})[0].value().clone();
}

TEST(GradPruning, SecondOrderPixelGradIgnoresPixelsInFirstPass) {
  const PixelNet net;
  const Tensor params_only = second_order_pixel_grad(net, false);
  const Tensor with_pixels = second_order_pixel_grad(net, true);
  EXPECT_TRUE(bitwise_equal(params_only, with_pixels));
  // The pass does reach the pixels.
  EXPECT_FALSE(bitwise_equal(params_only, Tensor::zeros(params_only.shape())));
}

}  // namespace
}  // namespace quickdrop::ag
