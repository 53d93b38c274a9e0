// Integration tests of the end-to-end QuickDrop pipeline on a miniature
// federation: unlearning erases the target, recovery restores the rest,
// relearning brings the knowledge back. Thresholds are intentionally loose —
// the benches measure the real numbers.
#include <gtest/gtest.h>

#include "core/quickdrop.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "util/thread_pool.h"

namespace quickdrop::core {
namespace {

data::TrainTest make_mini_data() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 40;
  spec.test_per_class = 10;
  spec.noise = 0.35f;
  spec.seed = 33;
  return data::make_synthetic(spec);
}

struct MiniFederation {
  data::TrainTest tt;
  std::vector<data::Dataset> clients;
  fl::ModelFactory factory;
  std::unique_ptr<nn::Module> eval_model;

  explicit MiniFederation(int num_clients = 4, float alpha = 0.5f) : tt(make_mini_data()) {
    Rng prng(7);
    clients = data::materialize(tt.train, data::dirichlet_partition(tt.train, num_clients,
                                                                    alpha, prng));
    nn::ConvNetConfig net;
    net.in_channels = 1;
    net.image_size = 8;
    net.num_classes = 4;
    net.width = 12;
    net.depth = 1;
    auto shared_rng = std::make_shared<Rng>(19);
    factory = [shared_rng, net] { return nn::make_convnet(net, *shared_rng); };
    eval_model = factory();
  }

  QuickDropConfig config() const {
    QuickDropConfig cfg;
    cfg.fl_rounds = 20;
    cfg.local_steps = 6;
    cfg.batch_size = 16;
    cfg.train_lr = 0.1f;
    cfg.scale = 10;
    cfg.unlearn_local_steps = 4;
    cfg.unlearn_batch_size = 16;
    cfg.unlearn_lr = 0.05f;
    cfg.recover_lr = 0.05f;
    return cfg;
  }

  double acc(const nn::ModelState& s, const std::vector<int>& classes) {
    nn::load_state(*eval_model, s);
    return metrics::accuracy_on_classes(*eval_model, tt.test, classes);
  }
  double acc_excluding(const nn::ModelState& s, const std::vector<int>& classes) {
    nn::load_state(*eval_model, s);
    return metrics::accuracy_excluding_classes(*eval_model, tt.test, classes);
  }
};

TEST(QuickDropTest, TrainReachesUsefulAccuracy) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto state = qd.train();
  nn::load_state(*fed.eval_model, state);
  EXPECT_GT(metrics::accuracy(*fed.eval_model, fed.tt.test), 0.7);
  EXPECT_GT(qd.training_stats().cost.sample_grads, 0);
  EXPECT_GT(qd.training_stats().cost.distill_sample_grads, 0);
  EXPECT_GT(qd.distill_seconds(), 0.0);
}

// Table 6 divides distill_seconds() by local_update_seconds(). Both sum
// per-client intervals, and every distillation interval lies inside its
// client's local-update interval, so the share is at most 1 however many
// clients run at once.
TEST(QuickDropTest, DistillSecondsNestInLocalUpdateSeconds) {
  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    MiniFederation fed;
    auto cfg = fed.config();
    cfg.fl_rounds = 3;
    QuickDrop qd(fed.factory, fed.clients, cfg, 99);
    qd.train();
    EXPECT_GT(qd.distill_seconds(), 0.0) << threads << " threads";
    EXPECT_LE(qd.distill_seconds(), qd.local_update_seconds()) << threads << " threads";
  }
  set_num_threads(saved_threads);
}

TEST(QuickDropTest, ClassUnlearningErasesAndRecovers) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto trained = qd.train();
  const double fset_before = fed.acc(trained, {2});
  const double rset_before = fed.acc_excluding(trained, {2});
  ASSERT_GT(fset_before, 0.5);

  PhaseStats us, rs;
  const auto unlearned = qd.unlearn(trained, UnlearningRequest::for_class(2), &us, &rs);
  EXPECT_LT(fed.acc(unlearned, {2}), 0.15);
  EXPECT_GT(fed.acc_excluding(unlearned, {2}), rset_before - 0.15);
  EXPECT_EQ(qd.forgotten_classes().count(2), 1u);
  EXPECT_GT(us.data_size, 0);
  EXPECT_GT(rs.data_size, us.data_size);  // retain >> forget
  EXPECT_EQ(us.rounds, fed.config().unlearn_rounds);
  EXPECT_EQ(rs.rounds, fed.config().recovery_rounds);
}

TEST(QuickDropTest, UnlearningUsesFarFewerSamplesThanOriginalData) {
  MiniFederation fed;
  auto cfg = fed.config();
  QuickDrop qd(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd.train();
  PhaseStats us, rs;
  qd.unlearn(trained, UnlearningRequest::for_class(1), &us, &rs);
  const auto original_total = fl::total_samples(fed.clients);
  EXPECT_LT(us.data_size * 2, original_total / 4);
  EXPECT_LT(rs.data_size, original_total);  // augmented synthetic ~ 2/scale
}

TEST(QuickDropTest, ClientUnlearning) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto trained = qd.train();
  PhaseStats us, rs;
  const auto unlearned = qd.unlearn(trained, UnlearningRequest::for_client(0), &us, &rs);
  EXPECT_EQ(qd.forgotten_clients().count(0), 1u);
  // Forget data of the client = its synthetic store size.
  EXPECT_EQ(us.data_size, qd.stores()[0].total_samples());
  // Model remains usable on test data overall.
  nn::load_state(*fed.eval_model, unlearned);
  EXPECT_GT(metrics::accuracy(*fed.eval_model, fed.tt.test), 0.4);
}

TEST(QuickDropTest, RelearnRestoresKnowledge) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto trained = qd.train();
  const double fset_before = fed.acc(trained, {2});
  const auto unlearned = qd.unlearn(trained, UnlearningRequest::for_class(2));
  ASSERT_LT(fed.acc(unlearned, {2}), 0.15);
  PhaseStats ls;
  const auto relearned = qd.relearn(unlearned, UnlearningRequest::for_class(2), &ls);
  EXPECT_GT(fed.acc(relearned, {2}), fset_before - 0.3);
  EXPECT_EQ(qd.forgotten_classes().count(2), 0u);
  EXPECT_GT(ls.data_size, 0);
}

TEST(QuickDropTest, SequentialRequestsExcludeForgottenFromRetain) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  auto state = qd.train();
  state = qd.unlearn(state, UnlearningRequest::for_class(0));
  // Retain sets for a second request must not contain class 0.
  const auto req = UnlearningRequest::for_class(1);
  const auto retain = qd.retain_datasets(&req);
  for (const auto& d : retain) {
    for (int i = 0; i < d.size(); ++i) {
      EXPECT_NE(d.label(i), 0);
      EXPECT_NE(d.label(i), 1);
    }
  }
  state = qd.unlearn(state, UnlearningRequest::for_class(1));
  EXPECT_LT(fed.acc(state, {0}), 0.25);
  EXPECT_LT(fed.acc(state, {1}), 0.25);
  EXPECT_GT(fed.acc_excluding(state, {0, 1}), 0.5);
}

TEST(QuickDropTest, ForgetDatasetsShapes) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto by_class = qd.forget_datasets(UnlearningRequest::for_class(3));
  ASSERT_EQ(by_class.size(), fed.clients.size());
  for (std::size_t i = 0; i < by_class.size(); ++i) {
    EXPECT_EQ(by_class[i].size(), qd.stores()[i].class_count(3));
  }
  const auto by_client = qd.forget_datasets(UnlearningRequest::for_client(1));
  EXPECT_EQ(by_client[1].size(), qd.stores()[1].total_samples());
  EXPECT_EQ(by_client[0].size(), 0);
}

TEST(QuickDropTest, UnlearnUnknownTargetThrows) {
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, fed.config(), 99);
  const auto trained = qd.train();
  // No client holds class 7 in a 4-class problem: class id out of range.
  EXPECT_THROW(qd.unlearn(trained, UnlearningRequest::for_class(7)), std::out_of_range);
}

TEST(QuickDropTest, AugmentationToggleChangesRetainSize) {
  MiniFederation fed;
  auto cfg = fed.config();
  cfg.augment_recovery = true;
  QuickDrop with(fed.factory, fed.clients, cfg, 99);
  cfg.augment_recovery = false;
  QuickDrop without(fed.factory, fed.clients, cfg, 99);
  const auto req = UnlearningRequest::for_class(0);
  EXPECT_EQ(fl::total_samples(with.retain_datasets(&req)),
            2 * fl::total_samples(without.retain_datasets(&req)));
}

TEST(QuickDropTest, PartialParticipationTrainsAndUnlearns) {
  MiniFederation fed;
  auto cfg = fed.config();
  cfg.participation = 0.5f;
  cfg.fl_rounds = 30;  // fewer client-updates per round -> more rounds
  QuickDrop qd(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd.train();
  nn::load_state(*fed.eval_model, trained);
  EXPECT_GT(metrics::accuracy(*fed.eval_model, fed.tt.test), 0.55);
  const auto unlearned = qd.unlearn(trained, UnlearningRequest::for_class(0));
  EXPECT_LT(fed.acc(unlearned, {0}), 0.25);
}

TEST(QuickDropTest, VerifiedUnlearningStopsEarlyWhenErased) {
  MiniFederation fed;
  auto cfg = fed.config();
  cfg.max_unlearn_rounds = 8;  // cap; should stop far earlier
  QuickDrop qd(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd.train();
  PhaseStats us;
  const auto unlearned = qd.unlearn(trained, UnlearningRequest::for_class(2), &us);
  EXPECT_GE(us.rounds, cfg.unlearn_rounds);
  EXPECT_LE(us.rounds, cfg.max_unlearn_rounds);
  EXPECT_LT(fed.acc(unlearned, {2}), 0.15);
}

TEST(QuickDropTest, VerifiedUnlearningRunsExtraRoundsWhenNeeded) {
  // With a near-zero learning rate one round cannot erase; the verified loop
  // must exhaust its cap.
  MiniFederation fed;
  auto cfg = fed.config();
  cfg.unlearn_lr = 1e-6f;
  cfg.max_unlearn_rounds = 3;
  QuickDrop qd(fed.factory, fed.clients, cfg, 99);
  const auto trained = qd.train();
  PhaseStats us;
  qd.unlearn(trained, UnlearningRequest::for_class(2), &us);
  EXPECT_EQ(us.rounds, 3);
}

TEST(QuickDropTest, RejectsEmptyFederation) {
  MiniFederation fed;
  EXPECT_THROW(QuickDrop(fed.factory, {}, fed.config(), 1), std::invalid_argument);
}

}  // namespace
}  // namespace quickdrop::core
