// Golden test: the Figure 6 reproduction at the end-to-end benchmark's
// setting (right hand, seed 20070415, 10 trials per class, 5-fold CV,
// c = 15, 100 ms windows with a 50 ms hop — EXPERIMENTS.md lists
// 15.0 %). The misclassified count is pinned exactly, so a change to
// conditioning, featurization or kNN that flips a single label fails
// here instead of quietly changing EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <vector>

#include "eval/protocols.h"
#include "synth/dataset.h"

namespace mocemg {
namespace {

constexpr uint64_t kSeed = 20070415;

size_t Misclassified(const ConfusionMatrix& confusion) {
  size_t wrong = 0;
  for (size_t t = 0; t < confusion.num_classes(); ++t) {
    for (size_t p = 0; p < confusion.num_classes(); ++p) {
      if (t != p) wrong += confusion.count(t, p);
    }
  }
  return wrong;
}

TEST(ReproductionTest, Fig6RightHandAtBenchmarkSetting) {
  // The fig6_misclass_hand harness's defaults (bench/bench_util.h).
  DatasetOptions lab;
  lab.limb = Limb::kRightHand;
  lab.trials_per_class = 10;
  lab.seed = kSeed;
  auto data = GenerateDataset(lab);
  ASSERT_TRUE(data.ok()) << data.status();
  const std::vector<LabeledMotion> motions =
      ToLabeledMotions(*std::move(data));

  ClassifierOptions options;
  options.features.window_ms = 100.0;
  options.features.hop_ms = 50.0;
  options.fcm.num_clusters = 15;
  options.fcm.seed = kSeed ^ 0xC0FFEE;
  options.fcm.max_iterations = 80;
  options.fcm.epsilon = 1e-4;
  ProtocolOptions protocol;
  protocol.num_folds = 5;
  protocol.knn_k = 5;
  protocol.seed = kSeed ^ 0xBEEF;

  auto result = CrossValidate(motions, NumClassesForLimb(Limb::kRightHand),
                              options, protocol);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_queries, 60u);
  EXPECT_EQ(Misclassified(result->confusion), 9u);  // 15.0 %
  // Figure 8's metric from the same run: 181 of the 300 retrieved
  // neighbours share their query's class. One flipped neighbour moves
  // it by 1/3 of a percent.
  EXPECT_NEAR(result->knn_percent, 100.0 * 181.0 / 300.0, 1e-9);
}

// Reduced fig 6-9 grids at the same seed and harness defaults: c = 2,
// 15 and 40 at 100 ms windows, and c = 15 at 50 and 200 ms (hop 50 ms
// throughout, as in bench/bench_util.h). Each cell pins the
// misclassified count (figs 6/7) and the same-class neighbour count
// out of num_queries * 5 (figs 8/9) exactly.
struct GridCell {
  double window_ms;
  size_t clusters;
  size_t misclassified;
  size_t same_class_neighbours;
};

void ExpectGrid(Limb limb, const std::vector<GridCell>& cells) {
  DatasetOptions lab;
  lab.limb = limb;
  lab.trials_per_class = 10;
  lab.seed = kSeed;
  auto data = GenerateDataset(lab);
  ASSERT_TRUE(data.ok()) << data.status();
  const std::vector<LabeledMotion> motions =
      ToLabeledMotions(*std::move(data));
  ProtocolOptions protocol;
  protocol.num_folds = 5;
  protocol.knn_k = 5;
  protocol.seed = kSeed ^ 0xBEEF;
  for (const GridCell& cell : cells) {
    ClassifierOptions options;
    options.features.window_ms = cell.window_ms;
    options.features.hop_ms = 50.0;
    options.fcm.num_clusters = cell.clusters;
    options.fcm.seed = kSeed ^ 0xC0FFEE;
    options.fcm.max_iterations = 80;
    options.fcm.epsilon = 1e-4;
    auto result =
        CrossValidate(motions, NumClassesForLimb(limb), options, protocol);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->num_queries, 10 * NumClassesForLimb(limb));
    const double neighbours =
        static_cast<double>(result->num_queries * protocol.knn_k);
    EXPECT_EQ(Misclassified(result->confusion), cell.misclassified)
        << LimbName(limb) << " w=" << cell.window_ms
        << " c=" << cell.clusters;
    EXPECT_NEAR(result->knn_percent,
                100.0 * static_cast<double>(cell.same_class_neighbours) /
                    neighbours,
                1e-9)
        << LimbName(limb) << " w=" << cell.window_ms
        << " c=" << cell.clusters << " same-class neighbours "
        << result->knn_percent * neighbours / 100.0;
  }
}

TEST(ReproductionTest, Fig6Fig8RightHandReducedGrid) {
  ExpectGrid(Limb::kRightHand, {{100.0, 2, 37, 96},
                                {100.0, 15, 9, 181},
                                {100.0, 40, 8, 197},
                                {50.0, 15, 8, 193},
                                {200.0, 15, 11, 199}});
}

TEST(ReproductionTest, Fig7Fig9RightLegReducedGrid) {
  ExpectGrid(Limb::kRightLeg, {{100.0, 2, 15, 170},
                               {100.0, 15, 4, 200},
                               {100.0, 40, 8, 178},
                               {50.0, 15, 4, 190},
                               {200.0, 15, 3, 197}});
}

}  // namespace
}  // namespace mocemg
