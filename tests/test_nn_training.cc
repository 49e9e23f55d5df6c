/**
 * @file
 * Integration tests for datasets, the trainer and the model zoo:
 * deterministic data generation, learnability well above chance, and
 * zoo network shape sanity.
 */

#include <gtest/gtest.h>

#include "nn/trainer.hh"
#include "nn/zoo.hh"

namespace forms::nn {
namespace {

TEST(Dataset, DeterministicForSeed)
{
    DatasetConfig cfg = DatasetConfig::mnistLike(5);
    SyntheticImageDataset a(cfg), b(cfg);
    EXPECT_TRUE(a.train().images.equals(b.train().images));
    EXPECT_EQ(a.train().labels, b.train().labels);
}

TEST(Dataset, GeometryMatchesConfig)
{
    DatasetConfig cfg = DatasetConfig::cifar10Like();
    SyntheticImageDataset d(cfg);
    EXPECT_EQ(d.train().images.dim(1), 3);
    EXPECT_EQ(d.train().images.dim(2), 32);
    EXPECT_EQ(d.train().size(), cfg.classes * cfg.trainPerClass);
    EXPECT_EQ(d.test().size(), cfg.classes * cfg.testPerClass);
}

TEST(Dataset, LabelsBalanced)
{
    DatasetConfig cfg = DatasetConfig::mnistLike();
    SyntheticImageDataset d(cfg);
    std::vector<int> counts(static_cast<size_t>(cfg.classes), 0);
    for (int l : d.train().labels)
        ++counts[static_cast<size_t>(l)];
    for (int c : counts)
        EXPECT_EQ(c, cfg.trainPerClass);
}

TEST(Dataset, BatchExtraction)
{
    DatasetConfig cfg = DatasetConfig::mnistLike();
    cfg.trainPerClass = 8;
    SyntheticImageDataset d(cfg);
    auto order = d.trainOrder();
    Split b = d.batch(order, 0, 16);
    EXPECT_EQ(b.size(), 16);
    EXPECT_EQ(b.labels.size(), 16u);
}

TEST(Trainer, TinyNetLearnsAboveChance)
{
    DatasetConfig cfg;
    cfg.classes = 4;
    cfg.channels = 1;
    cfg.height = 12;
    cfg.width = 12;
    cfg.trainPerClass = 32;
    cfg.testPerClass = 16;
    cfg.noise = 0.4f;
    cfg.seed = 77;
    SyntheticImageDataset data(cfg);

    Rng rng(1);
    auto net = buildTinyConvNet(rng, cfg.classes, 8, 1, 12);
    TrainConfig tc;
    tc.epochs = 8;
    tc.batchSize = 16;
    Trainer trainer(*net, data, tc);
    auto res = trainer.run();
    // Chance is 0.25; the prototype task should be solidly learnable.
    EXPECT_GT(res.testAccuracy, 0.6);
}

TEST(Trainer, LossDecreases)
{
    DatasetConfig cfg;
    cfg.classes = 4;
    cfg.channels = 1;
    cfg.height = 12;
    cfg.width = 12;
    cfg.trainPerClass = 24;
    cfg.noise = 0.4f;
    cfg.seed = 78;
    SyntheticImageDataset data(cfg);

    Rng rng(2);
    auto net = buildTinyConvNet(rng, cfg.classes, 8, 1, 12);
    TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = 16;
    Trainer trainer(*net, data, tc);

    auto order = data.trainOrder();
    const double first = trainer.step(data.batch(order, 0, 16));
    double last = first;
    for (int i = 0; i < 30; ++i)
        last = trainer.step(data.batch(order, 0, 16));
    EXPECT_LT(last, first);
}

TEST(Trainer, HooksFire)
{
    DatasetConfig cfg;
    cfg.classes = 2;
    cfg.channels = 1;
    cfg.height = 12;
    cfg.width = 12;
    cfg.trainPerClass = 16;
    cfg.seed = 79;
    SyntheticImageDataset data(cfg);

    Rng rng(3);
    auto net = buildTinyConvNet(rng, 2, 4, 1, 12);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    Trainer trainer(*net, data, tc);

    int grad_calls = 0, step_calls = 0, epoch_calls = 0;
    trainer.setGradHook([&]() { ++grad_calls; });
    trainer.setPostStepHook([&]() { ++step_calls; });
    trainer.setEpochHook([&](int) { ++epoch_calls; });
    trainer.run();
    EXPECT_GT(grad_calls, 0);
    EXPECT_EQ(grad_calls, step_calls);
    EXPECT_EQ(epoch_calls, 2);
}

TEST(Zoo, LeNet5Shapes)
{
    Rng rng(4);
    auto net = buildLeNet5(rng, 10);
    Tensor x({2, 1, 28, 28});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y = net->forward(x);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 10);
}

TEST(Zoo, VggSmallShapes)
{
    Rng rng(5);
    auto net = buildVggSmall(rng, 10, 8);
    Tensor x({1, 3, 32, 32});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y = net->forward(x);
    EXPECT_EQ(y.dim(1), 10);
}

TEST(Zoo, ResNetSmallShapes)
{
    Rng rng(6);
    auto net = buildResNetSmall(rng, 20, 8);
    Tensor x({1, 3, 32, 32});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor y = net->forward(x);
    EXPECT_EQ(y.dim(1), 20);
}

TEST(Zoo, ResNetHasLargeFragmentableLayers)
{
    // Fragment sizes up to 128 need layers with >= 128 rows in the 2-d
    // weight format (Cin * k * k).
    Rng rng(7);
    auto net = buildResNetSmall(rng, 10, 16);
    int64_t max_rows = 0;
    for (auto &p : net->params()) {
        if (!p.isConvWeight)
            continue;
        const Tensor &w = *p.value;
        max_rows = std::max(max_rows, w.dim(1) * w.dim(2) * w.dim(3));
    }
    EXPECT_GE(max_rows, 128);
}

} // namespace
} // namespace forms::nn
