/**
 * @file
 * Sanity tests for the full-size workload specs: layer geometry,
 * per-frame operation counts and weight totals against the well-known
 * published values for each network.
 */

#include <gtest/gtest.h>

#include "sim/workloads.hh"

namespace forms::sim {
namespace {

TEST(Workloads, Vgg16CifarShapes)
{
    Workload w = vgg16Cifar();
    EXPECT_EQ(w.layers.size(), 16u);   // 13 conv + 3 fc
    // conv5_3 works on 2x2 maps.
    const auto &last_conv = w.layers[12];
    EXPECT_EQ(last_conv.inH, 2);
    EXPECT_EQ(last_conv.rows(), 512 * 9);
    // VGG16-CIFAR has ~14.7M conv weights + ~0.5M fc.
    EXPECT_NEAR(static_cast<double>(w.totalWeights()) / 1e6, 15.2, 0.8);
}

TEST(Workloads, Resnet18ImagenetOps)
{
    Workload w = resnet18Imagenet();
    // Published: ~1.8 GMACs => ~3.6 GOPs per frame.
    EXPECT_NEAR(w.gopsPerFrame(), 3.6, 0.4);
    EXPECT_NEAR(static_cast<double>(w.totalWeights()) / 1e6, 11.5, 1.0);
}

TEST(Workloads, Resnet50ImagenetOps)
{
    Workload w = resnet50Imagenet();
    // Published: ~4.1 GMACs => ~8.2 GOPs per frame.
    EXPECT_NEAR(w.gopsPerFrame(), 8.2, 0.8);
    EXPECT_NEAR(static_cast<double>(w.totalWeights()) / 1e6, 25.5, 2.0);
}

TEST(Workloads, PresentationsMatchSlidingWindows)
{
    LayerSpec l;
    l.conv = true;
    l.inC = 64;
    l.outC = 128;
    l.kernel = 3;
    l.stride = 2;
    l.pad = 1;
    l.inH = 56;
    l.inW = 56;
    EXPECT_EQ(l.outH(), 28);
    EXPECT_EQ(l.presentations(), 28 * 28);
    EXPECT_EQ(l.rows(), 576);
    EXPECT_EQ(l.macs(), 576 * 128 * 28 * 28);
}

TEST(Workloads, DenseLayerSpec)
{
    LayerSpec l;
    l.conv = false;
    l.inC = 512;
    l.outC = 1000;
    EXPECT_EQ(l.presentations(), 1);
    EXPECT_EQ(l.rows(), 512);
    EXPECT_EQ(l.macs(), 512000);
}

TEST(Workloads, CompressionProfileKeepFraction)
{
    CompressionProfile p{"x", 4.0, 8};
    EXPECT_DOUBLE_EQ(p.keepFraction(), 0.5);
    CompressionProfile q{"y", 1.0, 8};
    EXPECT_DOUBLE_EQ(q.keepFraction(), 1.0);
}

TEST(Workloads, EvalCasesMatchPaperTables)
{
    auto f13 = figure13Cases();
    ASSERT_EQ(f13.size(), 2u);
    EXPECT_NEAR(f13[0].profile.pruneRatio, 41.2, 1e-9);
    EXPECT_NEAR(f13[1].profile.pruneRatio, 50.85, 1e-9);

    auto f14 = figure14Cases();
    ASSERT_EQ(f14.size(), 5u);
    EXPECT_NEAR(f14[0].profile.pruneRatio, 8.15, 1e-9);
    EXPECT_NEAR(f14[4].profile.pruneRatio, 3.67, 1e-9);
    for (const auto &c : f14)
        EXPECT_EQ(c.profile.weightBits, 8);
}

TEST(Workloads, ResnetStemDownsamplesForImagenet)
{
    Workload w = resnet18Imagenet();
    EXPECT_EQ(w.layers[0].outH(), 112);
    // First stage block then works on 56x56 features.
    EXPECT_EQ(w.layers[1].inH, 56);
}

} // namespace
} // namespace forms::sim
