/**
 * @file
 * Compiler tests: lowering an nn::Network (including ResidualBlock
 * recursion) to the graph IR, shape inference over DAG joins, and the
 * BN-folding pass — the folded conv must match the unfolded FP
 * Conv+BN reference within tight tolerance on randomized shapes, and
 * whole-network eval forward must be unchanged by folding (the BN
 * layers are neutralized in place).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "compile/passes.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "nn/zoo.hh"
#include "sim/pipeline_runtime.hh"

namespace forms {
namespace {

/** Give a BN layer nontrivial affine parameters and running stats. */
void
randomizeBn(nn::BatchNorm2D &bn, Rng &rng)
{
    bn.gamma().fillUniform(rng, 0.5f, 1.5f);
    bn.beta().fillUniform(rng, -0.5f, 0.5f);
    bn.runningMean().fillUniform(rng, -0.4f, 0.4f);
    bn.runningVar().fillUniform(rng, 0.25f, 2.0f);
}

void
expectClose(const Tensor &a, const Tensor &b, float tol)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.at(i), b.at(i), tol) << "element " << i;
}

TEST(Lowering, StraightLineChain)
{
    Rng rng(3);
    auto net = nn::buildTinyConvNet(rng, 4, 8, 1, 12);
    auto g = compile::lowerNetwork(*net);

    // input + 8 layers, all sequential: conv relu pool conv relu pool
    // flat fc.
    EXPECT_EQ(g.size(), net->size() + 1);
    const auto topo = g.topoOrder();
    ASSERT_EQ(topo.size(), g.size());
    EXPECT_EQ(topo.front(), g.input());
    EXPECT_EQ(topo.back(), g.output());

    g.inferShapes({1, 12, 12});
    EXPECT_EQ(g.node(g.output()).outShape, (Shape{4}));
}

TEST(Lowering, ResidualBlockBecomesDagWithJoin)
{
    Rng rng(4);
    nn::Network net;
    net.emplace<nn::Conv2D>("stem", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("stem_relu");
    // Projection shortcut (stride 2, channel change): main path
    // conv-bn-relu-conv-bn plus conv-bn shortcut, then add + relu.
    net.emplace<nn::ResidualBlock>("blk", 8, 16, 2, rng);

    auto g = compile::lowerNetwork(net);
    // input, stem, stem_relu, then blk: 5 main + 2 shortcut + add +
    // relu_out = 9.
    EXPECT_EQ(g.size(), 12u);

    int adds = 0, bns = 0;
    for (int id = 0; id < g.capacity(); ++id) {
        if (!g.alive(id))
            continue;
        adds += g.node(id).op == compile::Op::Add;
        bns += g.node(id).op == compile::Op::BatchNorm;
    }
    EXPECT_EQ(adds, 1);
    EXPECT_EQ(bns, 3);

    g.inferShapes({3, 10, 10});
    EXPECT_EQ(g.node(g.output()).outShape, (Shape{16, 5, 5}));

    // The add node joins the main path (bn2) and the shortcut (bn).
    for (int id = 0; id < g.capacity(); ++id) {
        if (g.alive(id) && g.node(id).op == compile::Op::Add) {
            ASSERT_EQ(g.node(id).inputs.size(), 2u);
            EXPECT_EQ(g.node(g.node(id).inputs[0]).name, "blk.bn2");
            EXPECT_EQ(g.node(g.node(id).inputs[1]).name, "blk.proj_bn");
        }
    }
}

TEST(Lowering, ResNetZooLowersAndInfersShapes)
{
    Rng rng(5);
    auto net = nn::buildResNetSmall(rng, 10, 8, 2);
    auto g = compile::lowerNetwork(*net);
    g.inferShapes({3, 32, 32});
    EXPECT_EQ(g.node(g.output()).outShape, (Shape{10}));

    // Two of the six blocks change shape, so two projection shortcuts
    // exist: 6 add joins total.
    int adds = 0;
    for (int id = 0; id < g.capacity(); ++id)
        if (g.alive(id) && g.node(id).op == compile::Op::Add)
            ++adds;
    EXPECT_EQ(adds, 6);
    EXPECT_FALSE(g.dump().empty());
}

TEST(FoldBatchNorm, MatchesConvBnReferenceOnRandomizedShapes)
{
    struct Cfg { int in_c, out_c, k, stride, pad, hw; };
    const Cfg cfgs[] = {
        {3, 8, 3, 1, 1, 9},
        {5, 12, 5, 2, 2, 11},
        {1, 16, 1, 1, 0, 7},
        {8, 6, 3, 2, 0, 12},
    };
    uint64_t seed = 100;
    for (const Cfg &c : cfgs) {
        Rng rng(seed++);
        nn::Network net;
        auto &conv = net.emplace<nn::Conv2D>("c", c.in_c, c.out_c, c.k,
                                             c.stride, c.pad, rng);
        conv.bias().fillUniform(rng, -0.2f, 0.2f);
        auto &bn = net.emplace<nn::BatchNorm2D>("b", c.out_c);
        randomizeBn(bn, rng);

        Tensor x({2, c.in_c, c.hw, c.hw});
        x.fillUniform(rng, -1.0f, 1.0f);
        const Tensor ref = net.forward(x, false);

        auto g = compile::lowerNetwork(net);
        EXPECT_EQ(compile::foldBatchNorm(g), 1);
        EXPECT_EQ(g.size(), 2u);   // input + conv; BN bypassed

        // Folded conv alone reproduces Conv+BN ...
        const Tensor folded = conv.forward(x, false);
        const float tol =
            5e-5f * std::max(1.0f, ref.maxAbs());
        expectClose(ref, folded, tol);

        // ... and the neutralized BN makes the whole net a no-op
        // change in eval mode.
        expectClose(ref, net.forward(x, false), tol);
    }
}

TEST(FoldBatchNorm, FoldsEveryBnInResNetAndPreservesEvalForward)
{
    Rng rng(21);
    auto net = nn::buildResNetSmall(rng, 10, 8, 1);
    // Perturb every BN so folding is nontrivial.
    Rng prng(22);
    for (auto &p : net->params()) {
        if (p.name.find(".gamma") != std::string::npos)
            p.value->fillUniform(prng, 0.6f, 1.4f);
        if (p.name.find(".beta") != std::string::npos)
            p.value->fillUniform(prng, -0.3f, 0.3f);
    }

    Tensor x({2, 3, 32, 32});
    x.fillUniform(prng, 0.0f, 1.0f);
    const Tensor ref = net->forward(x, false);

    auto g = compile::lowerNetwork(*net);
    size_t before = g.size();
    // 1 stem BN + 3 blocks x (2 main + up to 1 proj): blocks at stage
    // boundaries have projection shortcuts (2 of 3 here).
    const int folded = compile::foldBatchNorm(g);
    EXPECT_EQ(folded, 9);
    EXPECT_EQ(g.size(), before - static_cast<size_t>(folded));
    for (int id = 0; id < g.capacity(); ++id)
        if (g.alive(id))
            EXPECT_NE(g.node(id).op, compile::Op::BatchNorm);

    g.inferShapes({3, 32, 32});
    const Tensor after = net->forward(x, false);
    const float tol = 1e-4f * std::max(1.0f, ref.maxAbs());
    expectClose(ref, after, tol);
}

TEST(FoldBatchNorm, DigitalScaleModeLeavesWeightsAndNetworkUntouched)
{
    Rng rng(55);
    nn::Network net;
    auto &conv = net.emplace<nn::Conv2D>("c", 3, 6, 3, 1, 1, rng);
    conv.bias().fillUniform(rng, -0.2f, 0.2f);
    auto &bn = net.emplace<nn::BatchNorm2D>("b", 6);
    randomizeBn(bn, rng);

    const Tensor w_before = conv.weight();
    Tensor x({2, 3, 8, 8});
    x.fillUniform(rng, -1.0f, 1.0f);
    const Tensor ref = net.forward(x, false);

    auto g = compile::lowerNetwork(net);
    EXPECT_EQ(
        compile::foldBatchNorm(g, compile::FoldMode::DigitalScale), 1);
    // Weights, bias and BN parameters are untouched; the network's
    // eval forward is unchanged.
    EXPECT_TRUE(conv.weight().equals(w_before));
    EXPECT_TRUE(ref.equals(net.forward(x, false)));

    // The conv node carries the fold in its digital output stage.
    bool found = false;
    for (int id = 0; id < g.capacity(); ++id) {
        if (!g.alive(id) || g.node(id).op != compile::Op::Conv)
            continue;
        found = true;
        const compile::Node &n = g.node(id);
        ASSERT_EQ(n.outScale.size(), 6u);
        ASSERT_EQ(n.outBias.size(), 6u);
        for (int oc = 0; oc < 6; ++oc) {
            const float sigma =
                std::sqrt(bn.runningVar().at(oc) + bn.eps());
            const float s = bn.gamma().at(oc) / sigma;
            EXPECT_FLOAT_EQ(n.outScale[static_cast<size_t>(oc)], s);
            EXPECT_FLOAT_EQ(
                n.outBias[static_cast<size_t>(oc)],
                s * (conv.bias().at(oc) - bn.runningMean().at(oc)) +
                    bn.beta().at(oc));
        }
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(g.size(), 2u);   // BN node bypassed
}

TEST(FoldBatchNorm, SkipsBnWithoutPrivateConvProducer)
{
    Rng rng(31);
    nn::Network net;
    // BN directly on the input: no conv producer, must be left alone.
    net.emplace<nn::BatchNorm2D>("bn_in", 3);
    net.emplace<nn::Conv2D>("c", 3, 4, 3, 1, 1, rng);
    auto g = compile::lowerNetwork(net);
    EXPECT_EQ(compile::foldBatchNorm(g), 0);
    EXPECT_EQ(g.size(), 3u);
}

/** Near-lossless engine: the only error left is BN-fold algebra. */
sim::RuntimeConfig
preciseConfig()
{
    sim::RuntimeConfig cfg;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 12;
    cfg.engine.adcBits = 0;   // lossless conversion
    return cfg;
}

TEST(FoldBatchNorm, BnFeedingResidualAddJoinStillFolds)
{
    // The zoo always puts a ReLU after the join, but nothing requires
    // it: a BN whose *consumer* is an Add join must still fold into
    // its producing conv (the fold condition is about the producer).
    Rng rng(71);
    nn::Network net;
    auto &convA = net.emplace<nn::Conv2D>("convA", 3, 6, 3, 1, 1, rng);
    auto &bnA = net.emplace<nn::BatchNorm2D>("bnA", 6);
    auto &convB = net.emplace<nn::Conv2D>("convB", 3, 6, 3, 1, 1, rng);
    convA.bias().fillUniform(rng, -0.2f, 0.2f);
    convB.bias().fillUniform(rng, -0.2f, 0.2f);
    randomizeBn(bnA, rng);

    // Hand-built DAG: add(bn(convA(x)), convB(x)) — the BN feeds the
    // join directly.
    compile::Graph g;
    const int in = g.addNode(compile::Op::Input, "input", {});
    const int a = g.addNode(compile::Op::Conv, "convA", {in});
    g.node(a).conv = &convA;
    const int b = g.addNode(compile::Op::BatchNorm, "bnA", {a});
    g.node(b).bn = &bnA;
    const int cB = g.addNode(compile::Op::Conv, "convB", {in});
    g.node(cB).conv = &convB;
    const int add = g.addNode(compile::Op::Add, "join", {b, cB});
    g.setOutput(add);
    g.inferShapes({3, 8, 8});

    // Compress first, then fold into the digital output stage: the
    // post-compression deployment order (DESIGN.md §4).
    auto states = sim::snapshotCompress(net, 8, 8);
    compile::Graph unfolded = g;   // BN executes functionally here
    ASSERT_EQ(compile::foldBatchNorm(
                  g, compile::FoldMode::DigitalScale), 1);
    EXPECT_EQ(g.size(), 4u);
    EXPECT_EQ(g.node(add).inputs[0], a);   // join rewired to the conv
    ASSERT_EQ(g.node(a).outScale.size(), 6u);

    // Folded and unfolded graphs agree on the crossbars (identical
    // programmed weights; the digital affine replays the BN algebra).
    Rng xrng(72);
    Tensor x({2, 3, 8, 8});
    x.fillUniform(xrng, 0.0f, 1.0f);
    sim::PipelineRuntime rt_folded(g, states, preciseConfig());
    sim::PipelineRuntime rt_unfolded(unfolded, states, preciseConfig());
    const Tensor yf = rt_folded.forward(x);
    const Tensor yu = rt_unfolded.forward(x);
    const float tol = 1e-4f * std::max(1.0f, yu.maxAbs());
    expectClose(yu, yf, tol);
}

TEST(FoldBatchNorm, IdentityShortcutBlockFoldsBothBns)
{
    // Identity-shortcut residual block (no projection): bn2 feeds the
    // Add join against the raw block input. Both BNs must fold, in
    // either mode, and the Add's right operand must stay the input.
    Rng rng(81);
    nn::Network net;
    net.emplace<nn::Conv2D>("stem", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("stem_relu");
    net.emplace<nn::ResidualBlock>("blk", 8, 8, 1, rng);
    Rng brng(82);
    for (size_t i = 0; i < net.size(); ++i) {
        if (auto *res =
                dynamic_cast<nn::ResidualBlock *>(&net.layer(i))) {
            for (const auto &sub : res->mainPath())
                if (auto *bn = dynamic_cast<nn::BatchNorm2D *>(sub.get()))
                    randomizeBn(*bn, brng);
            EXPECT_TRUE(res->shortcutPath().empty());
        }
    }

    for (const auto mode : {compile::FoldMode::Weights,
                            compile::FoldMode::DigitalScale}) {
        auto g = compile::lowerNetwork(net);
        const int folded = compile::foldBatchNorm(g, mode);
        EXPECT_EQ(folded, 2) << "mode " << static_cast<int>(mode);
        for (int id = 0; id < g.capacity(); ++id) {
            if (!g.alive(id) || g.node(id).op != compile::Op::Add)
                continue;
            // Left operand: the main path's conv2 (bn2 bypassed);
            // right operand: the identity shortcut — the stem relu.
            EXPECT_EQ(g.node(g.node(id).inputs[0]).name, "blk.conv2");
            EXPECT_EQ(g.node(g.node(id).inputs[1]).name, "stem_relu");
        }
    }
}

TEST(FoldBatchNorm, WeightsVsDigitalScaleAgreeOnIdentityShortcutBlock)
{
    // The two fold targets run at different pipeline points (weights
    // before compression, digital stage after), so build the same
    // network twice from the same seed and push each copy through its
    // own deployment order; both must land near the FP reference.
    auto build = [](nn::Network &net) {
        Rng rng(91);
        net.emplace<nn::Conv2D>("stem", 3, 8, 3, 1, 1, rng);
        net.emplace<nn::ReLU>("stem_relu");
        net.emplace<nn::ResidualBlock>("blk", 8, 8, 1, rng);
        net.emplace<nn::ResidualBlock>("blk2", 8, 16, 2, rng);
        Rng brng(92);
        for (size_t i = 0; i < net.size(); ++i)
            if (auto *res =
                    dynamic_cast<nn::ResidualBlock *>(&net.layer(i))) {
                for (const auto &sub : res->mainPath())
                    if (auto *bn =
                            dynamic_cast<nn::BatchNorm2D *>(sub.get()))
                        randomizeBn(*bn, brng);
                for (const auto &sub : res->shortcutPath())
                    if (auto *bn =
                            dynamic_cast<nn::BatchNorm2D *>(sub.get()))
                        randomizeBn(*bn, brng);
            }
    };
    nn::Network net_w, net_d;
    build(net_w);
    build(net_d);

    Rng xrng(93);
    Tensor x({2, 3, 12, 12});
    x.fillUniform(xrng, 0.0f, 1.0f);
    const Tensor ref = net_w.forward(x, false);
    ASSERT_TRUE(ref.equals(net_d.forward(x, false)));   // same seed

    // Weights mode: fold, then compress the folded weights.
    auto g_w = compile::lowerNetwork(net_w);
    EXPECT_EQ(compile::foldBatchNorm(g_w, compile::FoldMode::Weights),
              5);
    auto states_w = sim::snapshotCompress(net_w, 8, 8);
    sim::PipelineRuntime rt_w(g_w, states_w, preciseConfig());
    const Tensor y_w = rt_w.forward(x);

    // DigitalScale mode: compress first, then fold into the stage.
    auto states_d = sim::snapshotCompress(net_d, 8, 8);
    auto g_d = compile::lowerNetwork(net_d);
    EXPECT_EQ(
        compile::foldBatchNorm(g_d, compile::FoldMode::DigitalScale),
        5);
    sim::PipelineRuntime rt_d(g_d, states_d, preciseConfig());
    const Tensor y_d = rt_d.forward(x);

    // The two fold targets must agree with each other: identical sign
    // structure survives the per-channel rescaling (gamma/sigma > 0),
    // so the only divergence left is each layer's magnitude grid
    // being fit to folded vs unfolded weights.
    const float tol =
        0.08f * std::max(1.0f, std::max(y_w.maxAbs(), y_d.maxAbs()));
    expectClose(y_w, y_d, tol);
}

TEST(GraphIr, DumpIsGoldenStableAndRoundTripsInScale)
{
    // Hand-built DAG with a multi-consumer ("replicated path") value:
    // the relu feeds both operands of the join, like a shortcut edge.
    compile::Graph g;
    const int in = g.addNode(compile::Op::Input, "in", {});
    const int relu = g.addNode(compile::Op::Relu, "relu", {in});
    const int join = g.addNode(compile::Op::Add, "join", {relu, relu});
    const int out = g.addNode(compile::Op::Relu, "out", {join});
    g.setOutput(out);
    g.inferShapes({2, 4, 4});

    // Two distinct float32 scales that 6-significant-digit %g would
    // print identically ("1"): the dump must keep them apart.
    g.node(relu).inScale = 1.0f;
    g.node(join).inScale = 1.00000012f;   // 1 + 2^-23, nextafter(1)

    const std::string expected =
        "  0 input     in               <-  [2, 4, 4]\n"
        "  1 relu      relu             <- 0  [2, 4, 4]"
        "  in_scale=1\n"
        "  2 add       join             <- 1 1  [2, 4, 4]"
        "  in_scale=1.00000012\n"
        "  3 relu      out              <- 2  [2, 4, 4]  (output)\n";
    EXPECT_EQ(g.dump(), expected);
    // Deterministic: a second dump is byte-identical.
    EXPECT_EQ(g.dump(), expected);
}

TEST(GraphIr, BypassRewiresConsumersAndOutput)
{
    Rng rng(41);
    nn::Network net;
    net.emplace<nn::Conv2D>("c", 1, 2, 3, 1, 1, rng);
    auto &bn = net.emplace<nn::BatchNorm2D>("b", 2);
    (void)bn;
    auto g = compile::lowerNetwork(net);
    const int out_before = g.output();
    g.bypass(out_before);   // the BN node is the output
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(g.node(g.output()).name, "c");
    EXPECT_TRUE(g.consumers(g.output()).empty());
}

} // namespace
} // namespace forms
