/**
 * @file
 * Randomized cross-runtime determinism harness: a seeded generator
 * builds random layer graphs (conv/BN/relu stacks, residual blocks
 * with identity and projection shortcuts, pooling), folds BN in a
 * randomly chosen mode, optionally calibrates a static activation
 * scale, and cross-checks the single-chip runtime against pipelines —
 * random thread counts, chip counts, micro-batch sizes,
 * stage-replication factors (random replicateThreshold/maxReplicas,
 * so heavy nodes spread across several replica chips) — for
 * bitwise-identical logits and per-node EngineStats, with
 * ADC quantization, device variation and read noise all enabled
 * (DESIGN.md §3–§5). A serving axis additionally replays a subset of
 * graphs through serve::Server — random arrival orders and batch
 * deadlines — and requires every dynamically batched response to
 * reproduce the offline logits bitwise (docs/SERVING.md). An EIC axis
 * re-partitions every calibrated graph under WorkModel::EicTime with
 * the measured bit densities attached, pinning the contract that the
 * zero-skip timing model moves only modeled time, never numerics
 * (docs/SCHEDULING.md). An ideal-device axis re-runs a subset with
 * integer conductance levels and noiseless reads, so the engine's
 * exact-integer path holds the same contracts. Hand-picked networks
 * only cover the topologies someone thought of; the fuzz covers the
 * ones nobody did.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>

#include "compile/calibration.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "reram/faults.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/calibrator.hh"
#include "sim/pipeline_runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

constexpr int kGraphs = 20;      //!< general random DAGs
constexpr int kStemGraphs = 6;   //!< stem-dominated nets (replication)
constexpr int kHw = 12;          //!< input spatial extent

/** Nontrivial BN parameters everywhere (folding must do real work). */
void
randomizeBn(nn::Layer &l, Rng &rng)
{
    if (auto *bn = dynamic_cast<nn::BatchNorm2D *>(&l)) {
        bn->gamma().fillUniform(rng, 0.5f, 1.5f);
        bn->beta().fillUniform(rng, -0.5f, 0.5f);
        bn->runningMean().fillUniform(rng, -0.3f, 0.3f);
        bn->runningVar().fillUniform(rng, 0.25f, 2.0f);
    } else if (auto *res = dynamic_cast<nn::ResidualBlock *>(&l)) {
        for (const auto &sub : res->mainPath())
            randomizeBn(*sub, rng);
        for (const auto &sub : res->shortcutPath())
            randomizeBn(*sub, rng);
    }
}

/**
 * Random conv/residual/pool network for a kHw x kHw 3-channel input.
 * Spatial extent is tracked so every layer stays well-formed; strided
 * ops only fire on even extents >= 8, keeping the dense head's input
 * consistent by construction.
 */
std::unique_ptr<nn::Network>
makeRandomNet(Rng &rng, int *classes_out)
{
    auto net = std::make_unique<nn::Network>();
    int hw = kHw;
    int c = 4 + 4 * static_cast<int>(rng.below(2));   // 4 or 8
    int idx = 0;
    auto name = [&](const char *p) { return strfmt("%s%d", p, idx++); };

    net->emplace<nn::Conv2D>("stem", 3, c, 3, 1, 1, rng);
    if (rng.bernoulli(0.5))
        net->emplace<nn::BatchNorm2D>("stem_bn", c);
    net->emplace<nn::ReLU>("stem_relu");

    const int segments = 2 + static_cast<int>(rng.below(3));
    for (int s = 0; s < segments; ++s) {
        const bool can_stride = hw >= 8 && hw % 2 == 0;
        switch (rng.below(4)) {
        case 0: {
            // Residual block: channel growth or a stride forces a
            // projection shortcut; matching shapes keep the identity
            // shortcut.
            const int out_c =
                (c <= 8 && rng.bernoulli(0.4)) ? c * 2 : c;
            const int stride =
                (can_stride && rng.bernoulli(0.3)) ? 2 : 1;
            net->emplace<nn::ResidualBlock>(name("blk"), c, out_c,
                                            stride, rng);
            c = out_c;
            if (stride == 2)
                hw /= 2;
            break;
        }
        case 1:
            net->emplace<nn::Conv2D>(name("conv"), c, c, 3, 1, 1, rng);
            if (rng.bernoulli(0.5))
                net->emplace<nn::BatchNorm2D>(name("bn"), c);
            net->emplace<nn::ReLU>(name("relu"));
            break;
        case 2:
            if (can_stride) {
                net->emplace<nn::MaxPool2D>(name("maxpool"), 2, 2);
                hw /= 2;
            }
            break;
        case 3:
            if (can_stride) {
                net->emplace<nn::AvgPool2D>(name("avgpool"), 2, 2);
                hw /= 2;
            }
            break;
        }
    }

    *classes_out = 2 + static_cast<int>(rng.below(3));
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Dense>("fc", c * hw * hw, *classes_out, rng);

    Rng brng(rng.next());
    for (size_t i = 0; i < net->size(); ++i)
        randomizeBn(net->layer(i), brng);
    return net;
}

/**
 * Stem-dominated net: one wide stem conv over the full extent, then a
 * cheap tail — the stem carries several times the ideal per-chip work
 * share, so Schedule::partition provably cannot balance it with
 * contiguous cuts and chooses a replicated stage instead. The general
 * generator above almost never produces this shape (its work is too
 * uniform), so replication gets its own pool of graphs.
 */
std::unique_ptr<nn::Network>
makeStemHeavyNet(Rng &rng, int *classes_out)
{
    auto net = std::make_unique<nn::Network>();
    const int c = 12 + 4 * static_cast<int>(rng.below(3));  // 12/16/20
    net->emplace<nn::Conv2D>("stem", 3, c, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("stem_relu");
    net->emplace<nn::MaxPool2D>("pool", 2, 2);
    int tail_c = c;
    if (rng.bernoulli(0.5)) {
        tail_c = 4;
        net->emplace<nn::Conv2D>("mid", c, tail_c, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("mid_relu");
    }
    *classes_out = 2 + static_cast<int>(rng.below(3));
    net->emplace<nn::Flatten>("flat");
    const int hw = kHw / 2;
    net->emplace<nn::Dense>("fc", tail_c * hw * hw, *classes_out, rng);
    return net;
}

/** ADC quantization + device variation + read noise all on. */
sim::RuntimeConfig
noisyConfig(ThreadPool *pool)
{
    sim::RuntimeConfig cfg;
    cfg.mapping.xbarRows = 64;
    cfg.mapping.xbarCols = 64;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = 3;
    cfg.engine.cell.variationSigma = 0.1;
    cfg.engine.readNoiseSigma = 0.02;
    cfg.pool = pool;
    return cfg;
}

TEST(CrossRuntimeFuzz, GraphAndPipelineRuntimesAgreeBitwise)
{
    int residual_graphs = 0, static_graphs = 0, replicated_graphs = 0;
    int eic_graphs = 0;
    int fault_perturbed = 0, fault_exposed = 0;
    for (int g = 0; g < kGraphs + kStemGraphs; ++g) {
        Rng rng(9000 + 13 * static_cast<uint64_t>(g));
        SCOPED_TRACE("fuzz graph " + std::to_string(g));

        const bool stem_heavy = g >= kGraphs;
        int classes = 0;
        auto net = stem_heavy ? makeStemHeavyNet(rng, &classes)
                              : makeRandomNet(rng, &classes);
        auto graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, kHw, kHw});

        // Alternate the fold target so both the rewritten-weights and
        // the digital-output-stage paths are fuzzed.
        const auto mode = g % 2 == 0 ? compile::FoldMode::Weights
                                     : compile::FoldMode::DigitalScale;
        compile::foldBatchNorm(graph, mode);
        auto states = sim::snapshotCompress(*net, 8, 8);

        for (int id = 0; id < graph.capacity(); ++id)
            if (graph.alive(id) &&
                graph.node(id).op == compile::Op::Add) {
                ++residual_graphs;
                break;
            }

        Tensor batch({2, 3, kHw, kHw});
        batch.fillUniform(rng, 0.0f, 1.0f);

        // Every third graph deploys a calibrated static scale, attached
        // to the graph (with its measured bit densities) before any
        // runtime borrows it.
        const bool use_static = g % 3 == 0;
        ThreadPool ref_pool(1 + static_cast<int>(rng.below(4)));
        sim::RuntimeConfig rcfg = noisyConfig(&ref_pool);
        if (use_static) {
            ++static_graphs;
            sim::CalibratorConfig ccfg;
            ccfg.policy = rng.bernoulli(0.5)
                ? sim::CalibPolicy::AbsMax
                : sim::CalibPolicy::Percentile;
            compile::CalibrationTable table;
            {
                sim::Calibrator cal(graph, states, rcfg, ccfg);
                cal.observe(batch);
                table = cal.table();
            }
            table.attachTo(graph);
            rcfg.scaleMode = arch::ScaleMode::Static;
        }

        sim::PipelineRuntime gr(graph, states, rcfg);
        sim::RuntimeReport grep;
        const Tensor ref = gr.forward(batch, &grep);

        // Odd and stem-heavy graphs fuzz stage replication: at least
        // 2 chips, an aggressive threshold and a random replica cap,
        // so heavy nodes spread across 2-4 replica chips with
        // presentation-sliced micro-batches.
        const bool fuzz_replication = g % 2 == 1 || stem_heavy;
        const int chips = fuzz_replication
            ? 2 + static_cast<int>(rng.below(3))
            : 1 + static_cast<int>(rng.below(4));
        const int micro_batch = 1 + static_cast<int>(rng.below(3));
        ThreadPool pipe_pool(1 + static_cast<int>(rng.below(8)));
        compile::ScheduleConfig scfg;
        scfg.chips = chips;
        if (fuzz_replication) {
            scfg.replicateThreshold =
                0.1 + 0.2 * static_cast<double>(rng.below(3));
            scfg.maxReplicas = 2 + static_cast<int>(rng.below(3));
        }
        auto sched = compile::Schedule::partition(graph, scfg);
        const bool replicated = sched.replicated();
        replicated_graphs += replicated;
        sim::PipelineRuntimeConfig pcfg;
        pcfg.runtime = rcfg;
        pcfg.runtime.pool = &pipe_pool;
        pcfg.microBatch = micro_batch;
        sim::PipelineRuntime pr(graph, std::move(sched), states, pcfg);
        sim::PipelineReport prep;
        const Tensor got = pr.forward(batch, &prep);

        EXPECT_TRUE(got.equals(ref))
            << "logits diverge: chips=" << chips
            << " microBatch=" << micro_batch
            << " static=" << use_static
            << " replicated=" << replicated << "\n" << graph.dump();
        ASSERT_EQ(prep.nodes.layers.size(), grep.layers.size());
        for (size_t i = 0; i < grep.layers.size(); ++i) {
            EXPECT_EQ(prep.nodes.layers[i].name, grep.layers[i].name);
            expectStatsIdentical(prep.nodes.layers[i].stats,
                                 grep.layers[i].stats);
        }
        EXPECT_EQ(prep.nodes.presentations, grep.presentations);

        // EIC-timing axis: re-partition under WorkModel::EicTime with
        // the calibrated bit densities attached above — the
        // annotations move only modeled time, so even when the
        // zero-skip-aware DP picks a different partition the logits
        // and per-node stats must stay bitwise identical to the
        // reference.
        if (use_static) {
            ++eic_graphs;
            bool stamped = false;
            for (int id = 0; id < graph.capacity(); ++id)
                if (graph.alive(id) &&
                    graph.node(id).eicDensity > 0.0f)
                    stamped = true;
            EXPECT_TRUE(stamped)
                << "calibration left no EIC density on the graph";
            compile::ScheduleConfig ecfg = scfg;
            ecfg.workModel = compile::WorkModel::EicTime;
            sim::PipelineRuntime epr(
                graph, compile::Schedule::partition(graph, ecfg),
                states, pcfg);
            sim::PipelineReport erep;
            const Tensor eic_logits = epr.forward(batch, &erep);
            EXPECT_TRUE(eic_logits.equals(ref))
                << "EIC-aware schedule changed the numerics: chips="
                << chips << " microBatch=" << micro_batch << "\n"
                << graph.dump();
            ASSERT_EQ(erep.nodes.layers.size(), grep.layers.size());
            for (size_t i = 0; i < grep.layers.size(); ++i)
                expectStatsIdentical(erep.nodes.layers[i].stats,
                                     grep.layers[i].stats);
        }

        // Fault axis: the same DAG re-programmed under a seeded fault
        // map — stuck cells, drifted devices AND killed columns
        // repaired from a generous spare budget — stays a pure
        // function of (seed, faultKey, physId): the single-chip and
        // pipelined runtimes must agree bitwise on logits and per-node
        // stats, faults, remap and all (reram/faults.hh).
        {
            reram::FaultConfig fltc;
            fltc.stuckLrsRate = 0.005;
            fltc.stuckHrsRate = 0.005;
            fltc.driftRate = 0.01;
            fltc.columnKillRate = 0.001;
            fltc.seed = 5000 + static_cast<uint64_t>(g);
            reram::FaultMap fmap(fltc);

            sim::RuntimeConfig fcfg = rcfg;
            fcfg.faults = &fmap;
            fcfg.remapFaults = true;
            fcfg.mapping.spareXbars = 12;
            sim::PipelineRuntime fgr(graph, states, fcfg);
            sim::RuntimeReport fgrep;
            const Tensor fref = fgr.forward(batch, &fgrep);
            fault_perturbed += !fref.equals(ref);

            auto fsched = compile::Schedule::partition(graph, scfg);
            sim::PipelineRuntimeConfig fpcfg = pcfg;
            fpcfg.runtime.faults = &fmap;
            fpcfg.runtime.remapFaults = true;
            fpcfg.runtime.mapping.spareXbars = 12;
            sim::PipelineRuntime fpr(graph, std::move(fsched), states,
                                     fpcfg);
            sim::PipelineReport fprep;
            const Tensor fgot = fpr.forward(batch, &fprep);
            fault_exposed += fprep.faultyCrossbars > 0;

            EXPECT_TRUE(fgot.equals(fref))
                << "faulted logits diverge: chips=" << chips
                << " microBatch=" << micro_batch
                << " replicated=" << replicated << "\n" << graph.dump();
            ASSERT_EQ(fprep.nodes.layers.size(), fgrep.layers.size());
            for (size_t i = 0; i < fgrep.layers.size(); ++i)
                expectStatsIdentical(fprep.nodes.layers[i].stats,
                                     fgrep.layers[i].stats);
        }

        // Observer axis: the same pipeline with a trace session and a
        // metrics registry attached must produce bit-identical logits
        // and per-node stats — installing observation changes nothing
        // about the computation (docs/OBSERVABILITY.md).
        if (g % 2 == 0 || stem_heavy) {
            auto sched2 = compile::Schedule::partition(graph, scfg);
            obs::TraceSession session;
            session.install();
            obs::MetricsRegistry metrics;
            sim::PipelineRuntimeConfig ocfg = pcfg;
            ocfg.trace = &session;
            ocfg.runtime.metrics = &metrics;
            sim::PipelineRuntime opr(graph, std::move(sched2), states,
                                     ocfg);
            sim::PipelineReport orep;
            const Tensor observed = opr.forward(batch, &orep);
            session.uninstall();

            EXPECT_TRUE(observed.equals(got))
                << "tracing perturbed the logits: chips=" << chips
                << " microBatch=" << micro_batch;
            ASSERT_EQ(orep.nodes.layers.size(),
                      prep.nodes.layers.size());
            for (size_t i = 0; i < prep.nodes.layers.size(); ++i)
                expectStatsIdentical(orep.nodes.layers[i].stats,
                                     prep.nodes.layers[i].stats);
            // ...and the observers actually observed something.
            EXPECT_FALSE(session.events().empty());
            EXPECT_FALSE(metrics.snapshot().counters.empty());
        }

        // Serving axis: the same images served one at a time through
        // a dynamically batching server — random arrival order,
        // random batch deadline, random maxBatch — must reproduce the
        // offline reference logits bitwise. Request i is keyed by its
        // batch row (the ids the fresh offline runtime assigned), so
        // every response row must equal the reference row no matter
        // how the server composed its batches (docs/SERVING.md).
        if (g % 4 == 1 || stem_heavy) {
            auto sched3 = compile::Schedule::partition(graph, scfg);
            sim::PipelineRuntime spr(graph, std::move(sched3), states,
                                     pcfg);
            serve::PipelineBackend backend(spr);
            serve::ServerConfig ssc;
            ssc.maxBatch = 1 + static_cast<int>(rng.below(3));
            ssc.maxDelayUs =
                static_cast<int64_t>(rng.below(3)) * 200;
            serve::Server server(backend, ssc);

            const int64_t n = batch.dim(0);
            const int64_t elems = batch.numel() / n;
            const int64_t out_elems = ref.numel() / n;
            std::vector<int64_t> order(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i)
                order[static_cast<size_t>(i)] = i;
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);

            std::vector<std::future<serve::Response>> futs(
                static_cast<size_t>(n));
            Shape sample_shape(batch.shape().begin() + 1,
                               batch.shape().end());
            for (int64_t j = 0; j < n; ++j) {
                const int64_t i = order[static_cast<size_t>(j)];
                Tensor img(sample_shape);
                std::memcpy(img.data(), batch.data() + i * elems,
                            static_cast<size_t>(elems) *
                                sizeof(float));
                futs[static_cast<size_t>(i)] = server.submit(
                    std::move(img), static_cast<uint64_t>(i));
            }
            for (int64_t i = 0; i < n; ++i) {
                serve::Response r =
                    futs[static_cast<size_t>(i)].get();
                ASSERT_EQ(r.status, serve::Status::Ok);
                ASSERT_EQ(r.logits.numel(), out_elems);
                EXPECT_EQ(0, std::memcmp(r.logits.data(),
                                         ref.data() + i * out_elems,
                                         static_cast<size_t>(out_elems) *
                                             sizeof(float)))
                    << "served logits diverge from offline reference: "
                    << "request " << i << " maxBatch=" << ssc.maxBatch
                    << " maxDelayUs=" << ssc.maxDelayUs << "\n"
                    << graph.dump();
            }
        }
    }
    // The generator must actually exercise the interesting paths.
    EXPECT_GE(residual_graphs, 5);
    EXPECT_GE(static_graphs, 6);
    EXPECT_GE(replicated_graphs, 4);
    EXPECT_GE(eic_graphs, 6);
    // The fault maps must actually bite: nearly every graph should
    // see perturbed logits and report faulted crossbars.
    EXPECT_GE(fault_perturbed, 20);
    EXPECT_GE(fault_exposed, 20);
}

/**
 * Ideal-device axis: every graph above runs noisyConfig(), whose
 * non-integer levels keep the engine on its general path. Re-run a
 * subset with ideal devices and noiseless reads, so the exact-integer
 * path (nibble planes + ADC code table) must hold the same contracts:
 * random thread counts, micro-batches, chip counts and replicas, then
 * stuck-at and dead-column faults (which keep levels integer) with
 * spare remap.
 */
TEST(CrossRuntimeFuzz, IdealDevicesAgreeBitwise)
{
    int replicated_graphs = 0, fault_exposed = 0;
    for (int g = 0; g < kGraphs + kStemGraphs; g += 3) {
        Rng rng(7100 + 17 * static_cast<uint64_t>(g));
        SCOPED_TRACE("ideal fuzz graph " + std::to_string(g));

        const bool stem_heavy = g >= kGraphs;
        int classes = 0;
        auto net = stem_heavy ? makeStemHeavyNet(rng, &classes)
                              : makeRandomNet(rng, &classes);
        auto graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, kHw, kHw});
        compile::foldBatchNorm(graph, compile::FoldMode::Weights);
        auto states = sim::snapshotCompress(*net, 8, 8);
        Tensor batch({2, 3, kHw, kHw});
        batch.fillUniform(rng, 0.0f, 1.0f);

        ThreadPool ref_pool(1 + static_cast<int>(rng.below(4)));
        sim::RuntimeConfig rcfg = noisyConfig(&ref_pool);
        rcfg.engine.cell.variationSigma = 0.0;
        rcfg.engine.readNoiseSigma = 0.0;

        compile::ScheduleConfig scfg;
        scfg.chips = 2 + static_cast<int>(rng.below(3));
        scfg.replicateThreshold =
            0.1 + 0.2 * static_cast<double>(rng.below(3));
        scfg.maxReplicas = 2 + static_cast<int>(rng.below(3));
        ThreadPool pipe_pool(1 + static_cast<int>(rng.below(8)));
        const int micro_batch = 1 + static_cast<int>(rng.below(3));

        reram::FaultConfig fltc;
        fltc.stuckLrsRate = 0.005;
        fltc.stuckHrsRate = 0.005;
        fltc.columnKillRate = 0.001;
        fltc.seed = 6000 + static_cast<uint64_t>(g);
        const reram::FaultMap fmap(fltc);

        for (bool faulted : {false, true}) {
            SCOPED_TRACE(faulted ? "stuck/dead faults" : "fault-free");
            sim::RuntimeConfig cfg = rcfg;
            if (faulted) {
                cfg.faults = &fmap;
                cfg.remapFaults = true;
                cfg.mapping.spareXbars = 12;
            }
            sim::PipelineRuntime gr(graph, states, cfg);
            sim::RuntimeReport grep;
            const Tensor ref = gr.forward(batch, &grep);

            auto sched = compile::Schedule::partition(graph, scfg);
            replicated_graphs += !faulted && sched.replicated();
            sim::PipelineRuntimeConfig pcfg;
            pcfg.runtime = cfg;
            pcfg.runtime.pool = &pipe_pool;
            pcfg.microBatch = micro_batch;
            sim::PipelineRuntime pr(graph, std::move(sched), states, pcfg);
            sim::PipelineReport prep;
            const Tensor got = pr.forward(batch, &prep);
            fault_exposed += faulted && prep.faultyCrossbars > 0;

            EXPECT_TRUE(got.equals(ref))
                << "logits diverge: chips=" << scfg.chips
                << " microBatch=" << micro_batch << "\n" << graph.dump();
            ASSERT_EQ(prep.nodes.layers.size(), grep.layers.size());
            for (size_t i = 0; i < grep.layers.size(); ++i)
                expectStatsIdentical(prep.nodes.layers[i].stats,
                                     grep.layers[i].stats);
        }
    }
    EXPECT_GE(replicated_graphs, 2);
    EXPECT_GE(fault_exposed, 6);
}

} // namespace
} // namespace forms
