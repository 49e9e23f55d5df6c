/**
 * @file
 * Scenario: a reliability engineer checks how a compressed model
 * tolerates analog non-idealities before deployment — sweeping the
 * log-normal programming variation (the paper's §V-E question) and,
 * on the same compiled model, layering the hard-fault taxonomy of
 * reram/faults.hh on top: stuck/drifted cells that degrade in place,
 * and killed bitline columns that the spare-crossbar remap pass
 * (arch/remap.hh) repairs exactly.
 *
 * Runs on the compiled single-chip PipelineRuntime path — the same
 * lower + BN-fold + snapshotCompress pipeline the benches and the
 * serving stack use — so every knob here (variation sigma, fault rates,
 * spare budget) is the exact knob a deployment would set
 * (docs/RESILIENCE.md).
 */

#include <cstdio>

#include "admm/compressor.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"
#include "reram/faults.hh"
#include "sim/pipeline_runtime.hh"

using namespace forms;
using namespace forms::sim;

namespace {

RuntimeConfig
baseConfig(double sigma)
{
    RuntimeConfig cfg;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = 4;
    cfg.engine.cell.variationSigma = sigma;
    return cfg;
}

} // namespace

int
main()
{
    nn::DatasetConfig dcfg = nn::DatasetConfig::cifar10Like(23);
    dcfg.trainPerClass = 16;
    dcfg.testPerClass = 6;
    dcfg.nonneg = true;
    nn::SyntheticImageDataset data(dcfg);

    std::printf("device variation + hard faults on ResNet (scaled), "
                "CIFAR-10-like task, compiled GraphRuntime path\n");

    // Train and ADMM-compress once; every configuration below
    // programs the same weights.
    Rng rng(88);
    auto net = nn::buildResNetSmall(rng, dcfg.classes, 8, 1);
    nn::TrainConfig tcfg;
    tcfg.epochs = 4;
    tcfg.batchSize = 16;
    tcfg.seed = 89;
    nn::Trainer trainer(*net, data, tcfg);
    const double fp_acc = trainer.run().testAccuracy;

    admm::AdmmConfig acfg;
    acfg.fragSize = 8;
    acfg.policy = admm::PolarizationPolicy::CMajor;
    acfg.xbarDim = 16;
    acfg.filterKeep = 0.7;
    acfg.shapeKeep = 0.7;
    acfg.quantBits = 8;
    acfg.admmEpochsPerPhase = 1;
    acfg.finetuneEpochs = 2;
    admm::AdmmCompressor comp(*net, data, acfg);
    comp.run();
    auto &states = comp.layers();

    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({dcfg.channels, dcfg.height, dcfg.width});
    compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale);

    const Tensor &test = data.test().images;
    const std::vector<int> &labels = data.test().labels;

    // Shared fault knobs: an aged-device map (stuck + drift, which
    // remap deliberately leaves in place) and a dead-bitline map
    // (column-kill, the class the spare budget repairs).
    reram::FaultConfig aged;
    aged.stuckLrsRate = 0.005;
    aged.stuckHrsRate = 0.005;
    aged.driftRate = 0.01;
    reram::FaultMap aged_map(aged);

    reram::FaultConfig dead;
    dead.columnKillRate = 1e-3;
    reram::FaultMap dead_map(dead);

    Table t({"Sigma", "Clean (%)", "Aged cells (%)",
             "Dead cols (%)", "Dead cols + remap (%)"});
    for (double sigma : {0.0, 0.05, 0.1, 0.2}) {
        PipelineRuntime clean(graph, states, baseConfig(sigma));

        RuntimeConfig acfg_rt = baseConfig(sigma);
        acfg_rt.faults = &aged_map;
        PipelineRuntime aged_rt(graph, states, acfg_rt);

        RuntimeConfig dcfg_rt = baseConfig(sigma);
        dcfg_rt.faults = &dead_map;
        PipelineRuntime dead_rt(graph, states, dcfg_rt);

        RuntimeConfig rcfg_rt = dcfg_rt;
        rcfg_rt.remapFaults = true;
        rcfg_rt.mapping.spareXbars = 32;
        PipelineRuntime remap_rt(graph, states, rcfg_rt);

        t.row().cell(sigma, 2)
            .cell(clean.accuracy(test, labels) * 100.0, 1)
            .cell(aged_rt.accuracy(test, labels) * 100.0, 1)
            .cell(dead_rt.accuracy(test, labels) * 100.0, 1)
            .cell(remap_rt.accuracy(test, labels) * 100.0, 1);
    }
    t.print(strfmt("Accuracy vs variation and faults (FP acc %.1f%%, "
                   "%d test images)", fp_acc * 100.0,
                   static_cast<int>(test.dim(0))));

    std::printf("\nReading: polarization keeps the signs digital, so "
                "variation and aged cells degrade gracefully; dead "
                "columns lose whole output slices until the remap "
                "pass reroutes the affected tiles onto spares — with "
                "enough spares the last column matches the clean one "
                "bit for bit (docs/RESILIENCE.md).\n");
    return 0;
}
