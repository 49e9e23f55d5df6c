/**
 * @file
 * FORMS quickstart: the whole pipeline on one page.
 *
 *   1. train a small CNN on a synthetic dataset,
 *   2. compress it with ADMM (crossbar-aware pruning, fragment
 *      polarization, ReRAM-customized quantization),
 *   3. map the compressed weights onto simulated ReRAM crossbars
 *      (magnitudes only + 1R sign indicator),
 *   4. execute a matrix-vector product in-situ with bit-serial inputs
 *      and zero-skipping, and verify against the digital reference.
 */

#include <cstdio>

#include "arch/engine.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"

using namespace forms;

int
main()
{
    // ---- 1. data + training ----------------------------------------
    nn::DatasetConfig dcfg;
    dcfg.classes = 4;
    dcfg.channels = 1;
    dcfg.height = 12;
    dcfg.width = 12;
    dcfg.trainPerClass = 32;
    dcfg.testPerClass = 16;
    dcfg.noise = 0.35f;
    dcfg.seed = 7;
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(1);
    auto net = nn::buildTinyConvNet(rng, dcfg.classes, 8, 1, 12);
    nn::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batchSize = 16;
    nn::Trainer trainer(*net, data, tcfg);
    auto train_res = trainer.run();
    std::printf("[1] trained: test accuracy %.1f%%\n",
                train_res.testAccuracy * 100.0);

    // ---- 2. ADMM compression ---------------------------------------
    admm::AdmmConfig acfg;
    acfg.fragSize = 4;          // sub-array rows (fragment size m)
    acfg.xbarDim = 8;           // scaled crossbar extent
    acfg.filterKeep = 0.75;
    acfg.shapeKeep = 0.75;
    acfg.quantBits = 8;
    acfg.admmEpochsPerPhase = 2;
    acfg.finetuneEpochs = 2;
    acfg.train.batchSize = 16;
    admm::AdmmCompressor compressor(*net, data, acfg);
    auto outcome = compressor.run();
    std::printf("[2] compressed: prune %.2fx, accuracy %.1f%% -> "
                "%.1f%%, sign violations %lld\n",
                outcome.pruneRatio, outcome.accuracyBefore * 100.0,
                outcome.accuracyAfter * 100.0,
                static_cast<long long>(outcome.signViolations));

    // ---- 3. map the first conv layer onto crossbars -----------------
    arch::MappingConfig mcfg;
    mcfg.xbarRows = 16;
    mcfg.xbarCols = 16;
    mcfg.fragSize = 4;
    mcfg.weightBits = 8;
    mcfg.inputBits = 12;
    auto &layer0 = compressor.layers().front();
    arch::MappedLayer mapped = arch::mapLayer(layer0, mcfg);
    std::printf("[3] mapped '%s': %lld crossbars for %lld x %lld "
                "weights (magnitudes + sign indicator)\n",
                layer0.name.c_str(),
                static_cast<long long>(mapped.numCrossbars()),
                static_cast<long long>(mapped.logicalRows),
                static_cast<long long>(mapped.logicalCols));

    // ---- 4. batched in-situ MVMs with zero-skipping -----------------
    // A block of input patches, one quantized presentation per row,
    // streams through the engine at once; presentations shard across
    // the thread pool and the result is bit-identical to a serial
    // mvm() loop.
    arch::EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless ADC: integer-exact
    arch::CrossbarEngine engine(mapped, ecfg);

    const Tensor &img = data.test().images;
    const size_t count = 4, rows = 9;
    std::vector<uint32_t> block(count * rows);
    std::vector<uint64_t> keys(count);
    for (size_t n = 0; n < count; ++n) {
        float patch[rows];
        for (int dy = 0; dy < 3; ++dy)
            for (int dx = 0; dx < 3; ++dx)
                patch[dy * 3 + dx] = std::max(
                    0.0f, img.at(static_cast<int64_t>(n), 0, 4 + dy, 4 + dx));
        arch::quantizeActivations(patch, rows, mcfg.inputBits,
                                  block.data() + n * rows);
        keys[n] = n;
    }

    arch::EngineStats stats;
    const size_t ext = static_cast<size_t>(engine.outputExtent());
    std::vector<double> analog(count * ext);
    engine.mvmBlock(block.data(), rows, 0, count, keys.data(),
                    analog.data(), ext, &stats);

    bool exact = true;
    for (size_t n = 0; n < count; ++n) {
        const std::vector<uint32_t> q(block.begin() + n * rows,
                                      block.begin() + (n + 1) * rows);
        auto reference = arch::referenceMvm(mapped, q);
        for (size_t i = 0; i < ext; ++i)
            exact = exact &&
                analog[n * ext + i] == static_cast<double>(reference[i]);
    }
    std::printf("[4] batched in-situ MVM (%zu presentations, %d "
                "threads): %s vs digital reference; %.0f%% of input "
                "bit cycles skipped, %llu ADC samples, %.1f pJ ADC "
                "energy\n",
                count, ThreadPool::global().threads(),
                exact ? "EXACT" : "MISMATCH",
                stats.skipFraction() * 100.0,
                static_cast<unsigned long long>(stats.adcSamples),
                stats.adcEnergyPj);
    return exact ? 0 : 1;
}
