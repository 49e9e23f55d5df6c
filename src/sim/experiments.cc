#include "sim/experiments.hh"

namespace forms::sim {

std::unique_ptr<nn::Network>
buildNet(NetKind kind, const nn::DatasetConfig &data, Rng &rng)
{
    // Scaled stand-ins sized for CPU benching: base channel width 8
    // keeps every structural feature (stages, residual blocks, >=128-row
    // weight matrices for large fragments) at tractable cost.
    switch (kind) {
      case NetKind::LeNet5:
        return nn::buildLeNet5(rng, data.classes);
      case NetKind::VggSmall:
        return nn::buildVggSmall(rng, data.classes, 8);
      case NetKind::ResNetSmall:
        return nn::buildResNetSmall(rng, data.classes, 8);
      case NetKind::ResNetDeep:
        return nn::buildResNetDeep(rng, data.classes, 8);
    }
    return nullptr;
}

namespace {

/** Pretrain a fresh network; returns it plus its test accuracy. */
std::pair<std::unique_ptr<nn::Network>, double>
pretrain(NetKind kind, const nn::SyntheticImageDataset &data, int epochs,
         uint64_t seed)
{
    Rng rng(seed);
    auto net = buildNet(kind, data.config(), rng);
    nn::TrainConfig tc;
    tc.epochs = epochs;
    tc.seed = seed + 1;
    nn::Trainer trainer(*net, data, tc);
    auto res = trainer.run();
    return {std::move(net), res.testAccuracy};
}

} // namespace

std::vector<CompressionExperimentRow>
runCompressionExperiment(const CompressionExperimentSpec &spec)
{
    nn::SyntheticImageDataset data(spec.data);
    std::vector<CompressionExperimentRow> rows;

    for (int frag : spec.fragSizes) {
        auto [net, base_acc] =
            pretrain(spec.net, data, spec.pretrainEpochs, spec.seed);

        admm::AdmmConfig cfg = spec.admm;
        cfg.fragSize = frag;
        cfg.train.seed = spec.seed + 17;
        admm::AdmmCompressor comp(*net, data, cfg);
        auto outcome = comp.run();

        auto report = admm::buildReport(
            comp, outcome,
            admm::baselineMapping32(cfg.xbarDim, cfg.xbarDim),
            admm::formsMapping(cfg.quantBits, cfg.xbarDim, cfg.xbarDim));

        CompressionExperimentRow row;
        row.fragSize = frag;
        row.baselineAccuracy = base_acc;
        row.accuracy = outcome.accuracyAfter;
        row.accuracyDropPct = (base_acc - outcome.accuracyAfter) * 100.0;
        row.pruneRatio = report.pruneRatio;
        row.crossbarReduction = report.crossbarReduction;
        row.signViolations = outcome.signViolations;
        rows.push_back(row);
    }
    return rows;
}

std::vector<VariationRow>
runVariationExperiment(NetKind net, const nn::DatasetConfig &data_cfg,
                       const VariationStudyConfig &vcfg,
                       double filter_keep, double shape_keep,
                       int pretrain_epochs, uint64_t seed)
{
    nn::SyntheticImageDataset data(data_cfg);
    std::vector<VariationRow> rows;

    struct Variant
    {
        const char *label;
        bool prune, polarize, quantize;
    };
    const Variant variants[4] = {
        {"Original Model", false, false, false},
        {"Polarization Only", false, true, false},
        {"Pruning Only", true, false, false},
        {"Full Optimization", true, true, true},
    };

    for (const auto &v : variants) {
        auto [network, base_acc] =
            pretrain(net, data, pretrain_epochs, seed);
        (void)base_acc;

        if (v.prune || v.polarize || v.quantize) {
            admm::AdmmConfig cfg;
            cfg.prune = v.prune;
            cfg.polarize = v.polarize;
            cfg.quantize = v.quantize;
            cfg.filterKeep = filter_keep;
            cfg.shapeKeep = shape_keep;
            cfg.xbarDim = 16;
            cfg.fragSize = 8;
            cfg.admmEpochsPerPhase = 2;
            cfg.finetuneEpochs = 2;
            cfg.train.seed = seed + 17;
            admm::AdmmCompressor comp(*network, data, cfg);
            comp.run();
        }
        auto res = runVariationStudy(*network, data, vcfg);
        rows.push_back({v.label, res.degradationPct()});
    }
    return rows;
}

} // namespace forms::sim
