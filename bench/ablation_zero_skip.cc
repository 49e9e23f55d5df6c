/**
 * @file
 * Ablation: what zero-skipping is worth, measured on the functional
 * engine (bit-cycle counts on real mapped weights and realistic
 * activations) and on the analytic FPS model, across fragment sizes.
 * This isolates the paper's "unique opportunity of small sub-arrays"
 * claim from the compression effects.
 */

#include <cstdio>

#include "arch/engine.hh"
#include "common/table.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/** Build a polarized, quantized random layer and run the engine. */
arch::EngineStats
engineRun(int frag, bool skip, uint64_t seed)
{
    static Tensor weight({16, 16, 3, 3});
    static Tensor grad({16, 16, 3, 3});
    Rng rng(seed);
    weight.fillGaussian(rng, 0.0f, 0.4f);

    admm::LayerState st;
    st.name = "ablate";
    st.param = {"w", &weight, &grad, true, false};
    st.plan = admm::FragmentPlan::forConv(
        16, 16, 3, frag, admm::PolarizationPolicy::CMajor);
    admm::WeightView v = admm::WeightView::conv(weight);
    st.signs = admm::computeSigns(v, st.plan);
    admm::projectPolarization(v, st.plan, *st.signs);
    admm::QuantSpec q;
    q.bits = 8;
    st.quantScale = admm::projectQuantize(v, q);

    arch::MappingConfig mcfg;
    mcfg.xbarRows = 128;
    mcfg.xbarCols = 128;
    mcfg.fragSize = frag;
    mcfg.inputBits = 16;
    arch::MappedLayer mapped = arch::mapLayer(st, mcfg);

    arch::EngineConfig ecfg;
    ecfg.zeroSkip = skip;
    arch::CrossbarEngine engine(mapped, ecfg);

    // Realistic activations from the calibrated model, streamed
    // through the batched engine (bit-identical to a serial loop).
    ActivationModel act = ActivationModel::calibratedResNet50();
    Rng arng(seed + 1);
    std::vector<std::vector<uint32_t>> batch;
    std::vector<uint64_t> keys;
    for (int pres = 0; pres < 16; ++pres) {
        batch.push_back(act.sampleVector(arng, 16 * 9));
        keys.push_back(static_cast<uint64_t>(pres));
    }
    arch::EngineStats stats;
    engine.mvmKeyed(batch, 0, batch.size(), keys.data(), &stats);
    return stats;
}

} // namespace

int
main()
{
    std::printf("Ablation: zero-skipping across fragment sizes\n");

    Table t({"Fragment size", "Bit cycles (skip)", "Bit cycles (none)",
             "Cycle savings (%)", "ADC energy saved (%)"});
    for (int frag : {4, 8, 16, 32}) {
        auto with = engineRun(frag, true, 100 + frag);
        auto without = engineRun(frag, false, 100 + frag);
        const double save = 100.0 *
            (1.0 - static_cast<double>(with.bitCycles) /
                       static_cast<double>(without.bitCycles));
        const double esave = 100.0 *
            (1.0 - with.adcEnergyPj / without.adcEnergyPj);
        t.row().cell(static_cast<int64_t>(frag))
            .cell(static_cast<int64_t>(with.bitCycles))
            .cell(static_cast<int64_t>(without.bitCycles))
            .cell(save, 1)
            .cell(esave, 1);
    }
    t.print("Functional engine (measured on mapped crossbars)");

    // Analytic model: FPS uplift from skipping alone.
    PerfModel model;
    Table f({"Fragment size", "FPS uplift from zero-skip (raw model)"});
    const Workload wl = resnet50Cifar();
    const CompressionProfile p{"rn50-c100", 9.18, 8};
    for (int frag : {4, 8, 16}) {
        ArchModel skip = ArchModel::formsFull(frag, true);
        ArchModel noskip = ArchModel::formsFull(frag, false);
        skip.calibration = noskip.calibration = 1.0;
        const double uplift =
            model.evaluate(skip, wl, &p).fpsRaw /
            model.evaluate(noskip, wl, &p).fpsRaw;
        f.row().cell(static_cast<int64_t>(frag)).cell(uplift, 3);
    }
    f.print("Analytic model (bounded by 16 / average EIC)");

    std::printf("\nShape to check: savings shrink monotonically as the "
                "fragment grows — the paper's motivation for "
                "fine-grained sub-arrays.\n");
    return 0;
}
