/**
 * @file
 * Scenario: an architect explores the FORMS design space — fragment
 * size against ADC provisioning, chip cost and delivered FPS on a
 * real workload (ResNet-50, ImageNet dimensions) — and compares the
 * sign-handling schemes' crossbar bills. Exercises the performance
 * model, circuit cost models and pipeline timing end to end.
 */

#include <cstdio>

#include "arch/pipeline.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

int
main()
{
    PerfModel model;
    const Workload wl = resnet50Imagenet();
    const CompressionProfile prof{"rn50-in", 3.67, 8};

    std::printf("workload: %s, %.2f GOPs/frame, %.1fM weights\n",
                wl.name.c_str(), wl.gopsPerFrame(),
                static_cast<double>(wl.totalWeights()) / 1e6);

    Table t({"Fragment", "ADC", "ADCs/xbar", "Chip W", "Chip mm^2",
             "FPS (raw)", "FPS (calibrated)", "GOPs/W"});
    for (int frag : {4, 8, 16, 32}) {
        const ArchModel a = ArchModel::formsFull(frag, true);
        const auto r = model.evaluate(a, wl, &prof);
        t.row().cell(static_cast<int64_t>(frag))
            .cell(strfmt("%d-bit @ %.2f GHz", a.mcu.adcBits,
                         a.mcu.adcFreqGhz))
            .cell(static_cast<int64_t>(a.mcu.adcsPerCrossbar))
            .cell(a.chipPowerMw / 1000.0, 2)
            .cell(a.chipAreaMm2, 2)
            .cell(r.fpsRaw, 0)
            .cell(r.fps, 0)
            .cell(r.gopsPerW, 1);
    }
    t.print("FORMS fragment-size design points (full optimization, "
            "zero-skip on)");

    // Per-layer bottleneck view for the chosen design point.
    const ArchModel chosen = ArchModel::formsFull(8, true);
    const auto res = model.evaluate(chosen, wl, &prof);
    Table b({"Layer", "Crossbars", "Presentations", "tau (ns)",
             "Share of frame work (%)"});
    // Show the five heaviest layers.
    std::vector<size_t> idx(res.layers.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b2) {
        return res.layers[a].workNs > res.layers[b2].workNs;
    });
    for (size_t i = 0; i < std::min<size_t>(5, idx.size()); ++i) {
        const auto &lp = res.layers[idx[i]];
        b.row().cell(wl.layers[idx[i]].name)
            .cell(lp.crossbars)
            .cell(lp.presentations)
            .cell(lp.tauNs, 1)
            .cell(100.0 * lp.workNs / res.totalWorkNs, 1);
    }
    b.print("Heaviest layers at fragment size 8");

    // Pipeline view (Figure 12) for the heaviest layer.
    const auto &hot = wl.layers[idx[0]];
    arch::PipelineConfig pcfg;
    pcfg.cycleNs = 15.2;
    const double ii_skip =
        (128.0 / 8.0) * model.effectiveBitsFor(chosen);
    const double ii_full = (128.0 / 8.0) * 16.0;
    const auto skip = arch::layerPipelineTiming(
        pcfg, static_cast<uint64_t>(hot.presentations()), ii_skip,
        hot.pools);
    const auto full = arch::layerPipelineTiming(
        pcfg, static_cast<uint64_t>(hot.presentations()), ii_full,
        hot.pools);
    std::printf("\npipeline on '%s': %.1f us with zero-skip vs %.1f us "
                "without (%.0f%% saved) for %lld presentations\n",
                hot.name.c_str(), skip.totalNs / 1000.0,
                full.totalNs / 1000.0,
                100.0 * (1.0 - skip.totalNs / full.totalNs),
                static_cast<long long>(hot.presentations()));
    return 0;
}
