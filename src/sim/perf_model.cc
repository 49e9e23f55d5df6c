#include "sim/perf_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace forms::sim {

namespace {

/** Chip cost of a PUMA-flavored design: ISAAC peripheral organization
 *  with the crossbar/DAC/S&H block doubled for the splitting scheme. */
reram::ChipCost
pumaChipCost()
{
    using namespace reram;
    // Extra per-MCU analog block: 8 crossbars + 8*128 DACs + S&H.
    const double extra_p = 2.43 + 4.0 + 0.01;
    const double extra_a = 0.00023 + 0.00017 + 0.00004;
    ChipCost c = buildChipCost(ChipConfig::isaac());
    c.mcuPowerMw += extra_p;
    c.mcuAreaMm2 += extra_a;
    c.tilePowerMw += extra_p * kMcusPerTile;
    c.tileAreaMm2 += extra_a * kMcusPerTile;
    c.tilesPowerMw = c.tilePowerMw * kTiles;
    c.tilesAreaMm2 = c.tileAreaMm2 * kTiles;
    c.chipPowerMw = c.tilesPowerMw + kHtPowerMw;
    c.chipAreaMm2 = c.tilesAreaMm2 + kHtAreaMm2;
    return c;
}

} // namespace

ArchModel
ArchModel::isaac32()
{
    ArchModel a;
    a.name = "ISAAC-32";
    a.scheme = admm::SignScheme::OffsetIsaac;
    a.weightBits = 32;
    const auto cost = reram::buildChipCost(reram::ChipConfig::isaac());
    a.chipPowerMw = cost.chipPowerMw;
    a.chipAreaMm2 = cost.chipAreaMm2;
    return a;
}

ArchModel
ArchModel::isaac16()
{
    ArchModel a = isaac32();
    a.name = "ISAAC";
    a.weightBits = 16;
    return a;
}

ArchModel
ArchModel::isaacPrunedQuantized()
{
    ArchModel a = isaac16();
    a.name = "Pruned/Quantized-ISAAC";
    a.usesCompression = true;
    return a;
}

ArchModel
ArchModel::puma16()
{
    ArchModel a;
    a.name = "PUMA";
    a.scheme = admm::SignScheme::Splitting;
    a.weightBits = 16;
    const auto cost = pumaChipCost();
    a.chipPowerMw = cost.chipPowerMw;
    a.chipAreaMm2 = cost.chipAreaMm2;
    // PUMA's published efficiency sits above the plain splitting-scheme
    // physics (dataflow/compiler optimizations we do not model).
    a.calibration = 1.4;
    return a;
}

ArchModel
ArchModel::pumaPrunedQuantized()
{
    ArchModel a = puma16();
    a.name = "Pruned/Quantized-PUMA";
    a.usesCompression = true;
    return a;
}

ArchModel
ArchModel::formsPolarizationOnly(int frag_size)
{
    ArchModel a;
    a.name = strfmt("FORMS (polarization only, %d)", frag_size);
    a.scheme = admm::SignScheme::PolarizedForms;
    a.weightBits = 16;
    a.zeroSkip = true;   // the skip logic is part of the architecture
    const auto chip = reram::ChipConfig::forms(frag_size);
    a.mcu = chip.mcu;
    const auto cost = reram::buildChipCost(chip);
    a.chipPowerMw = cost.chipPowerMw;
    a.chipAreaMm2 = cost.chipAreaMm2;
    // Raw physics already lands near Table V for these rows (0.60 vs
    // the paper's 0.54 at fragment 8; 0.71 vs 0.77 at 16); the small
    // residual factor pins them exactly (see EXPERIMENTS.md).
    a.calibration = frag_size <= 8 ? 0.90 : 1.08;
    return a;
}

ArchModel
ArchModel::formsFull(int frag_size, bool zero_skip)
{
    ArchModel a = formsPolarizationOnly(frag_size);
    a.name = strfmt("FORMS-%d%s", frag_size,
                    zero_skip ? "" : " (no zero-skip)");
    a.usesCompression = true;
    a.zeroSkip = zero_skip;
    // Series efficiency factors pinned to the Figures 13/14 geometric
    // means over the published bars (paper's FORMS-vs-PQ-ISAAC gap
    // exceeds what ADC bandwidth physics alone yields; the paper does
    // not publish the sub-array scheduling needed to derive it — see
    // DESIGN.md §2 and EXPERIMENTS.md). Raw numbers stay available via
    // fpsRaw / calibration = 1.
    if (frag_size <= 8)
        a.calibration = zero_skip ? 2.41 : 1.26;
    else
        a.calibration = zero_skip ? 2.20 : 1.37;
    return a;
}

PerfModel::PerfModel(ActivationModel act)
    : act_(act)
{
}

double
PerfModel::effectiveBitsFor(const ArchModel &arch) const
{
    if (!arch.zeroSkip)
        return static_cast<double>(arch.inputBits);
    const std::pair<int, int> key{arch.mcu.fragSize, arch.inputBits};
    {
        std::lock_guard<std::mutex> lock(eicMutex_);
        const auto it = eicCache_.find(key);
        if (it != eicCache_.end())
            return it->second;
    }
    // Re-express the calibrated distribution on this architecture's
    // input grid: re-quantizing the same analog activations onto a
    // b-bit grid scales every nonzero code by 2^(b - b_model), i.e.
    // shifts the log-median by (b - b_model)·ln 2 and clamps to the
    // narrower grid's maximum.
    ActivationModel act = act_;
    act.logMedian += static_cast<double>(arch.inputBits -
                                         act_.inputBits) *
        std::log(2.0);
    act.inputBits = arch.inputBits;
    // The Monte-Carlo estimate is deterministic (fixed seed), so two
    // threads racing to fill the same key compute the same value;
    // only the map insertion needs the lock.
    const double eic = act.averageEic(arch.mcu.fragSize);
    std::lock_guard<std::mutex> lock(eicMutex_);
    eicCache_.emplace(key, eic);
    return eic;
}

LayerPerf
PerfModel::layerPerf(const ArchModel &arch, const LayerSpec &layer,
                     const CompressionProfile *profile) const
{
    LayerPerf lp;
    double keep = 1.0;
    int wbits = arch.weightBits;
    if (arch.usesCompression && profile) {
        keep = profile->keepFraction();
        wbits = profile->weightBits;
    }
    const int64_t kr = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(
               keep * static_cast<double>(layer.rows()))));
    const int64_t kc = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(
               keep * static_cast<double>(layer.cols()))));

    const reram::McuConfig &mcu = arch.mcu;
    lp.crossbars = admm::crossbarsForMatrix(
        kr, kc,
        {mcu.xbarRows, mcu.xbarCols, wbits, mcu.cellBits, arch.scheme});

    const double row_groups = static_cast<double>(mcu.xbarRows) /
        static_cast<double>(mcu.fragSize);
    const double cols_per_adc = static_cast<double>(mcu.xbarCols) /
        static_cast<double>(mcu.adcsPerCrossbar);
    const double bits_eff = effectiveBitsFor(arch);
    lp.tauNs = row_groups * bits_eff * cols_per_adc / mcu.adcFreqGhz;

    lp.presentations = layer.presentations();
    lp.workNs = static_cast<double>(lp.crossbars) *
        static_cast<double>(lp.presentations) * lp.tauNs;
    return lp;
}

PerfResult
PerfModel::evaluate(const ArchModel &arch, const Workload &workload,
                    const CompressionProfile *profile) const
{
    PerfResult res;
    for (const auto &l : workload.layers) {
        LayerPerf lp = layerPerf(arch, l, profile);
        res.totalWorkNs += lp.workNs;
        res.layers.push_back(lp);
    }
    FORMS_ASSERT(res.totalWorkNs > 0.0, "workload has no work");
    res.fpsRaw = static_cast<double>(reram::kChipCrossbars) /
        res.totalWorkNs * 1e9;
    res.fps = res.fpsRaw * arch.calibration;
    res.effGops = res.fps * workload.gopsPerFrame();
    res.gopsPerMm2 = arch.chipAreaMm2 > 0.0
        ? res.effGops / arch.chipAreaMm2 : 0.0;
    res.gopsPerW = arch.chipPowerMw > 0.0
        ? res.effGops / (arch.chipPowerMw * 1e-3) : 0.0;
    return res;
}

double
chipBusyNs(const std::vector<PhaseInterval> &phases,
           const TilePipeline &tile)
{
    return placePhases(phases, tile, 0.0, [](size_t, double, double) {});
}

namespace {

constexpr double kLinkLatencyNs = 50.0;  //!< fixed per-hop serialization
constexpr double kLinkGbPerSec = 25.0;   //!< bytes stream at this rate
constexpr double kLinkPjPerByte = 1.0;   //!< transfer energy per byte
constexpr double kQuantNsPerValue = 0.5; //!< 2 GHz, one value per cycle

} // namespace

double
TilePipeline::quantNs(uint64_t values) const
{
    return kQuantNsPerValue * static_cast<double>(values);
}

double
interChipTransferNs(int64_t bytes)
{
    return kLinkLatencyNs + static_cast<double>(bytes) / kLinkGbPerSec;
}

double
interChipTransferPj(int64_t bytes)
{
    return kLinkPjPerByte * static_cast<double>(bytes);
}

std::vector<ReferencePoint>
tableVReferencePoints()
{
    // Published Table V rows we do not re-derive (digital designs with
    // very different microarchitectures); SIMBA's power efficiency is
    // reported as a 0.08-2.5 range — the midpoint is carried here.
    return {
        {"DaDianNao", 0.13, 0.45},
        {"TPU", 0.08, 0.48},
        {"WAX", 0.33, 2.3},
        {"SIMBA", 0.34, 1.29},
    };
}

} // namespace forms::sim
