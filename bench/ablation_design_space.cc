/**
 * @file
 * Ablation: design-space exploration the paper describes in §IV-C —
 * fragment size (with its implied ADC resolution and iso-area ADC
 * count), bits per ReRAM cell, and sign-handling scheme. Regenerates
 * the paper's qualitative conclusions: 2-bit cells win, sign
 * indicator beats splitting/offset, and mid-size fragments balance
 * accuracy against throughput.
 */

#include <cstdio>

#include "admm/report.hh"
#include "common/table.hh"
#include "reram/device.hh"
#include "sim/perf_model.hh"

using namespace forms;
using namespace forms::sim;

int
main()
{
    std::printf("Ablation: design-space exploration\n");

    PerfModel model;
    const Workload wl = resnet18Cifar();
    const CompressionProfile prof{"rn18-c100", 6.65, 8};

    // 1. Fragment size sweep (ADC resolution & count follow).
    Table t({"Fragment", "ADC bits", "ADCs/xbar", "ADC GHz",
             "Chip power (W)", "Chip area (mm^2)", "FPS (raw)"});
    for (int frag : {4, 8, 16, 32}) {
        ArchModel a = ArchModel::formsFull(frag, true);
        a.calibration = 1.0;
        const auto r = model.evaluate(a, wl, &prof);
        t.row().cell(static_cast<int64_t>(frag))
            .cell(static_cast<int64_t>(a.mcu.adcBits))
            .cell(static_cast<int64_t>(a.mcu.adcsPerCrossbar))
            .cell(a.mcu.adcFreqGhz, 2)
            .cell(a.chipPowerMw / 1000.0, 2)
            .cell(a.chipAreaMm2, 2)
            .cell(r.fpsRaw, 0);
    }
    t.print("Fragment size sweep (FORMS full optimization, raw "
            "physics)");

    // 2. Cell-bit sweep at fragment 8: fewer bits/cell = more columns;
    //    more bits/cell = bigger ADC. 2-bit is the paper's sweet spot.
    Table c({"Bits/cell", "Cells/weight", "Crossbars (layer s1_b0)",
             "Lossless ADC bits"});
    {
        const LayerSpec &layer = wl.layers[1];
        for (int cell_bits : {1, 2, 4}) {
            ArchModel a = ArchModel::formsFull(8, true);
            a.mcu.cellBits = cell_bits;
            const auto lp = model.layerPerf(a, layer, &prof);
            c.row().cell(static_cast<int64_t>(cell_bits))
                .cell(static_cast<int64_t>(
                    reram::cellsPerWeight(8, cell_bits)))
                .cell(lp.crossbars)
                .cell(static_cast<int64_t>(
                    reram::AdcModel::losslessBits(8, cell_bits)));
        }
    }
    c.print("ReRAM cell precision trade-off (fragment 8, 8-bit "
            "weights)");

    // 3. Sign-handling schemes: crossbars needed for one layer.
    Table s({"Scheme", "Crossbars (stem)", "Crossbars (s2_b0.conv1)",
             "Extra hardware"});
    struct SchemeRow
    {
        const char *name;
        admm::SignScheme scheme;
        const char *extra;
    };
    const SchemeRow schemes[3] = {
        {"Splitting (PRIME/PUMA)", admm::SignScheme::Splitting,
         "2x crossbars + DACs"},
        {"Offset (ISAAC)", admm::SignScheme::OffsetIsaac,
         "1-counting + bias subtract units"},
        {"Polarized + sign indicator (FORMS)",
         admm::SignScheme::PolarizedForms, "1R sign array (0.012 mW)"},
    };
    for (const auto &row : schemes) {
        admm::MappingSpec spec;
        spec.weightBits = 8;
        spec.scheme = row.scheme;
        const auto &stem = wl.layers[0];
        const auto &mid = wl.layers[8];
        s.row().cell(row.name)
            .cell(admm::crossbarsForMatrix(stem.rows(), stem.cols(),
                                           spec))
            .cell(admm::crossbarsForMatrix(mid.rows(), mid.cols(),
                                           spec))
            .cell(row.extra);
    }
    s.print("Sign-handling schemes");
    return 0;
}
