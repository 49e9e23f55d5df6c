/**
 * @file
 * Regenerates paper Table IV: chip-level power/area roll-up for FORMS
 * (fragment size 8), ISAAC and DaDianNao.
 */

#include <cstdio>

#include "common/table.hh"
#include "reram/components.hh"

using namespace forms;
using namespace forms::reram;

int
main()
{
    std::printf("Table IV: chip-level power and area\n");

    const ChipCost forms = buildChipCost(ChipConfig::forms(8));
    const ChipCost isaac = buildChipCost(ChipConfig::isaac());
    const DaDianNaoCost ddn;

    Table t({"Row", "FORMS power (mW)", "FORMS area (mm^2)",
             "ISAAC power (mW)", "ISAAC area (mm^2)"});
    t.row().cell("1 MCU (incl. registers)")
        .cell(forms.mcuPowerMw, 2).cell(forms.mcuAreaMm2, 4)
        .cell(isaac.mcuPowerMw, 2).cell(isaac.mcuAreaMm2, 4);
    t.row().cell("12 MCUs per tile")
        .cell(forms.mcuPowerMw * kMcusPerTile, 2)
        .cell(forms.mcuAreaMm2 * kMcusPerTile, 4)
        .cell(isaac.mcuPowerMw * kMcusPerTile, 2)
        .cell(isaac.mcuAreaMm2 * kMcusPerTile, 4);
    t.row().cell("1 tile (12 MCUs + dig unit)")
        .cell(forms.tilePowerMw, 2).cell(forms.tileAreaMm2, 4)
        .cell(isaac.tilePowerMw, 2).cell(isaac.tileAreaMm2, 4);
    t.row().cell("168 tiles")
        .cell(forms.tilesPowerMw, 1).cell(forms.tilesAreaMm2, 2)
        .cell(isaac.tilesPowerMw, 1).cell(isaac.tilesAreaMm2, 2);
    t.row().cell("HyperTransport (4 @ 1.6 GHz)")
        .cell(kHtPowerMw, 1).cell(kHtAreaMm2, 2)
        .cell(kHtPowerMw, 1).cell(kHtAreaMm2, 2);
    t.row().cell("CHIP TOTAL")
        .cell(forms.chipPowerMw, 1).cell(forms.chipAreaMm2, 2)
        .cell(isaac.chipPowerMw, 1).cell(isaac.chipAreaMm2, 2);
    t.print("FORMS (fragment 8) vs ISAAC");

    Table d({"DaDianNao component", "Power (mW)", "Area (mm^2)"});
    d.row().cell("NFU x16").cell(ddn.nfuPowerMw, 1).cell(ddn.nfuAreaMm2, 2);
    d.row().cell("eDRAM 36 MB").cell(ddn.edramPowerMw, 1)
        .cell(ddn.edramAreaMm2, 2);
    d.row().cell("Global bus 128b").cell(ddn.busPowerMw, 1)
        .cell(ddn.busAreaMm2, 2);
    d.row().cell("HyperTransport").cell(kHtPowerMw, 1).cell(kHtAreaMm2, 2);
    d.row().cell("CHIP TOTAL").cell(ddn.chipPowerMw(), 1)
        .cell(ddn.chipAreaMm2(), 2);
    d.print("DaDianNao (scaled to 32 nm)");

    std::printf("\nIso-cost check: FORMS/ISAAC power ratio %.4f, "
                "area ratio %.4f (paper: ~1.001 / ~1.05).\n",
                forms.chipPowerMw / isaac.chipPowerMw,
                forms.chipAreaMm2 / isaac.chipAreaMm2);
    return 0;
}
