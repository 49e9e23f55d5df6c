#include "reram/components.hh"

#include <cmath>

#include "common/logging.hh"

namespace forms::reram {

namespace {

// Table III per-flavor constants that are not ADC-derived.
// FORMS fragment-size-8 column / ISAAC column of the paper's table.
struct FlavorConsts
{
    double dacPowerMw, dacAreaMm2;       // 8*128 1-bit DACs
    double shPowerMw, shAreaMm2;         // 8*128 sample & hold
    double xbarPowerMw, xbarAreaMm2;     // 8 crossbars, 128x128, 2-bit
    double saPowerMw, saAreaMm2;         // 4 shift-and-add units
    double skipPowerMw, skipAreaMm2;     // zero-skip logic (FORMS only)
    double signPowerMw, signAreaMm2;     // sign indicator (FORMS only)
};

const FlavorConsts kForms = {
    4.0, 0.00017,
    0.0055, 0.000023,
    2.44, 0.00024,
    0.2, 0.000024,
    0.01, 0.0000001,
    0.012, 0.0000031,
};

const FlavorConsts kIsaac = {
    4.0, 0.00017,
    0.01, 0.00004,
    2.43, 0.00023,
    0.2, 0.000024,
    0.0, 0.0,
    0.0, 0.0,
};

/** ADCs per crossbar at iso-area with one ISAAC 8-bit ADC. */
int
isoAreaAdcCount(int bits)
{
    const AdcModel big({8, 1.2});
    const AdcModel small({bits, AdcModel::paperFreqGhz(bits)});
    const int n = static_cast<int>(big.areaMm2() / small.areaMm2());
    return std::max(1, n);
}

} // namespace

McuConfig
McuConfig::forms(int frag_size)
{
    FORMS_ASSERT(frag_size >= 2, "fragment size too small");
    McuConfig c;
    c.flavor = McuFlavor::Forms;
    c.fragSize = frag_size;
    // Paper: fragment sizes 16 / 8 / 4 use 5 / 4 / 3-bit ADCs,
    // i.e. log2(frag) + 1 bits.
    c.adcBits = static_cast<int>(std::lround(std::log2(frag_size))) + 1;
    c.adcFreqGhz = AdcModel::paperFreqGhz(c.adcBits);
    c.adcsPerCrossbar = isoAreaAdcCount(c.adcBits);
    return c;
}

McuConfig
McuConfig::isaac()
{
    McuConfig c;
    c.flavor = McuFlavor::Isaac;
    c.fragSize = 128;       // whole-column activation
    c.adcBits = 8;
    c.adcFreqGhz = 1.2;
    c.adcsPerCrossbar = 1;
    return c;
}

McuCost
buildMcuCost(const McuConfig &cfg)
{
    const FlavorConsts &k =
        cfg.flavor == McuFlavor::Forms ? kForms : kIsaac;
    McuCost cost;

    const AdcModel adc({cfg.adcBits, cfg.adcFreqGhz});
    const int n_adc = kCrossbarsPerMcu * cfg.adcsPerCrossbar;
    cost.components.push_back({
        "ADC",
        strfmt("%d-bit @ %.1f GHz", cfg.adcBits, cfg.adcFreqGhz),
        n_adc, adc.powerMw() * n_adc, adc.areaMm2() * n_adc});

    const int n_dac = kCrossbarsPerMcu * cfg.xbarRows;
    cost.components.push_back({
        "DAC", "1-bit", n_dac, k.dacPowerMw, k.dacAreaMm2});

    cost.components.push_back({
        "S&H", "", n_dac, k.shPowerMw, k.shAreaMm2});

    cost.components.push_back({
        "crossbar array",
        strfmt("%dx%d, %d-bit cells", cfg.xbarRows, cfg.xbarCols,
               cfg.cellBits),
        kCrossbarsPerMcu, k.xbarPowerMw, k.xbarAreaMm2});

    cost.components.push_back({
        "S+A", "", 4, k.saPowerMw, k.saAreaMm2});

    if (cfg.flavor == McuFlavor::Forms) {
        cost.components.push_back({
            "skipping logic", "", 1, k.skipPowerMw, k.skipAreaMm2});
        cost.components.push_back({
            "sign indicator", "1R array", 1, k.signPowerMw,
            k.signAreaMm2});
    }

    for (const auto &c : cost.components) {
        cost.totalPowerMw += c.powerMw;
        cost.totalAreaMm2 += c.areaMm2;
    }
    return cost;
}

ChipConfig
ChipConfig::forms(int frag_size)
{
    ChipConfig c;
    c.mcu = McuConfig::forms(frag_size);
    c.digPowerMw = 53.05;
    c.digAreaMm2 = 0.238;   // Table IV tile total minus the MCU block
    // Registers / intra-MCU interconnect implied by Table IV's MCU
    // block totals beyond the Table III component sum.
    c.mcuOtherPowerMw = 1.47;
    c.mcuOtherAreaMm2 = 0.00301;
    return c;
}

ChipConfig
ChipConfig::isaac()
{
    ChipConfig c;
    c.mcu = McuConfig::isaac();
    c.digPowerMw = 40.85;
    c.digAreaMm2 = 0.212;
    c.mcuOtherPowerMw = 1.44;
    c.mcuOtherAreaMm2 = 0.00307;
    return c;
}

ChipCost
buildChipCost(const ChipConfig &cfg)
{
    ChipCost cost;
    const McuCost mcu = buildMcuCost(cfg.mcu);
    cost.mcuPowerMw = mcu.totalPowerMw + cfg.mcuOtherPowerMw;
    cost.mcuAreaMm2 = mcu.totalAreaMm2 + cfg.mcuOtherAreaMm2;
    cost.tilePowerMw = cost.mcuPowerMw * kMcusPerTile + cfg.digPowerMw;
    cost.tileAreaMm2 = cost.mcuAreaMm2 * kMcusPerTile + cfg.digAreaMm2;
    cost.tilesPowerMw = cost.tilePowerMw * kTiles;
    cost.tilesAreaMm2 = cost.tileAreaMm2 * kTiles;
    cost.chipPowerMw = cost.tilesPowerMw + kHtPowerMw;
    cost.chipAreaMm2 = cost.tilesAreaMm2 + kHtAreaMm2;
    return cost;
}

} // namespace forms::reram
