/**
 * @file
 * Peripheral circuit cost specs (paper Table III) and the component
 * roll-up used to build MCU / tile / chip area & power (Table IV).
 *
 * Constants originate from the paper's published component table
 * (itself derived from CACTI/NVSIM/Synopsys DC runs we cannot perform
 * offline); derived quantities — ADC scaling to other resolutions,
 * bottom-up MCU/tile/chip roll-ups — are computed, so the models remain
 * exercisable across the design space.
 */

#ifndef FORMS_RERAM_COMPONENTS_HH
#define FORMS_RERAM_COMPONENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "reram/adc.hh"
#include "reram/device.hh"

namespace forms::reram {

/** Power/area record for one component instance count. */
struct ComponentSpec
{
    std::string name;
    std::string spec;      //!< free-form parameter description
    int count = 1;         //!< instances per MCU
    double powerMw = 0.0;  //!< total power of all instances
    double areaMm2 = 0.0;  //!< total area of all instances
};

/** Which design an MCU spec models. */
enum class McuFlavor
{
    Forms,   //!< fine-grained, 4 small ADCs/crossbar, skip + sign logic
    Isaac,   //!< coarse-grained, 1 large ADC/crossbar, offset encoding
};

/** Chip organization of Table IV, FORMS and ISAAC alike. */
constexpr int kCrossbarsPerMcu = 8;
constexpr int kMcusPerTile = 12;
constexpr int kTiles = 168;
/** Crossbars on one chip: tiles x MCUs per tile x crossbars per MCU. */
constexpr int64_t kChipCrossbars =
    static_cast<int64_t>(kTiles) * kMcusPerTile * kCrossbarsPerMcu;
/** HyperTransport links (4 @ 1.6 GHz), on every chip of Table IV. */
constexpr double kHtPowerMw = 10400.0;
constexpr double kHtAreaMm2 = 22.88;

/** MCU organization parameters. */
struct McuConfig
{
    McuFlavor flavor = McuFlavor::Forms;
    int xbarRows = 128;
    int xbarCols = 128;
    int cellBits = kPaperCellBits;
    int fragSize = 8;        //!< FORMS sub-array rows (ignored for ISAAC)
    int adcBits = 4;         //!< per-design ADC resolution
    double adcFreqGhz = 2.1;
    int adcsPerCrossbar = 4; //!< FORMS: 4; ISAAC: 1

    /** The paper's FORMS MCU (fragment size 8). */
    static McuConfig forms(int frag_size = 8);

    /** The paper's ISAAC MCU. */
    static McuConfig isaac();
};

/** Full component table of one MCU. */
struct McuCost
{
    std::vector<ComponentSpec> components;
    double totalPowerMw = 0.0;
    double totalAreaMm2 = 0.0;
};

/** Build the Table III component list for an MCU configuration. */
McuCost buildMcuCost(const McuConfig &cfg);

/** Chip organization (Table IV). */
struct ChipConfig
{
    McuConfig mcu;
    // Digital unit per tile (Table IV).
    double digPowerMw = 53.05;
    double digAreaMm2 = 0.25;
    // Registers/interconnect not itemized in Table III but present in
    // the Table IV MCU totals; kept explicit so the roll-up is honest.
    double mcuOtherPowerMw = 0.0;
    double mcuOtherAreaMm2 = 0.0;

    /** The paper's FORMS chip (fragment size 8). */
    static ChipConfig forms(int frag_size = 8);

    /** The paper's ISAAC chip. */
    static ChipConfig isaac();
};

/** Chip-level roll-up (Table IV rows). */
struct ChipCost
{
    double mcuPowerMw = 0.0, mcuAreaMm2 = 0.0;        //!< one MCU
    double tilePowerMw = 0.0, tileAreaMm2 = 0.0;      //!< one tile
    double tilesPowerMw = 0.0, tilesAreaMm2 = 0.0;    //!< all tiles
    double chipPowerMw = 0.0, chipAreaMm2 = 0.0;      //!< + HT links
};

/** Build the Table IV roll-up for a chip configuration. */
ChipCost buildChipCost(const ChipConfig &cfg);

/** DaDianNao reference totals (Table IV, scaled to 32 nm). */
struct DaDianNaoCost
{
    double nfuPowerMw = 4886.0;
    double nfuAreaMm2 = 16.09;
    double edramPowerMw = 4760.0;
    double edramAreaMm2 = 33.12;
    double busPowerMw = 12.8;
    double busAreaMm2 = 15.66;

    double chipPowerMw() const
    {
        return nfuPowerMw + edramPowerMw + busPowerMw + kHtPowerMw;
    }

    double chipAreaMm2() const
    {
        return nfuAreaMm2 + edramAreaMm2 + busAreaMm2 + kHtAreaMm2;
    }
};

} // namespace forms::reram

#endif // FORMS_RERAM_COMPONENTS_HH
