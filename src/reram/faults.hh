/**
 * @file
 * Deterministic hard-fault injection for ReRAM crossbars: stuck-at
 * cells, killed bitline columns and log-normally drifted devices.
 *
 * Unlike the Gaussian programming variation in reram/variation.hh /
 * CellConfig::variationSigma — which models analog write noise drawn
 * from the engine's programming stream — a FaultMap is *state*, not
 * noise: the fault pattern of a physical crossbar is a pure function
 * of (seed, faultKey, physId), drawn over the full physical geometry
 * so it does not depend on how many rows or columns a layer happens
 * to use. Two runtimes programming the same logical layer onto the
 * same physical crossbar therefore see bit-identical faults, which is
 * what lets the cross-runtime fuzz harness treat faulted runs exactly
 * like clean ones (logits + stats bitwise equal across threads, chips
 * and micro-batches).
 *
 * Fault kinds (paper-adjacent taxonomy, §V-E extended):
 *  - stuck-at-LRS: cell reads as the maximum conductance level,
 *    regardless of what was programmed;
 *  - stuck-at-HRS: cell reads as level 0;
 *  - column-kill:  an entire physical bitline is dead (reads as 0) —
 *    the only fault class the spare-crossbar remap pass repairs;
 *  - drift:        a multiplicative log-normal factor (sigma 0.1) on
 *    the programmed analog level (aged device).
 */

#ifndef FORMS_RERAM_FAULTS_HH
#define FORMS_RERAM_FAULTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace forms::reram {

/** Per-cell fault classification. */
enum class FaultKind : uint8_t
{
    None = 0,
    StuckLrs,   //!< reads as the mapping's maximum level, 2^cellBits - 1
    StuckHrs,   //!< reads as level 0
    Drift,      //!< programmed level times a lognormal(0, 0.1) factor
};

/** Fault rates applied independently per crossbar. */
struct FaultConfig
{
    double stuckLrsRate = 0.0;    //!< per-cell P(stuck at LRS)
    double stuckHrsRate = 0.0;    //!< per-cell P(stuck at HRS)
    double columnKillRate = 0.0;  //!< per-physical-column P(dead)
    double driftRate = 0.0;       //!< per-cell P(drifted)
    uint64_t seed = 2024;         //!< fleet-wide fault seed

    /**
     * fatal()s, naming the field, unless every rate is a finite
     * probability in [0, 1] (a NaN rate would fail every `rate > 0`
     * test and leave the map silently inert).
     */
    void validate() const;

    /** True when any rate is non-zero (a map worth drawing). */
    bool
    any() const
    {
        return stuckLrsRate > 0.0 || stuckHrsRate > 0.0 ||
               columnKillRate > 0.0 || driftRate > 0.0;
    }
};

/**
 * The realized fault pattern of one physical crossbar, drawn over the
 * full rows x cols physical geometry.
 */
struct CrossbarFaults
{
    int rows = 0;
    int cols = 0;
    std::vector<uint8_t> kind;    //!< rows x cols FaultKind grid
    std::vector<double> drift;    //!< rows x cols multiplicative factor
    std::vector<uint8_t> colDead; //!< per-physical-column kill flag

    FaultKind
    at(int r, int c) const
    {
        return static_cast<FaultKind>(
            kind[static_cast<size_t>(r) * cols + c]);
    }

    double
    driftAt(int r, int c) const
    {
        return drift[static_cast<size_t>(r) * cols + c];
    }

    bool
    columnDead(int c) const
    {
        return colDead[static_cast<size_t>(c)] != 0;
    }

    /** First dead column in [0, limit), or -1 when none. */
    int firstDeadColumn(int limit) const;
};

/**
 * Deterministic fleet fault model: hands out the CrossbarFaults of
 * any (faultKey, physId) pair on demand. faultKey identifies the
 * logical owner (the graph node id in the compiled runtimes) so the
 * same layer draws the same faults in every runtime; physId is the
 * physical crossbar index within that owner's tile grid, including
 * spares (primaries are [0, n), spares [n, n + spareXbars)).
 *
 * The map is stateless and therefore trivially shareable across
 * threads; draws are regenerated on demand rather than cached.
 */
class FaultMap
{
  public:
    FaultMap() = default;
    explicit FaultMap(const FaultConfig &cfg) : cfg_(cfg) { cfg_.validate(); }

    const FaultConfig &config() const { return cfg_; }

    /** Draw the fault pattern of one physical crossbar. */
    CrossbarFaults draw(uint64_t fault_key, int phys_id,
                        int rows, int cols) const;

    /**
     * Cheap column-kill-only probe used by the remap pass: the first
     * dead physical column of (faultKey, physId) within [0, usedCols),
     * or -1. Matches draw()'s column stream bit-for-bit.
     */
    int firstDeadColumn(uint64_t fault_key, int phys_id,
                        int cols, int used_cols) const;

  private:
    FaultConfig cfg_;
};

} // namespace forms::reram

#endif // FORMS_RERAM_FAULTS_HH
