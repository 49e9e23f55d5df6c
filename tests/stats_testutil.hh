/**
 * @file
 * Shared engine test helpers. expectStatsIdentical: two EngineStats
 * are bit-identical — the determinism-contract check every runtime
 * suite makes. One copy, so new EngineStats fields (like the
 * saturation counters) extend every suite's coverage at once instead
 * of silently going unchecked in stale per-file copies. presentOne:
 * one presentation through the engine's block entry point.
 */

#ifndef FORMS_TESTS_STATS_TESTUTIL_HH
#define FORMS_TESTS_STATS_TESTUTIL_HH

#include <gtest/gtest.h>

#include "arch/engine.hh"

namespace forms {

inline void
expectStatsIdentical(const arch::EngineStats &a,
                     const arch::EngineStats &b)
{
    EXPECT_EQ(a.presentations, b.presentations);
    EXPECT_EQ(a.bitCycles, b.bitCycles);
    EXPECT_EQ(a.skippedCycles, b.skippedCycles);
    EXPECT_EQ(a.adcSamples, b.adcSamples);
    EXPECT_EQ(a.quantValues, b.quantValues);
    EXPECT_EQ(a.quantClipped, b.quantClipped);
    // Bit-identical, not approximately equal: the merge order is the
    // presentation order in both paths.
    EXPECT_EQ(a.adcEnergyPj, b.adcEnergyPj);
    EXPECT_EQ(a.crossbarEnergyPj, b.crossbarEnergyPj);
    EXPECT_EQ(a.timeNs, b.timeNs);
}

/**
 * One presentation as a block of one: `inputs` with read-noise stream
 * key `key`; its stats merge into `stats` when non-null.
 * @return the engine's outputExtent() outputs
 */
inline std::vector<double>
presentOne(const arch::CrossbarEngine &engine,
           const std::vector<uint32_t> &inputs,
           arch::EngineStats *stats = nullptr, uint64_t key = 0)
{
    std::vector<double> out(static_cast<size_t>(engine.outputExtent()));
    engine.mvmBlock(inputs.data(), inputs.size(), 0, 1, &key, out.data(),
                    out.size(), stats);
    return out;
}

} // namespace forms

#endif // FORMS_TESTS_STATS_TESTUTIL_HH
