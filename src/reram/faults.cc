#include "reram/faults.hh"

#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace forms::reram {

namespace {

/** Log-normal sigma of a drifted cell's factor. */
constexpr double kDriftSigma = 0.1;

/** splitmix64 finalizer, the same mixer the engine seeds streams with. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Stream seed for one (faultKey, physId, stream) triple. Columns and
 * cells draw from distinct streams so the remap pass can probe the
 * column stream without replaying per-cell draws.
 */
uint64_t
faultSeed(uint64_t seed, uint64_t key, int phys_id, uint64_t stream)
{
    uint64_t s = mix64(seed ^ mix64(key));
    s = mix64(s ^ mix64(static_cast<uint64_t>(phys_id) + 1));
    return mix64(s ^ stream);
}

constexpr uint64_t kColumnStream = 0xC01DEAD5ULL;
constexpr uint64_t kCellStream = 0xCE11FA17ULL;

} // namespace

void
FaultConfig::validate() const
{
    const std::pair<const char *, double> rates[] = {
        {"stuckLrsRate", stuckLrsRate},
        {"stuckHrsRate", stuckHrsRate},
        {"columnKillRate", columnKillRate},
        {"driftRate", driftRate}};
    for (const auto &[name, rate] : rates)
        if (!(rate >= 0.0 && rate <= 1.0))
            fatal("FaultConfig::%s = %g, need a finite value in [0, 1]",
                  name, rate);
}

int
CrossbarFaults::firstDeadColumn(int limit) const
{
    for (int c = 0; c < limit; ++c)
        if (colDead[static_cast<size_t>(c)] != 0)
            return c;
    return -1;
}

CrossbarFaults
FaultMap::draw(uint64_t fault_key, int phys_id, int rows, int cols) const
{
    FORMS_ASSERT(rows > 0 && cols > 0,
                 "fault draw needs a positive geometry (%d x %d)",
                 rows, cols);
    CrossbarFaults f;
    f.rows = rows;
    f.cols = cols;
    f.kind.assign(static_cast<size_t>(rows) * cols,
                  static_cast<uint8_t>(FaultKind::None));
    f.drift.assign(static_cast<size_t>(rows) * cols, 1.0);
    f.colDead.assign(static_cast<size_t>(cols), 0);
    if (!cfg_.any())
        return f;

    // Column stream first: one Bernoulli per physical column, in
    // column order, so firstDeadColumn() can replay it independently.
    Rng col_rng(faultSeed(cfg_.seed, fault_key, phys_id, kColumnStream));
    for (int c = 0; c < cols; ++c)
        if (cfg_.columnKillRate > 0.0 &&
            col_rng.bernoulli(cfg_.columnKillRate))
            f.colDead[static_cast<size_t>(c)] = 1;

    // Cell stream: fixed draw order (row-major; stuck-LRS, stuck-HRS,
    // drift trial, drift factor) over the FULL physical grid, so the
    // realized pattern never depends on the logical occupancy.
    const bool cells = cfg_.stuckLrsRate > 0.0 ||
                       cfg_.stuckHrsRate > 0.0 || cfg_.driftRate > 0.0;
    if (!cells)
        return f;
    Rng cell_rng(faultSeed(cfg_.seed, fault_key, phys_id, kCellStream));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const size_t i = static_cast<size_t>(r) * cols + c;
            FaultKind k = FaultKind::None;
            if (cfg_.stuckLrsRate > 0.0 &&
                cell_rng.bernoulli(cfg_.stuckLrsRate))
                k = FaultKind::StuckLrs;
            if (cfg_.stuckHrsRate > 0.0 &&
                cell_rng.bernoulli(cfg_.stuckHrsRate) &&
                k == FaultKind::None)
                k = FaultKind::StuckHrs;
            if (cfg_.driftRate > 0.0 &&
                cell_rng.bernoulli(cfg_.driftRate)) {
                // Always consume the factor draw so the stream shape
                // is independent of earlier stuck outcomes.
                const double factor =
                    cell_rng.lognormal(0.0, kDriftSigma);
                if (k == FaultKind::None) {
                    k = FaultKind::Drift;
                    f.drift[i] = factor;
                }
            }
            f.kind[i] = static_cast<uint8_t>(k);
        }
    }
    return f;
}

int
FaultMap::firstDeadColumn(uint64_t fault_key, int phys_id,
                          int cols, int used_cols) const
{
    if (cfg_.columnKillRate <= 0.0)
        return -1;
    Rng col_rng(faultSeed(cfg_.seed, fault_key, phys_id, kColumnStream));
    int first = -1;
    for (int c = 0; c < cols; ++c) {
        const bool dead = col_rng.bernoulli(cfg_.columnKillRate);
        if (dead && c < used_cols && first < 0)
            first = c;
    }
    return first;
}

} // namespace forms::reram
