#include "reram/faults.hh"

#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace forms::reram {

namespace {

/** Log-normal sigma of a drifted cell's factor. */
constexpr double kDriftSigma = 0.1;

/**
 * Stream seed for one (faultKey, physId, stream) triple. Columns and
 * cells draw from distinct streams so the remap pass can probe the
 * column stream without the per-cell draws.
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
firstDeadColumn(const std::vector<uint8_t> &col_dead, int limit)
{
    for (int c = 0; c < limit; ++c)
        if (col_dead[static_cast<size_t>(c)] != 0)
            return c;
    return -1;
}

std::vector<uint8_t>
FaultMap::deadColumns(uint64_t fault_key, int phys_id, int cols) const
{
    // One Bernoulli per physical column, in column order.
    std::vector<uint8_t> dead(static_cast<size_t>(cols), 0);
    if (cfg_.columnKillRate <= 0.0)
        return dead;
    Rng col_rng(faultSeed(cfg_.seed, fault_key, phys_id, kColumnStream));
    for (int c = 0; c < cols; ++c)
        dead[static_cast<size_t>(c)] =
            col_rng.bernoulli(cfg_.columnKillRate) ? 1 : 0;
    return dead;
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
    f.colDead = deadColumns(fault_key, phys_id, cols);

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

} // namespace forms::reram
