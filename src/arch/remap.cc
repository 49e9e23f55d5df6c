#include "arch/remap.hh"

#include "common/logging.hh"

namespace forms::arch {

RemapReport
remapFaultyCrossbars(MappedLayer &layer, const reram::FaultMap &faults,
                     uint64_t fault_key, const char *node_name)
{
    RemapReport rep;
    rep.sparesLeft = layer.cfg.spareXbars;
    if (faults.config().columnKillRate <= 0.0)
        return rep;

    const int primaries = static_cast<int>(layer.crossbars.size());
    const int cells = layer.cfg.cellsPerWeight();
    int next_spare = 0;
    // First dead column of a physical crossbar within [0, used_cols).
    auto first_dead = [&](int phys, int used_cols) {
        return reram::firstDeadColumn(
            faults.deadColumns(fault_key, phys, layer.cfg.xbarCols),
            used_cols);
    };

    for (size_t xi = 0; xi < layer.crossbars.size(); ++xi) {
        MappedCrossbar &xb = layer.crossbars[xi];
        const int used_cols = xb.weightCols * cells;
        const int phys = xb.physId >= 0 ? xb.physId
                                        : static_cast<int>(xi);
        const int dead = first_dead(phys, used_cols);
        if (dead < 0)
            continue;
        ++rep.faultyCrossbars;

        // Walk the spare pool for a crossbar that is clean over this
        // tile's used window; dead spares are burned permanently.
        int target = -1;
        while (next_spare < layer.cfg.spareXbars) {
            const int spare_phys = primaries + next_spare;
            ++next_spare;
            ++rep.sparesUsed;
            if (first_dead(spare_phys, used_cols) < 0) {
                target = spare_phys;
                break;
            }
        }
        rep.sparesLeft = layer.cfg.spareXbars - next_spare;
        if (target < 0)
            fatal("remap: node %s crossbar %zu has a dead cell column "
                  "%d and no spare crossbar is left (budget %d, all "
                  "consumed); raise MappingConfig::spareXbars",
                  node_name ? node_name : "?", xi, dead,
                  layer.cfg.spareXbars);

        RemapEntry e;
        e.crossbar = static_cast<int>(xi);
        e.fromPhys = phys;
        e.toPhys = target;
        e.deadColumn = dead;
        rep.entries.push_back(e);
        xb.physId = target;
        ++rep.remappedCrossbars;
    }
    return rep;
}

} // namespace forms::arch
