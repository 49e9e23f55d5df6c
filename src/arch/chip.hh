/**
 * @file
 * Per-chip engine pool for the multi-chip pipeline runtime.
 *
 * An EnginePool owns the programmed CrossbarEngines of all matrix
 * nodes assigned to one simulated chip. Each slot pins its MappedLayer
 * next to the engine that references it (engines hold the mapping by
 * reference, so slots live behind unique_ptr and never move after
 * programming). Slot order is the order of program() calls — the
 * chip's topological node order in the pipeline runtime — which fixes
 * the per-chip stats presentation order (DESIGN.md §5).
 *
 * A node in a replicated stage (compile::Schedule stage width > 1)
 * is programmed into the pool of *every* chip of its stage, one
 * replica engine each. Device variation draws at program time from a
 * stream seeded only by the engine config, so all replicas hold
 * identical conductances; which presentations a replica processes —
 * and the stream keys they carry — is the executor's business
 * (sim::StageEngines, docs/SCHEDULING.md), not the pool's.
 *
 * Thread-safety: program() is construction-time only (single thread);
 * after programming, the engines hold no presentation state: their
 * keyed mvm calls only read the programmed tiles and shard on the
 * caller's pool. The pool owns engines and mappings outright; callers
 * borrow raw pointers that stay valid for the pool's lifetime.
 */

#ifndef FORMS_ARCH_CHIP_HH
#define FORMS_ARCH_CHIP_HH

#include <memory>

#include "arch/engine.hh"

namespace forms::arch {

/** Owns one chip's programmed engines, keyed by graph node id. */
class EnginePool
{
  public:
    EnginePool() = default;

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;
    EnginePool(EnginePool &&) = default;
    EnginePool &operator=(EnginePool &&) = default;

    /**
     * Map and program one node's layer onto this chip. Device
     * variation draws at program time from the engine's own stream
     * (seeded by cfg.variationSeed), so programming order across
     * chips never changes the programmed conductances.
     */
    void program(int node_id, MappedLayer mapped, const EngineConfig &cfg);

    /** Programmed engine of node `node_id` (null when not on chip). */
    CrossbarEngine *engine(int node_id);

    /** Mapping of node `node_id` (null when not on this chip). */
    const MappedLayer *mapped(int node_id) const;

    /** Number of programmed engines. */
    size_t size() const { return slots_.size(); }

    /** Total crossbars programmed on this chip. */
    int64_t totalCrossbars() const;

  private:
    struct Slot
    {
        int nodeId = -1;
        MappedLayer mapped;
        std::unique_ptr<CrossbarEngine> engine;
    };
    std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace forms::arch

#endif // FORMS_ARCH_CHIP_HH
