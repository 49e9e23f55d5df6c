/**
 * @file
 * Shared DAG-execution core of the graph-based runtimes.
 *
 * GraphRuntime (one engine set) and PipelineRuntime (per-chip engine
 * pools) execute a compiled graph identically — the pipeline only
 * adds a partition and a timing model on top. Both build their node
 * list with buildNodeExecs() and stream batches with runGraph(), so
 * the op dispatch, the refcounted buffer walk and the Add-join
 * accumulation order live in exactly one place and the two runtimes
 * cannot drift apart numerically (their bit-identity is asserted by
 * tests/test_pipeline_runtime.cc and bench_fig15_multichip).
 *
 * Thread-safety: buildNodeExecs() and runGraph() must be called from
 * one thread per exec list (each NodeExec carries its conv im2col
 * scratch); runGraph() shards its work across the given ThreadPool.
 * The engines themselves hold no presentation state: every
 * presentation's randomness is keyed by its image's stream id.
 */

#ifndef FORMS_SIM_GRAPH_EXEC_HH
#define FORMS_SIM_GRAPH_EXEC_HH

#include <functional>

#include "arch/chip.hh"
#include "arch/remap.hh"
#include "compile/graph.hh"
#include "sim/runtime.hh"
#include "sim/stage_kernels.hh"

namespace forms::sim {

/**
 * One executable node of a compiled DAG. Engines and mappings are
 * owned by the arch::EnginePool the node was programmed into; the
 * exec only points at them, so it is freely movable/copyable.
 */
struct NodeExec
{
    compile::Op op = compile::Op::Input;
    int nodeId = -1;
    int chip = 0;              //!< primary chip (0 for single-chip runtimes)
    std::string name;
    std::vector<int> inputs;   //!< producer node ids

    // Conv / Dense: the programmed hardware, owned by each hosting
    // chip's pool. `engine` is the primary replica (== replicas[0]);
    // a replicated matrix node (compile::Schedule stage width > 1)
    // carries one engine per replica chip, all programmed from the
    // same weights (see sim::StageEngines for the slicing contract).
    arch::CrossbarEngine *engine = nullptr;
    std::vector<arch::CrossbarEngine *> replicas;
    std::vector<int> replicaChips;   //!< parallel to replicas
    const arch::MappedLayer *mapped = nullptr;
    arch::RemapReport remap;   //!< spare-remap outcome (empty w/o faults)
    int outC = 0, k = 0, stride = 0, pad = 0;
    std::vector<float> bias;
    std::vector<float> chanScale;  //!< digital BN fold (may be empty)
    StageScale scale;              //!< resolved input-quantization mode

    // Pooling geometry.
    int poolK = 0, poolStride = 0;

    // Unfolded BatchNorm, eval mode: y = x * scale[c] + shift[c].
    std::vector<float> bnScale, bnShift;

    // Conv: reused im2col buffer — steady-state micro-batches lower
    // into the same storage instead of allocating per call.
    Tensor im2colScratch;
};

/**
 * Per-phase timing callback of runGraph, fired once per (programmed
 * node, replica) in execution order: exec index, replica index, and
 * the slice's PhaseSample (sim/stage_kernels.hh) — the ADC-limited
 * model-time delta, values quantized, and the presented/skipped input
 * bit-cycle counters. The pipeline runtime's intra-chip tile pipeline
 * model (sim/perf_model.hh) turns these into per-phase busy intervals
 * and per-phase measured EIC fractions.
 */
using PhaseSink =
    std::function<void(size_t, int, const PhaseSample &)>;

/**
 * Build the executable form of every node in `topo`: map and program
 * matrix nodes into the pools of every chip chips_of(id) names
 * (device variation draws at program time from a stream seeded only
 * by the engine config, so replicas program identical conductances),
 * snapshot eval-mode BN affines, copy conv/pool geometry and the
 * digital output stage, and resolve each matrix node's
 * input-quantization scale (in arch::ScaleMode::Static, from
 * cfg.calibration or the node's attached Node::inScale — fatal()s
 * when neither covers a programmed node).
 *
 * @param layers per-layer compression state, matched to matrix nodes
 *        by weight-tensor identity; fatal()s when a node has none
 * @param chips_of node id -> hosting chip indices in
 *        [0, pools.size()), primary first; single-chip runtimes
 *        return {0}, the pipeline runtime returns the node's stage
 *        chips (several for a replicated stage)
 */
std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const std::vector<int> &topo,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg,
               std::vector<arch::EnginePool> &pools,
               const std::function<std::vector<int>(int)> &chips_of);

/**
 * Stream one NCHW batch through the DAG in `execs` order (a
 * topological order of `g`) with reference-counted intermediate
 * buffers and fixed left-then-right Add joins (DESIGN.md §4).
 * Returns a copy of the graph output.
 *
 * @param stats per-exec EngineStats accumulators (parallel to
 *        `execs`); each programmed node's batch stats merge into its
 *        slot in presentation order — replicated nodes fold their
 *        replica slices in ascending replica (= presentation) order
 *        into the same slot — so reusing the same vector across
 *        calls reproduces one serial fold over all the calls
 * @param on_phase per-(node, replica) timing sink (may be empty); see
 *        PhaseSink
 * @param image_ids stable per-image stream ids, one per batch image
 *        (required): every programmed node keys its per-presentation
 *        RNG streams by image id (sim::StageEngines::imageIds). The
 *        offline runtimes pass consecutive ids from a per-runtime
 *        counter; the serving layer passes per-request ids, which
 *        makes serving batch-invariant.
 * @param per_image optional per-(exec, image) stats accumulators:
 *        exec `idx`'s stats for batch image i fold into
 *        per_image[idx * per_image_stride + i], each group
 *        bitwise-identical to a single-image forward's node
 *        accumulator. The flat per-node fold into `stats` is
 *        unchanged. The stride lets the pipeline runtime aim
 *        micro-batch slices into one full-batch array.
 *
 * `execs` is mutable because conv nodes carry their im2col scratch.
 */
Tensor runGraph(const compile::Graph &g, std::vector<NodeExec> &execs,
                const Tensor &batch, ThreadPool &tp, int input_bits,
                std::vector<arch::EngineStats> &stats,
                const PhaseSink &on_phase, const uint64_t *image_ids,
                arch::EngineStats *per_image = nullptr,
                int64_t per_image_stride = 0);

/**
 * Merge every programmed exec's accumulated stats into `report` rows
 * (one row per programmed node, topological order) — the row
 * semantics both graph runtimes expose, kept in one place so their
 * reports stay interchangeable.
 */
void recordNodeRows(const std::vector<NodeExec> &execs,
                    const std::vector<arch::EngineStats> &stats,
                    RuntimeReport &report);

/**
 * Expand per-(exec, image) accumulators (runGraph's `per_image`
 * channel, laid out [idx * stride + i]) into one RuntimeReport per
 * image: image i's rows carry the same names, order and crossbar
 * counts as recordNodeRows, with stats covering only that image's
 * presentations — bitwise-identical to the report of a single-image
 * forward under the same stream ids. `reports` is resized to
 * `images`; existing rows merge (recordLayer semantics).
 */
void recordPerImageRows(const std::vector<NodeExec> &execs,
                        const arch::EngineStats *per_image,
                        int64_t stride, int64_t images,
                        std::vector<RuntimeReport> &reports);

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_EXEC_HH
