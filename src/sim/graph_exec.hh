/**
 * @file
 * DAG-execution core of sim::PipelineRuntime.
 *
 * buildNodeExecs() programs every node of a compiled graph into the
 * engine pools of the chips a compile::Schedule assigns it, and
 * runGraph() streams one (micro-)batch through the DAG: the op
 * dispatch, the refcounted buffer walk and the Add-join accumulation
 * order live here, apart from the pipeline's partition and timing
 * model. Because every micro-batch of every schedule takes this one
 * walk, the single-chip whole-batch run and any multi-chip pipeline
 * are bit-identical (tests/test_pipeline_runtime.cc,
 * bench_fig15_multichip).
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
#include "compile/schedule.hh"
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
    int chip = 0;              //!< primary chip (first of its stage)
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
 * matrix nodes into the pools of every chip of the node's `sched`
 * stage — one chip for ordinary stages, R consecutive chips for a
 * replicated stage, primary first (device variation draws at program
 * time from a stream seeded only by the engine config, so replicas
 * program identical conductances),
 * snapshot eval-mode BN affines, copy conv/pool geometry and the
 * digital output stage, and resolve each matrix node's
 * input-quantization scale (in arch::ScaleMode::Static, from
 * cfg.calibration or the node's attached Node::inScale — fatal()s
 * when neither covers a programmed node).
 *
 * @param layers per-layer compression state, matched to matrix nodes
 *        by weight-tensor identity; fatal()s when a node has none
 * @param sched stage partition of `g`; `pools` holds one pool per
 *        sched.chips()
 */
std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const std::vector<int> &topo,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg,
               std::vector<arch::EnginePool> &pools,
               const compile::Schedule &sched);

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
 *        RNG streams by image id (sim::StageEngines::imageIds).
 *        Offline forwards pass consecutive ids from a per-runtime
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
 * Merge every programmed exec's stats into `report` rows (one row per
 * programmed node, topological order; existing rows merge, as
 * recordLayer does). Exec `idx`'s stats are stats[idx * stride]:
 * stride 1 reads a flat per-exec accumulator vector, and stride
 * `images` at offset i reads image i of runGraph's `per_image`
 * channel — bitwise-identical to a single-image forward's rows under
 * the same stream ids.
 */
void recordNodeRows(const std::vector<NodeExec> &execs,
                    const arch::EngineStats *stats, int64_t stride,
                    RuntimeReport &report);

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_EXEC_HH
