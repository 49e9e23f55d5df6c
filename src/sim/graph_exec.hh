/**
 * @file
 * DAG-execution core of sim::PipelineRuntime.
 *
 * buildNodeExecs() programs every node of a compiled graph onto the
 * chips a compile::Schedule assigns it, and
 * runGraph() streams one (micro-)batch through the DAG: the op
 * dispatch, the refcounted buffer walk and the Add-join accumulation
 * order live here, apart from the pipeline's partition and timing
 * model. Because every micro-batch of every schedule takes this one
 * walk, the single-chip whole-batch run and any multi-chip pipeline
 * are bit-identical (tests/test_pipeline_runtime.cc,
 * bench_fig15_multichip).
 *
 * Thread-safety: runGraph() keeps no state in the exec list, and
 * shards its work across the given ThreadPool.
 * The engines themselves hold no presentation state: every
 * presentation's randomness is keyed by its image's stream id.
 */

#ifndef FORMS_SIM_GRAPH_EXEC_HH
#define FORMS_SIM_GRAPH_EXEC_HH

#include "arch/remap.hh"
#include "compile/schedule.hh"
#include "sim/runtime.hh"
#include "sim/stage_kernels.hh"

namespace forms::sim {

/**
 * One executable node of a compiled DAG. A matrix node holds its
 * programmed engines by value: each engine owns its program (copied
 * from the node's mapping at construction), so no mapping outlives
 * programming.
 */
struct NodeExec
{
    compile::Op op = compile::Op::Input;
    int nodeId = -1;
    int chip = 0;              //!< primary chip (first of its stage)
    std::string name;
    std::vector<int> inputs;   //!< producer node ids

    // Conv / Dense: the programmed hardware. A replicated matrix node
    // (compile::Schedule stage width > 1) carries one engine per
    // replica chip, primary first, all programmed from one mapping
    // (see sim::StageEngines for the slicing contract). Empty for
    // functional nodes.
    std::vector<arch::CrossbarEngine> replicas;
    std::vector<int> replicaChips;   //!< the stage's chips, primary first
    arch::RemapReport remap;   //!< spare-remap outcome (empty w/o spares)
    int outC = 0, k = 0, stride = 0, pad = 0;
    std::vector<float> bias;
    std::vector<float> chanScale;  //!< digital BN fold (may be empty)
    StageScale scale;              //!< resolved input-quantization mode

    // Pooling geometry.
    int poolK = 0, poolStride = 0;

    // Unfolded BatchNorm, eval mode: y = x * scale[c] + shift[c].
    std::vector<float> bnScale, bnShift;
};

/**
 * Build the executable form of every node in `topo`: map each matrix
 * node once and program one engine for every chip of the node's
 * `sched` stage — one chip for ordinary stages, R consecutive chips
 * for a replicated stage, primary first (device variation draws at
 * program time from a stream seeded only by the engine config, so
 * replicas program identical conductances),
 * snapshot eval-mode BN affines, copy conv/pool geometry and the
 * digital output stage, and resolve each matrix node's
 * input-quantization scale (in arch::ScaleMode::Static, from the
 * node's attached Node::inScale — fatal()s when a programmed node has
 * none, or when its Node::inBits differs from cfg.mapping.inputBits).
 *
 * @param layers per-layer compression state, matched to matrix nodes
 *        by weight-tensor identity; fatal()s when a node has none
 * @param sched stage partition of `g`
 */
std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const std::vector<int> &topo,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg, const compile::Schedule &sched);

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
 * @param phases per-(programmed exec, replica) timing samples (may be
 *        null): one PhaseSample (sim/stage_kernels.hh) per replica
 *        slice, written in exec then replica order, so it needs room
 *        for the sum of every exec's replica count
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
 */
Tensor runGraph(const compile::Graph &g, const std::vector<NodeExec> &execs,
                const Tensor &batch, ThreadPool &tp, int input_bits,
                std::vector<arch::EngineStats> &stats,
                PhaseSample *phases, const uint64_t *image_ids,
                arch::EngineStats *per_image = nullptr,
                int64_t per_image_stride = 0);

/**
 * Merge every programmed exec's stats into `report` rows (one row per
 * programmed node, topological order; rows already present merge by
 * position, so one report can span several forwards). Exec `idx`'s
 * stats are stats[idx * stride]:
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
