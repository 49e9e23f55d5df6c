/**
 * @file
 * The executor for compiled layer graphs: a multi-chip pipeline with
 * replicated stages and an intra-chip tile pipeline timing model.
 * Its single-chip form (one stage, one whole-batch micro-batch per
 * forward) is the plain DAG executor.
 *
 * PipelineRuntime takes a compile::Graph plus a compile::Schedule
 * (the stage partition), programs one engine for each matrix node on
 * every chip hosting it — one chip for ordinary stages, R consecutive
 * chips for a replicated stage — and streams
 * batches through the DAG as a micro-batch pipeline: while stage k
 * computes its nodes on micro-batch b, stage k-1 computes micro-batch
 * b+1. The DAG walk (sim/graph_exec) releases a node's output as
 * soon as its last consumer has run, joins residual branches with
 * fixed-order elementwise adds, and runs unfolded BatchNorm nodes
 * functionally in eval mode. Inter-stage edges are the schedule's
 * explicit Transfer records, charged with the inter-chip link's
 * latency/energy cost (sim::interChipTransferNs/Pj) on the receiving
 * stage; a `mergeReplicas` record marks where a replicated producer's
 * presentation slices rejoin.
 *
 * The pipeline overlap is a *timing model* layered on a functionally
 * exact execution: numerically, every micro-batch flows through the
 * identical kernels (sim/stage_kernels.hh) in the graph's
 * deterministic topological order, so
 *
 *   - logits equal the single-chip whole-batch run's bit for bit on
 *     the same graph, for ANY chip count, micro-batch size, thread
 *     count AND replication factor (chips shard work in the model,
 *     not in the arithmetic; replica r of R processes the contiguous
 *     presentation-index slice [floor(P*r/R), floor(P*(r+1)/R)) of
 *     each micro-batch, every presentation keyed by its image's
 *     stream id), and
 *   - per-node EngineStats accumulate through one runtime-lifetime
 *     fold in presentation order — each micro-batch's stage call
 *     merges into the same per-node accumulator, and a replicated
 *     node's replica slices fold in ascending replica (= global
 *     presentation) order — reproducing the exact full-batch
 *     floating-point merge order (DESIGN.md §5, docs/SCHEDULING.md).
 *
 * Per-chip stats merge the chip's node accumulators in topological
 * (presentation) order; a replicated node's accumulator spans all its
 * replicas and is attributed to the stage's primary (first) chip.
 *
 * Timing model: per (chip, micro-batch) the runtime collects one
 * sim::PhaseInterval per hosted programmed node — the digital
 * input-quantization phase and the ADC-limited phase — and reduces
 * them with sim::chipBusyNs (per-phase busy intervals; with
 * TilePipeline::overlap, layer L's ADC phase hides layer L+1's
 * quantization within a chip). Stages then close the recurrence
 *
 *     done[s][m] = max(done[s-1][m] + transfer[s][m],
 *                      done[s][m-1]) + busy[s][m]
 *
 * where busy[s][m] is the max over the stage's (replica) chips.
 *
 * Thread-safety: construction and forward() must be called from one
 * thread at a time (the image-id counter is mutable); the internal
 * work shards on the configured ThreadPool. Distinct PipelineRuntime
 * instances are independent. The borrowed graph and layer states
 * must not be mutated while the runtime is alive.
 *
 * Typical flow:
 *
 *     auto graph = compile::lowerNetwork(net);
 *     compile::foldBatchNorm(graph);
 *     auto states = sim::snapshotCompress(net, frag, bits);
 *     sim::PipelineRuntime one(graph, states, rcfg);   // single chip
 *     Tensor logits = one.forward(batch, &rows);       // RuntimeReport
 *
 *     graph.inferShapes({3, 32, 32});                  // to partition
 *     compile::ScheduleConfig scfg;
 *     scfg.chips = 4;
 *     scfg.replicateThreshold = 1.05;   // replicate pipeline hogs
 *     auto sched = compile::Schedule::partition(graph, scfg);
 *     sim::PipelineRuntime rt(graph, sched, states, cfg);
 *     logits = rt.forward(batch, &report);             // PipelineReport
 */

#ifndef FORMS_SIM_PIPELINE_RUNTIME_HH
#define FORMS_SIM_PIPELINE_RUNTIME_HH

#include "compile/schedule.hh"
#include "sim/graph_exec.hh"
#include "sim/perf_model.hh"
#include "sim/runtime.hh"

namespace forms::obs {
class TraceSession;
} // namespace forms::obs

namespace forms::sim {

/** Pipelined runtime construction knobs. */
struct PipelineRuntimeConfig
{
    RuntimeConfig runtime;  //!< geometry, engine knobs, host pool
    int microBatch = 1;     //!< images per pipeline micro-batch (>= 1)
    TilePipeline tile;      //!< intra-chip phase-overlap timing model

    /**
     * Trace sink (borrowed, may be null). When set, each forward()
     * reconstructs the modeled multi-chip timeline — per-chip
     * stage/micro-batch slices, quant/ADC sub-phases, transfer flow
     * arrows — into the session (docs/OBSERVABILITY.md). A pure
     * observer: logits and EngineStats are bit-identical with or
     * without it.
     */
    obs::TraceSession *trace = nullptr;
};

/** One chip's slice of a pipeline report. */
struct ChipReport
{
    int chip = -1;
    int stage = -1;              //!< pipeline stage this chip serves
    int replicas = 1;            //!< chips sharing the stage (>1 = replicated)
    size_t nodes = 0;            //!< graph nodes assigned
    size_t programmedNodes = 0;  //!< crossbar-programmed among them
    int64_t crossbars = 0;

    /**
     * Node accumulators merged in topo order. A replicated node's
     * accumulator covers all replicas and lands on the stage's
     * primary chip only (replica chips report zero stats here but
     * nonzero busy time).
     */
    arch::EngineStats stats;

    double computeNs = 0.0;      //!< modeled ADC-phase time over the batch
    double quantNs = 0.0;        //!< modeled quantization-phase time
    double busyNs = 0.0;         //!< per-phase busy time (overlap applied)
    double transferInNs = 0.0;   //!< modeled wait on the inbound link
    double transferInPj = 0.0;   //!< inbound link energy
    double utilization = 0.0;    //!< busyNs / pipeline makespan

    /**
     * Zero-skip activity of this chip's ADC phases, summed over the
     * batch: input bit cycles actually presented vs elided
     * (PhaseInterval's counters). computeNs already charges only the
     * presented cycles; eicFraction() reports the measured density.
     */
    uint64_t adcBitCycles = 0;
    uint64_t adcSkippedCycles = 0;

    /**
     * Fault exposure of this chip's programmed engines (0 without a
     * RuntimeConfig::faults map): crossbars whose used window carries
     * at least one overlaid fault, and crossbars the spare-remap pass
     * rerouted off a dead column. Replicated nodes count on every
     * hosting chip (each chip programs its own faulted replica).
     */
    int64_t faultyCrossbars = 0;
    int64_t remappedCrossbars = 0;

    /** Presented fraction of worst-case input cycles (1 = no skip). */
    double eicFraction() const
    {
        const uint64_t all = adcBitCycles + adcSkippedCycles;
        return all == 0
            ? 1.0
            : static_cast<double>(adcBitCycles) /
                static_cast<double>(all);
    }
};

/**
 * Pipeline execution report. `nodes` carries the same per-node rows
 * (names, order, merged stats) whatever the schedule; the
 * pipeline-level fields summarize the modeled multi-chip schedule.
 */
struct PipelineReport
{
    RuntimeReport nodes;          //!< per-node rows, any schedule
    std::vector<ChipReport> chips;
    int stages = 0;               //!< pipeline stages (< chips when replicated)
    int microBatches = 0;
    int64_t images = 0;
    double makespanNs = 0.0;      //!< modeled pipeline completion time
    double bubbleFraction = 0.0;  //!< 1 - sum(busy) / (chips * makespan)
    double transferNs = 0.0;      //!< total modeled link time
    double transferPj = 0.0;      //!< total modeled link energy

    /**
     * Quantization-phase time hidden behind ADC phases by the
     * intra-chip tile pipeline (0 when TilePipeline::overlap is off).
     */
    double overlapSavedNs = 0.0;

    /** Fleet-wide fault exposure: sums of the per-chip counters. */
    int64_t faultyCrossbars = 0;
    int64_t remappedCrossbars = 0;

    /** Modeled pipeline throughput over this report's images. */
    double modeledFps() const
    {
        return makespanNs > 0.0
            ? static_cast<double>(images) / (makespanNs * 1e-9) : 0.0;
    }
};

/** Crossbar allocation of one programmed graph node. */
struct GraphNodeAlloc
{
    int nodeId = -1;
    std::string name;
    Shape outShape;        //!< per-sample shape (from inferShapes)
    int64_t crossbars = 0; //!< per replica
};

/** Executes a partitioned, folded, compressed layer graph. */
class PipelineRuntime
{
  public:
    /**
     * Single-chip runtime: program every Conv/Dense node of `graph`
     * onto one chip (compile::Schedule::singleChip) and run each
     * forward as one whole-batch micro-batch. The graph needs no
     * inferShapes(); `graph` and `layers` are as below.
     */
    PipelineRuntime(const compile::Graph &graph,
                    std::vector<admm::LayerState> &layers,
                    RuntimeConfig cfg);

    /**
     * Map every Conv/Dense node of `graph` and program it onto each
     * chip hosting it (replicated stages program one identical engine
     * per replica chip).
     *
     * @param graph the compiled DAG; borrowed (with its backing
     *        nn::Network) — both must outlive the runtime
     * @param sched stage partition from compile::Schedule::partition
     *        on this same graph (copied; the schedule may be dropped)
     * @param layers per-layer compression state, matched to matrix
     *        nodes by weight-tensor identity — build *after*
     *        foldBatchNorm so projections see folded weights
     * @param cfg geometry, engine knobs, micro-batch size and the
     *        tile-pipeline timing model; fatal()s, naming the field,
     *        on a micro-batch below 1 (one larger than a batch runs
     *        that batch whole)
     */
    PipelineRuntime(const compile::Graph &graph,
                    compile::Schedule sched,
                    std::vector<admm::LayerState> &layers,
                    PipelineRuntimeConfig cfg);
    ~PipelineRuntime();

    PipelineRuntime(const PipelineRuntime &) = delete;
    PipelineRuntime &operator=(const PipelineRuntime &) = delete;

    /**
     * Stream a whole NCHW batch through the pipeline in micro-batches.
     * Returns the graph output (batch x classes for a classifier),
     * bit-identical to the single-chip whole-batch forward on the
     * same graph and batch for any chip count, micro-batch size,
     * thread count and replication factor. Per-node stats merge into
     * `report->nodes` rows in topological order; chip/pipeline fields
     * are overwritten (they describe this forward, not an
     * accumulation).
     */
    Tensor forward(const Tensor &batch, PipelineReport *report = nullptr);

    /** forward() reporting only the per-node rows (merged into `rows`). */
    Tensor forward(const Tensor &batch, RuntimeReport *rows);

    /**
     * Stream a batch of independently-identified images: image i keys
     * all its per-presentation randomness by `ids[i]` (one id per
     * batch image) instead of the runtime's implicit id counter, so a
     * request's logits — and, when `per_request` is given, its
     * RuntimeReport (one per image, resized/merged in batch order) —
     * are bit-identical for any batch composition, arrival order,
     * micro-batch size, chip count and replication factor
     * (docs/SERVING.md). Per-node stats of the whole batch merge
     * into `rows` when given. Does not consume ids from the counter
     * forward() uses.
     */
    Tensor forwardRequests(const Tensor &batch, const uint64_t *ids,
                           std::vector<RuntimeReport> *per_request = nullptr,
                           RuntimeReport *rows = nullptr);

    /**
     * Fraction of argmax(logits) == label over a labelled batch; the
     * forward's per-node rows merge into `rows` when given.
     */
    double accuracy(const Tensor &images, const std::vector<int> &labels,
                    RuntimeReport *rows = nullptr);

    /**
     * Restart the forward() image-id counter at 0, so the next
     * forward() replays the same randomness as a fresh runtime.
     */
    void resetPresentationStreams();

    /** Number of pipeline chips. */
    int chips() const { return sched_.chips(); }

    /** Total crossbars programmed across all chips (replicas count). */
    int64_t totalCrossbars() const;

    /** Number of executable nodes (programmed + functional). */
    size_t nodes() const { return execs_.size(); }

    /** Number of crossbar-programmed (Conv/Dense) nodes. */
    size_t programmedNodes() const { return allocation().size(); }

    /** Per-programmed-node crossbar allocation, in topological order. */
    std::vector<GraphNodeAlloc> allocation() const;

  private:
    const compile::Graph &graph_;
    compile::Schedule sched_;
    std::vector<int> topo_;               //!< fixed node schedule
    std::vector<NodeExec> execs_;         //!< parallel to topo_
    PipelineRuntimeConfig cfg_;
    uint64_t nextImageId_ = 0;            //!< forward()'s id counter

    ThreadPool &pool() const;

    /** The next `n` forward() image ids; advances the counter. */
    std::vector<uint64_t> takeIds(int64_t n);

    /** The forward body: rows merge into `rows`, the model into `report`. */
    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<RuntimeReport> *per_request, RuntimeReport *rows,
               PipelineReport *report);

    /** Reconstruct the modeled timeline into a trace session. */
    void emitTrace(
        obs::TraceSession &tr, const PipelineReport &rep,
        const std::vector<std::vector<std::vector<PhaseInterval>>>
            &phases,
        const std::vector<std::vector<double>> &busy,
        const std::vector<std::vector<double>> &stage_busy_sm,
        const std::vector<std::vector<double>> &done, int64_t mb,
        int64_t images) const;
};

} // namespace forms::sim

#endif // FORMS_SIM_PIPELINE_RUNTIME_HH
