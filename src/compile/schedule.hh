/**
 * @file
 * Multi-chip partitioning pass over the layer-graph IR, with
 * optional replicated stages for throughput balancing.
 *
 * A Schedule assigns every live node of a compile::Graph to one of S
 * pipeline *stages* arranged linearly: stage 0 feeds stage 1 feeds
 * stage 2, and so on. Each stage occupies one or more of the N
 * simulated chips:
 *
 *   - an ordinary stage is a contiguous slice of the graph's
 *     deterministic topological order on a single chip (the PR 3
 *     model, where stage == chip), and
 *   - a **replicated** stage spans R consecutive chips and is
 *     anchored on exactly one matrix node (it may also carry cheap
 *     functional neighbors — graph input, relu, pooling — so trivial
 *     prefix work never strands a chip). Every replica chip programs
 *     the anchor's weights into its own arch::EnginePool and
 *     processes a deterministic, presentation-index-keyed slice of
 *     each micro-batch (replica r of R takes the contiguous
 *     presentation range [floor(P*r/R), floor(P*(r+1)/R)) — see
 *     sim/stage_kernels.hh), so an early layer that would otherwise
 *     dominate the critical path is spread R ways, ISAAC/FORMS-style.
 *
 * Stage assignments stay contiguous in topological order, so
 * inter-stage dataflow is acyclic by construction and stage k only
 * ever sends tensors forward to stage k+1. Tensor edges that cross a
 * stage boundary become explicit Transfer records (store-and-forward
 * across intermediate stages); the hop leaving a replicated
 * producer's stage is flagged `mergeReplicas` — the R presentation
 * slices rejoin into one tensor there. The pipelined executor
 * (sim/pipeline_runtime.hh) charges each hop with a configurable
 * latency/energy cost (sim::InterChipLink).
 *
 * The partitioner is an exact dynamic program over (topo cut
 * position, chips consumed). It minimizes, lexicographically:
 *
 *   1. the maximum capacity-normalized per-chip compute work — a
 *      replicated stage's work divides across the capacity of all
 *      its chips (a balanced pipeline is throughput-optimal), then
 *   2. the total tensor traffic crossing stage boundaries
 *      (min-cut-ish on the tensor edges), then
 *   3. the cut-position vector itself (smallest cut first, then the
 *      smallest replica width),
 *
 * so the result is a pure function of (graph, config) — never of
 * thread timing or iteration order. Determinism is load-bearing:
 * per-chip EngineStats presentation streams and merge order follow
 * the partition, and replica stats merge in presentation order
 * (DESIGN.md §5, docs/SCHEDULING.md).
 *
 * Thread-safety: partition() is a pure function and re-entrant. A
 * built Schedule is immutable; concurrent reads are safe. The
 * schedule borrows nothing from the graph — it holds plain ids — but
 * is only meaningful for the graph (and topology) it was built from.
 */

#ifndef FORMS_COMPILE_SCHEDULE_HH
#define FORMS_COMPILE_SCHEDULE_HH

#include "compile/graph.hh"

namespace forms::compile {

/**
 * Work model used by the balance objective. MAC count (the PR 3
 * model) measures compute *volume*, but the pipeline's critical path
 * is ADC-limited *latency*: a layer's modeled time scales with its
 * presentation count times its input rows, and early layers push 4x
 * the presentations of late ones per MAC (crossbars read all output
 * columns in parallel, so output width costs arrays, not time).
 * AdcTime balances — and gates replication on — that latency proxy,
 * which is what actually drains pipeline bubbles; Macs remains the
 * default for compatibility with the PR 3 partitions.
 *
 * AdcTime still charges every layer the full input precision, but
 * the zero-skip engine only pays each fragment's *effective input
 * cycles* (arch/zero_skip.hh): a ReLU-heavy layer whose activations
 * are mostly zero finishes its ADC phase in a fraction of the
 * worst-case cycles. EicTime scales each matrix node's AdcTime work
 * by its measured input bit-density (Node::eicDensity, stamped by
 * CalibrationTable::attachTo from a calibration run; unmeasured
 * nodes fall back to density 1, i.e. plain AdcTime) — so the balance
 * and replication decisions see the time the hardware will actually
 * spend, not the time a dense input would cost
 * (docs/SCHEDULING.md derives the model).
 */
enum class WorkModel
{
    Macs,     //!< MAC count: compute-volume balance (PR 3 behaviour)
    AdcTime,  //!< presentations x input rows: ADC-latency balance
    EicTime,  //!< AdcTime x measured input bit-density (zero-skip aware)
};

/**
 * Per-chip cost vector for heterogeneous fleets. All factors are
 * *relative* (1.0 = the reference chip); the absolute time and energy
 * scales stay in the pipeline runtime's device models.
 */
struct ChipSpec
{
    /**
     * Relative compute throughput. The balance objective divides a
     * chip's work by its capacity, so a 2.0 chip takes roughly twice
     * the nodes (all WorkModels).
     */
    double capacity = 1.0;

    /**
     * Relative ADC conversion rate. The timed models (AdcTime,
     * EicTime) measure ADC-limited latency, so their effective
     * capacity is capacity * adcScale; the Macs model measures
     * compute volume and ignores it.
     */
    double adcScale = 1.0;

    /**
     * Relative inbound link bandwidth. The DP's cut tie-breaker
     * weighs bytes crossing into this chip by 1 / linkIn, and the
     * pipeline runtime divides the modeled transfer time into this
     * chip's stage by it.
     */
    double linkIn = 1.0;
};

/** Partitioner knobs. */
struct ScheduleConfig
{
    /**
     * Pipeline chip count. Without replication it clamps to the live
     * node count (each stage needs a node of its own); with
     * replication enabled, every eligible anchor can absorb up to
     * maxReplicas - 1 extra chips beyond that.
     */
    int chips = 1;

    /**
     * Heterogeneous per-chip cost vectors (empty = homogeneous fleet).
     * When non-empty it must have exactly `chips` entries
     * (partition() fatal()s otherwise); if the chip count is clamped
     * to a smaller live node count, trailing entries are ignored. An
     * all-default vector reproduces the homogeneous partitions
     * bit-for-bit (tests/test_schedule.cc pins this).
     */
    std::vector<ChipSpec> chipSpecs;

    /**
     * Stage-replication gate: 0 (the default) disables replication
     * and reproduces the PR 3 contiguous stage-per-chip partition
     * exactly. When > 0, a matrix node (Conv/Dense) whose work
     * exceeds `replicateThreshold * (total work / chips)` may anchor
     * a stage replicated across up to maxReplicas consecutive chips;
     * the DP decides the actual width by the balance objective.
     * Values slightly above 1.0 replicate only nodes that provably
     * bottleneck any contiguous partition.
     */
    double replicateThreshold = 0.0;

    /**
     * Upper bound on the chips one replicated stage may occupy
     * (clamped to the chip count; values < 2 disable replication).
     */
    int maxReplicas = 4;

    /** Balance objective's work measure (see WorkModel). */
    WorkModel workModel = WorkModel::Macs;
};

/**
 * One tensor's hop across a stage boundary: node `producer`'s output
 * moving from stage `fromStage` to stage `fromStage + 1`. A value
 * consumed several stages downstream appears once per boundary it
 * crosses (store-and-forward on a linear stage-to-stage link).
 * Without replication, stage indices coincide with chip indices.
 */
struct Transfer
{
    int producer = -1;       //!< node id whose output moves
    int fromStage = -1;      //!< sending stage (receiver is fromStage+1)
    int toStage = -1;        //!< receiving stage (always fromStage + 1)
    int64_t bytesPerSample = 0;  //!< float32 payload per batch sample

    /**
     * True on the hop leaving a replicated producer's own stage: the
     * R per-replica presentation slices rejoin into one tensor at
     * this boundary (the merge is free in the model — slices are
     * disjoint rows of the same buffer — but the record makes the
     * rejoin explicit for the timing model and for dumps).
     */
    bool mergeReplicas = false;
};

/**
 * A stage assignment for every live node of one graph, plus the
 * induced inter-stage transfers. Build with partition(); the graph
 * must have run inferShapes() first (edge traffic is measured in
 * output-tensor bytes).
 */
class Schedule
{
  public:
    /**
     * Partition `g` into pipeline stages over cfg.chips chips (see
     * file header for the objective). Requires inferShapes() to have
     * run; fatal()s on empty shapes or a malformed chipSpecs vector.
     */
    static Schedule partition(const Graph &g, const ScheduleConfig &cfg);

    /**
     * The one-stage, one-chip schedule of `g`: every live node on
     * chip 0, no transfers, a default ChipSpec. Equal to partition()
     * with chips = 1, but does not need inferShapes(): the Macs stage
     * work is summed only when every shape is known, and is 0
     * otherwise.
     */
    static Schedule singleChip(const Graph &g);

    /** Number of chips actually used (<= cfg.chips). */
    int chips() const { return chips_; }

    /** Number of pipeline stages (== chips() when nothing replicates). */
    int stages() const { return static_cast<int>(stageNodes_.size()); }

    /** Stage owning live node `id` (-1 for dead/unknown ids). */
    int stageOf(int id) const;

    /**
     * Primary chip of live node `id` (-1 for dead/unknown ids): the
     * first chip of its stage. A replicated node also runs on the
     * width-1 chips after it; see replicasOf()/stageFirstChip().
     */
    int chipOf(int id) const;

    /** Replica count of node `id`'s stage (1 when not replicated). */
    int replicasOf(int id) const;

    /** Node ids per stage, each list in topological order. */
    const std::vector<std::vector<int>> &stageNodes() const
    {
        return stageNodes_;
    }

    /** First chip index of stage `s` (stages occupy consecutive chips). */
    int stageFirstChip(int s) const;

    /** Chips occupied by stage `s` (1 for ordinary stages). */
    int stageWidth(int s) const;

    /**
     * Node ids per chip, each list in topological order. A replicated
     * node appears in the list of every chip of its stage (each chip
     * programs its own replica engine).
     */
    const std::vector<std::vector<int>> &chipNodes() const
    {
        return chipNodes_;
    }

    /** All boundary hops, ordered by (fromStage, producer id). */
    const std::vector<Transfer> &transfers() const { return transfers_; }

    /**
     * Modeled compute work of one stage, in the configured
     * WorkModel's units.
     */
    double stageWork(int s) const;

    /**
     * Modeled compute work of one chip: its capacity share of its
     * stage's work (a replicated stage divides across its chips).
     */
    double chipWork(int chip) const;

    /** Total bytes-per-sample crossing all stage boundaries. */
    int64_t cutBytesPerSample() const;

    /** True when any stage is replicated (width > 1). */
    bool replicated() const { return stages() < chips_; }

    /**
     * Resolved per-chip cost vectors, one per used chip: the
     * validated cfg.chipSpecs, or defaults for a homogeneous fleet.
     * The pipeline runtime scales its per-chip timing by these.
     */
    const std::vector<ChipSpec> &chipSpecs() const { return chipSpecs_; }

    /** Multi-line human-readable dump (one stage per line). */
    std::string dump() const;

  private:
    int chips_ = 0;
    std::vector<int> stageOf_;              //!< by node id; -1 = dead
    std::vector<std::vector<int>> stageNodes_;
    std::vector<int> stageFirstChip_;
    std::vector<int> stageWidth_;
    std::vector<std::vector<int>> chipNodes_;
    std::vector<Transfer> transfers_;
    std::vector<double> work_;              //!< per stage
    std::vector<double> chipWork_;          //!< per chip
    std::vector<ChipSpec> chipSpecs_;       //!< per chip, resolved
};

/**
 * Compute-work estimate of one node under `model` (per sample):
 * Macs counts multiply-accumulates for Conv/Dense, AdcTime counts
 * presentations x input rows (the ADC-limited latency proxy), and
 * EicTime scales AdcTime by the node's measured input bit-density
 * (Node::eicDensity; 1 when unmeasured); all charge cheap functional
 * ops one unit per output element. Requires outShape to be inferred.
 * The one-argument form is the Macs model.
 */
double nodeWork(const Node &n, WorkModel model);
double nodeWork(const Node &n);

} // namespace forms::compile

#endif // FORMS_COMPILE_SCHEDULE_HH
