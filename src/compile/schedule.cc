#include "compile/schedule.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "nn/layers.hh"

namespace forms::compile {

double
nodeWork(const Node &n, WorkModel model)
{
    FORMS_ASSERT(!n.outShape.empty(),
                 "nodeWork: run inferShapes() before partitioning");
    int64_t out_elems = 1;
    for (int64_t d : n.outShape)
        out_elems *= d;
    const bool timed =
        model == WorkModel::AdcTime || model == WorkModel::EicTime;
    // EicTime: a zero-skipping engine pays avgEic of the inputBits
    // worst-case bit cycles per fragment, so the node's ADC-latency
    // share shrinks by its measured bit-density. An unmeasured node
    // (density 0, e.g. no calibration attached) charges full
    // precision — EicTime then degrades to AdcTime rather than
    // mis-ranking measured against unmeasured nodes.
    const double density =
        model == WorkModel::EicTime && n.eicDensity > 0.0f
        ? static_cast<double>(n.eicDensity) : 1.0;
    switch (n.op) {
    case Op::Conv: {
        const double rows = static_cast<double>(n.conv->kernel()) *
                            n.conv->kernel() * n.conv->inChannels();
        if (timed) {
            // Presentations (output pixels) x im2col rows: output
            // channels read in parallel across arrays, so they cost
            // crossbars, not time.
            const double pres = static_cast<double>(out_elems) /
                                n.conv->outChannels();
            return pres * rows * density;
        }
        return static_cast<double>(out_elems) * rows;
    }
    case Op::Dense:
        if (timed)
            return static_cast<double>(n.dense->inDim()) * density;
        return static_cast<double>(n.dense->inDim()) * n.dense->outDim();
    default:
        // Functional ops (relu, pool, BN, add...) are digital
        // periphery work, orders of magnitude below a crossbar MVM;
        // charge one unit per output element so empty chips still
        // lose to chips with real work in the balance objective.
        return static_cast<double>(out_elems);
    }
}

double
nodeWork(const Node &n)
{
    return nodeWork(n, WorkModel::Macs);
}

namespace {

/** float32 bytes of one node's per-sample output tensor. */
int64_t
bytesPerSample(const Node &n)
{
    int64_t elems = 1;
    for (int64_t d : n.outShape)
        elems *= d;
    return elems * static_cast<int64_t>(sizeof(float));
}

/** True for ops that program crossbars (the only replicable ones). */
bool
isMatrix(Op op)
{
    return op == Op::Conv || op == Op::Dense;
}

/**
 * Lexicographic (maxWork, cutCost) objective value. cutCost is the
 * boundary traffic with each crossing weighted by the receiving
 * chip's inverse relative link bandwidth; on a homogeneous fleet
 * every weight is 1.0, so cutCost equals the integer byte count
 * exactly (byte totals stay far below 2^53) and the tie-breaking is
 * bit-identical to the historical int64 objective.
 */
struct Cost
{
    double maxWork = std::numeric_limits<double>::infinity();
    double cutCost = 0.0;

    bool betterThan(const Cost &o) const
    {
        if (maxWork != o.maxWork)
            return maxWork < o.maxWork;
        return cutCost < o.cutCost;
    }
};

/** One DP backpointer: previous cut position and this stage's width. */
struct From
{
    int cut = -1;    //!< topo position where this stage starts
    int width = 0;   //!< chips this stage occupies
};

} // namespace

Schedule
Schedule::partition(const Graph &g, const ScheduleConfig &cfg)
{
    const std::vector<int> topo = g.topoOrder();
    const int n = static_cast<int>(topo.size());
    FORMS_ASSERT(n > 0, "partition: empty graph");
    const int requested = std::max(1, cfg.chips);

    // Topo position of each node id, and prefix sums of node work so
    // any contiguous stage's work is O(1) to evaluate.
    std::vector<int> pos(static_cast<size_t>(g.capacity()), -1);
    for (int i = 0; i < n; ++i)
        pos[static_cast<size_t>(topo[i])] = i;
    std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
    for (int i = 0; i < n; ++i) {
        prefix[static_cast<size_t>(i) + 1] =
            prefix[static_cast<size_t>(i)] +
            nodeWork(g.node(topo[static_cast<size_t>(i)]),
                     cfg.workModel);
    }

    // Replication eligibility per topo position: a matrix node whose
    // work exceeds the threshold times the ideal per-chip share
    // (total work / requested chips) may anchor a multi-chip stage.
    // The gate is a pure function of (graph, config). mat_prefix
    // counts matrix nodes so the DP can test "range holds exactly one
    // matrix node" in O(1); last_mat[i] names the latest matrix
    // position < i.
    const int max_width =
        cfg.replicateThreshold > 0.0
            ? std::max(1, std::min(cfg.maxReplicas, requested)) : 1;
    std::vector<uint8_t> replicable(static_cast<size_t>(n), 0);
    std::vector<int> mat_prefix(static_cast<size_t>(n) + 1, 0);
    std::vector<int> last_mat(static_cast<size_t>(n) + 1, -1);
    int eligible = 0;
    if (max_width > 1) {
        const double ideal = prefix[static_cast<size_t>(n)] /
                             static_cast<double>(requested);
        for (int i = 0; i < n; ++i) {
            const Node &node = g.node(topo[static_cast<size_t>(i)]);
            const bool mat = isMatrix(node.op);
            const double w = prefix[static_cast<size_t>(i) + 1] -
                             prefix[static_cast<size_t>(i)];
            replicable[static_cast<size_t>(i)] =
                mat && w > cfg.replicateThreshold * ideal;
            eligible += replicable[static_cast<size_t>(i)];
            mat_prefix[static_cast<size_t>(i) + 1] =
                mat_prefix[static_cast<size_t>(i)] + (mat ? 1 : 0);
            last_mat[static_cast<size_t>(i) + 1] =
                mat ? i : last_mat[static_cast<size_t>(i)];
        }
    }

    // Usable chip count. Without replication every stage needs its
    // own node, so chips clamp to the live node count (the PR 3
    // invariant); a replicated stage consumes up to max_width chips
    // for one anchor node, so each eligible node can absorb
    // max_width - 1 extra chips — any count up to that bound is
    // reachable by widening anchors one chip at a time, keeping the
    // DP feasible by construction.
    const int chips = std::min(
        requested, n + eligible * (max_width - 1));

    // Resolve per-chip cost vectors: explicit cfg.chipSpecs, else a
    // homogeneous fleet. The DP only sees the model-dependent
    // *effective* capacity — compute throughput for Macs, throughput
    // x ADC rate for the ADC-latency models — and the inverse link
    // weight.
    std::vector<ChipSpec> specs = cfg.chipSpecs;
    if (!specs.empty() && static_cast<int>(specs.size()) != cfg.chips) {
        fatal("partition: chipSpecs vector has %zu entries for %d "
              "chips", specs.size(), cfg.chips);
    }
    // When the chip count was clamped, the trailing specs have no
    // stage to describe.
    specs.resize(static_cast<size_t>(chips), ChipSpec{});
    const bool timed = cfg.workModel == WorkModel::AdcTime ||
                       cfg.workModel == WorkModel::EicTime;
    std::vector<double> capacity(static_cast<size_t>(chips), 1.0);
    std::vector<double> inv_link(static_cast<size_t>(chips), 1.0);
    for (int s = 0; s < chips; ++s) {
        const ChipSpec &spec = specs[static_cast<size_t>(s)];
        if (spec.capacity <= 0.0)
            fatal("partition: chip %d capacity must be positive", s);
        if (spec.adcScale <= 0.0 || spec.linkIn <= 0.0)
            fatal("partition: chip %d adcScale/linkIn must be "
                  "positive", s);
        capacity[static_cast<size_t>(s)] =
            spec.capacity * (timed ? spec.adcScale : 1.0);
        inv_link[static_cast<size_t>(s)] = 1.0 / spec.linkIn;
    }
    // Prefix sums of chip capacity so a replicated stage's pooled
    // capacity over chips [a, b) is O(1) to evaluate.
    std::vector<double> cap_prefix(static_cast<size_t>(chips) + 1, 0.0);
    for (int s = 0; s < chips; ++s) {
        cap_prefix[static_cast<size_t>(s) + 1] =
            cap_prefix[static_cast<size_t>(s)] +
            capacity[static_cast<size_t>(s)];
    }

    // last[i]: last topo position where node topo[i]'s value is
    // needed — its furthest consumer, or past the end for the graph
    // output (it leaves the last stage's scope). The DP's cut costs
    // and the materialized transfers both derive from this one
    // liveness computation, so the optimized objective always matches
    // the cost the pipeline runtime charges.
    std::vector<int> last(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        const int id = topo[static_cast<size_t>(i)];
        int l = i;
        for (int c : g.consumers(id))
            l = std::max(l, pos[static_cast<size_t>(c)]);
        if (id == g.output())
            l = n;
        last[static_cast<size_t>(i)] = l;
    }

    // cut[b]: bytes-per-sample crossing the boundary before topo
    // position b — the sum over unique producers before b with at
    // least one consumer (or the graph output) at or after b.
    std::vector<int64_t> cut(static_cast<size_t>(n) + 1, 0);
    for (int i = 0; i < n; ++i) {
        // The value is live across boundaries (i, last]: it must hop
        // every one of them on the linear stage-to-stage link.
        const int64_t bytes =
            bytesPerSample(g.node(topo[static_cast<size_t>(i)]));
        for (int b = i + 1;
             b <= last[static_cast<size_t>(i)] && b <= n; ++b)
            cut[static_cast<size_t>(b)] += bytes;
    }

    // Exact DP over (topo position, chips consumed): best[c][i] =
    // optimal cost of packing the first i topo nodes onto the first c
    // chips, every stage non-empty and contiguous. The closing stage
    // either takes one chip (any node range) or, when it contains
    // exactly one matrix node and that node is replication-eligible,
    // w consecutive chips whose pooled capacity divides the stage's
    // work (functional neighbors ride along with the replicated
    // matrix node — their per-slice work splits the same way).
    // Transition order — widths ascending, previous cuts ascending —
    // combined with strict betterThan makes ties resolve to the
    // narrowest replica width and then the smallest cut vector, so
    // the result is deterministic.
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<Cost>> best(
        static_cast<size_t>(chips) + 1,
        std::vector<Cost>(static_cast<size_t>(n) + 1));
    std::vector<std::vector<From>> from(
        static_cast<size_t>(chips) + 1,
        std::vector<From>(static_cast<size_t>(n) + 1));
    best[0][0] = Cost{0.0, 0.0};
    for (int c = 1; c <= chips; ++c) {
        for (int i = 1; i <= n; ++i) {
            Cost pick;
            From arg;
            // Ordinary stage on chip c-1: nodes (j, i].
            for (int j = 0; j < i; ++j) {
                const Cost &prev = best[static_cast<size_t>(c) - 1]
                                       [static_cast<size_t>(j)];
                if (prev.maxWork == inf)
                    continue;
                const double stage_work =
                    (prefix[static_cast<size_t>(i)] -
                     prefix[static_cast<size_t>(j)]) /
                    capacity[static_cast<size_t>(c) - 1];
                // The boundary's bytes land on this stage's (single)
                // chip c-1; weight them by its inbound link.
                const Cost cand{
                    std::max(prev.maxWork, stage_work),
                    prev.cutCost +
                        static_cast<double>(cut[static_cast<size_t>(j)]) *
                            inv_link[static_cast<size_t>(c) - 1]};
                if (cand.betterThan(pick)) {
                    pick = cand;
                    arg = {j, 1};
                }
            }
            // Replicated stage on chips [c-w, c): nodes (j, i], where
            // the range holds exactly one matrix node — an eligible
            // one — and the stage's work divides across the pooled
            // capacity of its w chips. Anchoring on the single matrix
            // node keeps the replication semantics simple (one set of
            // weights programmed R times) while letting the graph
            // input / relu / pool neighbors ride along instead of
            // stranding a chip on trivial work.
            const int anchor = last_mat[static_cast<size_t>(i)];
            if (anchor >= 0 && replicable[static_cast<size_t>(anchor)]) {
                for (int w = 2; w <= max_width && w <= c; ++w) {
                    const double pool_cap =
                        cap_prefix[static_cast<size_t>(c)] -
                        cap_prefix[static_cast<size_t>(c - w)];
                    for (int j = 0; j < i; ++j) {
                        // Exactly one matrix node in (j, i].
                        if (mat_prefix[static_cast<size_t>(i)] -
                                mat_prefix[static_cast<size_t>(j)] != 1)
                            continue;
                        const Cost &prev =
                            best[static_cast<size_t>(c - w)]
                                [static_cast<size_t>(j)];
                        if (prev.maxWork == inf)
                            continue;
                        const double stage_work =
                            (prefix[static_cast<size_t>(i)] -
                             prefix[static_cast<size_t>(j)]) / pool_cap;
                        // Bytes into a replicated stage land on its
                        // first chip (the stage's primary).
                        const Cost cand{
                            std::max(prev.maxWork, stage_work),
                            prev.cutCost +
                                static_cast<double>(
                                    cut[static_cast<size_t>(j)]) *
                                    inv_link[static_cast<size_t>(
                                        c - w)]};
                        if (cand.betterThan(pick)) {
                            pick = cand;
                            arg = {j, w};
                        }
                    }
                }
            }
            best[static_cast<size_t>(c)][static_cast<size_t>(i)] = pick;
            from[static_cast<size_t>(c)][static_cast<size_t>(i)] = arg;
        }
    }

    // Recover the stages back-to-front: each backpointer names the
    // stage's first topo position and its chip width.
    FORMS_ASSERT(best[static_cast<size_t>(chips)][static_cast<size_t>(n)]
                         .maxWork != inf,
                 "partition: DP failed to place every stage");
    struct StageRec
    {
        int begin = 0, end = 0, firstChip = 0, width = 0;
    };
    std::vector<StageRec> recs;
    for (int c = chips, i = n; i > 0;) {
        const From &f = from[static_cast<size_t>(c)][static_cast<size_t>(i)];
        FORMS_ASSERT(f.width > 0, "partition: broken DP backpointer");
        recs.push_back({f.cut, i, c - f.width, f.width});
        i = f.cut;
        c -= f.width;
    }
    std::reverse(recs.begin(), recs.end());

    Schedule sched;
    sched.chips_ = chips;
    sched.chipSpecs_ = specs;
    sched.stageOf_.assign(static_cast<size_t>(g.capacity()), -1);
    sched.chipNodes_.resize(static_cast<size_t>(chips));
    sched.chipWork_.assign(static_cast<size_t>(chips), 0.0);
    for (size_t s = 0; s < recs.size(); ++s) {
        const StageRec &r = recs[s];
        sched.stageFirstChip_.push_back(r.firstChip);
        sched.stageWidth_.push_back(r.width);
        std::vector<int> nodes;
        double work = 0.0;
        for (int i = r.begin; i < r.end; ++i) {
            const int id = topo[static_cast<size_t>(i)];
            sched.stageOf_[static_cast<size_t>(id)] =
                static_cast<int>(s);
            nodes.push_back(id);
            work += nodeWork(g.node(id), cfg.workModel);
        }
        const double pool_cap =
            cap_prefix[static_cast<size_t>(r.firstChip + r.width)] -
            cap_prefix[static_cast<size_t>(r.firstChip)];
        for (int chip = r.firstChip; chip < r.firstChip + r.width;
             ++chip) {
            auto &list = sched.chipNodes_[static_cast<size_t>(chip)];
            list.insert(list.end(), nodes.begin(), nodes.end());
            // A chip's share of its stage's work is its capacity
            // fraction of the stage's pooled capacity.
            sched.chipWork_[static_cast<size_t>(chip)] =
                work * capacity[static_cast<size_t>(chip)] / pool_cap;
        }
        sched.stageNodes_.push_back(std::move(nodes));
        sched.work_.push_back(work);
    }

    // Materialize the boundary hops, ordered by (fromStage, producer).
    for (size_t s = 0; s + 1 < recs.size(); ++s) {
        const int b = recs[s + 1].begin;
        for (int i = 0; i < b; ++i) {
            if (last[static_cast<size_t>(i)] >= b) {
                const int id = topo[static_cast<size_t>(i)];
                Transfer t;
                t.producer = id;
                t.fromStage = static_cast<int>(s);
                t.toStage = static_cast<int>(s) + 1;
                t.bytesPerSample = bytesPerSample(g.node(id));
                // The hop out of a replicated producer's own stage
                // rejoins the per-replica presentation slices.
                t.mergeReplicas =
                    sched.stageOf_[static_cast<size_t>(id)] ==
                        static_cast<int>(s) &&
                    recs[s].width > 1;
                sched.transfers_.push_back(t);
            }
        }
    }
    return sched;
}

Schedule
Schedule::singleChip(const Graph &g)
{
    const std::vector<int> topo = g.topoOrder();
    FORMS_ASSERT(!topo.empty(), "singleChip: empty graph");
    bool shaped = true;
    for (int id : topo)
        shaped = shaped && !g.node(id).outShape.empty();
    double work = 0.0;
    if (shaped) {
        for (int id : topo)
            work += nodeWork(g.node(id));
    }

    Schedule sched;
    sched.chips_ = 1;
    sched.chipSpecs_.assign(1, ChipSpec{});
    sched.stageOf_.assign(static_cast<size_t>(g.capacity()), -1);
    for (int id : topo)
        sched.stageOf_[static_cast<size_t>(id)] = 0;
    sched.stageNodes_ = {topo};
    sched.chipNodes_ = {topo};
    sched.stageFirstChip_ = {0};
    sched.stageWidth_ = {1};
    sched.work_ = {work};
    sched.chipWork_ = {work};
    return sched;
}

int
Schedule::stageOf(int id) const
{
    if (id < 0 || static_cast<size_t>(id) >= stageOf_.size())
        return -1;
    return stageOf_[static_cast<size_t>(id)];
}

int
Schedule::chipOf(int id) const
{
    const int s = stageOf(id);
    return s < 0 ? -1 : stageFirstChip_[static_cast<size_t>(s)];
}

int
Schedule::replicasOf(int id) const
{
    const int s = stageOf(id);
    return s < 0 ? 1 : stageWidth_[static_cast<size_t>(s)];
}

int
Schedule::stageFirstChip(int s) const
{
    FORMS_ASSERT(s >= 0 && s < stages(), "stageFirstChip: bad stage");
    return stageFirstChip_[static_cast<size_t>(s)];
}

int
Schedule::stageWidth(int s) const
{
    FORMS_ASSERT(s >= 0 && s < stages(), "stageWidth: bad stage");
    return stageWidth_[static_cast<size_t>(s)];
}

double
Schedule::stageWork(int s) const
{
    FORMS_ASSERT(s >= 0 && s < stages(), "stageWork: bad stage");
    return work_[static_cast<size_t>(s)];
}

double
Schedule::chipWork(int chip) const
{
    FORMS_ASSERT(chip >= 0 && chip < chips_, "chipWork: bad chip");
    return chipWork_[static_cast<size_t>(chip)];
}

int64_t
Schedule::cutBytesPerSample() const
{
    int64_t total = 0;
    for (const Transfer &t : transfers_)
        total += t.bytesPerSample;
    return total;
}

std::string
Schedule::dump() const
{
    std::string out;
    for (int s = 0; s < stages(); ++s) {
        const int first = stageFirstChip_[static_cast<size_t>(s)];
        const int width = stageWidth_[static_cast<size_t>(s)];
        if (width == 1)
            out += strfmt("stage %d [chip %d] (work %.3g):", s, first,
                          stageWork(s));
        else
            out += strfmt("stage %d [chips %d-%d, x%d] (work %.3g):",
                          s, first, first + width - 1, width,
                          stageWork(s));
        for (int id : stageNodes_[static_cast<size_t>(s)])
            out += strfmt(" %d", id);
        out += "\n";
    }
    for (const Transfer &t : transfers_) {
        out += strfmt("transfer node %d: stage %d -> %d (%lld B/sample)%s\n",
                      t.producer, t.fromStage, t.toStage,
                      static_cast<long long>(t.bytesPerSample),
                      t.mergeReplicas ? " merge" : "");
    }
    return out;
}

} // namespace forms::compile
