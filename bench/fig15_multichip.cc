/**
 * @file
 * Multi-chip pipeline scaling study (beyond the paper's single-chip
 * evaluation — "fig15" continues the paper's figure numbering): the
 * ResNet zoo plus two early-layer-bound convnets partitioned across
 * {1, 2, 4, 8} simulated chips by compile::Schedule and executed on
 * sim::PipelineRuntime, in four scheduler modes per chip count:
 *
 *   - contiguous       — the PR 3 baseline: MAC-balanced contiguous
 *                        stages, phases serialized within a chip;
 *   - tile_pipelined   — same partition, intra-chip tile pipelining
 *                        on (layer L's ADC phase overlaps layer
 *                        L+1's input quantization);
 *   - replicated_tile  — ADC-latency-balanced partition with stage
 *                        replication enabled (threshold 0.9, up to 4
 *                        replicas) plus tile pipelining;
 *   - eic_time         — the same, but balancing measured zero-skip
 *                        time (WorkModel::EicTime): each net is first
 *                        calibrated on a disjoint split and the
 *                        per-node input bit-densities are stamped on
 *                        the graph (Node::eicDensity), so the DP
 *                        balances the ADC time the engine will
 *                        actually spend rather than the dense worst
 *                        case.
 *
 * Emits BENCH_pipeline.json: per mode, modeled fps, speedup over the
 * same mode at 1 chip, bubble fraction, stage/replica shape, overlap
 * savings, measured ADC bit-cycle activity (adc_bit_cycles /
 * adc_skipped_cycles / eic_fraction, per mode and per chip) and
 * per-chip utilization — and the headline fps gain / bubble drop of
 * eic_time over the contiguous baseline. Also cross-checks that
 * pipelined logits are bit-identical to one chip's in every mode at
 * every chip count (the DESIGN.md §5 contract — chips and replicas
 * shard the model, not the arithmetic; the EIC annotations move only
 * modeled time, never numerics).
 *
 * Also emits trace_fig15.json, a Perfetto-loadable timeline of one
 * representative configuration (resnet_small, 4 chips,
 * replicated_tile) reconstructed by PipelineRuntime's trace sink
 * (docs/OBSERVABILITY.md), and cross-checks that the per-chip busy
 * totals in the trace agree with ChipReport::busyNs.
 */

#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"
#include "obs/run_manifest.hh"
#include "obs/trace.hh"
#include "sim/calibrator.hh"
#include "sim/pipeline_runtime.hh"

using namespace forms;
using namespace forms::sim;

namespace {

/**
 * Deep enough an image stream that the pipeline's fill/drain bubble
 * floor — (S-1)/(S+M-1) for S stages and M micro-batches — does not
 * dominate the measurement: at 4 stages and 16 single-image
 * micro-batches the floor is ~0.16, so the remaining bubble reflects
 * stage imbalance, which is what the schedule modes differ on.
 */
constexpr int kImages = 16;
constexpr int kMicroBatch = 1;
constexpr int kCalibImages = 4;  //!< disjoint EIC-calibration split
const int kChipCounts[] = {1, 2, 4, 8};
constexpr double kReplicateThreshold = 0.9;
constexpr int kMaxReplicas = 4;

/** The scheduler/timing configurations under comparison. */
struct Mode
{
    const char *name;
    compile::WorkModel workModel;
    double replicateThreshold;
    bool tileOverlap;
};

const Mode kModes[] = {
    {"contiguous", compile::WorkModel::Macs, 0.0, false},
    {"tile_pipelined", compile::WorkModel::Macs, 0.0, true},
    {"replicated_tile", compile::WorkModel::AdcTime,
     kReplicateThreshold, true},
    {"eic_time", compile::WorkModel::EicTime, kReplicateThreshold,
     true},
};
constexpr size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);

/** One (network, chip count, mode) measurement. */
struct ModeResult
{
    PipelineReport rep;
    int64_t cutBytesPerSample = 0;
    int stages = 0;
    int maxReplicas = 1;        //!< widest stage in the schedule
    bool logitsMatchGraph = false;
};

struct ChipCountResult
{
    int chips = 0;
    ModeResult modes[kNumModes];
};

struct NetResult
{
    std::string name;
    int64_t crossbars = 0;   //!< contiguous-mode programmed crossbars
    std::vector<ChipCountResult> points;
};

RuntimeConfig
benchConfig()
{
    RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    return rcfg;
}

/**
 * Early-layer-bound convnet: a wide full-resolution conv right after
 * the stem dominates the ADC-limited critical path (the shape the
 * replication pass exists for — no contiguous partition can balance
 * it).
 */
std::unique_ptr<nn::Network>
buildStemWide(Rng &rng)
{
    auto net = std::make_unique<nn::Network>();
    net->emplace<nn::Conv2D>("s0", 3, 12, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("r0");
    net->emplace<nn::Conv2D>("s1", 12, 12, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("r1");
    net->emplace<nn::MaxPool2D>("p1", 2, 2);
    net->emplace<nn::Conv2D>("s2", 12, 12, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("r2");
    net->emplace<nn::MaxPool2D>("p2", 2, 2);
    net->emplace<nn::Conv2D>("s3", 12, 12, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("r3");
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Dense>("fc", 12 * 8 * 8, 10, rng);
    return net;
}

/**
 * ReLU-sparse variant of the stem net: every conv bias is shifted
 * firmly negative, so the ReLUs zero most activations and every layer
 * after s0 sees a sparse, low-EIC input stream — only s0 itself keeps
 * eating the dense uniform images. AdcTime charges all layers the
 * dense worst case and balances accordingly; the measured densities
 * tell EicTime that the post-ReLU layers are far cheaper than they
 * look, which shifts the partition (and the replication budget)
 * toward the genuinely expensive dense stem.
 */
std::unique_ptr<nn::Network>
buildReluSparse(Rng &rng)
{
    auto net = buildStemWide(rng);
    for (size_t i = 0; i < net->size(); ++i) {
        auto *conv = dynamic_cast<nn::Conv2D *>(&net->layer(i));
        if (!conv)
            continue;
        Tensor &b = conv->bias();
        for (int64_t j = 0; j < b.numel(); ++j)
            b.data()[j] -= 0.5f;
    }
    return net;
}

/** Batch-summed zero-skip activity of a pipeline run's ADC phases. */
double
reportEicFraction(const PipelineReport &rep)
{
    uint64_t bits = 0;
    uint64_t skipped = 0;
    for (const ChipReport &c : rep.chips) {
        bits += c.adcBitCycles;
        skipped += c.adcSkippedCycles;
    }
    const uint64_t all = bits + skipped;
    return all == 0
        ? 1.0
        : static_cast<double>(bits) / static_cast<double>(all);
}

/** Compile, partition per (chip count, mode), pipeline, cross-check. */
NetResult
runNet(const std::string &name, nn::Network &net)
{
    NetResult r;
    r.name = name;

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 32, 32});
    const int folded = compile::foldBatchNorm(graph);
    auto states = snapshotCompress(net, 8, 8);

    // Calibrate on a disjoint split and stamp the measured per-node
    // input bit-densities onto the graph (Node::eicDensity) for the
    // eic_time schedule mode. The bench executes per-presentation
    // (benchConfig leaves RuntimeConfig::scaleMode at its default),
    // so the static scales attachTo also stamps never reach the
    // engines — the annotations move modeled time only, never logits.
    {
        Rng crng(19);
        Tensor calib({kCalibImages, 3, 32, 32});
        calib.fillUniform(crng, 0.0f, 1.0f);
        Calibrator cal(graph, states, benchConfig());
        cal.observe(calib);
        cal.table().attachTo(graph);
    }

    Rng rng(7);
    Tensor batch({kImages, 3, 32, 32});
    batch.fillUniform(rng, 0.0f, 1.0f);

    // Bit-identity reference: the plain DAG executor on one engine set.
    PipelineRuntime gref(graph, states, benchConfig());
    const Tensor ref_logits = gref.forward(batch);

    for (int chips : kChipCounts) {
        ChipCountResult point;
        point.chips = chips;
        for (size_t mi = 0; mi < kNumModes; ++mi) {
            const Mode &mode = kModes[mi];
            compile::ScheduleConfig scfg;
            scfg.chips = chips;
            scfg.workModel = mode.workModel;
            scfg.replicateThreshold = mode.replicateThreshold;
            scfg.maxReplicas = kMaxReplicas;
            auto sched = compile::Schedule::partition(graph, scfg);

            ModeResult &mr = point.modes[mi];
            mr.cutBytesPerSample = sched.cutBytesPerSample();
            mr.stages = sched.stages();
            for (int s = 0; s < sched.stages(); ++s)
                mr.maxReplicas =
                    std::max(mr.maxReplicas, sched.stageWidth(s));

            PipelineRuntimeConfig pcfg;
            pcfg.runtime = benchConfig();
            pcfg.microBatch = kMicroBatch;
            pcfg.tile.overlap = mode.tileOverlap;

            PipelineRuntime rt(graph, std::move(sched), states, pcfg);
            if (mi == 0)
                r.crossbars = rt.totalCrossbars();
            const Tensor logits = rt.forward(batch, &mr.rep);
            mr.logitsMatchGraph = logits.equals(ref_logits);
        }
        r.points.push_back(std::move(point));
    }

    Table t({"Chips", "Mode", "Modeled fps", "Speedup", "Bubble",
             "Stages", "Max repl", "EIC frac", "Saved (us)", "Logits"});
    for (const auto &p : r.points) {
        for (size_t mi = 0; mi < kNumModes; ++mi) {
            const ModeResult &m = p.modes[mi];
            const double base = r.points[0].modes[mi].rep.modeledFps();
            t.row().cell(static_cast<int64_t>(p.chips))
                .cell(kModes[mi].name)
                .cell(m.rep.modeledFps(), 1)
                .cell(base > 0.0 ? m.rep.modeledFps() / base : 0.0, 2)
                .cell(m.rep.bubbleFraction, 3)
                .cell(static_cast<int64_t>(m.stages))
                .cell(static_cast<int64_t>(m.maxReplicas))
                .cell(reportEicFraction(m.rep), 3)
                .cell(m.rep.overlapSavedNs / 1e3, 1)
                .cell(m.logitsMatchGraph ? "EXACT" : "DIVERGED");
        }
    }
    t.print(strfmt("%s pipelined across chips (batch %d, micro-batch "
                   "%d, %d BN folded, %lld crossbars)",
                   name.c_str(), kImages, kMicroBatch, folded,
                   static_cast<long long>(r.crossbars)));
    return r;
}

void
writeMode(obs::JsonWriter &w, const ModeResult &m, double base_fps)
{
    w.beginObject();
    w.field("modeled_fps", m.rep.modeledFps());
    w.field("speedup_vs_1chip",
            base_fps > 0.0 ? m.rep.modeledFps() / base_fps : 0.0);
    w.field("makespan_us", m.rep.makespanNs / 1e3);
    w.field("bubble_fraction", m.rep.bubbleFraction);
    w.field("stages", m.stages);
    w.field("replicated", m.maxReplicas > 1);
    w.field("max_replicas", m.maxReplicas);
    w.field("overlap_saved_us", m.rep.overlapSavedNs / 1e3);
    w.field("transfer_us", m.rep.transferNs / 1e3);
    w.field("transfer_nj", m.rep.transferPj / 1e3);
    w.field("cut_bytes_per_sample", m.cutBytesPerSample);
    w.field("logits_match_graph_runtime", m.logitsMatchGraph);
    uint64_t bit_cycles = 0;
    uint64_t skipped_cycles = 0;
    for (const ChipReport &ch : m.rep.chips) {
        bit_cycles += ch.adcBitCycles;
        skipped_cycles += ch.adcSkippedCycles;
    }
    w.field("adc_bit_cycles", bit_cycles);
    w.field("adc_skipped_cycles", skipped_cycles);
    w.field("eic_fraction", reportEicFraction(m.rep));
    w.key("per_chip");
    w.beginArray();
    for (const ChipReport &ch : m.rep.chips) {
        w.beginObject();
        w.field("chip", ch.chip);
        w.field("stage", ch.stage);
        w.field("replicas", ch.replicas);
        w.field("nodes", static_cast<uint64_t>(ch.nodes));
        w.field("programmed", static_cast<uint64_t>(ch.programmedNodes));
        w.field("crossbars", ch.crossbars);
        w.field("utilization", ch.utilization);
        w.field("busy_us", ch.busyNs / 1e3);
        w.field("compute_us", ch.computeNs / 1e3);
        w.field("quant_us", ch.quantNs / 1e3);
        w.field("transfer_in_us", ch.transferInNs / 1e3);
        w.field("eic_fraction", ch.eicFraction());
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writePipelineJson(const std::vector<NetResult> &results)
{
    FILE *json = std::fopen("BENCH_pipeline.json", "w");
    if (!json) {
        warn("cannot write BENCH_pipeline.json");
        return;
    }
    obs::RunManifest manifest =
        obs::RunManifest::collect("fig15_multichip_pipeline");
    manifest.set("images", kImages)
        .set("micro_batch", kMicroBatch)
        .set("replicate_threshold", kReplicateThreshold)
        .set("max_replicas", kMaxReplicas);
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "fig15_multichip_pipeline");
    w.field("images", kImages);
    w.field("micro_batch", kMicroBatch);
    w.field("replicate_threshold", kReplicateThreshold);
    w.field("max_replicas", kMaxReplicas);
    w.key("networks");
    w.beginArray();
    for (const NetResult &r : results) {
        w.beginObject();
        w.field("name", r.name);
        w.field("crossbars", r.crossbars);
        w.key("chip_counts");
        w.beginArray();
        for (size_t i = 0; i < r.points.size(); ++i) {
            const ChipCountResult &p = r.points[i];
            const ModeResult &base = p.modes[0];
            const ModeResult &best = p.modes[kNumModes - 1];
            w.beginObject();
            w.field("chips", p.chips);
            for (size_t mi = 0; mi < kNumModes; ++mi) {
                w.key(kModes[mi].name);
                writeMode(w, p.modes[mi],
                          r.points[0].modes[mi].rep.modeledFps());
            }
            // The headline deltas the full feature stack (replication
            // + intra-chip tile pipelining + EIC-aware balance) buys
            // over the PR 3 contiguous schedule.
            const double base_fps = base.rep.modeledFps();
            w.field("fps_gain_vs_contiguous",
                    base_fps > 0.0 ? best.rep.modeledFps() / base_fps
                                   : 0.0);
            w.field("bubble_drop_vs_contiguous",
                    base.rep.bubbleFraction - best.rep.bubbleFraction);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_pipeline.json (%zu networks)\n",
                results.size());
}

/**
 * Trace one representative configuration (resnet_small, 4 chips,
 * replicated_tile) into trace_fig15.json and cross-check the trace
 * against the report: per chip, the "stage"-category slice durations
 * must sum to ChipReport::busyNs — the trace is a reconstruction of
 * the same modeled timeline, not an independent estimate.
 */
bool
writeTraceArtifact()
{
    Rng rng(11);
    auto net = nn::buildResNetSmall(rng, 10, 8);
    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({3, 32, 32});
    compile::foldBatchNorm(graph);
    auto states = snapshotCompress(*net, 8, 8);

    compile::ScheduleConfig scfg;
    scfg.chips = 4;
    scfg.workModel = compile::WorkModel::AdcTime;
    scfg.replicateThreshold = kReplicateThreshold;
    scfg.maxReplicas = kMaxReplicas;
    auto sched = compile::Schedule::partition(graph, scfg);

    PipelineRuntimeConfig pcfg;
    pcfg.runtime = benchConfig();
    pcfg.microBatch = kMicroBatch;
    pcfg.tile.overlap = true;

    obs::TraceSession session;
    session.install();   // host spans (programming, per-node work)
    pcfg.trace = &session;

    Rng brng(7);
    Tensor batch({kImages, 3, 32, 32});
    batch.fillUniform(brng, 0.0f, 1.0f);

    PipelineRuntime rt(graph, std::move(sched), states, pcfg);
    PipelineReport rep;
    rt.forward(batch, &rep);
    session.uninstall();

    // Per-chip busy totals from the trace (pid = chip + 1, the
    // "stage" track), against the report's ChipReport::busyNs.
    std::vector<double> trace_busy_us(rep.chips.size(), 0.0);
    for (const obs::TraceEvent &e : session.events()) {
        if (e.type != obs::TraceEvent::Type::Complete ||
            e.cat != "stage")
            continue;
        const size_t chip = static_cast<size_t>(e.pid - 1);
        if (chip < trace_busy_us.size())
            trace_busy_us[chip] += e.durUs;
    }
    bool busy_match = true;
    for (size_t c = 0; c < rep.chips.size(); ++c) {
        const double want_us = rep.chips[c].busyNs / 1e3;
        const double got_us = trace_busy_us[c];
        // Rounding tolerance: the trace stores each slice as its own
        // double in microseconds, so totals differ from the report's
        // nanosecond accumulation only by summation rounding.
        const double tol = 1e-6 * std::max(1.0, std::abs(want_us));
        if (std::abs(got_us - want_us) > tol) {
            std::printf("TRACE MISMATCH: chip %zu busy %.6f us in "
                        "trace vs %.6f us in report\n",
                        c, got_us, want_us);
            busy_match = false;
        }
    }

    FILE *f = std::fopen("trace_fig15.json", "w");
    if (!f) {
        warn("cannot write trace_fig15.json");
        return false;
    }
    obs::JsonWriter w(f, /*pretty=*/false);
    session.writeJson(w);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote trace_fig15.json (resnet_small, 4 chips, "
                "replicated_tile): per-chip busy totals %s the "
                "report\n",
                busy_match ? "MATCH" : "DIVERGE FROM");
    return busy_match;
}

} // namespace

int
main()
{
    obs::printBenchBanner("bench_fig15_multichip");
    std::printf("Multi-chip pipelined graph scheduler: ResNet zoo + "
                "early-layer-bound convnets across %d / %d / %d / %d "
                "chips,\nmodes: contiguous (PR 3) | tile_pipelined | "
                "replicated_tile | eic_time (threshold %.2f, <= %d "
                "replicas)\n",
                kChipCounts[0], kChipCounts[1], kChipCounts[2],
                kChipCounts[3], kReplicateThreshold, kMaxReplicas);

    std::vector<NetResult> results;
    {
        Rng rng(11);
        auto net = nn::buildResNetSmall(rng, 10, 8);
        results.push_back(runNet("resnet_small", *net));
    }
    {
        Rng rng(12);
        auto net = nn::buildResNetDeep(rng, 10, 8);
        results.push_back(runNet("resnet_deep", *net));
    }
    {
        Rng rng(13);
        auto net = buildStemWide(rng);
        results.push_back(runNet("stem_wide", *net));
    }
    {
        Rng rng(13);
        auto net = buildReluSparse(rng);
        results.push_back(runNet("relu_sparse", *net));
    }
    writePipelineJson(results);
    const bool trace_ok = writeTraceArtifact();

    // The headline contracts, one line each: bit-exactness in every
    // mode; the full feature stack must beat the PR 3 baseline at 4
    // chips (lower bubble, higher modeled fps); and on the ReLU-sparse
    // net the EIC-aware balance must not lose to the dense-worst-case
    // AdcTime balance it refines — that net is the shape the measured
    // densities exist for.
    bool all_exact = true;
    bool all_faster = true;
    bool eic_wins = true;
    for (const auto &r : results) {
        for (const auto &p : r.points) {
            for (const auto &m : p.modes)
                all_exact = all_exact && m.logitsMatchGraph;
            if (p.chips == 4) {
                const auto &base = p.modes[0].rep;
                const auto &best = p.modes[kNumModes - 1].rep;
                all_faster = all_faster &&
                    best.modeledFps() > base.modeledFps() &&
                    best.bubbleFraction < base.bubbleFraction;
                if (r.name == "relu_sparse") {
                    const auto &repl = p.modes[2].rep;
                    const auto &eic = p.modes[3].rep;
                    eic_wins =
                        eic.modeledFps() >= repl.modeledFps() &&
                        eic.bubbleFraction <= repl.bubbleFraction;
                }
            }
        }
    }
    std::printf("\npipelined logits vs GraphRuntime at every chip "
                "count and mode: %s\n",
                all_exact ? "EXACT" : "DIVERGED");
    std::printf("eic_time beats contiguous at 4 chips "
                "(fps up, bubble down): %s\n",
                all_faster ? "YES" : "NO");
    std::printf("eic_time >= replicated_tile on relu_sparse at 4 "
                "chips (fps, bubble): %s\n",
                eic_wins ? "YES" : "NO");
    std::printf("trace busy totals agree with ChipReport: %s\n",
                trace_ok ? "YES" : "NO");
    return all_exact && all_faster && eic_wins && trace_ok ? 0 : 1;
}
