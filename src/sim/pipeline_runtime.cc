#include "sim/pipeline_runtime.hh"

#include <chrono>
#include <cstring>
#include <limits>

#include "obs/trace.hh"
#include "sim/obs_glue.hh"
#include "sim/stage_kernels.hh"

namespace forms::sim {

PipelineRuntime::PipelineRuntime(const compile::Graph &graph,
                                 compile::Schedule sched,
                                 std::vector<admm::LayerState> &layers,
                                 PipelineRuntimeConfig cfg)
    : graph_(graph), sched_(std::move(sched)), topo_(graph.topoOrder()),
      pools_(static_cast<size_t>(sched_.chips())), cfg_(cfg)
{
    execs_ = buildNodeExecs(graph_, topo_, layers, cfg_.runtime, pools_,
                            sched_);
}

PipelineRuntime::PipelineRuntime(const compile::Graph &graph,
                                 std::vector<admm::LayerState> &layers,
                                 RuntimeConfig cfg)
    : PipelineRuntime(graph, compile::Schedule::singleChip(graph), layers,
                      {cfg, std::numeric_limits<int>::max(), {}, {}, nullptr})
{
}

PipelineRuntime::~PipelineRuntime() = default;

ThreadPool &
PipelineRuntime::pool() const
{
    return cfg_.runtime.pool ? *cfg_.runtime.pool : ThreadPool::global();
}

int64_t
PipelineRuntime::totalCrossbars() const
{
    int64_t n = 0;
    for (const auto &p : pools_)
        n += p.totalCrossbars();
    return n;
}

std::vector<GraphNodeAlloc>
PipelineRuntime::allocation() const
{
    std::vector<GraphNodeAlloc> out;
    for (const NodeExec &e : execs_) {
        if (!e.engine)
            continue;
        GraphNodeAlloc a;
        a.nodeId = e.nodeId;
        a.name = e.name;
        a.outShape = graph_.node(e.nodeId).outShape;
        a.crossbars = e.mapped->numCrossbars();
        out.push_back(std::move(a));
    }
    return out;
}

void
PipelineRuntime::resetPresentationStreams()
{
    nextImageId_ = 0;
}

std::vector<uint64_t>
PipelineRuntime::takeIds(int64_t n)
{
    // Consecutive ids from the runtime-lifetime counter: image k of
    // the runtime's forward() history keys its presentations
    // k*ppi .. k*ppi + ppi - 1 at every node, however the history was
    // split into batches.
    std::vector<uint64_t> ids(static_cast<size_t>(n));
    for (size_t i = 0; i < ids.size(); ++i)
        ids[i] = nextImageId_++;
    return ids;
}

Tensor
PipelineRuntime::forward(const Tensor &batch, PipelineReport *report)
{
    const std::vector<uint64_t> ids = takeIds(batch.dim(0));
    return run(batch, ids.data(), nullptr,
               report ? &report->nodes : nullptr, report);
}

Tensor
PipelineRuntime::forward(const Tensor &batch, RuntimeReport *rows)
{
    const std::vector<uint64_t> ids = takeIds(batch.dim(0));
    return run(batch, ids.data(), nullptr, rows, nullptr);
}

Tensor
PipelineRuntime::forwardRequests(const Tensor &batch, const uint64_t *ids,
                                 std::vector<RuntimeReport> *per_request,
                                 PipelineReport *report)
{
    return run(batch, ids, per_request, report ? &report->nodes : nullptr,
               report);
}

Tensor
PipelineRuntime::forwardRequests(const Tensor &batch, const uint64_t *ids,
                                 std::vector<RuntimeReport> *per_request,
                                 RuntimeReport *rows)
{
    return run(batch, ids, per_request, rows, nullptr);
}

Tensor
PipelineRuntime::run(const Tensor &batch, const uint64_t *ids,
                     std::vector<RuntimeReport> *per_request,
                     RuntimeReport *rows, PipelineReport *report)
{
    FORMS_TRACE_SCOPE("PipelineRuntime::forward");
    const auto t0 = std::chrono::steady_clock::now();
    ThreadPool &tp = pool();
    // Route the shared tensor kernels (relu, pooling, im2col) through
    // this runtime's pool too: every node shards on one pool.
    PoolScope scope(tp);

    const int64_t images = batch.dim(0);
    FORMS_ASSERT(images > 0, "pipeline forward: empty batch");
    const int64_t mb = std::max<int64_t>(
        1, std::min<int64_t>(cfg_.microBatch, images));
    const int num_mb = static_cast<int>((images + mb - 1) / mb);
    const int64_t sample_elems = batch.numel() / images;
    const int n_chips = sched_.chips();
    const int n_stages = sched_.stages();

    // Forward-lifetime stat accumulators, one per node. Every
    // micro-batch's stage call merges into the same accumulator — a
    // replicated node's replica slices fold in ascending replica
    // (= presentation) order — so the final fold has the exact
    // presentation order (and floating-point grouping) of one
    // whole-batch single-chip forward: the bit-identical contract
    // across micro-batch sizes and replication factors.
    std::vector<arch::EngineStats> node_stats(execs_.size());

    // Per-(exec, image) accumulators for the per-request stats
    // channel, laid out [idx * images + i] so each micro-batch's
    // runGraph call lands its slice at offset `lo` with stride
    // `images`.
    std::vector<arch::EngineStats> per_image;
    if (per_request)
        per_image.resize(execs_.size() * static_cast<size_t>(images));

    // Per-(chip, micro-batch) phase intervals, one per hosted
    // programmed node in topological order: the digital quantization
    // phase and the ADC-limited phase each replica's slice added.
    std::vector<std::vector<std::vector<PhaseInterval>>> phases(
        static_cast<size_t>(n_chips),
        std::vector<std::vector<PhaseInterval>>(
            static_cast<size_t>(num_mb)));

    std::vector<Tensor> mb_out(static_cast<size_t>(num_mb));
    for (int m = 0; m < num_mb; ++m) {
        const int64_t lo = static_cast<int64_t>(m) * mb;
        const int64_t count = std::min(mb, images - lo);
        Shape micro_shape = batch.shape();
        micro_shape[0] = count;
        Tensor micro(micro_shape);
        std::memcpy(micro.data(), batch.data() + lo * sample_elems,
                    static_cast<size_t>(count * sample_elems) *
                        sizeof(float));

        mb_out[static_cast<size_t>(m)] = runGraph(
            graph_, execs_, micro, tp, cfg_.runtime.mapping.inputBits,
            node_stats,
            [&](size_t idx, int replica, const PhaseSample &ps) {
                const int chip = execs_[idx].replicaChips
                    [static_cast<size_t>(replica)];
                // Heterogeneous fleets: a chip's modeled phase times
                // shrink by its relative throughput (and ADC rate for
                // the conversion phase). All-default specs divide by
                // exactly 1.0, so homogeneous timing is bit-identical
                // to the historical model.
                const compile::ChipSpec &spec =
                    sched_.chipSpecs()[static_cast<size_t>(chip)];
                PhaseInterval pi;
                pi.quantNs =
                    cfg_.tile.quantNs(ps.quantValues) / spec.capacity;
                pi.computeNs =
                    ps.adcNs / (spec.capacity * spec.adcScale);
                pi.bitCycles = ps.bitCycles;
                pi.skippedCycles = ps.skippedCycles;
                phases[static_cast<size_t>(chip)][static_cast<size_t>(m)]
                    .push_back(pi);
            },
            ids + lo,
            per_request ? per_image.data() + lo : nullptr, images);
    }
    if (per_request) {
        // One report per image, resized/merged in batch order.
        if (per_request->size() < static_cast<size_t>(images))
            per_request->resize(static_cast<size_t>(images));
        for (int64_t i = 0; i < images; ++i)
            recordNodeRows(execs_, per_image.data() + i, images,
                           (*per_request)[static_cast<size_t>(i)]);
    }

    // Stitch the micro-batch outputs back into one batch tensor.
    Shape out_shape = mb_out[0].shape();
    out_shape[0] = images;
    Tensor result(out_shape);
    const int64_t out_sample = mb_out[0].numel() / mb_out[0].dim(0);
    int64_t row = 0;
    for (const Tensor &part : mb_out) {
        std::memcpy(result.data() + row * out_sample, part.data(),
                    static_cast<size_t>(part.numel()) * sizeof(float));
        row += part.dim(0);
    }

    const double wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0).count();
    if (rows) {
        // Per-node rows in topological order, whatever the schedule.
        recordNodeRows(execs_, node_stats.data(), 1, *rows);
        rows->wallMs += wall_ms;
    }

    // The modeled timeline feeds three consumers: the caller's
    // report, the trace session (per-chip slices) and the metrics
    // sink. Observers are pure, so skipping all of this when nobody
    // is looking changes nothing about the computation above.
    if (report || cfg_.trace || cfg_.runtime.metrics) {
        PipelineReport fwd;   // this forward alone
        // Per-chip busy intervals under the intra-chip tile pipeline
        // model, and the serial (no-overlap) reference for the
        // overlap-savings accounting.
        std::vector<std::vector<double>> busy(
            static_cast<size_t>(n_chips),
            std::vector<double>(static_cast<size_t>(num_mb), 0.0));
        TilePipeline serial_tile = cfg_.tile;
        serial_tile.overlap = false;
        double overlap_saved = 0.0;
        for (int c = 0; c < n_chips; ++c) {
            for (int m = 0; m < num_mb; ++m) {
                const auto &ph = phases[static_cast<size_t>(c)]
                                       [static_cast<size_t>(m)];
                const double b = chipBusyNs(ph, cfg_.tile);
                busy[static_cast<size_t>(c)][static_cast<size_t>(m)] = b;
                overlap_saved += chipBusyNs(ph, serial_tile) - b;
            }
        }

        // Inbound transfer time/energy per receiving stage.
        std::vector<std::vector<double>> xfer(
            static_cast<size_t>(n_stages),
            std::vector<double>(static_cast<size_t>(num_mb), 0.0));
        std::vector<double> xfer_pj(static_cast<size_t>(n_stages), 0.0);
        for (const compile::Transfer &t : sched_.transfers()) {
            // A hop's wait scales with the receiving stage's primary
            // chip's relative inbound link bandwidth; the per-byte
            // energy does not depend on the rate.
            const double link_in =
                sched_.chipSpecs()[static_cast<size_t>(
                    sched_.stageFirstChip(t.toStage))].linkIn;
            for (int m = 0; m < num_mb; ++m) {
                const int64_t count = std::min(
                    mb, images - static_cast<int64_t>(m) * mb);
                const int64_t bytes = t.bytesPerSample * count;
                xfer[static_cast<size_t>(t.toStage)]
                    [static_cast<size_t>(m)] +=
                    cfg_.link.transferNs(bytes) / link_in;
                xfer_pj[static_cast<size_t>(t.toStage)] +=
                    cfg_.link.transferPj(bytes);
            }
        }

        // Modeled pipeline schedule over stages: stage s starts
        // micro-batch m once (a) its inbound transfers for m have
        // landed and (b) it finished m-1; its busy time is the
        // slowest of its (replica) chips. done[s][m] closes the
        // recurrence.
        std::vector<std::vector<double>> done(
            static_cast<size_t>(n_stages),
            std::vector<double>(static_cast<size_t>(num_mb), 0.0));
        // Stage busy per (stage, micro-batch): kept for the trace
        // emitter, whose slice starts are done - stage_busy.
        std::vector<std::vector<double>> stage_busy_sm(
            static_cast<size_t>(n_stages),
            std::vector<double>(static_cast<size_t>(num_mb), 0.0));
        for (int s = 0; s < n_stages; ++s) {
            const int first = sched_.stageFirstChip(s);
            const int width = sched_.stageWidth(s);
            for (int m = 0; m < num_mb; ++m) {
                double stage_busy = 0.0;
                for (int c = first; c < first + width; ++c)
                    stage_busy = std::max(
                        stage_busy, busy[static_cast<size_t>(c)]
                                        [static_cast<size_t>(m)]);
                stage_busy_sm[static_cast<size_t>(s)]
                             [static_cast<size_t>(m)] = stage_busy;
                const double arrive =
                    (s > 0 ? done[static_cast<size_t>(s) - 1]
                                 [static_cast<size_t>(m)] : 0.0) +
                    xfer[static_cast<size_t>(s)][static_cast<size_t>(m)];
                const double start = std::max(
                    arrive, m > 0 ? done[static_cast<size_t>(s)]
                                        [static_cast<size_t>(m) - 1]
                                  : 0.0);
                done[static_cast<size_t>(s)][static_cast<size_t>(m)] =
                    start + stage_busy;
            }
        }
        const double makespan =
            done[static_cast<size_t>(n_stages) - 1]
                [static_cast<size_t>(num_mb) - 1];

        double total_busy = 0.0, total_xfer_ns = 0.0, total_xfer_pj = 0.0;
        for (int s = 0; s < n_stages; ++s) {
            const int first = sched_.stageFirstChip(s);
            const int width = sched_.stageWidth(s);
            double stage_xfer_ns = 0.0;
            for (int m = 0; m < num_mb; ++m)
                stage_xfer_ns += xfer[static_cast<size_t>(s)]
                                     [static_cast<size_t>(m)];
            for (int chip = first; chip < first + width; ++chip) {
                ChipReport c;
                c.chip = chip;
                c.stage = s;
                c.replicas = width;
                c.nodes =
                    sched_.chipNodes()[static_cast<size_t>(chip)].size();
                c.programmedNodes =
                    pools_[static_cast<size_t>(chip)].size();
                c.crossbars =
                    pools_[static_cast<size_t>(chip)].totalCrossbars();
                // Per-chip stats: node accumulators merged in
                // topological (presentation) order — deterministic
                // for any thread count and micro-batch size. A
                // replicated node's accumulator spans all replicas
                // and lands on its primary chip.
                for (size_t idx = 0; idx < execs_.size(); ++idx) {
                    if (execs_[idx].engine && execs_[idx].chip == chip)
                        c.stats.merge(node_stats[idx]);
                }
                // Fault exposure of the engines this chip programs
                // (every replica counts — each chip holds its own
                // faulted copy).
                for (const NodeExec &e : execs_) {
                    for (size_t ri = 0; ri < e.replicas.size(); ++ri) {
                        if (e.replicaChips[ri] != chip)
                            continue;
                        c.faultyCrossbars +=
                            e.replicas[ri]->faultyCrossbars();
                        c.remappedCrossbars +=
                            e.remap.remappedCrossbars;
                    }
                }
                for (int m = 0; m < num_mb; ++m) {
                    for (const PhaseInterval &p :
                         phases[static_cast<size_t>(chip)]
                               [static_cast<size_t>(m)]) {
                        c.quantNs += p.quantNs;
                        c.computeNs += p.computeNs;
                        c.adcBitCycles += p.bitCycles;
                        c.adcSkippedCycles += p.skippedCycles;
                    }
                    c.busyNs += busy[static_cast<size_t>(chip)]
                                    [static_cast<size_t>(m)];
                }
                // Inbound link waits belong to the stage; report them
                // on its primary chip.
                if (chip == first) {
                    c.transferInNs = stage_xfer_ns;
                    c.transferInPj = xfer_pj[static_cast<size_t>(s)];
                }
                c.utilization =
                    makespan > 0.0 ? c.busyNs / makespan : 0.0;
                total_busy += c.busyNs;
                total_xfer_ns += c.transferInNs;
                total_xfer_pj += c.transferInPj;
                fwd.faultyCrossbars += c.faultyCrossbars;
                fwd.remappedCrossbars += c.remappedCrossbars;
                fwd.chips.push_back(std::move(c));
            }
        }
        fwd.stages = n_stages;
        fwd.microBatches = num_mb;
        fwd.images = images;
        fwd.makespanNs = makespan;
        fwd.bubbleFraction = makespan > 0.0
            ? 1.0 - total_busy / (static_cast<double>(n_chips) * makespan)
            : 0.0;
        fwd.transferNs = total_xfer_ns;
        fwd.transferPj = total_xfer_pj;
        fwd.overlapSavedNs = overlap_saved;

        if (cfg_.trace) {
            emitTrace(*cfg_.trace, fwd, phases, busy, stage_busy_sm, done,
                      mb, images);
        }
        if (cfg_.runtime.metrics) {
            // Counters accumulate per-call deltas, so they read this
            // forward's rows, never a report the caller reuses.
            recordNodeRows(execs_, node_stats.data(), 1, fwd.nodes);
            fwd.nodes.wallMs = wall_ms;
            recordPipelineMetrics(*cfg_.runtime.metrics, fwd);
        }
        if (report) {
            fwd.nodes = std::move(report->nodes);
            *report = std::move(fwd);
        }
    }
    return result;
}

/**
 * Reconstruct the modeled multi-chip timeline into `tr`, from the
 * same per-(chip, micro-batch) PhaseIntervals and done[s][m]
 * recurrence that produced the report. Purely an observer — reads
 * the model, never touches engines or tensors.
 *
 * Track layout: one trace "process" per chip (pid = chip + 1; pid 0
 * is reserved for wall-clock host spans). Track 1 carries the
 * per-(stage, micro-batch) busy slice whose durations sum exactly to
 * ChipReport::busyNs; tracks 2 and 3 carry the quant and ADC
 * sub-phases, placed by the same two-phase recurrence as
 * sim::chipBusyNs (with overlap, node k's ADC phase and node k+1's
 * quantization start together and the next segment opens when both
 * finish). Inter-stage Transfer records become flow arrows from the
 * producing stage's completion to the consuming stage's slice start.
 * Timestamps are modeled nanoseconds from zero, emitted in trace-us.
 */
void
PipelineRuntime::emitTrace(
    obs::TraceSession &tr, const PipelineReport &rep,
    const std::vector<std::vector<std::vector<PhaseInterval>>> &phases,
    const std::vector<std::vector<double>> &busy,
    const std::vector<std::vector<double>> &stage_busy_sm,
    const std::vector<std::vector<double>> &done, int64_t mb,
    int64_t images) const
{
    const int n_chips = sched_.chips();
    const int n_stages = sched_.stages();
    const int num_mb = static_cast<int>(done.empty()
        ? 0 : done[0].size());

    for (int c = 0; c < n_chips; ++c) {
        const int pid = c + 1;
        tr.nameProcess(pid, strfmt("chip %d (modeled)", c));
        tr.nameThread(pid, 1, "stage");
        tr.nameThread(pid, 2, "quant phase");
        tr.nameThread(pid, 3, "adc phase");
    }

    // Fault exposure markers: one zero-length slice at t=0 on each
    // chip carrying programmed engines with overlaid faults, so the
    // fleet's fault/remap coverage is visible next to the timeline it
    // degrades.
    for (const ChipReport &c : rep.chips) {
        if (c.faultyCrossbars == 0 && c.remappedCrossbars == 0)
            continue;
        tr.slice(c.chip + 1, 1, "fault-map", "fault", 0.0, 0.0,
                 {{"chip", c.chip},
                  {"faulty_crossbars",
                   static_cast<uint64_t>(c.faultyCrossbars)},
                  {"remapped_crossbars",
                   static_cast<uint64_t>(c.remappedCrossbars)}});
    }

    // Hosted programmed-node names per chip, in the order the
    // PhaseSink pushed their PhaseIntervals: nodes execute in
    // topological order and each hosting chip receives exactly one
    // interval per node per micro-batch.
    std::vector<std::vector<const char *>> chip_names(
        static_cast<size_t>(n_chips));
    for (const NodeExec &e : execs_) {
        if (!e.engine)
            continue;
        for (int c : e.replicaChips)
            chip_names[static_cast<size_t>(c)].push_back(e.name.c_str());
    }

    for (int s = 0; s < n_stages; ++s) {
        const int first = sched_.stageFirstChip(s);
        const int width = sched_.stageWidth(s);
        for (int m = 0; m < num_mb; ++m) {
            const double start_ns =
                done[static_cast<size_t>(s)][static_cast<size_t>(m)] -
                stage_busy_sm[static_cast<size_t>(s)]
                             [static_cast<size_t>(m)];
            for (int c = first; c < first + width; ++c) {
                const int pid = c + 1;
                const double busy_ns =
                    busy[static_cast<size_t>(c)][static_cast<size_t>(m)];
                tr.slice(pid, 1, strfmt("s%d/mb%d", s, m), "stage",
                         start_ns / 1e3, busy_ns / 1e3,
                         {{"stage", s},
                          {"micro_batch", m},
                          {"chip", c},
                          {"busy_ns", busy_ns}});

                const auto &ph = phases[static_cast<size_t>(c)]
                                       [static_cast<size_t>(m)];
                const auto &names = chip_names[static_cast<size_t>(c)];
                if (ph.empty())
                    continue;
                double t = start_ns;
                if (cfg_.tile.overlap) {
                    // Mirror of chipBusyNs: q1 runs alone, then adc_k
                    // and quant_{k+1} start together; the segment
                    // closes when the slower of the two finishes.
                    tr.slice(pid, 2, names[0], "quant", t / 1e3,
                             ph[0].quantNs / 1e3);
                    t += ph[0].quantNs;
                    for (size_t k = 0; k < ph.size(); ++k) {
                        tr.slice(pid, 3, names[k], "adc", t / 1e3,
                                 ph[k].computeNs / 1e3,
                                 {{"eic_fraction", ph[k].eicFraction()}});
                        if (k + 1 < ph.size()) {
                            tr.slice(pid, 2, names[k + 1], "quant",
                                     t / 1e3, ph[k + 1].quantNs / 1e3);
                            t += std::max(ph[k].computeNs,
                                          ph[k + 1].quantNs);
                        } else {
                            t += ph[k].computeNs;
                        }
                    }
                } else {
                    for (size_t k = 0; k < ph.size(); ++k) {
                        tr.slice(pid, 2, names[k], "quant", t / 1e3,
                                 ph[k].quantNs / 1e3);
                        t += ph[k].quantNs;
                        tr.slice(pid, 3, names[k], "adc", t / 1e3,
                                 ph[k].computeNs / 1e3,
                                 {{"eic_fraction", ph[k].eicFraction()}});
                        t += ph[k].computeNs;
                    }
                }
            }
        }
    }

    // Inter-stage transfers as flow arrows: tail at the producing
    // stage's completion of micro-batch m (the end of its primary
    // chip's slice), head at the consuming stage's slice start.
    for (const compile::Transfer &t : sched_.transfers()) {
        const int from_pid = sched_.stageFirstChip(t.fromStage) + 1;
        const int to_pid = sched_.stageFirstChip(t.toStage) + 1;
        const std::string &producer = graph_.node(t.producer).name;
        for (int m = 0; m < num_mb; ++m) {
            const int64_t count = std::min(
                mb, images - static_cast<int64_t>(m) * mb);
            const int64_t bytes = t.bytesPerSample * count;
            const double from_ns =
                done[static_cast<size_t>(t.fromStage)]
                    [static_cast<size_t>(m)];
            const double to_ns =
                done[static_cast<size_t>(t.toStage)]
                    [static_cast<size_t>(m)] -
                stage_busy_sm[static_cast<size_t>(t.toStage)]
                             [static_cast<size_t>(m)];
            tr.flow(from_pid, 1, from_ns / 1e3, to_pid, 1, to_ns / 1e3,
                    producer, "transfer",
                    {{"bytes", static_cast<uint64_t>(bytes)},
                     {"transfer_ns", cfg_.link.transferNs(bytes)},
                     {"merge_replicas", t.mergeReplicas ? 1 : 0}});
        }
    }
}

double
PipelineRuntime::accuracy(const Tensor &images,
                          const std::vector<int> &labels,
                          PipelineReport *report)
{
    return logitsAccuracy(forward(images, report), labels);
}

double
PipelineRuntime::accuracy(const Tensor &images,
                          const std::vector<int> &labels,
                          RuntimeReport *rows)
{
    return logitsAccuracy(forward(images, rows), labels);
}

} // namespace forms::sim
