/**
 * @file
 * Repo benchmark program: runs one workload in this process and prints
 * its result as one JSON document on stdout (progress goes to stderr).
 *
 *     forms_bench --workload <name> [--seed N] [--seconds S]
 *                 [--trace FILE]
 *
 * Per workload: set up several times, each from a fresh network build
 * (setup time is their 10th percentile); one warm-up; a timed phase of S
 * seconds; then the checks.
 * benchmark/README.md describes the workloads and metrics, and
 * benchmark/run.py builds this program, runs it and prints the metrics.
 *
 * Correctness: every timed forward resets the presentation streams and
 * must equal, bit for bit, a fresh GraphRuntime pinned to the scalar
 * kernels (DESIGN.md §6; for the pipeline workload this is also the §5
 * cross-runtime contract). Every served response must equal a
 * single-request reference with the same id on a separately programmed
 * runtime. References are built after the timed phase and after peak
 * RSS is read, so the memory figure is the program's alone.
 *
 * With --trace, an obs::TraceSession records set-up through the end of
 * the timed phase and is written to FILE. The span metrics come from
 * the host spans the library already emits (`node <name>`,
 * `GraphRuntime::forward`, `PipelineRuntime::forward`); the kernel
 * metrics time public calls (im2colInto, quantizePresentations,
 * mvmKeyed, convStage) on the real input of one conv node.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/threadpool.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"
#include "obs/json_writer.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "obs/trace.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/calibrator.hh"
#include "sim/graph_runtime.hh"
#include "sim/pipeline_runtime.hh"
#include "sim/stage_kernels.hh"
#include "tensor/ops.hh"

using namespace forms;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kSetupMinReps = 3;
constexpr double kSetupMinS = 3.0;
constexpr double kSetupCpuSliceS = 0.1;
constexpr size_t kMinForwards = 3;
constexpr int kCalibImages = 4;
constexpr int kCorpus = 64;
constexpr int kProbeReps = 5;
constexpr int kServeHw = 12;
constexpr size_t kClosedOutstanding = 8;
constexpr double kRateWindowS = 0.25;

enum class Kind { Graph, Pipeline, Serve };

/** One benchmark workload; README.md says why each was chosen. */
struct Workload
{
    const char *name;
    Kind kind;
    int batch;       //!< images per forward; the server's maxBatch
    bool noisy;      //!< device variation + per-read noise
    bool calibrate;  //!< static activation scales from a calibration split
};

const Workload kWorkloads[] = {
    {"resnet_ideal", Kind::Graph, 8, false, false},
    {"resnet_noisy", Kind::Graph, 8, true, true},
    {"pipeline_4chip", Kind::Pipeline, 16, false, true},
    {"serve_small", Kind::Serve, 4, true, false},
};

/** What the seed draws, each from its own stream. */
enum Stream : uint64_t
{
    kBatchStream = 1,
    kCalibStream,
    kCorpusStream,
    kArrivalStream,
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 1]; +inf entries sort last. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** 64-bit FNV-1a over the exact bytes of what is added. */
class Digest
{
  public:
    void add(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(uint64_t v) { add(&v, sizeof v); }
    void add(double v) { add(&v, sizeof v); }
    void add(const std::string &s) { add(s.data(), s.size()); }
    void add(const Tensor &t)
    {
        add(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }
    void add(const arch::EngineStats &s)
    {
        add(s.presentations);
        add(s.bitCycles);
        add(s.skippedCycles);
        add(s.adcSamples);
        add(s.quantValues);
        add(s.quantClipped);
        add(s.adcEnergyPj);
        add(s.crossbarEnergyPj);
        add(s.timeNs);
    }
    void add(const sim::RuntimeReport &rows)
    {
        for (const auto &l : rows.layers) {
            add(l.name);
            add(l.stats);
        }
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool
sameStats(const arch::EngineStats &a, const arch::EngineStats &b)
{
    return sameBits(a.presentations, b.presentations) &&
        sameBits(a.bitCycles, b.bitCycles) &&
        sameBits(a.skippedCycles, b.skippedCycles) &&
        sameBits(a.adcSamples, b.adcSamples) &&
        sameBits(a.quantValues, b.quantValues) &&
        sameBits(a.quantClipped, b.quantClipped) &&
        sameBits(a.adcEnergyPj, b.adcEnergyPj) &&
        sameBits(a.crossbarEnergyPj, b.crossbarEnergyPj) &&
        sameBits(a.timeNs, b.timeNs);
}

/** Per-node rows equal in names, order, crossbars and every stat bit. */
bool
sameRows(const sim::RuntimeReport &a, const sim::RuntimeReport &b)
{
    if (a.layers.size() != b.layers.size() ||
        a.presentations != b.presentations)
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const auto &x = a.layers[i];
        const auto &y = b.layers[i];
        if (x.name != y.name || x.crossbars != y.crossbars ||
            !sameStats(x.stats, y.stats))
            return false;
    }
    return true;
}

bool
sameLogits(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
        std::memcmp(a.data(), b.data(),
                    static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/** Everything one run reports. */
struct Output
{
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    std::vector<std::string> failures;   //!< first few failed checks
    int64_t attempted = 0;
    int64_t failed = 0;
    bool checksFailed = false;
    Digest logits, stats, model;

    void put(const std::string &name, double v, const char *unit)
    {
        metrics.emplace_back(name, v, unit);
    }

    /** A failed check; `op` when it fails one timed operation. */
    void fail(const std::string &msg, bool op)
    {
        if (op)
            ++failed;
        checksFailed = true;
        if (failures.size() < 16)
            failures.push_back(msg);
    }
};

// ---- setup -------------------------------------------------------------

struct SetupTimes
{
    double buildMs = 0, lowerMs = 0, snapshotMs = 0, calibrateMs = 0,
           partitionMs = 0, programMs = 0, totalS = 0;
};

/**
 * One deployed network, ready to run. Heap-held: the graph borrows the
 * network and the runtime borrows the graph, so it must not move.
 */
struct Deployment
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;
    sim::RuntimeConfig rcfg;
    std::unique_ptr<sim::GraphRuntime> graphRt;
    std::unique_ptr<sim::PipelineRuntime> pipeRt;
    SetupTimes t;
};

std::unique_ptr<nn::Network>
buildNet(const Workload &w)
{
    if (w.kind != Kind::Serve) {
        Rng rng(11);
        return nn::buildResNetSmall(rng, 10, 8);
    }
    // bench_serving's conv net: about 1 ms of engine work per request.
    Rng rng(21);
    auto net = std::make_unique<nn::Network>();
    net->emplace<nn::Conv2D>("conv1", 3, 8, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("relu1");
    net->emplace<nn::MaxPool2D>("pool", 2, 2);
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Dense>("fc", 8 * (kServeHw / 2) * (kServeHw / 2), 10,
                            rng);
    return net;
}

Shape
sampleShape(const Workload &w)
{
    return w.kind == Kind::Serve ? Shape{3, kServeHw, kServeHw}
                                 : Shape{3, 32, 32};
}

sim::RuntimeConfig
runtimeConfig(const Workload &w)
{
    sim::RuntimeConfig c;
    c.mapping.fragSize = 8;
    c.mapping.inputBits = 8;
    c.engine.adcBits = w.kind == Kind::Serve ? 3 : 4;
    if (w.noisy) {
        c.engine.cell.variationSigma = 0.1;
        c.engine.readNoiseSigma = 0.02;
    }
    return c;
}

Tensor
randomImages(uint64_t seed, Stream purpose, int64_t count,
             const Shape &sample)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
    Shape s{count};
    s.insert(s.end(), sample.begin(), sample.end());
    Tensor t(s);
    t.fillUniform(rng, 0.0f, 1.0f);
    return t;
}

/** Build, lower + fold, compress, calibrate, partition and program. */
std::unique_ptr<Deployment>
deploy(const Workload &w, const Tensor &calib)
{
    auto d = std::make_unique<Deployment>();
    const auto start = Clock::now();
    auto last = start;
    auto lap = [&last] {
        const auto now = Clock::now();
        const double ms = msBetween(last, now);
        last = now;
        return ms;
    };

    d->net = buildNet(w);
    d->t.buildMs = lap();
    d->graph = compile::lowerNetwork(*d->net);
    d->graph.inferShapes(sampleShape(w));
    compile::foldBatchNorm(d->graph);
    d->t.lowerMs = lap();
    d->states = sim::snapshotCompress(*d->net, 8, 8);
    d->t.snapshotMs = lap();
    d->rcfg = runtimeConfig(w);
    if (w.calibrate) {
        sim::Calibrator cal(d->graph, d->states, d->rcfg);
        cal.observe(calib);
        cal.table().attachTo(d->graph);
        d->rcfg.scaleMode = arch::ScaleMode::Static;
        d->t.calibrateMs = lap();
    }
    if (w.kind == Kind::Pipeline) {
        compile::ScheduleConfig scfg;
        scfg.chips = 4;
        scfg.workModel = compile::WorkModel::EicTime;
        scfg.replicateThreshold = 0.9;
        scfg.maxReplicas = 4;
        compile::Schedule sched =
            compile::Schedule::partition(d->graph, scfg);
        d->t.partitionMs = lap();
        sim::PipelineRuntimeConfig pcfg;
        pcfg.runtime = d->rcfg;
        pcfg.microBatch = 1;
        pcfg.tile.overlap = true;
        d->pipeRt = std::make_unique<sim::PipelineRuntime>(
            d->graph, std::move(sched), d->states, pcfg);
    } else {
        d->graphRt = std::make_unique<sim::GraphRuntime>(
            d->graph, d->states, d->rcfg);
    }
    d->t.programMs = lap();
    d->t.totalS = secondsSince(start);
    return d;
}

/**
 * Set-up samples: fresh deployments until kSetupMinS of set-up has
 * run (at least kSetupMinReps). Every kSetupCpuSliceS the thread moves
 * to the next of the process's CPUs. Set-up is mostly single-threaded,
 * and each vCPU of the host switches between two speeds on its own
 * (README.md, "Bounds"), so samples left on one CPU would report that
 * CPU's phase. Keeps the last deployment.
 */
std::unique_ptr<Deployment>
setupSamples(const Workload &w, const Tensor &calib,
             std::vector<SetupTimes> &reps)
{
    // Pool workers take their CPU mask from this thread when created,
    // so create them before it is pinned.
    ThreadPool::global();
    cpu_set_t allowed;
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);

    std::unique_ptr<Deployment> d;
    double spent = 0.0;
    size_t next_cpu = 0;
    auto moved = Clock::now();
    for (size_t n = 0; n < kSetupMinReps || spent < kSetupMinS; ++n) {
        if (n == 0 || secondsSince(moved) >= kSetupCpuSliceS) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[next_cpu++ % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
            moved = Clock::now();
        }
        d.reset();   // one fresh deployment alive at a time
        d = deploy(w, calib);
        reps.push_back(d->t);
        spent += d->t.totalS;
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
    return d;
}

/**
 * Set-up metrics: the 10th percentile of the samples. Single-threaded
 * set-up runs about 1.4x slower whenever its CPU is in one of the
 * host's slow phases, which can fill most of a run's samples; the
 * median then jumps between the two speeds from run to run, while the
 * 10th percentile stays within about 6% (README.md, "Bounds").
 */
void
putSetup(const Workload &w, const std::vector<SetupTimes> &reps,
         const Deployment &d, Output &out)
{
    out.put("setup.reps", static_cast<double>(reps.size()), "count");
    auto low = [&reps](double SetupTimes::*f) {
        std::vector<double> v;
        for (const SetupTimes &t : reps)
            v.push_back(t.*f);
        return percentile(v, 0.10);
    };
    out.put("setup_s", low(&SetupTimes::totalS), "s");
    out.put("nn.build_ms", low(&SetupTimes::buildMs), "ms");
    out.put("compile.lower_fold_ms", low(&SetupTimes::lowerMs), "ms");
    out.put("admm.snapshot_ms", low(&SetupTimes::snapshotMs), "ms");
    if (w.calibrate)
        out.put("sim.calibrate_ms", low(&SetupTimes::calibrateMs), "ms");
    if (w.kind == Kind::Pipeline)
        out.put("compile.partition_ms", low(&SetupTimes::partitionMs),
                "ms");
    out.put("arch.program_ms", low(&SetupTimes::programMs), "ms");
    out.put("arch.crossbars",
            static_cast<double>(d.pipeRt ? d.pipeRt->totalCrossbars()
                                         : d.graphRt->totalCrossbars()),
            "count");
}

void
putPeakRss(Output &out)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
            "MB");
}

/** Engine work counts of `rows`, normalized per image. */
void
putEngineCounts(const sim::RuntimeReport &rows, double images,
                Output &out)
{
    arch::EngineStats s;
    for (const auto &l : rows.layers)
        s.merge(l.stats);
    out.put("arch.presentations_per_image",
            static_cast<double>(s.presentations) / images, "count");
    out.put("arch.bit_cycles_per_image",
            static_cast<double>(s.bitCycles) / images, "count");
    out.put("arch.adc_samples_per_image",
            static_cast<double>(s.adcSamples) / images, "count");
    out.put("arch.skip_fraction", s.skipFraction(), "fraction");
    out.put("arch.quant_clip_fraction", s.clipFraction(), "fraction");
}

uint64_t
adcSamples(const sim::RuntimeReport &rows)
{
    uint64_t n = 0;
    for (const auto &l : rows.layers)
        n += l.stats.adcSamples;
    return n;
}

/**
 * Pins every kernel table resolved while alive (engines resolve theirs
 * at construction) to the scalar reference, DESIGN.md §6's bitwise
 * definition.
 */
struct ScalarPin
{
    ScalarPin() { simd::setProcessMode(simd::Mode::Scalar); }
    ~ScalarPin() { simd::setProcessMode(simd::Mode::Auto); }
    ScalarPin(const ScalarPin &) = delete;
    ScalarPin &operator=(const ScalarPin &) = delete;
};

std::vector<uint64_t>
consecutiveIds(int64_t n)
{
    std::vector<uint64_t> ids(static_cast<size_t>(n));
    for (size_t i = 0; i < ids.size(); ++i)
        ids[i] = i;
    return ids;
}

// ---- traced per-layer metrics -------------------------------------------

/** Host time per node and executor self time inside forward spans. */
struct SpanTotals
{
    double matrixMs = 0, functionalMs = 0, selfMs = 0;
    double minCoverage = 1.0;
    size_t forwards = 0;
    std::map<std::string, double> nodeMs;
};

SpanTotals
analyzeSpans(obs::TraceSession &tr, int64_t w0_ns, int64_t w1_ns,
             const compile::Graph &g, Output &out)
{
    struct Span
    {
        double ts, dur;
        const std::string *name;
    };
    const double w0 = static_cast<double>(w0_ns) / 1e3;
    const double w1 = static_cast<double>(w1_ns) / 1e3;
    std::map<int, std::vector<Span>> fwds, nodes;
    for (const obs::TraceEvent &e : tr.events()) {
        if (e.type != obs::TraceEvent::Type::Complete ||
            e.pid != obs::TraceSession::kHostPid || e.tsUs < w0 ||
            e.tsUs + e.durUs > w1)
            continue;
        if (e.name == "GraphRuntime::forward" ||
            e.name == "PipelineRuntime::forward")
            fwds[e.tid].push_back({e.tsUs, e.durUs, &e.name});
        else if (e.name.rfind("node ", 0) == 0)
            nodes[e.tid].push_back({e.tsUs, e.durUs, &e.name});
    }

    std::map<std::string, bool> is_matrix;
    for (int id = 0; id < g.capacity(); ++id) {
        if (!g.alive(id))
            continue;
        const compile::Node &n = g.node(id);
        is_matrix["node " + n.name] =
            n.op == compile::Op::Conv || n.op == compile::Op::Dense;
    }

    SpanTotals tot;
    constexpr double kEpsUs = 1e-3;   // ns -> us rounding
    for (auto &[tid, fv] : fwds) {
        auto by_ts = [](const Span &a, const Span &b) {
            return a.ts < b.ts;
        };
        std::vector<Span> &nv = nodes[tid];
        std::sort(fv.begin(), fv.end(), by_ts);
        std::sort(nv.begin(), nv.end(), by_ts);
        size_t j = 0;
        for (const Span &f : fv) {
            while (j < nv.size() && nv[j].ts < f.ts)
                ++j;
            double inside = 0.0;
            for (; j < nv.size() && nv[j].ts + nv[j].dur <= f.ts + f.dur +
                                                            kEpsUs;
                 ++j) {
                inside += nv[j].dur;
                tot.nodeMs[nv[j].name->substr(5)] += nv[j].dur / 1e3;
                (is_matrix[*nv[j].name] ? tot.matrixMs
                                        : tot.functionalMs) +=
                    nv[j].dur / 1e3;
            }
            const double self = f.dur - inside;
            if (self < -kEpsUs)
                out.fail(strfmt("forward span at %.1f us: node spans "
                                "exceed it by %.3f us",
                                f.ts, -self),
                         false);
            tot.selfMs += self / 1e3;
            if (f.dur > 0.0)
                tot.minCoverage = std::min(tot.minCoverage, inside / f.dur);
            ++tot.forwards;
        }
    }
    if (tot.forwards == 0)
        out.fail("trace: no forward spans in the timed phase", false);
    return tot;
}

void
putSpanMetrics(const SpanTotals &t, double images, double adc_samples,
               Output &out)
{
    out.put("sim.matrix_ms_per_image", t.matrixMs / images, "ms");
    out.put("sim.functional_ms_per_image", t.functionalMs / images, "ms");
    out.put("sim.executor_self_ms_per_image", t.selfMs / images, "ms");
    out.put("sim.matrix_ns_per_adc_sample", t.matrixMs * 1e6 / adc_samples,
            "ns");
    out.put("sim.node_span_coverage", t.minCoverage, "fraction");
    for (const auto &[name, ms] : t.nodeMs)
        out.put("sim.node." + name + ".ms_per_image", ms / images, "ms");
}

/**
 * Time the four public calls of one conv stage on the real input of
 * the conv node with the most ADC samples. The input is captured by
 * running a copy of the graph whose output is that node's producer;
 * the same run's row for the node must equal the probed convStage's
 * stats bit for bit.
 */
void
probeKernels(Deployment &d, const Tensor &batch,
             const std::vector<uint64_t> &ids,
             const sim::RuntimeReport &rows, Output &out)
{
    const compile::Node *node = nullptr;
    uint64_t most = 0;
    for (const auto &row : rows.layers) {
        for (int id = 0; id < d.graph.capacity(); ++id) {
            if (!d.graph.alive(id))
                continue;
            const compile::Node &n = d.graph.node(id);
            if (n.name == row.name && n.op == compile::Op::Conv &&
                row.stats.adcSamples > most) {
                node = &n;
                most = row.stats.adcSamples;
            }
        }
    }
    if (!node) {
        out.fail("probe: no conv node", false);
        return;
    }

    compile::Graph upto = d.graph;
    upto.setOutput(node->inputs[0]);
    sim::RuntimeReport cap_rows;
    Tensor act;
    {
        sim::GraphRuntime cap(upto, d.states, d.rcfg);
        act = cap.forwardRequests(batch, ids.data(), nullptr, &cap_rows);
    }

    const admm::LayerState *st =
        sim::findLayerState(d.states, &node->conv->weight());
    const arch::MappedLayer mapped = arch::mapLayer(*st, d.rcfg.mapping);
    arch::CrossbarEngine eng(mapped, d.rcfg.engine);
    const sim::StageScale sc =
        sim::resolveStageScale(d.rcfg, node->name, node->inScale);
    const bool digital = !node->outScale.empty();
    const std::vector<float> bias =
        digital ? node->outBias : sim::tensorToVector(node->conv->bias());
    const std::vector<float> chan =
        digital ? node->outScale : std::vector<float>{};
    const int k = node->conv->kernel();
    const int stride = node->conv->stride();
    const int pad = node->conv->pad();
    const int bits = d.rcfg.mapping.inputBits;
    const int64_t plane =
        int64_t(convOutDim(static_cast<int>(act.dim(2)), k, stride, pad)) *
        convOutDim(static_cast<int>(act.dim(3)), k, stride, pad);
    ThreadPool &tp = ThreadPool::global();
    sim::StageEngines se;
    se.replicas = {&eng};
    se.imageIds = ids.data();

    const int64_t m = act.dim(0) * plane;   // presentations
    std::vector<uint64_t> keys(static_cast<size_t>(m));
    for (int64_t j = 0; j < m; ++j)
        keys[static_cast<size_t>(j)] =
            ids[static_cast<size_t>(j / plane)] *
                static_cast<uint64_t>(plane) +
            static_cast<uint64_t>(j % plane);

    // The four calls run in turn within each repetition, so host-speed
    // drift between repetitions hits all four alike.
    Tensor cols, conv_cols;
    std::vector<float> scales;
    std::vector<std::vector<uint32_t>> q;
    arch::EngineStats conv_stats;
    std::vector<double> im2col_ms, quant_ms, mvm_ms, conv_ms;
    auto timed = [](std::vector<double> &ms, auto &&fn) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msBetween(t0, Clock::now()));
    };
    for (int r = 0; r < kProbeReps; ++r) {
        timed(im2col_ms, [&] { im2colInto(act, k, k, stride, pad, cols); });
        timed(quant_ms, [&] {
            arch::EngineStats qs;
            q = sim::quantizePresentations(tp, m, cols.dim(0), bits, sc,
                                           scales, cols.data(), 1, m, &qs,
                                           plane);
        });
        timed(mvm_ms, [&] {
            arch::EngineStats ms;
            eng.mvmKeyed(q, 0, q.size(), keys.data(), &ms, nullptr, &tp);
        });
        timed(conv_ms, [&] {
            conv_stats = arch::EngineStats{};
            sim::convStage(act, se, mapped, bias, chan,
                           node->conv->outChannels(), k, stride, pad, bits,
                           sc, tp, &conv_stats, &conv_cols);
        });
    }

    bool matched = false;
    for (const auto &row : cap_rows.layers)
        if (row.name == node->name)
            matched = sameStats(row.stats, conv_stats);
    if (!matched)
        out.fail("probe: convStage stats on " + node->name +
                     " differ from the runtime's row",
                 false);

    const double n = static_cast<double>(act.dim(0));
    inform("kernel probe on %s (%lld images)", node->name.c_str(),
           static_cast<long long>(act.dim(0)));
    out.put("tensor.im2col_ms_per_image", median(im2col_ms) / n, "ms");
    out.put("sim.quantize_ms_per_image", median(quant_ms) / n, "ms");
    out.put("arch.mvm_ms_per_image", median(mvm_ms) / n, "ms");
    out.put("sim.conv_stage_ms_per_image", median(conv_ms) / n, "ms");
    out.put("arch.mvm_share", median(mvm_ms) / median(conv_ms), "fraction");
}

void
writeTrace(obs::TraceSession &tr, const std::string &path, Output &out)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        out.fail("cannot write " + path, false);
        return;
    }
    obs::JsonWriter w(f, /*pretty=*/false);
    tr.writeJson(w);
    std::fputc('\n', f);
    std::fclose(f);
}

// ---- offline workloads ----------------------------------------------------

struct Forward
{
    Tensor logits;
    sim::RuntimeReport rows;
    sim::PipelineReport pipe;   //!< pipeline workload only
    double ms = 0.0;
};

void
forwardOnce(Deployment &d, const Tensor &batch, Forward &f)
{
    if (d.pipeRt) {
        d.pipeRt->resetPresentationStreams();
        const auto t0 = Clock::now();
        f.logits = d.pipeRt->forward(batch, &f.pipe);
        f.ms = msBetween(t0, Clock::now());
        f.rows = f.pipe.nodes;
    } else {
        d.graphRt->resetPresentationStreams();
        const auto t0 = Clock::now();
        f.logits = d.graphRt->forward(batch, &f.rows);
        f.ms = msBetween(t0, Clock::now());
    }
}

/** Forwards until `seconds` have passed (at least kMinForwards). */
std::vector<Forward>
timedForwards(Deployment &d, const Tensor &batch, double seconds)
{
    std::vector<Forward> runs;
    const auto start = Clock::now();
    while (runs.size() < kMinForwards || secondsSince(start) < seconds) {
        runs.emplace_back();
        forwardOnce(d, batch, runs.back());
    }
    return runs;
}

std::vector<double>
imagesPerSecond(const std::vector<Forward> &runs, int64_t batch)
{
    std::vector<double> ips;
    for (const Forward &f : runs)
        ips.push_back(static_cast<double>(batch) / (f.ms / 1e3));
    return ips;
}

void
runOffline(const Workload &w, uint64_t seed, double seconds,
           obs::TraceSession *tr, Output &out)
{
    const Shape sample = sampleShape(w);
    const Tensor calib = randomImages(seed, kCalibStream, kCalibImages,
                                      sample);
    const Tensor batch = randomImages(seed, kBatchStream, w.batch, sample);
    std::vector<SetupTimes> reps;
    std::unique_ptr<Deployment> d = setupSamples(w, calib, reps);

    Forward warm;
    forwardOnce(*d, batch, warm);
    const int64_t w0 = tr ? tr->nowNs() : 0;
    std::vector<Forward> runs = timedForwards(*d, batch, seconds);
    const int64_t w1 = tr ? tr->nowNs() : 0;
    if (tr)
        tr->uninstall();
    putPeakRss(out);
    putSetup(w, reps, *d, out);

    const std::vector<double> ips = imagesPerSecond(runs, w.batch);
    std::vector<double> ms;
    for (const Forward &f : runs)
        ms.push_back(f.ms);
    out.put("images_per_s", median(ips), "1/s");
    out.put("images_per_s.q1", percentile(ips, 0.25), "1/s");
    out.put("images_per_s.q3", percentile(ips, 0.75), "1/s");
    // Not an independent measurement offline: the same forward times
    // as images_per_s. The key is here because every workload reports
    // every end-to-end metric.
    out.put("latency_p50_ms", median(ms), "ms");
    out.put("forwards", static_cast<double>(runs.size()), "count");

    const Forward &first = runs.front();
    const double images = static_cast<double>(w.batch);
    double model_ns, model_pj;
    if (d->pipeRt) {
        model_ns = 1e9 / first.pipe.modeledFps();
        model_pj = (first.rows.modelEnergyPj() + first.pipe.transferPj) /
            images;
        out.put("pipeline.modeled_fps", first.pipe.modeledFps(), "1/s");
        out.put("pipeline.bubble_fraction", first.pipe.bubbleFraction,
                "fraction");
        out.put("pipeline.stages", first.pipe.stages, "count");
        out.model.add(first.pipe.makespanNs);
        out.model.add(first.pipe.bubbleFraction);
        out.model.add(first.pipe.transferPj);
    } else {
        model_ns = first.rows.modelTimeNs() / images;
        model_pj = first.rows.modelEnergyPj() / images;
    }
    out.model.add(first.rows.modelTimeNs());
    out.model.add(first.rows.modelEnergyPj());
    out.put("model.us_per_image", model_ns / 1e3, "us");
    out.put("model.uj_per_image", model_pj / 1e6, "uJ");
    putEngineCounts(first.rows, images, out);
    out.logits.add(first.logits);
    out.stats.add(first.rows);

    // Bitwise gate against the scalar-pinned GraphRuntime.
    const std::vector<uint64_t> ids = consecutiveIds(w.batch);
    sim::RuntimeReport ref_rows;
    Tensor ref;
    {
        ScalarPin pin;
        sim::GraphRuntime rt(d->graph, d->states, d->rcfg);
        ref = rt.forwardRequests(batch, ids.data(), nullptr, &ref_rows);
    }
    for (size_t i = 0; i < runs.size(); ++i) {
        ++out.attempted;
        if (!sameLogits(runs[i].logits, ref) ||
            !sameRows(runs[i].rows, ref_rows))
            out.fail(strfmt("forward %zu differs bitwise from the scalar "
                            "GraphRuntime reference", i),
                     true);
    }

    if (tr) {
        const double traced = images * static_cast<double>(runs.size());
        const SpanTotals t = analyzeSpans(*tr, w0, w1, d->graph, out);
        putSpanMetrics(t, traced,
                       static_cast<double>(adcSamples(first.rows)) *
                           static_cast<double>(runs.size()),
                       out);
        probeKernels(*d, batch, ids, first.rows, out);
    }
}

// ---- serving workload -------------------------------------------------------

/** Times every GraphBackend::run (batcher thread only). */
class TimedBackend : public serve::Backend
{
  public:
    explicit TimedBackend(sim::GraphRuntime &rt) : inner_(rt) {}

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per_request) override
    {
        const auto t0 = Clock::now();
        Tensor out = inner_.run(batch, ids, per_request);
        batchMs.push_back(msBetween(t0, Clock::now()));
        return out;
    }

    /** Read only after the server using this backend has shut down. */
    std::vector<double> batchMs;

  private:
    serve::GraphBackend inner_;
};

struct Corpus
{
    std::vector<Tensor> images;
    std::vector<uint64_t> ids;
};

struct Served
{
    int corpus = 0;
    serve::Response resp;
};

/** One traffic phase against a fresh server. */
struct Phase
{
    std::vector<double> latencyMs;   //!< +inf when shed or failed
    std::vector<double> lateMs;      //!< generator lateness (open loop)
    std::vector<Served> served;
    std::vector<double> doneS;       //!< completion times (closed loop)
    int64_t sent = 0;
    int64_t ok = 0;
    double wallS = 0.0;
};

serve::ServerConfig
serverConfig(obs::MetricsRegistry *reg)
{
    serve::ServerConfig c;
    c.maxBatch = 4;
    c.maxDelayUs = 400;
    // Deeper than one phase ever sends, so a multi-second host stall
    // shows as latency rather than as shed (failed) requests.
    c.queueCapacity = 2048;
    c.metrics = reg;
    return c;
}

void
record(Phase &ph, int k, serve::Response r, double late_ms)
{
    if (r.status == serve::Status::Ok) {
        ++ph.ok;
        ph.latencyMs.push_back(late_ms + r.totalUs / 1e3);
    } else {
        ph.latencyMs.push_back(std::numeric_limits<double>::infinity());
    }
    ph.served.push_back({k, std::move(r)});
}

/** completed + shed must equal sent in the server's own metrics. */
void
crossCheck(const obs::MetricsRegistry &reg, const Phase &ph,
           const char *name, Output &out)
{
    const auto snap = reg.snapshot();
    auto counter = [&snap](const char *key) -> int64_t {
        for (const auto &[k, v] : snap.counters)
            if (k == key)
                return static_cast<int64_t>(v);
        return 0;
    };
    int64_t observed = 0;
    for (const auto &[k, h] : snap.histograms)
        if (k == "serve.latency_us")
            observed = static_cast<int64_t>(h.count);
    const int64_t done = counter("serve.completed");
    if (done + counter("serve.rejected") != ph.sent || done != ph.ok ||
        observed != ph.ok)
        out.fail(strfmt("%s: server metrics count %lld completed + %lld "
                        "shed (%lld latencies) for %lld sent, %lld ok",
                        name, static_cast<long long>(done),
                        static_cast<long long>(counter("serve.rejected")),
                        static_cast<long long>(observed),
                        static_cast<long long>(ph.sent),
                        static_cast<long long>(ph.ok)),
                 false);
}

/** Poisson arrivals at `rate`, drawn before the first send. */
Phase
openLoop(serve::Backend &be, const Corpus &c, double rate, double seconds,
         Rng &rng, const char *name, Output &out)
{
    std::vector<double> due;
    std::vector<int> pick;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        due.push_back(t);
        pick.push_back(static_cast<int>(rng.below(kCorpus)));
    }

    Phase ph;
    obs::MetricsRegistry reg;
    {
        serve::Server srv(be, serverConfig(&reg));
        std::vector<std::future<serve::Response>> futs;
        futs.reserve(due.size());
        const auto t0 = Clock::now();
        for (size_t i = 0; i < due.size(); ++i) {
            const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due[i]));
            std::this_thread::sleep_until(at);
            const size_t k = static_cast<size_t>(pick[i]);
            Tensor img = c.images[k];
            ph.lateMs.push_back(msBetween(at, Clock::now()));
            futs.push_back(srv.submit(std::move(img), c.ids[k]));
            ++ph.sent;
        }
        for (size_t i = 0; i < futs.size(); ++i)
            record(ph, pick[i], futs[i].get(), ph.lateMs[i]);
        ph.wallS = secondsSince(t0);
        srv.shutdown();
    }
    crossCheck(reg, ph, name, out);
    return ph;
}

/** kClosedOutstanding requests in flight until `seconds` have passed. */
Phase
closedLoop(serve::Backend &be, const Corpus &c, double seconds, Rng &rng,
           Output &out)
{
    Phase ph;
    obs::MetricsRegistry reg;
    {
        serve::Server srv(be, serverConfig(&reg));
        std::deque<std::pair<int, std::future<serve::Response>>> inflight;
        auto send = [&] {
            const int k = static_cast<int>(rng.below(kCorpus));
            inflight.emplace_back(
                k, srv.submit(c.images[static_cast<size_t>(k)],
                              c.ids[static_cast<size_t>(k)]));
            ++ph.sent;
        };
        const auto t0 = Clock::now();
        while (inflight.size() < kClosedOutstanding)
            send();
        while (!inflight.empty()) {
            auto [k, fut] = std::move(inflight.front());
            inflight.pop_front();
            serve::Response r = fut.get();
            if (r.status == serve::Status::Ok)
                ph.doneS.push_back(secondsSince(t0));
            record(ph, k, std::move(r), 0.0);
            if (secondsSince(t0) < seconds)
                send();
        }
        ph.wallS = secondsSince(t0);
        srv.shutdown();
    }
    crossCheck(reg, ph, "closed", out);
    return ph;
}

/**
 * Completed requests per second: the median over windows of about
 * kRateWindowS, as the offline workloads take the median over
 * forwards, so a host stall shorter than half the phase does not set
 * it.
 */
double
medianRate(const Phase &ph)
{
    const size_t n =
        std::max<size_t>(1, static_cast<size_t>(ph.wallS / kRateWindowS));
    const double len = ph.wallS / static_cast<double>(n);
    std::vector<double> rate(n, 0.0);
    for (double t : ph.doneS)
        rate[std::min(n - 1, static_cast<size_t>(t / len))] += 1.0 / len;
    return median(rate);
}

double
meanBatch(const Phase &ph)
{
    std::vector<double> b;
    for (const Served &s : ph.served)
        if (s.resp.status == serve::Status::Ok)
            b.push_back(s.resp.batchSize);
    return mean(b);
}

void
runServe(const Workload &w, uint64_t seed, double seconds,
         obs::TraceSession *tr, Output &out)
{
    const Shape sample = sampleShape(w);
    const Tensor pool = randomImages(seed, kCorpusStream, kCorpus, sample);
    Corpus c;
    const int64_t elems = pool.numel() / kCorpus;
    for (int i = 0; i < kCorpus; ++i) {
        Tensor img(sample);
        std::memcpy(img.data(), pool.data() + i * elems,
                    static_cast<size_t>(elems) * sizeof(float));
        c.images.push_back(std::move(img));
        c.ids.push_back(seed * kCorpus + static_cast<uint64_t>(i));
    }
    std::vector<SetupTimes> reps;
    std::unique_ptr<Deployment> d = setupSamples(w, Tensor(), reps);
    TimedBackend backend(*d->graphRt);
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + kArrivalStream);

    {
        // Warm-up: the corpus once, back to back.
        serve::Server srv(backend, serverConfig(nullptr));
        std::vector<std::future<serve::Response>> futs;
        for (int i = 0; i < kCorpus; ++i)
            futs.push_back(srv.submit(c.images[static_cast<size_t>(i)],
                                      c.ids[static_cast<size_t>(i)]));
        for (auto &f : futs)
            f.get();
    }
    backend.batchMs.clear();

    // The gated phases get the most time: a host stall of a second or
    // two backs up the 100 req/s queue for many requests, and a longer
    // phase keeps it under half of them. 300 req/s is reported only.
    const int64_t w0 = tr ? tr->nowNs() : 0;
    Phase r100 =
        openLoop(backend, c, 100.0, 0.55 * seconds, rng, "r100", out);
    Phase r300 =
        openLoop(backend, c, 300.0, 0.15 * seconds, rng, "r300", out);
    Phase closed = closedLoop(backend, c, 0.3 * seconds, rng, out);
    const int64_t w1 = tr ? tr->nowNs() : 0;
    if (tr)
        tr->uninstall();
    putPeakRss(out);
    putSetup(w, reps, *d, out);

    // images_per_s is the closed loop's completed requests per second.
    // The gated latency is the light-load point: at 300 req/s queueing
    // amplifies host-speed drift several-fold (README.md, "Bounds").
    out.put("images_per_s", medianRate(closed), "1/s");
    out.put("latency_p50_ms", percentile(r100.latencyMs, 0.50), "ms");
    out.put("serve.r100.p99_ms", percentile(r100.latencyMs, 0.99), "ms");
    out.put("serve.r300.p50_ms", percentile(r300.latencyMs, 0.50), "ms");
    out.put("serve.r300.p99_ms", percentile(r300.latencyMs, 0.99), "ms");
    out.put("serve.r100.achieved_rps",
            static_cast<double>(r100.ok) / r100.wallS, "1/s");
    out.put("serve.r300.achieved_rps",
            static_cast<double>(r300.ok) / r300.wallS, "1/s");
    out.put("serve.r100.mean_batch", meanBatch(r100), "count");
    out.put("serve.r300.mean_batch", meanBatch(r300), "count");
    std::vector<double> queue_ms, exec_ms;
    for (const Served &s : r300.served) {
        if (s.resp.status != serve::Status::Ok)
            continue;
        queue_ms.push_back(s.resp.queueUs / 1e3);
        exec_ms.push_back((s.resp.totalUs - s.resp.queueUs) / 1e3);
    }
    out.put("serve.r300.queue_ms_p50", percentile(queue_ms, 0.50), "ms");
    out.put("serve.r300.exec_ms_p50", percentile(exec_ms, 0.50), "ms");
    out.put("serve.backend_ms_per_batch", median(backend.batchMs), "ms");
    std::vector<double> late = r100.lateMs;
    late.insert(late.end(), r300.lateMs.begin(), r300.lateMs.end());
    out.put("serve.gen_late_ms_max",
            late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
            "ms");
    out.put("serve.shed",
            static_cast<double>(r100.sent - r100.ok + r300.sent - r300.ok +
                                closed.sent - closed.ok),
            "count");
    out.put("serve.requests",
            static_cast<double>(r100.sent + r300.sent + closed.sent),
            "count");

    // Single-request references on a separately programmed runtime.
    std::vector<Tensor> ref_logits(kCorpus);
    std::vector<sim::RuntimeReport> ref_rows(kCorpus);
    {
        ScalarPin pin;
        sim::GraphRuntime ref(d->graph, d->states, d->rcfg);
        for (int i = 0; i < kCorpus; ++i) {
            const size_t k = static_cast<size_t>(i);
            std::vector<sim::RuntimeReport> per;
            ref_logits[k] = ref.forwardRequests(
                c.images[k].reshaped({1, sample[0], sample[1], sample[2]}),
                &c.ids[k], &per);
            ref_rows[k] = std::move(per[0]);
        }
    }
    sim::RuntimeReport all_rows;
    for (int i = 0; i < kCorpus; ++i) {
        const size_t k = static_cast<size_t>(i);
        out.logits.add(ref_logits[k]);
        out.stats.add(ref_rows[k]);
        out.model.add(ref_rows[k].modelTimeNs());
        out.model.add(ref_rows[k].modelEnergyPj());
        for (size_t r = 0; r < ref_rows[k].layers.size(); ++r) {
            if (all_rows.layers.size() <= r)
                all_rows.layers.push_back(ref_rows[k].layers[r]);
            else
                all_rows.layers[r].stats.merge(ref_rows[k].layers[r].stats);
        }
    }
    std::vector<double> model_us, model_uj;
    for (const auto &rows : ref_rows) {
        model_us.push_back(rows.modelTimeNs() / 1e3);
        model_uj.push_back(rows.modelEnergyPj() / 1e6);
    }
    out.put("model.us_per_image", mean(model_us), "us");
    out.put("model.uj_per_image", mean(model_uj), "uJ");
    putEngineCounts(all_rows, kCorpus, out);

    uint64_t served_adc = 0;
    for (const Phase *ph : {&r100, &r300, &closed}) {
        for (const Served &s : ph->served) {
            ++out.attempted;
            const size_t k = static_cast<size_t>(s.corpus);
            if (s.resp.status != serve::Status::Ok) {
                out.fail(strfmt("request %llu not served",
                                static_cast<unsigned long long>(
                                    s.resp.requestId)),
                         true);
            } else if (!sameLogits(s.resp.logits, ref_logits[k]) ||
                       !sameRows(s.resp.report, ref_rows[k])) {
                out.fail(strfmt("request %llu (batch of %d) differs "
                                "bitwise from its single-request "
                                "reference",
                                static_cast<unsigned long long>(
                                    s.resp.requestId),
                                s.resp.batchSize),
                         true);
            } else {
                served_adc += adcSamples(s.resp.report);
            }
        }
    }

    if (tr) {
        const double images =
            static_cast<double>(r100.ok + r300.ok + closed.ok);
        const SpanTotals t = analyzeSpans(*tr, w0, w1, d->graph, out);
        putSpanMetrics(t, images, static_cast<double>(served_adc), out);
        Tensor probe({w.batch, sample[0], sample[1], sample[2]});
        for (int i = 0; i < w.batch; ++i)
            std::memcpy(probe.data() + i * elems,
                        c.images[static_cast<size_t>(i)].data(),
                        static_cast<size_t>(elems) * sizeof(float));
        const std::vector<uint64_t> ids(c.ids.begin(),
                                        c.ids.begin() + w.batch);
        probeKernels(*d, probe, ids, ref_rows[0], out);
    }
}

// ---- main -------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
writeResult(const Workload &w, uint64_t seed, double seconds, bool traced,
            const Output &out)
{
    const char *threads_env = std::getenv("FORMS_THREADS");
    obs::RunManifest m = obs::RunManifest::collect("forms_bench");
    m.set("workload", w.name)
        .set("seed", static_cast<int64_t>(seed))
        .set("seconds", seconds)
        .set("trace", traced ? "on" : "off")
        .set("cpu_model", cpuModel())
        .set("nproc",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
        .set("forms_threads", threads_env ? threads_env : "");

    obs::JsonWriter j(stdout);
    j.beginObject();
    j.field("workload", w.name);
    j.key("manifest");
    m.writeJson(j);
    j.field("attempted", out.attempted);
    j.field("failed", out.failed);
    j.field("checks_passed", !out.checksFailed);
    j.key("failures");
    j.beginArray();
    for (const std::string &f : out.failures)
        j.value(f);
    j.endArray();
    j.key("digests");
    j.beginObject();
    j.field("logits", out.logits.hex());
    j.field("stats", out.stats.hex());
    j.field("model", out.model.hex());
    j.endObject();
    j.key("metrics");
    j.beginObject();
    for (const auto &[name, v, unit] : out.metrics) {
        j.key(name);
        j.beginObject();
        j.field("value", v);
        j.field("unit", unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::fputc('\n', stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: forms_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace FILE]\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    uint64_t seed = 1;
    double seconds = 15.0;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            for (const Workload &x : kWorkloads)
                if (x.name == std::string(v))
                    w = &x;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            trace_path = v;
        } else {
            return usage();
        }
        if (end && (*end != '\0' || end == v))
            return usage();
    }
    if (!w || !(seconds > 0.0))
        return usage();

    std::unique_ptr<obs::TraceSession> session;
    if (!trace_path.empty()) {
        session = std::make_unique<obs::TraceSession>();
        session->install();
    }
    inform("forms_bench %s seed %llu, %.1f s, %s, %d threads", w->name,
           static_cast<unsigned long long>(seed), seconds,
           simd::buildDescription().c_str(),
           ThreadPool::global().threads());

    Output out;
    if (w->kind == Kind::Serve)
        runServe(*w, seed, seconds, session.get(), out);
    else
        runOffline(*w, seed, seconds, session.get(), out);
    if (session)
        writeTrace(*session, trace_path, out);
    writeResult(*w, seed, seconds, session != nullptr, out);
    return out.checksFailed ? 1 : 0;
}
