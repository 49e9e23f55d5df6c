/**
 * @file
 * Observability subsystem tests (docs/OBSERVABILITY.md): JsonWriter
 * structural/escaping guarantees, trace well-formedness against the
 * pipeline timing model (per-track slices monotone and non-overlapping,
 * per-chip busy totals equal to ChipReport::busyNs), MetricsRegistry
 * snapshot determinism across thread counts, and RunManifest
 * resolution + serialization. The observer *invariant* (tracing
 * changes no bits) is enforced by the trace-on axis in
 * test_cross_runtime_fuzz.cc; this file pins what the observers
 * report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "obs/trace.hh"
#include "sim/obs_glue.hh"
#include "sim/pipeline_runtime.hh"

namespace forms {
namespace {

// ---- JsonWriter ------------------------------------------------------

TEST(JsonWriter, EscapesStringsAndRoundTripsFloats)
{
    obs::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("quote\"back\\slash", std::string("tab\there"));
    w.field("pi", 3.14159265358979);
    w.field("neg", -1);
    w.field("big", uint64_t(1) << 53);
    w.key("nonfinite").value(0.0 / 0.0);
    w.endObject();
    EXPECT_TRUE(w.complete());
    const std::string &s = w.str();
    EXPECT_NE(s.find("\"quote\\\"back\\\\slash\""), std::string::npos);
    EXPECT_NE(s.find("tab\\there"), std::string::npos);
    EXPECT_NE(s.find("3.14159265"), std::string::npos);
    EXPECT_NE(s.find("\"nonfinite\":null"), std::string::npos);
}

TEST(JsonWriter, NestedContainersStayStructurallyValid)
{
    obs::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("rows");
    w.beginArray();
    for (int i = 0; i < 3; ++i) {
        w.beginObject();
        w.field("i", i);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"rows\":[{\"i\":0},{\"i\":1},{\"i\":2}]}");
}

// ---- trace model vs. pipeline report ---------------------------------

struct TracedRun
{
    sim::PipelineReport rep;
    std::vector<obs::TraceEvent> events;
};

/** Small two-conv net through PipelineRuntime with a trace session. */
TracedRun
tracedPipelineRun(int chips, bool overlap)
{
    Rng rng(71);
    nn::Network net;
    net.emplace<nn::Conv2D>("c0", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("r0");
    net.emplace<nn::Conv2D>("c1", 8, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("r1");
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 8 * 10 * 10, 4, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 10, 10});
    auto states = sim::snapshotCompress(net, 8, 8);

    compile::ScheduleConfig scfg;
    scfg.chips = chips;
    auto sched = compile::Schedule::partition(graph, scfg);

    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime.mapping.fragSize = 8;
    pcfg.runtime.mapping.inputBits = 8;
    pcfg.runtime.engine.adcBits = 4;
    pcfg.microBatch = 2;
    pcfg.tile.overlap = overlap;

    obs::TraceSession session;
    pcfg.trace = &session;

    sim::PipelineRuntime rt(graph, std::move(sched), states, pcfg);
    Tensor batch({4, 3, 10, 10});
    batch.fillUniform(rng, 0.0f, 1.0f);

    TracedRun out;
    rt.forward(batch, &out.rep);
    out.events = session.events();
    return out;
}

TEST(Trace, PerTrackSlicesAreMonotoneAndNonOverlapping)
{
    for (bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlap" : "serial");
        const TracedRun run = tracedPipelineRun(2, overlap);
        ASSERT_FALSE(run.events.empty());

        // Group complete slices by (pid, tid); within a track they
        // must be emitted in start order and never overlap.
        std::map<std::pair<int, int>, std::vector<const obs::TraceEvent *>>
            tracks;
        for (const obs::TraceEvent &e : run.events) {
            if (e.type == obs::TraceEvent::Type::Complete)
                tracks[{e.pid, e.tid}].push_back(&e);
        }
        ASSERT_FALSE(tracks.empty());
        for (auto &[key, slices] : tracks) {
            std::vector<const obs::TraceEvent *> sorted = slices;
            std::stable_sort(sorted.begin(), sorted.end(),
                             [](const obs::TraceEvent *a,
                                const obs::TraceEvent *b) {
                                 return a->tsUs < b->tsUs;
                             });
            for (size_t i = 0; i < sorted.size(); ++i) {
                EXPECT_GE(sorted[i]->durUs, 0.0);
                if (i == 0)
                    continue;
                // Tolerate only summation rounding between adjacent
                // slices of one track.
                const double prev_end =
                    sorted[i - 1]->tsUs + sorted[i - 1]->durUs;
                EXPECT_GE(sorted[i]->tsUs, prev_end - 1e-6)
                    << "track (" << key.first << ", " << key.second
                    << ") slice " << sorted[i]->name << " overlaps "
                    << sorted[i - 1]->name;
            }
        }
    }
}

TEST(Trace, PerChipBusyTotalsMatchChipReport)
{
    for (bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlap" : "serial");
        const TracedRun run = tracedPipelineRun(2, overlap);

        std::vector<double> busy_us(run.rep.chips.size(), 0.0);
        for (const obs::TraceEvent &e : run.events) {
            if (e.type != obs::TraceEvent::Type::Complete ||
                e.cat != "stage")
                continue;
            // Modeled chip timelines use pid = chip + 1 (pid 0 is the
            // wall-clock host process).
            ASSERT_GE(e.pid, 1);
            ASSERT_LE(static_cast<size_t>(e.pid), busy_us.size());
            busy_us[static_cast<size_t>(e.pid - 1)] += e.durUs;
        }
        for (size_t c = 0; c < run.rep.chips.size(); ++c) {
            const double want = run.rep.chips[c].busyNs / 1e3;
            EXPECT_NEAR(busy_us[c], want,
                        1e-6 * std::max(1.0, want))
                << "chip " << c;
        }
    }
}

TEST(Trace, FlowArrowsPairUpAndTraceSerializes)
{
    const TracedRun run = tracedPipelineRun(2, true);
    size_t starts = 0, ends = 0;
    for (const obs::TraceEvent &e : run.events) {
        starts += e.type == obs::TraceEvent::Type::FlowStart;
        ends += e.type == obs::TraceEvent::Type::FlowEnd;
    }
    EXPECT_EQ(starts, ends);
    EXPECT_GT(starts, 0u);   // 2 chips => at least one transfer

    obs::TraceSession session;
    session.slice(1, 1, "s", "stage", 0.0, 1.0);
    obs::JsonWriter w(/*pretty=*/false);
    session.writeJson(w);
    EXPECT_TRUE(w.complete());
    EXPECT_NE(w.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(w.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, HostSpansRecordOnlyWhenInstalled)
{
    EXPECT_FALSE(obs::traceEnabled());
    {
        FORMS_TRACE_SCOPE("uninstalled span");
    }

    obs::TraceSession session;
    session.install();
    EXPECT_TRUE(obs::traceEnabled());
    {
        FORMS_TRACE_SCOPE("host work");
    }
    session.uninstall();
    EXPECT_FALSE(obs::traceEnabled());

    bool found = false;
    for (const obs::TraceEvent &e : session.events())
        found = found ||
            (e.pid == obs::TraceSession::kHostPid &&
             e.name == "host work");
    EXPECT_TRUE(found);
}

// ---- metrics ---------------------------------------------------------

/** metrics.json bytes for one single-chip forward on `threads`. */
std::string
metricsJsonAtThreads(int threads)
{
    Rng rng(72);
    nn::Network net;
    net.emplace<nn::Conv2D>("c0", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("r0");
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 8 * 8 * 8, 4, rng);

    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 8, 8});
    auto states = sim::snapshotCompress(net, 8, 8);

    ThreadPool pool(threads);
    sim::RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    rcfg.pool = &pool;
    obs::MetricsRegistry metrics;
    rcfg.metrics = &metrics;

    sim::PipelineRuntime rt(graph, states, rcfg);
    Tensor batch({2, 3, 8, 8});
    batch.fillUniform(rng, 0.0f, 1.0f);
    rt.forward(batch);

    obs::JsonWriter w(/*pretty=*/true);
    metrics.writeJson(w);
    return w.str();
}

TEST(Metrics, SnapshotIsByteIdenticalAcrossThreadCounts)
{
    const std::string one = metricsJsonAtThreads(1);
    const std::string four = metricsJsonAtThreads(4);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, four);
    // Spot-check the unified namespace.
    EXPECT_NE(one.find("engine.presentations"), std::string::npos);
    EXPECT_NE(one.find("model.time_ns"), std::string::npos);
}

/** Counter `name` in a registry snapshot (0 when absent). */
uint64_t
counterValue(const obs::MetricsRegistry &m, const std::string &name)
{
    for (const auto &[k, v] : m.snapshot().counters)
        if (k == name)
            return v;
    return 0;
}

/** engine.* counters must equal the summed rows of `rows`. */
void
expectCountersMatchRows(const obs::MetricsRegistry &m,
                        const sim::RuntimeReport &rows)
{
    arch::EngineStats total;
    for (const sim::RuntimeLayerReport &layer : rows.layers)
        total.merge(layer.stats);
    ASSERT_GT(total.presentations, 0u);
    EXPECT_EQ(counterValue(m, "engine.presentations"),
              total.presentations);
    EXPECT_EQ(counterValue(m, "engine.bit_cycles"), total.bitCycles);
    EXPECT_EQ(counterValue(m, "engine.skipped_cycles"),
              total.skippedCycles);
    EXPECT_EQ(counterValue(m, "engine.adc_samples"), total.adcSamples);
    EXPECT_EQ(counterValue(m, "engine.quant_values"), total.quantValues);
    EXPECT_EQ(counterValue(m, "engine.quant_clipped"),
              total.quantClipped);
}

TEST(Metrics, CountersCountEachForwardOnceWhenTheReportIsReused)
{
    // Regression: forwards into one reused PipelineReport recorded
    // the metrics from its accumulated rows, so three forwards counted
    // the first forward's presentations three times.
    Rng rng(73);
    nn::Network net;
    net.emplace<nn::Conv2D>("c0", 3, 8, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("r0");
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 8 * 6 * 6, 4, rng);
    auto graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 6, 6});
    auto states = sim::snapshotCompress(net, 8, 8);
    Tensor batch({2, 3, 6, 6});
    batch.fillUniform(rng, 0.0f, 1.0f);

    sim::RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;

    {
        SCOPED_TRACE("PipelineReport, 2 chips");
        obs::MetricsRegistry m;
        sim::PipelineRuntimeConfig pcfg;
        pcfg.runtime = rcfg;
        pcfg.runtime.metrics = &m;
        compile::ScheduleConfig scfg;
        scfg.chips = 2;
        sim::PipelineRuntime rt(
            graph, compile::Schedule::partition(graph, scfg), states,
            pcfg);
        sim::PipelineReport rep;
        for (int i = 0; i < 3; ++i)
            rt.forward(batch, &rep);
        expectCountersMatchRows(m, rep.nodes);
        EXPECT_EQ(counterValue(m, "pipeline.images"), 6u);
    }
    {
        SCOPED_TRACE("RuntimeReport, single chip");
        obs::MetricsRegistry m;
        rcfg.metrics = &m;
        sim::PipelineRuntime rt(graph, states, rcfg);
        sim::RuntimeReport rows;
        for (int i = 0; i < 3; ++i)
            rt.forward(batch, &rows);
        expectCountersMatchRows(m, rows);
    }
}

TEST(Metrics, RegistrySemantics)
{
    obs::MetricsRegistry m;
    m.counterAdd("a.count", 2);
    m.counterAdd("a.count", 3);
    m.gaugeSet("a.gauge", 1.5);
    m.gaugeSet("a.gauge", 2.5);   // last write wins
    m.histObserve("a.hist", 1.0);
    m.histObserve("a.hist", -4.0);
    m.histObserve("a.hist", 2.0);

    const auto snap = m.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].second, 5u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].second, 2.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 3u);
    EXPECT_EQ(snap.histograms[0].second.min, -4.0);
    EXPECT_EQ(snap.histograms[0].second.max, 2.0);
    EXPECT_EQ(snap.histograms[0].second.sum, -1.0);
}

TEST(Metrics, PipelineReportFeedsChipAndPipelineNames)
{
    const TracedRun run = tracedPipelineRun(2, true);
    obs::MetricsRegistry m;
    sim::recordPipelineMetrics(m, run.rep);
    obs::JsonWriter w(/*pretty=*/false);
    m.writeJson(w);
    const std::string &s = w.str();
    EXPECT_NE(s.find("pipeline.makespan_ns"), std::string::npos);
    EXPECT_NE(s.find("pipeline.images"), std::string::npos);
    EXPECT_NE(s.find("chip.busy_ns"), std::string::npos);
}

// ---- run manifest ----------------------------------------------------

TEST(RunManifest, EnvOverrideAndSerializedShape)
{
    setenv("FORMS_GIT_SHA", "cafef00d", 1);
    obs::RunManifest m = obs::RunManifest::collect("unit_test");
    unsetenv("FORMS_GIT_SHA");
    EXPECT_EQ(m.gitSha, "cafef00d");
    EXPECT_EQ(m.bench, "unit_test");
    EXPECT_GT(m.threads, 0);

    m.set("seed", 41).set("ratio", 0.25).set("tag", "x");
    ASSERT_EQ(m.config.size(), 3u);
    EXPECT_EQ(m.config[0].second, "41");
    EXPECT_EQ(m.config[1].second, "0.25");

    obs::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    obs::writeBenchHeader(w, m);
    w.endObject();
    EXPECT_TRUE(w.complete());
    const std::string &s = w.str();
    EXPECT_NE(s.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(s.find("\"manifest\":{\"bench\":\"unit_test\""),
              std::string::npos);
    EXPECT_NE(s.find("\"git_sha\":\"cafef00d\""), std::string::npos);
    EXPECT_NE(s.find("\"config\":{\"seed\":\"41\""), std::string::npos);
}

TEST(RunManifest, GitShaTracksTheBuiltCommitNotConfigureTime)
{
    // Regression: the sha used to be captured when CMake configured,
    // so artifacts of every later build were attributed to whatever
    // commit happened to be checked out at configure time. The header
    // is now stamped on every build; without the env override the
    // manifest must name the repository's current HEAD.
    unsetenv("FORMS_GIT_SHA");
    obs::RunManifest m = obs::RunManifest::collect("unit_test");
    ASSERT_FALSE(m.gitSha.empty());
    if (m.gitSha == "unknown")
        GTEST_SKIP() << "built outside a git checkout";

    FILE *p = popen("git -C \"" FORMS_SOURCE_DIR
                    "\" rev-parse --short HEAD 2>/dev/null",
                    "r");
    ASSERT_NE(p, nullptr);
    char live[64] = {0};
    const bool read_ok = fgets(live, sizeof(live), p) != nullptr;
    const int status = pclose(p);
    if (!read_ok || status != 0)
        GTEST_SKIP() << "git not runnable against " FORMS_SOURCE_DIR;
    std::string head(live);
    while (!head.empty() && (head.back() == '\n' || head.back() == '\r'))
        head.pop_back();
    ASSERT_FALSE(head.empty());
    EXPECT_EQ(m.gitSha, head)
        << "manifest sha is stale — the build did not restamp it";
}

} // namespace
} // namespace forms
