/**
 * @file
 * Resilience study: accuracy under hard crossbar faults with and
 * without spare-crossbar remapping, and modeled throughput across
 * heterogeneous chip fleets.
 *
 * A scaled ResNet is trained on a synthetic task, ADMM-compressed,
 * compiled and run four ways per column-kill rate: clean, faulted
 * without spares, and faulted with the remap pass routing dead-column
 * tiles onto spares (arch/remap.hh) — plus a stuck-at/drift
 * degradation curve that remapping deliberately does not repair. The
 * process exits non-zero unless remapping recovers at least 90% of
 * the clean-vs-faulted accuracy gap at the 1e-3 column-kill gate
 * (docs/RESILIENCE.md). A second sweep re-partitions the same graph
 * over heterogeneous ChipSpec fleets (capacity / ADC rate / link
 * bandwidth) and records the modeled fps — asserting the specs moved
 * only time, never logits. Emits BENCH_resilience.json (uploaded by
 * CI and schema-checked by scripts/check_bench_schema.py).
 */

#include <cstdio>
#include <cstring>

#include "admm/compressor.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "nn/zoo.hh"
#include "obs/run_manifest.hh"
#include "reram/faults.hh"
#include "sim/pipeline_runtime.hh"

using namespace forms;
using namespace forms::sim;

namespace {

constexpr double kGateRate = 1e-3;     //!< column-kill gate point
constexpr double kGateRecovery = 0.9;  //!< fraction of the gap to close
constexpr int kSpares = 32;            //!< spare crossbars per layer

const double kKillRates[] = {1e-4, 1e-3};
const double kStuckRates[] = {1e-3, 5e-3, 2e-2};

/** One (column-kill rate) measurement pair. */
struct FaultPoint
{
    double rate = 0.0;
    double faulted = 0.0;    //!< accuracy, no spares
    double remapped = 0.0;   //!< accuracy, remap onto spares
    double recovered = 1.0;  //!< fraction of the gap closed
};

/** One heterogeneous-fleet throughput measurement. */
struct HeteroPoint
{
    const char *label = "";
    double fps = 0.0;
    double makespanNs = 0.0;
    double transferNs = 0.0;
    bool bitIdentical = false;
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

double
recoveredFraction(double clean, double faulted, double remapped)
{
    const double gap = clean - faulted;
    if (gap <= 0.0)
        return 1.0;   // the map didn't hurt; nothing to recover
    return (remapped - faulted) / gap;
}

} // namespace

int
main()
{
    std::printf("Fault resilience: accuracy vs fault rate with and "
                "without spare-crossbar remapping (ResNet, synthetic "
                "CIFAR-10 task)\n");

    // Train and ADMM-compress (projection-only snapshots collapse a
    // trained model; the fault deltas would be chance-level noise).
    nn::DatasetConfig dcfg = nn::DatasetConfig::cifar10Like(91);
    dcfg.trainPerClass = 16;
    dcfg.testPerClass = 3;
    dcfg.nonneg = true;
    nn::SyntheticImageDataset data(dcfg);

    Rng rng(92);
    auto net = nn::buildResNetSmall(rng, dcfg.classes, 8, 1);
    nn::TrainConfig tcfg;
    tcfg.epochs = 4;
    tcfg.batchSize = 16;
    tcfg.seed = 93;
    nn::Trainer trainer(*net, data, tcfg);
    const double fp_acc = trainer.run().testAccuracy;

    admm::AdmmConfig acfg;
    acfg.fragSize = 8;
    acfg.policy = admm::PolarizationPolicy::CMajor;
    acfg.xbarDim = 16;
    acfg.filterKeep = 0.7;
    acfg.shapeKeep = 0.7;
    acfg.quantBits = 8;
    acfg.admmEpochsPerPhase = 1;
    acfg.finetuneEpochs = 2;
    admm::AdmmCompressor comp(*net, data, acfg);
    comp.run();
    auto &states = comp.layers();

    auto graph = compile::lowerNetwork(*net);
    graph.inferShapes({dcfg.channels, dcfg.height, dcfg.width});
    compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale);

    const Tensor &test = data.test().images;
    const std::vector<int> &labels = data.test().labels;

    PipelineRuntime clean_rt(graph, states, benchConfig());
    const double clean_acc = clean_rt.accuracy(test, labels);

    // ---- column-kill sweep: no-spares vs remapped onto spares ----
    std::vector<FaultPoint> points;
    for (double rate : kKillRates) {
        reram::FaultConfig fc;
        fc.columnKillRate = rate;
        fc.seed = 2024;
        reram::FaultMap map(fc);

        FaultPoint p;
        p.rate = rate;
        {
            RuntimeConfig cfg = benchConfig();
            cfg.faults = &map;
            PipelineRuntime rt(graph, states, cfg);
            p.faulted = rt.accuracy(test, labels);
        }
        {
            RuntimeConfig cfg = benchConfig();
            cfg.faults = &map;
            cfg.remapFaults = true;
            cfg.mapping.spareXbars = kSpares;
            PipelineRuntime rt(graph, states, cfg);
            p.remapped = rt.accuracy(test, labels);
        }
        p.recovered = recoveredFraction(clean_acc, p.faulted,
                                        p.remapped);
        points.push_back(p);
    }

    // ---- stuck-at/drift degradation (remap leaves these in place) --
    std::vector<std::pair<double, double>> stuck_points;
    for (double rate : kStuckRates) {
        reram::FaultConfig fc;
        fc.stuckLrsRate = rate / 2.0;
        fc.stuckHrsRate = rate / 2.0;
        fc.driftRate = rate;
        fc.seed = 2024;
        reram::FaultMap map(fc);
        RuntimeConfig cfg = benchConfig();
        cfg.faults = &map;
        PipelineRuntime rt(graph, states, cfg);
        stuck_points.emplace_back(rate, rt.accuracy(test, labels));
    }

    // ---- fault exposure at the gate point (pipeline reporting) ----
    reram::FaultConfig gate_fc;
    gate_fc.columnKillRate = kGateRate;
    gate_fc.seed = 2024;
    reram::FaultMap gate_map(gate_fc);
    PipelineRuntimeConfig pcfg;
    pcfg.runtime = benchConfig();
    pcfg.runtime.faults = &gate_map;
    pcfg.runtime.remapFaults = true;
    pcfg.runtime.mapping.spareXbars = kSpares;
    pcfg.microBatch = 2;
    compile::ScheduleConfig gate_scfg;
    gate_scfg.chips = 2;
    PipelineRuntime gate_rt(
        graph, compile::Schedule::partition(graph, gate_scfg), states,
        pcfg);
    PipelineReport gate_rep;
    (void)gate_rt.forward(test, &gate_rep);

    // ---- heterogeneous fleets: time moves, numbers don't ----------
    std::vector<HeteroPoint> hetero;
    Tensor homog_logits;
    const struct
    {
        const char *label;
        compile::ChipSpec spec0;   //!< chip 0's spec; others default
        double linkAll = 1.0;      //!< linkIn applied to every chip
    } fleets[] = {
        {"homogeneous", {}, 1.0},
        {"fast_chip0_2x", {2.0, 1.0, 1.0}, 1.0},
        {"fast_adc0_2x", {1.0, 2.0, 1.0}, 1.0},
        {"slow_links_2x", {}, 0.5},
    };
    for (const auto &f : fleets) {
        compile::ScheduleConfig scfg;
        scfg.chips = 4;
        scfg.workModel = compile::WorkModel::AdcTime;
        scfg.chipSpecs.assign(4, compile::ChipSpec{});
        scfg.chipSpecs[0] = f.spec0;
        for (auto &spec : scfg.chipSpecs)
            spec.linkIn *= f.linkAll;

        PipelineRuntimeConfig hcfg;
        hcfg.runtime = benchConfig();
        hcfg.microBatch = 2;
        PipelineRuntime rt(graph,
                           compile::Schedule::partition(graph, scfg),
                           states, hcfg);
        PipelineReport rep;
        const Tensor logits = rt.forward(test, &rep);

        HeteroPoint h;
        h.label = f.label;
        h.fps = rep.modeledFps();
        h.makespanNs = rep.makespanNs;
        h.transferNs = rep.transferNs;
        if (hetero.empty()) {
            homog_logits = logits;
            h.bitIdentical = true;
        } else {
            h.bitIdentical = logits.equals(homog_logits);
        }
        hetero.push_back(h);
    }

    // ---- report ---------------------------------------------------
    Table t({"Kill rate", "Faulted (%)", "Remapped (%)",
             "Recovered"});
    for (const auto &p : points) {
        t.row().cell(p.rate, 4)
            .cell(p.faulted * 100.0, 1)
            .cell(p.remapped * 100.0, 1)
            .cell(p.recovered, 2);
    }
    t.print(strfmt("Column-kill resilience (FP acc %.1f%%, clean "
                   "crossbar acc %.1f%%, %d spares/layer, %d test "
                   "images)", fp_acc * 100.0, clean_acc * 100.0,
                   kSpares, static_cast<int>(test.dim(0))));

    Table h({"Fleet", "Modeled fps", "Makespan (us)",
             "Transfer (us)", "Bit-identical"});
    for (const auto &p : hetero) {
        h.row().cell(p.label)
            .cell(p.fps, 1)
            .cell(p.makespanNs / 1e3, 1)
            .cell(p.transferNs / 1e3, 1)
            .cell(p.bitIdentical ? "yes" : "NO");
    }
    h.print("Heterogeneous 4-chip fleets (AdcTime partitioning)");

    const FaultPoint *gate = nullptr;
    for (const auto &p : points)
        if (p.rate == kGateRate)
            gate = &p;
    FORMS_ASSERT(gate != nullptr, "gate rate missing from sweep");
    bool hetero_identical = true;
    for (const auto &p : hetero)
        hetero_identical = hetero_identical && p.bitIdentical;
    const bool pass =
        gate->recovered >= kGateRecovery && hetero_identical;

    FILE *json = std::fopen("BENCH_resilience.json", "w");
    if (!json) {
        warn("cannot write BENCH_resilience.json");
        return 1;
    }
    obs::RunManifest manifest = obs::RunManifest::collect("resilience");
    manifest.set("network", "resnet_small")
        .set("train_seed", static_cast<int64_t>(tcfg.seed));
    obs::JsonWriter w(json);
    w.beginObject();
    obs::writeBenchHeader(w, manifest);
    w.field("bench", "resilience");
    w.field("threads", ThreadPool::global().threads());
    w.field("network", "resnet_small");
    w.field("test_images", static_cast<int64_t>(test.dim(0)));
    w.field("fp_accuracy", fp_acc);
    w.field("clean_accuracy", clean_acc);
    w.key("recovery");
    w.beginObject();
    w.field("column_kill_rate", gate->rate);
    w.field("spare_xbars", kSpares);
    w.field("faulted_accuracy", gate->faulted);
    w.field("remapped_accuracy", gate->remapped);
    w.field("recovered_fraction", gate->recovered);
    w.field("required_fraction", kGateRecovery);
    w.field("faulty_crossbars",
            static_cast<int64_t>(gate_rep.faultyCrossbars));
    w.field("remapped_crossbars",
            static_cast<int64_t>(gate_rep.remappedCrossbars));
    w.field("pass", pass);
    w.endObject();
    w.key("fault_points");
    w.beginArray();
    for (const auto &p : points) {
        w.beginObject();
        w.field("column_kill_rate", p.rate);
        w.field("spare_xbars", kSpares);
        w.field("accuracy_faulted", p.faulted);
        w.field("accuracy_remapped", p.remapped);
        w.field("recovered_fraction", p.recovered);
        w.endObject();
    }
    w.endArray();
    w.key("stuck_points");
    w.beginArray();
    for (const auto &p : stuck_points) {
        w.beginObject();
        w.field("stuck_rate", p.first);
        w.field("accuracy", p.second);
        w.endObject();
    }
    w.endArray();
    w.key("hetero_points");
    w.beginArray();
    for (const auto &p : hetero) {
        w.beginObject();
        w.field("label", p.label);
        w.field("chips", 4);
        w.field("modeled_fps", p.fps);
        w.field("makespan_ns", p.makespanNs);
        w.field("transfer_ns", p.transferNs);
        w.field("bit_identical", p.bitIdentical);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::fputc('\n', json);
    std::fclose(json);
    std::printf("wrote BENCH_resilience.json (%zu fault points, %zu "
                "fleets)\n", points.size(), hetero.size());

    if (!pass) {
        warn("resilience gate FAILED: recovered %.2f of the accuracy "
             "gap at column-kill rate %g (need >= %.2f), hetero "
             "bit-identical=%d",
             gate->recovered, kGateRate, kGateRecovery,
             hetero_identical);
        return 1;
    }
    std::printf("resilience gate passed: recovered %.2f of the gap "
                "at rate %g; heterogeneous fleets bit-identical\n",
                gate->recovered, kGateRate);
    return 0;
}
