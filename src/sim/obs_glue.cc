#include "sim/obs_glue.hh"

namespace forms::sim {

void
recordPipelineMetrics(obs::MetricsRegistry &m, const PipelineReport &r)
{
    arch::EngineStats total;
    for (const RuntimeLayerReport &layer : r.nodes.layers) {
        total.merge(layer.stats);
        m.histObserve("layer.time_ns", layer.stats.timeNs);
        m.histObserve("layer.skip_fraction",
                      layer.stats.skipFraction());
        m.histObserve("layer.clip_fraction",
                      layer.stats.clipFraction());
    }
    m.counterAdd("engine.presentations", total.presentations);
    m.counterAdd("engine.bit_cycles", total.bitCycles);
    m.counterAdd("engine.skipped_cycles", total.skippedCycles);
    m.counterAdd("engine.adc_samples", total.adcSamples);
    m.counterAdd("engine.quant_values", total.quantValues);
    m.counterAdd("engine.quant_clipped", total.quantClipped);
    m.gaugeSet("engine.skip_fraction", total.skipFraction());
    m.gaugeSet("engine.clip_fraction", total.clipFraction());
    m.gaugeSet("engine.adc_energy_pj", total.adcEnergyPj);
    m.gaugeSet("engine.crossbar_energy_pj", total.crossbarEnergyPj);
    m.gaugeSet("engine.time_ns", total.timeNs);
    m.gaugeSet("model.time_ns", r.nodes.modelTimeNs());
    m.gaugeSet("model.energy_pj", r.nodes.modelEnergyPj());
    m.gaugeSet("host.wall_ms", r.nodes.wallMs);
    m.gaugeSet("pipeline.chips", static_cast<double>(r.chips.size()));
    m.gaugeSet("pipeline.stages", static_cast<double>(r.stages));
    m.gaugeSet("pipeline.micro_batches",
               static_cast<double>(r.microBatches));
    m.counterAdd("pipeline.images", static_cast<uint64_t>(r.images));
    m.gaugeSet("pipeline.makespan_ns", r.makespanNs);
    m.gaugeSet("pipeline.bubble_fraction", r.bubbleFraction);
    m.gaugeSet("pipeline.transfer_ns", r.transferNs);
    m.gaugeSet("pipeline.transfer_pj", r.transferPj);
    m.gaugeSet("pipeline.overlap_saved_ns", r.overlapSavedNs);
    m.gaugeSet("pipeline.modeled_fps", r.modeledFps());
    m.gaugeSet("pipeline.faulty_crossbars",
               static_cast<double>(r.faultyCrossbars));
    m.gaugeSet("pipeline.remapped_crossbars",
               static_cast<double>(r.remappedCrossbars));
    for (const ChipReport &c : r.chips) {
        m.histObserve("chip.busy_ns", c.busyNs);
        m.histObserve("chip.utilization", c.utilization);
        m.histObserve("chip.quant_ns", c.quantNs);
        m.histObserve("chip.compute_ns", c.computeNs);
        m.histObserve("chip.transfer_in_ns", c.transferInNs);
        m.histObserve("chip.faulty_crossbars",
                      static_cast<double>(c.faultyCrossbars));
        m.histObserve("chip.remapped_crossbars",
                      static_cast<double>(c.remappedCrossbars));
    }
}

} // namespace forms::sim
