/**
 * @file
 * FORMS / ISAAC-style pipeline timing model (paper Figure 12).
 *
 * A layer's presentations stream through a fixed-depth pipeline
 * (eDRAM read, input shifting with zero-skip, crossbar + ADC cycles,
 * shift-and-add, activation, eDRAM write; 22 stages, 26 when the layer
 * pools). The crossbar/ADC stage dominates and repeats for every
 * effective input bit; zero-skipping shortens exactly that stage.
 */

#ifndef FORMS_ARCH_PIPELINE_HH
#define FORMS_ARCH_PIPELINE_HH

#include <cstdint>

namespace forms::arch {

/** Pipeline timing parameters. */
struct PipelineConfig
{
    double cycleNs = 15.0;     //!< one pipeline cycle (ADC slot time)
};

/** Per-layer pipeline occupancy summary. */
struct PipelineTiming
{
    double fillNs = 0.0;       //!< time to fill the pipe (depth cycles)
    double streamNs = 0.0;     //!< steady-state streaming time
    double totalNs = 0.0;
    uint64_t cycles = 0;
};

/**
 * Latency of streaming `presentations` input vectors through a layer.
 *
 * @param cfg pipeline parameters
 * @param presentations sliding-window positions for the layer
 * @param bit_cycles_per_presentation effective input-bit cycles the
 *        crossbar stage repeats (EIC * row groups), the per-item
 *        initiation interval
 * @param pools whether the layer is followed by max-pooling
 */
PipelineTiming layerPipelineTiming(const PipelineConfig &cfg,
                                   uint64_t presentations,
                                   double bit_cycles_per_presentation,
                                   bool pools);

} // namespace forms::arch

#endif // FORMS_ARCH_PIPELINE_HH
