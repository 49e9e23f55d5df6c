/**
 * @file
 * Analytic performance model (paper §V-C/D: Table V, Figures 13/14).
 *
 * The model is explicit and bottom-up:
 *
 *   n_l  crossbars per layer copy after compression, counted by
 *        admm::crossbarsForMatrix on the design's MCU geometry:
 *        ceil(keptRows/R) * ceil(keptCols*cellsPerWeight/C), doubled
 *        under the splitting sign scheme
 *   tau_l per-presentation latency, ADC-limited:
 *        rowGroups * effectiveBits * (colsPerAdc / f_adc)
 *   FPS  balanced-pipeline replication over the chip's X crossbars
 *        (reram::kChipCrossbars):
 *        X / sum_l n_l * P_l * tau_l
 *
 * Effective throughput counts the *original* network's operations
 * delivered per second (so compression raises it), divided by chip
 * area / power from the component models.
 *
 * Raw physics reproduces the compression-driven gains (e.g. ISAAC-32 ->
 * Pruned/Quantized-ISAAC) from first principles. The published
 * fine-grained-vs-coarse constants cannot all be derived from the
 * paper's parameters (see DESIGN.md §2), so each architecture carries
 * an explicit `calibration` factor, defaulted to pin Table V; benches
 * print raw and calibrated numbers side by side.
 */

#ifndef FORMS_SIM_PERF_MODEL_HH
#define FORMS_SIM_PERF_MODEL_HH

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "admm/report.hh"
#include "reram/components.hh"
#include "sim/activation_model.hh"
#include "sim/workloads.hh"

namespace forms::sim {

/** A modeled accelerator design point. */
struct ArchModel
{
    std::string name;
    admm::SignScheme scheme = admm::SignScheme::OffsetIsaac;
    /**
     * The MCU the chip cost is built from (the default, ISAAC's, for
     * the ISAAC and PUMA points): the one home of the design's crossbar geometry,
     * cell precision, fragment size (rows activated per step; 128 =
     * coarse) and ADC bank.
     */
    reram::McuConfig mcu = reram::McuConfig::isaac();
    int weightBits = 16;       //!< stored weight precision
    int inputBits = 16;
    bool zeroSkip = false;
    double chipPowerMw = 0.0;
    double chipAreaMm2 = 0.0;
    bool usesCompression = false;  //!< honours the eval case's profile
    double calibration = 1.0;      //!< documented efficiency factor

    // ---- factory design points -------------------------------------
    /** Non-pruned ISAAC with 32-bit weights (figure baseline). */
    static ArchModel isaac32();
    /** ISAAC with 16-bit weights (Table V normalization basis). */
    static ArchModel isaac16();
    /** ISAAC enjoying FORMS pruning + 8-bit quantization. */
    static ArchModel isaacPrunedQuantized();
    /** PUMA-style dual-crossbar design, 16-bit. */
    static ArchModel puma16();
    /** PUMA with pruning + quantization. */
    static ArchModel pumaPrunedQuantized();
    /** FORMS, polarization only (16-bit, no pruning/quantization). */
    static ArchModel formsPolarizationOnly(int frag_size);
    /** FORMS with all optimizations (pruning, quant, polarization). */
    static ArchModel formsFull(int frag_size, bool zero_skip);
};

/** Per-layer model intermediates (exposed for tests/ablations). */
struct LayerPerf
{
    int64_t crossbars = 0;      //!< n_l
    double tauNs = 0.0;         //!< per-presentation latency
    int64_t presentations = 0;  //!< P_l
    double workNs = 0.0;        //!< n_l * P_l * tau_l
};

/** Whole-network evaluation result. */
struct PerfResult
{
    double fpsRaw = 0.0;        //!< raw-physics frames per second
    double fps = 0.0;           //!< calibrated FPS
    double effGops = 0.0;       //!< original-network GOPs/s (calibrated)
    double gopsPerMm2 = 0.0;
    double gopsPerW = 0.0;
    double totalWorkNs = 0.0;   //!< sum n_l P_l tau_l
    std::vector<LayerPerf> layers;
};

/** The performance model. */
class PerfModel
{
  public:
    explicit PerfModel(ActivationModel act =
                           ActivationModel::calibratedResNet50());

    /**
     * Evaluate one architecture on one workload.
     *
     * @param arch the design point
     * @param workload full-size layer dims
     * @param profile compression profile; applied only when
     *        arch.usesCompression (prune keep fractions and weight
     *        precision come from here)
     */
    PerfResult evaluate(const ArchModel &arch, const Workload &workload,
                        const CompressionProfile *profile) const;

    /** Per-layer crossbar count under an architecture + profile. */
    LayerPerf layerPerf(const ArchModel &arch, const LayerSpec &layer,
                        const CompressionProfile *profile) const;

    /** Average effective input bits for a fragment size (cached). */
    double effectiveBitsFor(const ArchModel &arch) const;

  private:
    ActivationModel act_;
    // EIC depends on both the fragment size and the input grid the
    // activations are quantized onto, so the cache keys on the pair;
    // the mutex makes concurrent evaluate() calls safe (the model is
    // shared read-only across bench threads). Holding a mutex makes
    // PerfModel non-copyable, which is fine — it is constructed once
    // per bench/test and passed by reference.
    mutable std::map<std::pair<int, int>, double> eicCache_;
    mutable std::mutex eicMutex_;
};

/**
 * Inter-chip link cost for the multi-chip pipeline scheduler
 * (compile/schedule.hh + sim/pipeline_runtime.hh). A tensor hopping
 * one chip boundary pays a fixed 50 ns serialization latency plus
 * its bytes streamed at 25 GB/s; energy is 1 pJ per byte moved. The
 * constants model a short-reach SerDes-class link, not paper data
 * (the paper evaluates a single chip).
 */
double interChipTransferNs(int64_t bytes);

/** Modeled energy for one inter-chip hop of `bytes` (pJ). */
double interChipTransferPj(int64_t bytes);

/**
 * Intra-chip tile pipeline timing model (FORMS inherits ISAAC's
 * intra-tile pipelining): each programmed node's time on a chip
 * splits into two phases — a digital input-quantization phase (the
 * DAC front-end turning activations into bit-serial presentations)
 * and the ADC-limited analog/digital phase (the engine model time).
 * With `overlap` set, node k+1's quantization phase runs while node
 * k's ADC phase drains the tail of the presentation stream, so a
 * chip's busy time for one micro-batch follows the two-phase chained
 * recurrence in chipBusyNs(); with it clear the phases serialize.
 * The quantizer is modeled as a fully pipelined 2 GHz fixed-point
 * unit, one value per cycle (0.5 ns/value), not paper data (the
 * paper reports only the ADC-limited path).
 */
struct TilePipeline
{
    /** Overlap layer L's ADC phase with layer L+1's quantization. */
    bool overlap = true;

    /** Quantization-phase time for `values` activation scalars. */
    double quantNs(uint64_t values) const;
};

/**
 * One programmed node's per-phase busy interval within a chip:
 * quantization (digital front-end) then ADC-limited compute. The
 * bit-cycle counters carry the compute phase's measured zero-skip
 * activity (arch::EngineStats deltas): computeNs already reflects
 * only the presented cycles, and eicFraction() reports how far below
 * the dense worst case that is.
 */
struct PhaseInterval
{
    double quantNs = 0.0;
    double computeNs = 0.0;
    uint64_t bitCycles = 0;      //!< input bit cycles presented
    uint64_t skippedCycles = 0;  //!< bit cycles elided by zero-skip

    /**
     * Presented fraction of the worst-case input cycles,
     * bitCycles / (bitCycles + skippedCycles) — the phase's measured
     * EIC density. 1 when untracked (no cycles recorded).
     */
    double eicFraction() const
    {
        const uint64_t all = bitCycles + skippedCycles;
        return all == 0
            ? 1.0
            : static_cast<double>(bitCycles) / static_cast<double>(all);
    }
};

/**
 * Place `phases` (one chip's programmed nodes' per-phase intervals,
 * in topological order) on a timeline opening at `start` ns, calling
 * place(k, quant_start_ns, compute_start_ns) for each phase in order,
 * and return when the last compute phase ends. Serial: each node's
 * quantization then its compute. Overlapped: node k+1's quantization
 * starts with node k's compute and node k+1's compute starts when the
 * slower of the two finishes, so
 *
 *     end - start = q_1 + sum_{k=1}^{K-1} max(c_k, q_{k+1}) + c_K,
 *
 * which never exceeds the serial time and never undercuts the pure
 * compute sum (docs/SCHEDULING.md derives it).
 */
template <class Place>
double
placePhases(const std::vector<PhaseInterval> &phases,
            const TilePipeline &tile, double start, Place &&place)
{
    double t = start;
    if (!tile.overlap) {
        for (size_t k = 0; k < phases.size(); ++k) {
            place(k, t, t + phases[k].quantNs);
            t += phases[k].quantNs + phases[k].computeNs;
        }
        return t;
    }
    if (phases.empty())
        return t;
    double quant_at = t;
    t += phases.front().quantNs;
    for (size_t k = 0;; ++k) {
        place(k, quant_at, t);
        if (k + 1 == phases.size())
            break;
        quant_at = t;
        t += std::max(phases[k].computeNs, phases[k + 1].quantNs);
    }
    return t + phases.back().computeNs;
}

/**
 * Busy time of one chip executing `phases` for one micro-batch: the
 * span placePhases() lays them out over from 0.
 */
double chipBusyNs(const std::vector<PhaseInterval> &phases,
                  const TilePipeline &tile);

/** Published reference design points for Table V (paper's numbers). */
struct ReferencePoint
{
    std::string name;
    double gopsPerMm2Norm;   //!< normalized to ISAAC
    double gopsPerWNorm;
};

/** DaDianNao / TPU / WAX / SIMBA rows of Table V. */
std::vector<ReferencePoint> tableVReferencePoints();

} // namespace forms::sim

#endif // FORMS_SIM_PERF_MODEL_HH
