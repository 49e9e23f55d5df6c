/**
 * @file
 * Offline activation-calibration table.
 *
 * A CalibrationTable maps each crossbar-programmed matrix node (Conv /
 * Dense, keyed by node / layer name) to the static input-quantization
 * scale of the unsigned bit-serial DAC feeding it — the fixed hardware
 * input grid FORMS assumes (ISAAC-style pipelines freeze activation
 * scales at deployment time). Tables are built offline by
 * sim::Calibrator from a calibration split and deployed by attachTo(),
 * which stamps them onto a graph's input edges: the graph is the only
 * way a calibration reaches an executor.
 *
 * Thread-safety: build from one thread; a const table is safe to
 * attach to any number of graphs.
 */

#ifndef FORMS_COMPILE_CALIBRATION_HH
#define FORMS_COMPILE_CALIBRATION_HH

#include <cstdint>
#include <string>
#include <vector>

namespace forms::compile {

class Graph;

/** Calibrated input grid of one matrix node. */
struct CalibEntry
{
    std::string node;          //!< matrix node / layer name
    float range = 0.0f;        //!< calibrated activation range (real units)
    float scale = 0.0f;        //!< quantizer step: range / (2^bits - 1)
    uint64_t observations = 0; //!< presentations the range was fit on

    /**
     * Measured bit-level activity: average fragment EIC over the
     * calibration split's quantized presentations (fragmented the way
     * the engine fragments its input rows). 0 with eicFragments == 0
     * means the calibrator did not measure EIC for this node. Feeds
     * Node::eicDensity via attachTo and the WorkModel::EicTime
     * schedule objective.
     */
    float avgEic = 0.0f;
    uint64_t eicFragments = 0; //!< fragments avgEic was measured over
};

/** Per-node static activation scales, in deterministic node order. */
class CalibrationTable
{
  public:
    CalibrationTable() = default;

    /** Input grid resolution the scales were computed for. */
    int inputBits() const { return inputBits_; }
    void setInputBits(int bits) { inputBits_ = bits; }

    /** Insert or replace the entry for `e.node`. */
    void set(CalibEntry e);

    /** Entry for a node name, or null when uncalibrated. */
    const CalibEntry *find(const std::string &node) const;

    size_t size() const { return entries_.size(); }
    const std::vector<CalibEntry> &entries() const { return entries_; }

    /**
     * Stamp every entry's scale onto the matching matrix node's
     * `Node::inScale` (its input edge), together with the table's
     * inputBits() as `Node::inBits` — and, for entries with a
     * measured EIC, the node's `Node::eicDensity`
     * (avgEic / inputBits) — so the graph carries its own
     * calibration. Attaching a second table overwrites the scale and
     * resolution of every node it names. fatal()s when an entry names
     * no live matrix node — a table from a different model is a
     * deployment error, not a warning.
     */
    void attachTo(Graph &g) const;

  private:
    std::vector<CalibEntry> entries_;  //!< insertion order (deterministic)
    int inputBits_ = 0;
};

} // namespace forms::compile

#endif // FORMS_COMPILE_CALIBRATION_HH
