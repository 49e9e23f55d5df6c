/**
 * @file
 * Zero-skipping input scheduler (paper §IV-B, Figures 7 & 9).
 *
 * Inputs enter the crossbar bit-serially, MSB first. The *effective
 * bits* of an input are its bits below the leading zeros; the
 * *effective input cycles* (EIC) of a fragment is the maximum effective
 * bits over its inputs — the minimum number of bit cycles needed to
 * feed every contributing bit. The circuit realizes this with a NOR
 * over each parallel-in/serial-out shift register and an AND across a
 * fragment's registers that fires the ADC early; both the behavioral
 * shortcut (max bit-length) and a cycle-accurate register model are
 * provided and cross-checked in tests.
 */

#ifndef FORMS_ARCH_ZERO_SKIP_HH
#define FORMS_ARCH_ZERO_SKIP_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace forms::arch {

/** Bit length of an input value (0 for 0): its effective bits. */
int effectiveBits(uint32_t value);

/**
 * Effective input cycles for one fragment of inputs: max effective
 * bits, i.e. the cycles the zero-skip controller cannot avoid.
 * All-zero fragments take 0 cycles (fully skipped).
 */
int fragmentEic(const uint32_t *values, size_t n);

/**
 * Cycle-accurate model of the skip circuit: parallel-in/serial-out
 * shift registers with a NOR per register and an AND across registers.
 * Each shiftCycle() emits one input bit per lane (MSB first) and
 * reports whether every register has drained (the AND output).
 */
class ShiftRegisterBank
{
  public:
    /**
     * @param input_bits register width (e.g. 16)
     * @param lanes fragment size (registers in the bank)
     */
    ShiftRegisterBank(int input_bits, int lanes);

    /** Parallel-load a new fragment of inputs. */
    void load(const std::vector<uint32_t> &values);

    /**
     * Shift one cycle: returns the bit emitted by each lane (the MSB
     * of the remaining contents).
     */
    std::vector<uint8_t> shiftCycle();

    /** AND of the per-lane NORs: true when all registers are zero. */
    bool allDrained() const;

    /** Bits remaining before the bank drains completely. */
    int remainingCycles() const;

    int inputBits() const { return inputBits_; }
    int lanes() const { return lanes_; }

  private:
    int inputBits_;
    int lanes_;
    std::vector<uint32_t> regs_;
};

/**
 * EIC statistics collector for Figure 8: a histogram of per-fragment
 * EIC values (bins 0..input_bits) plus the running average.
 */
class EicStats
{
  public:
    explicit EicStats(int input_bits = 16);

    /** Record the EIC of one fragment presentation. */
    void record(int eic);

    /** Record n activations at `values`, split into fragments. */
    void recordVector(const uint32_t *values, size_t n, int frag_size);

    const Histogram &histogram() const { return hist_; }

    /** Average EIC over all recorded fragments. */
    double averageEic() const { return hist_.mean(); }

    /** Fraction of cycles saved vs. always feeding input_bits. */
    double cycleSavings() const;

    int inputBits() const { return inputBits_; }

  private:
    int inputBits_;
    Histogram hist_;
};

} // namespace forms::arch

#endif // FORMS_ARCH_ZERO_SKIP_HH
