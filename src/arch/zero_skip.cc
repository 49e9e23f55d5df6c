#include "arch/zero_skip.hh"

#include "common/logging.hh"

namespace forms::arch {

int
effectiveBits(uint32_t value)
{
    int bits = 0;
    while (value) {
        ++bits;
        value >>= 1;
    }
    return bits;
}

int
fragmentEic(const uint32_t *values, size_t n)
{
    uint32_t merged = 0;
    for (size_t i = 0; i < n; ++i)
        merged |= values[i];
    return effectiveBits(merged);
}

ShiftRegisterBank::ShiftRegisterBank(int input_bits, int lanes)
    : inputBits_(input_bits), lanes_(lanes),
      regs_(static_cast<size_t>(lanes), 0)
{
    FORMS_ASSERT(input_bits >= 1 && input_bits <= 32, "bad register width");
    FORMS_ASSERT(lanes >= 1, "bank needs at least one lane");
}

void
ShiftRegisterBank::load(const std::vector<uint32_t> &values)
{
    FORMS_ASSERT(static_cast<int>(values.size()) == lanes_,
                 "load size != lanes");
    const uint32_t mask = inputBits_ == 32
        ? 0xffffffffu : ((1u << inputBits_) - 1);
    for (int i = 0; i < lanes_; ++i) {
        FORMS_ASSERT((values[static_cast<size_t>(i)] & ~mask) == 0,
                     "input exceeds register width");
        regs_[static_cast<size_t>(i)] = values[static_cast<size_t>(i)];
    }
}

std::vector<uint8_t>
ShiftRegisterBank::shiftCycle()
{
    std::vector<uint8_t> bits(static_cast<size_t>(lanes_));
    const int top = inputBits_ - 1;
    for (int i = 0; i < lanes_; ++i) {
        uint32_t &r = regs_[static_cast<size_t>(i)];
        bits[static_cast<size_t>(i)] =
            static_cast<uint8_t>((r >> top) & 1u);
        r = (r << 1) & (inputBits_ == 32
                        ? 0xffffffffu : ((1u << inputBits_) - 1));
    }
    return bits;
}

bool
ShiftRegisterBank::allDrained() const
{
    // NOR per register (true when the register is all-zero), AND across
    // the bank — the paper's trigger condition.
    for (uint32_t r : regs_)
        if (r != 0)
            return false;
    return true;
}

int
ShiftRegisterBank::remainingCycles() const
{
    uint32_t merged = 0;
    for (uint32_t r : regs_)
        merged |= r;
    return effectiveBits(merged);
}

EicStats::EicStats(int input_bits)
    : inputBits_(input_bits), hist_(input_bits + 1)
{
}

void
EicStats::record(int eic)
{
    FORMS_ASSERT(eic >= 0 && eic <= inputBits_, "eic out of range");
    hist_.add(eic);
}

void
EicStats::recordVector(const uint32_t *values, size_t n, int frag_size)
{
    FORMS_ASSERT(frag_size >= 1, "bad fragment size");
    // Validate the whole vector up front: a value wider than the
    // configured input grid means the caller fed unquantized (or
    // saturated) activations, which would otherwise surface as an
    // opaque assert deep inside record(). Fail with the offending
    // value so calibration errors are actionable.
    const uint32_t limit = inputBits_ >= 32
        ? 0xffffffffu : ((1u << inputBits_) - 1u);
    for (size_t i = 0; i < n; ++i) {
        if (values[i] > limit) {
            fatal("EicStats::recordVector: value %u at index %zu "
                  "exceeds the %d-bit input grid (max %u) — quantize "
                  "or clamp activations before recording EIC",
                  values[i], i, inputBits_, limit);
        }
    }
    for (size_t at = 0; at < n; at += static_cast<size_t>(frag_size))
        record(fragmentEic(values + at,
                           std::min<size_t>(static_cast<size_t>(frag_size),
                                            n - at)));
}

double
EicStats::cycleSavings() const
{
    if (hist_.total() == 0)
        return 0.0;
    return 1.0 - averageEic() / static_cast<double>(inputBits_);
}

} // namespace forms::arch
