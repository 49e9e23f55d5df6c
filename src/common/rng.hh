/**
 * @file
 * Deterministic random number generation for all FORMS components.
 *
 * Every stochastic piece of the library (weight init, synthetic datasets,
 * device variation, activation sampling) takes an explicit Rng so that
 * experiments are reproducible run-to-run and platform-independent.
 * The generator is xoshiro256** seeded through splitmix64.
 */

#ifndef FORMS_COMMON_RNG_HH
#define FORMS_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

namespace forms {

/** xoshiro256** PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /** Re-seed the generator (state expanded via splitmix64). */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto &word : state_) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ULL;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
        haveSpare_ = false;
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        auto rotl = [](uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    below(uint64_t n)
    {
        // Multiply-shift rejection-free mapping (slight modulo bias is
        // irrelevant at 64-bit state for simulation purposes).
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

    /** One attempt of the Marsaglia polar method: u and v uniform on
     *  [-1, 1) and s = u^2 + v^2. */
    struct PolarAttempt
    {
        double u, v, s;
    };

    /** Draw one polar attempt (two uniforms, u first). */
    PolarAttempt
    polarAttempt()
    {
        const double u = uniform(-1.0, 1.0);
        const double v = uniform(-1.0, 1.0);
        return {u, v, u * u + v * v};
    }

    /** Whether the polar method keeps an attempt with this s. */
    static bool polarAccepts(double s) { return s < 1.0 && s != 0.0; }

    /** The scale m of an accepted attempt: its normals are u*m, v*m. */
    static double
    polarScale(double s)
    {
        return std::sqrt(-2.0 * std::log(s) / s);
    }

    /** Standard normal via Marsaglia polar method (cached spare). */
    double
    gaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        PolarAttempt a = polarAttempt();
        while (!polarAccepts(a.s))
            a = polarAttempt();
        const double m = polarScale(a.s);
        spare_ = a.v * m;
        haveSpare_ = true;
        return a.u * m;
    }

    /** Normal with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        return mean + stddev * gaussian();
    }

    /**
     * Log-normal sample: exp(N(mu, sigma)). With mu = 0 this is the
     * multiplicative device-variation model used in the paper (§V-E).
     */
    double
    lognormal(double mu, double sigma)
    {
        return std::exp(gaussian(mu, sigma));
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

  private:
    uint64_t state_[4] = {};
    double spare_ = 0.0;
    bool haveSpare_ = false;
};

} // namespace forms

#endif // FORMS_COMMON_RNG_HH
