/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic decision in the simulator draws from an explicitly
 * seeded Rng so that complete runs are bit-reproducible. The
 * variability methodology of Alameldeen & Wood [2] is implemented by
 * re-running experiments with perturbed seeds (see core/experiment).
 *
 * The generator is xoshiro256**, seeded via splitmix64 so that nearby
 * seeds produce uncorrelated streams.
 */

#ifndef SIM_RNG_HH
#define SIM_RNG_HH

#include <cstdint>

namespace middlesim::sim
{

/** Self-contained xoshiro256** PRNG with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t uniform(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double real();

    /** Bernoulli trial with probability p. */
    bool chance(double p);

    /**
     * Fork a new independent stream.
     *
     * Used to hand each model thread its own generator so that thread
     * interleaving does not perturb per-thread reference streams.
     */
    Rng fork();

  private:
    std::uint64_t s_[4];
};

} // namespace middlesim::sim

#endif // SIM_RNG_HH
