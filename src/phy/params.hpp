/**
 * @file
 * Per-user and per-subframe workload parameters.
 *
 * These four quantities — users, PRBs per user, layers per user, and
 * modulation per user — are exactly the input parameters the paper
 * names in Sec. IV as defining the workload of a subframe.
 */
#ifndef LTE_PHY_PARAMS_HPP
#define LTE_PHY_PARAMS_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/**
 * Scheduling parameters of one user in one subframe.
 *
 * The paper counts PRBs per subframe (Fig. 1: a PRB is 12 subcarriers
 * for one slot, so a 20 MHz carrier offers 200 PRBs per subframe and a
 * user needs at least 2 — one per slot — to be scheduled).  An odd
 * allocation puts the extra PRB in slot 0.
 */
struct UserParams
{
    std::uint32_t id = 0;            ///< stable user identifier
    std::uint32_t prb = 2;           ///< PRBs in the subframe, 2..200
    std::uint32_t layers = 1;        ///< spatial layers, 1..4
    Modulation mod = Modulation::kQpsk;

    /** PRBs occupied in the given slot (0 or 1). */
    std::uint32_t prb_in_slot(std::size_t slot) const
    {
        return slot == 0 ? (prb + 1) / 2 : prb / 2;
    }

    /** Allocated subcarriers in the given slot. */
    std::size_t sc_in_slot(std::size_t slot) const
    {
        return static_cast<std::size_t>(prb_in_slot(slot)) * kScPerPrb;
    }

    /** Throws std::invalid_argument if any field is out of range. */
    void validate() const;

    bool operator==(const UserParams &) const = default;
};

/** The set of users scheduled in one subframe. */
struct SubframeParams
{
    std::uint64_t subframe_index = 0;
    /**
     * Physical cell identity serving this subframe (1..511; the Gold
     * scrambler reserves 9 bits).  Cell 1 is the single-cell default:
     * all sequence derivations (scrambling init, DMRS roots, input
     * pools) are the identity at cell 1, so single-cell runs are
     * bit-identical to the pre-multi-cell pipeline.
     */
    std::uint32_t cell_id = 1;
    std::vector<UserParams> users;

    /** Sum of PRBs over all users. */
    std::uint32_t total_prb() const;

    /** Throws if users exceed the schedulable limits of Sec. II-A. */
    void validate() const;
};

/**
 * Total data-bit capacity of a user's subframe allocation:
 * 6 data symbols x 12*prb subcarriers across the two slots, per layer,
 * times bits per symbol.
 */
std::size_t capacity_bits(const UserParams &params);

/**
 * How far a user's processing chain is degraded under deadline
 * pressure (the admission controllers' shed ladder, ordered by
 * increasing severity).  kReducedIterations swaps the MMSE solve for
 * MRC weights and caps the turbo decoder at the reduced iteration
 * budget; kBypass additionally skips decoding entirely (hard-decided
 * systematic bits) — the pre-ladder "degraded" behaviour, kept as the
 * last resort.  In pass-through mode (no real turbo) the two levels
 * coincide.
 */
enum class DegradeLevel : std::uint8_t
{
    kNone = 0,
    kReducedIterations = 1,
    kBypass = 2,
};

/**
 * The shed ladder's per-codeblock max-log-MAP iteration budget (real
 * turbo only; CRC early termination usually stops well short of it):
 * the full budget at kNone, the reduced budget at kReducedIterations,
 * no decode at kBypass.  The receiver, the op model and the workload
 * estimator all read the budget here.
 */
constexpr std::uint32_t
turbo_iterations_for(DegradeLevel level)
{
    switch (level) {
      case DegradeLevel::kNone:
        return 6;
      case DegradeLevel::kReducedIterations:
        return 2;
      case DegradeLevel::kBypass:
        break;
    }
    return 0;
}

static_assert(turbo_iterations_for(DegradeLevel::kReducedIterations) >= 1 &&
                  turbo_iterations_for(DegradeLevel::kReducedIterations) <=
                      turbo_iterations_for(DegradeLevel::kNone),
              "the reduced budget must be 1..the full budget");

/** Receiver-side static configuration. */
struct ReceiverConfig
{
    /** Number of receive antennas (paper Sec. III: four). */
    std::size_t n_antennas = 4;

    /** Physical cell identity this receiver serves (1..511); selects
     *  the descrambling sequence and the expected DMRS roots. */
    std::uint32_t cell_id = 1;

    /** Run the real turbo decoder instead of the paper's pass-through. */
    bool use_real_turbo = false;

    void validate() const;
};

} // namespace lte::phy

#endif // LTE_PHY_PARAMS_HPP
