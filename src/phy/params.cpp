#include "phy/params.hpp"

#include <numeric>

#include "common/check.hpp"

namespace lte::phy {

void
UserParams::validate() const
{
    LTE_CHECK(prb >= 2 && prb <= kMaxPrbPerSubframe,
              "a user needs 2..200 PRBs");
    LTE_CHECK(layers >= 1 && layers <= kMaxLayers, "layers must be 1..4");
    LTE_CHECK(mod == Modulation::kQpsk || mod == Modulation::k16Qam ||
              mod == Modulation::k64Qam, "unknown modulation");
}

std::uint32_t
SubframeParams::total_prb() const
{
    return std::accumulate(users.begin(), users.end(), std::uint32_t{0},
                           [](std::uint32_t acc, const UserParams &u) {
                               return acc + u.prb;
                           });
}

void
SubframeParams::validate() const
{
    LTE_CHECK(cell_id >= 1 && cell_id <= 511,
              "cell id must be 1..511 (9 scrambler bits)");
    LTE_CHECK(users.size() <= kMaxUsersPerSubframe,
              "at most 10 users per subframe");
    for (const auto &u : users)
        u.validate();
}

std::size_t
capacity_bits(const UserParams &params)
{
    std::size_t bits = 0;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        bits += kDataSymbolsPerSlot * params.sc_in_slot(slot) *
                params.layers * bits_per_symbol(params.mod);
    }
    return bits;
}

void
ReceiverConfig::validate() const
{
    LTE_CHECK(n_antennas >= 1 && n_antennas <= kMaxRxAntennas,
              "antennas must be 1..4");
    LTE_CHECK(cell_id >= 1 && cell_id <= 511,
              "cell id must be 1..511 (9 scrambler bits)");
}

} // namespace lte::phy
