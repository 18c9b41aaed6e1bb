/**
 * @file
 * Power-domain allocation: the 8-core domain discretisation (Eq. 6),
 * its multi-cell partition, and the power-gating plan of a finished
 * run (Eq. 7: a five-subframe provisioning window).
 */
#ifndef LTE_MGMT_CORE_ALLOCATOR_HPP
#define LTE_MGMT_CORE_ALLOCATOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lte::mgmt {

/**
 * Eq. 6: discretise an active-core count up to whole power domains.
 */
std::uint32_t discretise_to_domains(std::uint32_t active_cores,
                                    std::uint32_t domain_size,
                                    std::uint32_t total_cores);

/**
 * Partition the chip's power domains across cells from their core
 * demands (multi-cell Eq. 6).  Each cell asks for
 * ceil(demand / domain_size) domains (at least one: a served cell can
 * never be fully powered off, its control channels still arrive every
 * TTI).  When the requests fit the chip they are granted verbatim;
 * when they overshoot, the domains are apportioned proportionally to
 * the requests by largest remainder, still respecting the one-domain
 * floor per cell.
 *
 * @param demands      per-cell active-core demand (Eq. 5 output)
 * @param domain_size  cores per power domain (paper: 8)
 * @param total_cores  chip size; must hold >= demands.size() domains
 * @return per-cell powered core counts (multiples of domain_size),
 *         index-aligned with @p demands
 */
std::vector<std::uint32_t>
partition_domains(const std::vector<std::uint32_t> &demands,
                  std::uint32_t domain_size, std::uint32_t total_cores);

/**
 * Observability tallies of gating decisions: every change in the
 * powered-core count is a domain switch event, each of which costs
 * the paper's 15 mW on/off overhead (Eq. 9).
 */
struct GatingStats
{
    std::uint64_t decisions = 0;
    std::uint64_t switch_events = 0;   ///< powered count changed
    std::uint64_t domains_switched = 0;///< |delta| / domain_size summed
    std::uint32_t peak_powered = 0;
};

/**
 * Half-width of the Eq. 7 provisioning window: input parameters are
 * known two subframes ahead, and up to three subframes are
 * concurrently in flight, so subframe i stays powered for the demand
 * of subframes i-2 .. i+2.
 */
inline constexpr std::size_t kGatingWindow = 2;

/**
 * The power-gating plan (Eqs. 6-7) of a finished run: entry i is the
 * maximum of the domain-discretised demands over subframes
 * i - kGatingWindow .. i + kGatingWindow, clipped to the run.
 *
 * @param demands      per-subframe active-core demand (Eq. 5 output)
 * @param domain_size  cores per power domain (paper: 8)
 * @param total_cores  chip size (paper: 64)
 * @param stats        when non-null, receives the plan's tallies
 * @return one powered-core count per entry of @p demands
 */
std::vector<std::uint32_t>
gating_plan(const std::vector<std::uint32_t> &demands,
            std::uint32_t domain_size, std::uint32_t total_cores,
            GatingStats *stats = nullptr);

} // namespace lte::mgmt

#endif // LTE_MGMT_CORE_ALLOCATOR_HPP
