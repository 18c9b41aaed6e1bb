#include "mgmt/core_allocator.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace lte::mgmt {

std::uint32_t
discretise_to_domains(std::uint32_t active_cores,
                      std::uint32_t domain_size,
                      std::uint32_t total_cores)
{
    LTE_CHECK(domain_size >= 1, "domain size must be >= 1");
    LTE_CHECK(total_cores >= domain_size, "chip smaller than a domain");
    const auto domains = static_cast<std::uint32_t>(
        ceil_div(active_cores, domain_size));
    return std::min(domains * domain_size, total_cores);
}

std::vector<std::uint32_t>
partition_domains(const std::vector<std::uint32_t> &demands,
                  std::uint32_t domain_size, std::uint32_t total_cores)
{
    LTE_CHECK(!demands.empty(), "need at least one cell demand");
    LTE_CHECK(domain_size >= 1, "domain size must be >= 1");
    const std::uint32_t total_domains = total_cores / domain_size;
    const auto n_cells = static_cast<std::uint32_t>(demands.size());
    LTE_CHECK(total_domains >= n_cells,
              "chip must hold at least one domain per cell");

    std::vector<std::uint32_t> want(demands.size());
    std::uint64_t want_sum = 0;
    for (std::size_t c = 0; c < demands.size(); ++c) {
        want[c] = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   ceil_div(demands[c], domain_size)));
        want_sum += want[c];
    }

    std::vector<std::uint32_t> granted(demands.size());
    if (want_sum <= total_domains) {
        granted = want;
    } else {
        // Largest-remainder apportionment of the chip's domains in
        // proportion to the requests, with a one-domain floor.
        const std::uint32_t spare = total_domains - n_cells;
        std::uint64_t floor_sum = 0;
        std::vector<std::pair<std::uint64_t, std::size_t>> remainders;
        remainders.reserve(demands.size());
        for (std::size_t c = 0; c < demands.size(); ++c) {
            // Apportion the spare domains over the above-floor demand.
            const std::uint64_t over = want[c] - 1;
            const std::uint64_t over_sum = want_sum - n_cells;
            const std::uint64_t num = over * spare;
            const auto share =
                static_cast<std::uint32_t>(num / over_sum);
            granted[c] = 1 + share;
            floor_sum += granted[c];
            remainders.emplace_back(num % over_sum, c);
        }
        // Hand the leftover domains to the largest remainders (ties
        // to the lower cell index, keeping the result deterministic).
        std::sort(remainders.begin(), remainders.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        std::uint64_t leftover = total_domains - floor_sum;
        for (std::size_t i = 0; leftover > 0; ++i, --leftover)
            ++granted[remainders[i % remainders.size()].second];
    }

    for (auto &g : granted)
        g *= domain_size;
    return granted;
}

std::vector<std::uint32_t>
gating_plan(const std::vector<std::uint32_t> &demands,
            std::uint32_t domain_size, std::uint32_t total_cores,
            GatingStats *stats)
{
    std::vector<std::uint32_t> domains;
    domains.reserve(demands.size());
    for (std::uint32_t demand : demands)
        domains.push_back(
            discretise_to_domains(demand, domain_size, total_cores));

    std::vector<std::uint32_t> powered(domains.size());
    GatingStats tally;
    for (std::size_t i = 0; i < domains.size(); ++i) {
        const std::size_t lo = i >= kGatingWindow ? i - kGatingWindow : 0;
        const std::size_t hi = std::min(i + kGatingWindow + 1, domains.size());
        powered[i] = *std::max_element(domains.begin() + lo,
                                       domains.begin() + hi);
        ++tally.decisions;
        tally.peak_powered = std::max(tally.peak_powered, powered[i]);
        if (i > 0 && powered[i] != powered[i - 1]) {
            ++tally.switch_events;
            const std::uint32_t delta = powered[i] > powered[i - 1]
                                            ? powered[i] - powered[i - 1]
                                            : powered[i - 1] - powered[i];
            tally.domains_switched += delta / domain_size;
        }
    }
    if (stats != nullptr)
        *stats = tally;
    return powered;
}

} // namespace lte::mgmt
