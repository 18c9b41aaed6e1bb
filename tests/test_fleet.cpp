/**
 * @file
 * City-scale fleet tests: config validation, deterministic placement
 * and reruns, the structural invariants of a fleet outcome (cell
 * partition, bucket conservation, policy bookkeeping), the SLO
 * optimiser's adoption rules, the recorded cell stream's replay and a
 * pinned digest of a strict-SLO ladder walk.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "core/chip_fleet.hpp"

namespace lte::core {
namespace {

/** A fleet small enough to run in milliseconds. */
FleetConfig
tiny_config()
{
    FleetConfig cfg;
    cfg.n_cells = 4;
    cfg.ues_per_cell = 50;
    cfg.subframes = 150;
    cfg.slo_miss_rate = 0.5;
    cfg.seed = 99;
    cfg.n_threads = 1;
    cfg.diurnal.period_subframes = 150;
    cfg.diurnal.average_load = 0.3;
    cfg.diurnal.swing = 0.7;
    cfg.cell_load_spread = 0.5;
    cfg.chip.sweep.prb_step = 66;
    cfg.chip.sweep.duration_s = 0.1;
    return cfg;
}

TEST(FleetConfig, ValidateRejectsBadConfigs)
{
    auto broken = [](auto mutate) {
        FleetConfig cfg;
        mutate(cfg);
        return cfg;
    };
    EXPECT_THROW(broken([](auto &c) { c.n_cells = 0; }).validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.ues_per_cell = 0; }).validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.subframes = 1; }).validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.slo_miss_rate = 0.0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.cell_load_spread = 1.0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.oversubscribe = 0.0; })
                     .validate(),
                 std::invalid_argument);
    EXPECT_THROW(broken([](auto &c) { c.oversubscribe = 9.0; })
                     .validate(),
                 std::invalid_argument);
}

TEST(FleetConfig, CellLoadScalesAreDeterministicAndBounded)
{
    const FleetConfig cfg = tiny_config();
    ChipFleet a(cfg);
    ChipFleet b(cfg);
    for (std::size_t c = 0; c < cfg.n_cells; ++c) {
        const double scale = a.cell_load_scale(c);
        EXPECT_DOUBLE_EQ(scale, b.cell_load_scale(c));
        EXPECT_GE(scale, 1.0 - cfg.cell_load_spread);
        EXPECT_LE(scale, 1.0 + cfg.cell_load_spread);
    }
}

TEST(ChipFleet, OutcomeIsStructurallySoundAndDeterministic)
{
    const FleetConfig cfg = tiny_config();
    ChipFleet fleet(cfg);
    const FleetOutcome first = fleet.run();

    // Every cell is served exactly once across the chips.
    std::set<std::size_t> seen;
    for (const ChipOutcome &chip : first.chips) {
        EXPECT_FALSE(chip.cells.empty());
        for (std::size_t cell : chip.cells) {
            EXPECT_LT(cell, cfg.n_cells);
            EXPECT_TRUE(seen.insert(cell).second)
                << "cell " << cell << " served twice";
        }
        EXPECT_GE(chip.policies_tried, 1u);
        EXPECT_GT(chip.avg_power_w, 0.0);
        EXPECT_FALSE(chip.domain_partition.empty());
    }
    EXPECT_EQ(seen.size(), cfg.n_cells);
    EXPECT_EQ(first.total_ues,
              static_cast<std::uint64_t>(cfg.n_cells) *
                  cfg.ues_per_cell);

    // The adopted policies come from the candidate ladder and the
    // adoption counts add up to the chip count.
    std::size_t adopted = 0;
    for (const auto &[name, count] : first.policy_counts)
        adopted += count;
    EXPECT_EQ(adopted, first.chips.size());

    // Aggregates are sums over chips.
    double power = 0.0;
    for (const ChipOutcome &chip : first.chips)
        power += chip.avg_power_w;
    EXPECT_NEAR(power, first.total_power_w, 1e-9);
    EXPECT_GT(first.joules_per_subframe, 0.0);

    // The miss-vs-load curve bucketed someone, and no bucket has more
    // misses than users.
    std::uint64_t bucketed = 0;
    for (const LoadBucket &b : first.buckets) {
        EXPECT_LE(b.misses, b.users);
        bucketed += b.users;
    }
    EXPECT_GT(bucketed, 0u);

    // A rerun of an identical config reproduces the outcome exactly.
    ChipFleet again(cfg);
    const FleetOutcome second = again.run();
    ASSERT_EQ(second.chips.size(), first.chips.size());
    EXPECT_DOUBLE_EQ(second.total_power_w, first.total_power_w);
    EXPECT_DOUBLE_EQ(second.energy_j, first.energy_j);
    EXPECT_DOUBLE_EQ(second.worst_miss_rate, first.worst_miss_rate);
    for (std::size_t c = 0; c < first.chips.size(); ++c) {
        EXPECT_EQ(second.chips[c].cells, first.chips[c].cells);
        EXPECT_STREQ(second.chips[c].policy.name,
                     first.chips[c].policy.name);
    }
    for (std::size_t b = 0; b < first.buckets.size(); ++b) {
        EXPECT_EQ(second.buckets[b].users, first.buckets[b].users);
        EXPECT_EQ(second.buckets[b].misses, first.buckets[b].misses);
    }
}

TEST(ChipFleet, ThreadedRunMatchesSerialRun)
{
    // Chip workers pull plans off a shared atomic counter and merge
    // into per-chip slots; the result must not depend on the thread
    // count (this is also the TSan soak for the fleet path).
    FleetConfig cfg = tiny_config();
    cfg.n_cells = 12; // several chips so the pool actually interleaves
    ChipFleet serial(cfg);
    const FleetOutcome a = serial.run();
    cfg.n_threads = 4;
    ChipFleet threaded(cfg);
    const FleetOutcome b = threaded.run();
    ASSERT_EQ(a.chips.size(), b.chips.size());
    EXPECT_DOUBLE_EQ(a.total_power_w, b.total_power_w);
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
    EXPECT_DOUBLE_EQ(a.worst_miss_rate, b.worst_miss_rate);
    for (std::size_t c = 0; c < a.chips.size(); ++c) {
        EXPECT_EQ(a.chips[c].cells, b.chips[c].cells);
        EXPECT_STREQ(a.chips[c].policy.name, b.chips[c].policy.name);
        EXPECT_DOUBLE_EQ(a.chips[c].avg_power_w,
                         b.chips[c].avg_power_w);
    }
    for (std::size_t bk = 0; bk < a.buckets.size(); ++bk) {
        EXPECT_EQ(a.buckets[bk].users, b.buckets[bk].users);
        EXPECT_EQ(a.buckets[bk].misses, b.buckets[bk].misses);
    }
}

TEST(ChipFleet, LenientSloAdoptsTheMostAggressiveCandidate)
{
    FleetConfig cfg = tiny_config();
    cfg.slo_miss_rate = 1.0; // anything goes
    ChipFleet fleet(cfg);
    const FleetOutcome outcome = fleet.run();
    ASSERT_FALSE(fleet.candidates().empty());
    for (const ChipOutcome &chip : outcome.chips) {
        EXPECT_EQ(chip.policies_tried, 1u);
        EXPECT_STREQ(chip.policy.name, fleet.candidates().front().name);
        EXPECT_TRUE(chip.slo_met);
    }
    EXPECT_EQ(outcome.chips_missing_slo, 0u);
}

TEST(ChipFleet, StrictSloWalksDownTheLadder)
{
    // At the 8x oversubscription cap the aggressive policies miss a
    // 0.1% SLO, so each chip walks the default ladder and adopts the
    // first rung that meets it.  (No tiny fleet makes NONAP itself
    // miss: an always-on slice serves its whole PRB budget in time.)
    FleetConfig cfg = tiny_config();
    cfg.oversubscribe = 8.0;
    cfg.slo_miss_rate = 0.001;
    ChipFleet fleet(cfg);
    const FleetOutcome outcome = fleet.run();
    ASSERT_FALSE(outcome.chips.empty());
    for (const ChipOutcome &chip : outcome.chips) {
        ASSERT_GE(chip.policies_tried, 2u);
        ASSERT_LE(chip.policies_tried, fleet.candidates().size());
        EXPECT_STREQ(chip.policy.name,
                     fleet.candidates()[chip.policies_tried - 1].name);
        EXPECT_TRUE(chip.slo_met);
        EXPECT_LE(chip.worst_miss_rate, cfg.slo_miss_rate);
    }
    EXPECT_EQ(outcome.chips_missing_slo, 0u);
}

TEST(CellStream, ReplayEqualsTheLiveModelTtiByTti)
{
    // The fleet records each cell once and replays it to every
    // candidate; the replay must be the live model's stream, user ids
    // included, on a cell whose HARQ loop retransmits.
    mac::MacConfig mac_cfg;
    mac_cfg.cell_id = 7;
    mac_cfg.seed = 31;
    mac_cfg.n_ues = 300;
    mac_cfg.prb_budget = 100;
    mac_cfg.max_prb_per_grant = 50;
    workload::DiurnalModelConfig day;
    day.period_subframes = 400;
    day.average_load = 0.4;
    day.swing = 0.7;
    constexpr std::uint64_t kTtis = 400;

    FleetCellModel recorded(mac_cfg, day, 1.2);
    CellStream replay(recorded, kTtis);
    ASSERT_EQ(replay.subframes(), kTtis);

    FleetCellModel live(mac_cfg, day, 1.2);
    std::uint64_t grants = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t t = 0; t < kTtis; ++t) {
            const phy::SubframeParams want = live.next_subframe();
            const phy::SubframeParams got = replay.next_subframe();
            ASSERT_EQ(got.subframe_index, want.subframe_index);
            ASSERT_EQ(got.cell_id, want.cell_id);
            ASSERT_EQ(got.users, want.users) << "TTI " << t;
            grants += got.users.size();
        }
        EXPECT_THROW(replay.next_subframe(), std::invalid_argument);
        // A reset replay starts over, as a reset model does.
        live.reset();
        replay.reset();
    }
    EXPECT_GT(grants, 2 * kTtis);
    EXPECT_GT(recorded.scheduler().stats().retx_grants, 0u);
}

/** FNV-1a over the eight bytes of @p v, little-endian. */
void
fnv_mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
}

TEST(ChipFleet, StrictSloLadderWalkDigestPinned)
{
    // Every bit of a multi-chip ladder walk: each chip's cells,
    // adopted rung, rungs tried, summed watts, joules, worst miss
    // rate and domain partition, then the miss-vs-load buckets.  Any
    // change to how the fleet draws, replays or prices its cells'
    // traffic must leave this digest where it is.
    FleetConfig cfg = tiny_config();
    cfg.n_cells = 12;
    cfg.ues_per_cell = 400;
    cfg.oversubscribe = 8.0;
    cfg.slo_miss_rate = 0.001;
    ChipFleet fleet(cfg);
    const FleetOutcome outcome = fleet.run();
    ASSERT_GE(outcome.chips.size(), 2u);

    std::uint64_t h = 1469598103934665603ull;
    std::uint32_t walked = 0;
    for (const ChipOutcome &chip : outcome.chips) {
        for (std::size_t cell : chip.cells)
            fnv_mix(h, cell);
        fnv_mix(h, chip.policies_tried);
        walked += chip.policies_tried > 1;
        for (const char *c = chip.policy.name; *c != '\0'; ++c)
            fnv_mix(h, static_cast<unsigned char>(*c));
        fnv_mix(h, std::bit_cast<std::uint64_t>(chip.avg_power_w));
        fnv_mix(h, std::bit_cast<std::uint64_t>(chip.energy_j));
        fnv_mix(h, std::bit_cast<std::uint64_t>(chip.worst_miss_rate));
        for (std::uint32_t cores : chip.domain_partition)
            fnv_mix(h, cores);
    }
    for (const LoadBucket &b : outcome.buckets) {
        fnv_mix(h, b.users);
        fnv_mix(h, b.misses);
    }
    EXPECT_GT(walked, 0u) << "no chip walked past the first rung";
    EXPECT_EQ(h, 0xc8c52f22a10354cfull) << std::hex << "digest 0x" << h;
}

} // namespace
} // namespace lte::core
