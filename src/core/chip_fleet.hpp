/**
 * @file
 * City-scale energy study: N TILEPro64 chips serving M cells, each
 * cell a closed-loop MAC UE population whose traffic intensity follows
 * a shared diurnal curve (DESIGN.md 3k).
 *
 * The fleet generalises UplinkStudy's single-chip multicell slicing:
 *
 *   demand    — every cell gets a deterministic long-run load
 *               multiplier (seeded spread around 1.0); its analytical
 *               peak demand is the diurnal peak times that multiplier;
 *   placement — cells are placed greedily, heaviest first, onto the
 *               least-loaded chip with a free slot (one power domain
 *               per cell minimum), and each chip's domains are then
 *               apportioned with mgmt::partition_domains;
 *   policy    — per chip, candidate power policies are tried from the
 *               most aggressive down (DOMAIN-DVFS, PowerGating,
 *               NAP+IDLE, ..., NONAP) and the first meeting the
 *               deadline-miss SLO is adopted — minimum energy subject
 *               to responsiveness, chip by chip.  Each cell's grant
 *               stream is drawn once (CellStream) and replayed to
 *               every candidate the chip tries;
 *   accounting— joules per subframe per chip and fleet-wide, plus
 *               deadline-miss rate bucketed by instantaneous offered
 *               load (via SimResult::user_dispatch), the curve the
 *               paper's conclusion asks for.
 *
 * Chips run on a small thread pool; every cell's traffic, channel and
 * placement draw from deterministic per-cell streams, so a fleet run
 * is reproducible for a given FleetConfig.
 */
#ifndef LTE_CORE_CHIP_FLEET_HPP
#define LTE_CORE_CHIP_FLEET_HPP

#include <cstdint>
#include <vector>

#include "core/uplink_study.hpp"
#include "mac/scheduler.hpp"
#include "workload/diurnal_model.hpp"

namespace lte::core {

/** Configuration of a fleet run; defaults give a small smoke fleet. */
struct FleetConfig
{
    /** Per-chip template: machine geometry, power model, calibration
     *  sweep.  Each chip slices this across its cells. */
    StudyConfig chip;
    /** Cells across the city (>= 1; the headline study runs 100+). */
    std::size_t n_cells = 8;
    /** UE population per cell (headline: 10 000 -> 1M+ total). */
    std::uint32_t ues_per_cell = 1000;
    /** Simulated horizon per cell (subframes == TTIs). */
    std::uint64_t subframes = 2000;
    /** Deadline-miss SLO each chip's policy must meet. */
    double slo_miss_rate = 0.05;
    /** Master seed; per-cell streams derive deterministically. */
    std::uint64_t seed = 2012;
    /** Worker threads for the chip runs (0 = hardware concurrency). */
    unsigned n_threads = 0;
    /** The shared day shape (period, average load, swing). */
    workload::DiurnalModelConfig diurnal;
    /** Per-cell long-run load multipliers draw uniformly from
     *  [1 - spread, 1 + spread] (heterogeneous sectors). */
    double cell_load_spread = 0.4;
    /** Radio-to-compute oversubscription: each cell's MAC PRB budget
     *  is this multiple of the PRBs its compute slice is dimensioned
     *  for.  1.0 = peak-dimensioned (no chip can ever saturate);
     *  above 1.0 the diurnal peak can outrun a slice, deadline misses
     *  appear, and the per-chip policy optimiser has real work.  The
     *  budget is clamped to kMaxPrbPerSubframe (200), so values above
     *  roughly the cells per chip (chip workers / slice workers; about
     *  4.1 for 4 cells on 62 workers) give the same fleet, although
     *  validate() accepts up to 8. */
    double oversubscribe = 1.0;
    /** Per-cell MAC template.  cell_id, seed, n_ues and prb_budget are
     *  set per cell, and max_prb_per_grant is clamped to the budget. */
    mac::MacConfig mac;

    void validate() const;
};

/**
 * A cell's closed demand loop as a workload::ParameterModel: grants
 * come from a live MacScheduler whose arrival intensity is modulated
 * every TTI by the diurnal curve (times the cell's load multiplier),
 * and receiver feedback is synthesised immediately from the modelled
 * channel (crc_modelled), so HARQ/OLLA/queueing evolve without an
 * engine in the loop — the discrete-event machine only sees the
 * resulting grant shapes.
 */
class FleetCellModel final : public workload::ParameterModel
{
  public:
    FleetCellModel(const mac::MacConfig &mac_cfg,
                   const workload::DiurnalModelConfig &diurnal_cfg,
                   double load_scale);

    phy::SubframeParams next_subframe() override;
    void reset() override;

    const mac::MacScheduler &scheduler() const { return sched_; }
    mac::MacScheduler &scheduler() { return sched_; }

  private:
    mac::MacScheduler sched_;
    workload::DiurnalModel diurnal_;
    double load_scale_ = 1.0;
    std::uint64_t index_ = 0;
    phy::SubframeParams scratch_;
    runtime::SubframeOutcome outcome_;
};

/**
 * One cell's grant stream, drawn once from a model and replayed, as a
 * ParameterModel of its own, to every candidate policy a chip tries.
 * Replaying a FleetCellModel is exact: its loop closes on modelled CRC
 * feedback, never on the simulator, so every candidate sees the grants
 * a live model would have produced.  Grants are packed at 8 bytes plus
 * one count byte per TTI: a 10k-UE cell's scheduler holds ~11 MB, one
 * SubframeParams per TTI several times the packed size.
 */
class CellStream final : public workload::ParameterModel
{
  public:
    /** Draw @p subframes TTIs from @p model (consumed from its current
     *  state).  Every TTI must carry the first one's cell id and the
     *  next subframe index.  Replay starts at the first TTI. */
    CellStream(workload::ParameterModel &model, std::uint64_t subframes);

    std::uint64_t subframes() const { return counts_.size(); }

    /** The next recorded TTI; throws past the last one. */
    phy::SubframeParams next_subframe() override;
    /** Rewind the replay to the first TTI. */
    void reset() override;

  private:
    struct Grant
    {
        std::uint32_t id = 0;
        std::uint8_t prb = 0;
        std::uint8_t layers = 0;
        std::uint8_t mod = 0;
    };
    static_assert(sizeof(Grant) == 8);

    std::uint64_t first_index_ = 0;
    std::uint32_t cell_id_ = 1;
    std::vector<Grant> grants_;
    /** Grants per TTI (at most kMaxUsersPerSubframe). */
    std::vector<std::uint8_t> counts_;
    std::uint64_t tti_ = 0;
    std::size_t grant_ = 0;
};

/** One (load bucket) row of the fleet's miss-vs-load curve. */
struct LoadBucket
{
    double load_lo = 0.0;
    double load_hi = 0.0;
    std::uint64_t users = 0;
    std::uint64_t misses = 0;

    double
    miss_rate() const
    {
        return users > 0
            ? static_cast<double>(misses) / static_cast<double>(users)
            : 0.0;
    }
};

/** Outcome of one chip of the fleet. */
struct ChipOutcome
{
    /** Fleet cell indices served by this chip. */
    std::vector<std::size_t> cells;
    /** The adopted policy (first candidate meeting the SLO). */
    mgmt::PowerPolicy policy;
    /** Candidates evaluated before adoption (>= 1). */
    std::uint32_t policies_tried = 0;
    double avg_power_w = 0.0; ///< summed per-cell averages
    double energy_j = 0.0;
    double joules_per_subframe = 0.0;
    double worst_miss_rate = 0.0;
    bool slo_met = false;
    /** Eq. 6 domain apportionment from the cells' peak demands. */
    std::vector<std::uint32_t> domain_partition;
};

/** Fleet-wide aggregates. */
struct FleetOutcome
{
    std::vector<ChipOutcome> chips;
    std::uint64_t total_ues = 0;
    double total_power_w = 0.0;
    double energy_j = 0.0;
    /** Fleet joules per subframe period (all chips, one TTI). */
    double joules_per_subframe = 0.0;
    double worst_miss_rate = 0.0;
    std::size_t chips_missing_slo = 0;
    /** Deadline-miss rate vs instantaneous offered load (10 bins). */
    std::vector<LoadBucket> buckets;
    /** Adoption count per candidate policy name (parallel to the
     *  candidate ladder used). */
    std::vector<std::pair<const char *, std::size_t>> policy_counts;
};

class ChipFleet
{
  public:
    explicit ChipFleet(const FleetConfig &config);

    /** Place, calibrate, optimise and run the whole fleet. */
    FleetOutcome run();

    /** The candidate ladder, most aggressive first: DOMAIN-DVFS,
     *  PowerGating, NAP+IDLE, NAP, IDLE, NONAP. */
    const std::vector<mgmt::PowerPolicy> &candidates() const
    {
        return candidates_;
    }

    /** Deterministic long-run load multiplier of one cell. */
    double cell_load_scale(std::size_t cell) const;

    const FleetConfig &config() const { return config_; }

  private:
    struct ChipPlan
    {
        std::vector<std::size_t> cells;
        double peak_load = 0.0;
    };

    /** Greedy heaviest-first placement onto the least-loaded chip. */
    std::vector<ChipPlan> place_cells() const;

    /** MAC config of one cell under a given PRB slice. */
    mac::MacConfig cell_mac(std::size_t cell,
                            std::uint32_t prb_budget) const;

    void run_chip(const ChipPlan &plan, const Calibration &calibration,
                  ChipOutcome &out,
                  std::vector<LoadBucket> &buckets) const;

    FleetConfig config_;
    std::vector<mgmt::PowerPolicy> candidates_;
};

} // namespace lte::core

#endif // LTE_CORE_CHIP_FLEET_HPP
