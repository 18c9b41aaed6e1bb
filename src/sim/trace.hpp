/**
 * @file
 * Simulator output: per-subframe-interval core-state occupancy that
 * the power model converts to Watts, plus run-level aggregates.
 */
#ifndef LTE_SIM_TRACE_HPP
#define LTE_SIM_TRACE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lte::sim {

/**
 * Per-power-domain occupancy within one dispatch interval
 * (domain-machine runs only; DESIGN.md Sec. 3k).  The four core-second
 * tracks sum to domain_size * dur; there is no spin track, because a
 * domain-machine policy always naps idle workers (reactive_idle).
 */
struct DomainInterval
{
    double busy_cs = 0.0;
    double nap_idle_cs = 0.0;
    double nap_deact_cs = 0.0;
    double gated_cs = 0.0;
    /** The domain's f-V rung this interval (fraction of nominal). */
    double freq_scale = 1.0;
    /** mgmt::DomainState at dispatch (0 active, 1 nap, 2 gated). */
    std::uint8_t state = 0;
};

/**
 * Core-state occupancy over one dispatch interval (core-seconds per
 * state; busy+spin+nap_idle+nap_deact+gated sum to n_workers * dur).
 */
struct SimInterval
{
    double t0 = 0.0;          ///< interval start time [s]
    double dur = 0.0;         ///< interval duration [s]
    double busy_cs = 0.0;     ///< executing tasks
    double spin_cs = 0.0;     ///< active, spinning for work
    double nap_idle_cs = 0.0; ///< reactive nap (polls for work)
    double nap_deact_cs = 0.0;///< deactivated by estimate (status poll)
    double gated_cs = 0.0;    ///< power-gated by the domain machine
    std::uint32_t watermark = 0;   ///< active cores this interval
    double est_activity = 0.0;     ///< estimator output (if any)
    double freq_scale = 1.0;       ///< DVFS frequency (fraction of nominal)

    // --- per-domain state machine (empty unless enabled) ---
    /** Per-domain occupancy and rung; one entry per power domain. */
    std::vector<DomainInterval> domains;
    /** Energy charged for state/rung transitions this interval [J]. */
    double transition_energy_j = 0.0;
    std::uint32_t gate_transitions = 0; ///< domain gate/ungate events
    std::uint32_t rung_transitions = 0; ///< f-V rung switches

    /** Measured activity of this interval (busy share of workers). */
    double
    activity(std::uint32_t n_workers) const
    {
        return dur > 0.0
            ? busy_cs / (static_cast<double>(n_workers) * dur)
            : 0.0;
    }
};

/** Result of one simulated run. */
struct SimResult
{
    std::vector<SimInterval> intervals; ///< one per dispatched subframe

    std::uint64_t subframes = 0;
    std::uint64_t tasks_executed = 0;
    double wall_s = 0.0;        ///< simulated duration
    double total_busy_cs = 0.0; ///< integral of busy core-seconds
    std::uint32_t n_workers = 0;
    /** Power domains tracked by the domain state machine (0 = the
     *  legacy chip-wide accounting). */
    std::uint32_t n_domains = 0;
    /** Total transition energy charged by the domain machine [J]. */
    double transition_energy_j = 0.0;
    std::uint64_t gate_transitions = 0;
    std::uint64_t rung_transitions = 0;

    /** Per-subframe Eq. 5 outputs (empty without an estimator). */
    std::vector<std::uint32_t> active_cores;
    /** Peak number of queued-but-unstarted tasks (backlog gauge). */
    std::size_t max_ready_backlog = 0;

    /**
     * Per-user completion latency in subframe periods (dispatch to
     * tail completion).  The paper's responsiveness constraint keeps
     * two to three subframes in flight, so a healthy run stays below
     * ~3; sustained growth means the machine cannot keep up.
     */
    std::vector<double> user_latency;
    /** Dispatch (subframe) index of each user_latency entry, so
     *  deadline misses can be bucketed by offered load. */
    std::vector<std::uint32_t> user_dispatch;

    double
    max_latency() const
    {
        double worst = 0.0;
        for (double v : user_latency)
            worst = std::max(worst, v);
        return worst;
    }

    double
    mean_latency() const
    {
        if (user_latency.empty())
            return 0.0;
        double sum = 0.0;
        for (double v : user_latency)
            sum += v;
        return sum / static_cast<double>(user_latency.size());
    }

    /** Fraction of users completing within @p deadline_periods. */
    double
    deadline_hit_rate(double deadline_periods) const
    {
        if (user_latency.empty())
            return 1.0;
        std::size_t hit = 0;
        for (double v : user_latency)
            hit += v <= deadline_periods;
        return static_cast<double>(hit) /
               static_cast<double>(user_latency.size());
    }

    /** Whole-run activity (paper Eq. 2). */
    double
    activity() const
    {
        return wall_s > 0.0 && n_workers > 0
            ? total_busy_cs /
                  (static_cast<double>(n_workers) * wall_s)
            : 0.0;
    }
};

} // namespace lte::sim

#endif // LTE_SIM_TRACE_HPP
