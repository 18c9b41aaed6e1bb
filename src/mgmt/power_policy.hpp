/**
 * @file
 * Composable power-management policy and the per-domain power-state
 * machine (DESIGN.md Sec. 3k).
 *
 * The paper evaluates five fixed strategies (Table I/II).  This layer
 * decomposes them into orthogonal mechanisms that compose freely:
 *
 *   - reactive_idle  — idle workers nap and poll (paper IDLE)
 *   - proactive      — Eq. 5 watermark deactivates surplus workers
 *                      (paper NAP)
 *   - analytical_gating — the Sec. VI-C post-hoc Eq. 6-9 overlay on
 *                      the occupancy trace (paper PowerGating)
 *   - dvfs           — continuous per-subframe frequency scaling (the
 *                      PR 7 future-work extension)
 *   - domain_machine — the PR 10 per-8-core-domain power-state
 *                      machine: each domain is {active @ f-V rung,
 *                      nap, gated} with explicit transition latencies
 *                      and energy charges, gating applied *inline* by
 *                      the simulator instead of analytically after
 *                      the fact.
 *
 * The five paper strategies are reproduced bit-for-bit as preset
 * policies (nonap() .. power_gating()); the parity tests pin their
 * digests.  A policy is not study configuration: each run call of
 * core::UplinkStudy (run_policy, run_policy_on, ...) supplies the
 * policy it runs, and StudyConfig::sim.policy is not read there.
 */
#ifndef LTE_MGMT_POWER_POLICY_HPP
#define LTE_MGMT_POWER_POLICY_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace lte::mgmt {

/** State of one power domain under the domain state machine. */
enum class DomainState : std::uint8_t
{
    kActive = 0, ///< powered, clocked at the domain's f-V rung
    kNap = 1,    ///< clock-gated (workers nap; cheap instant wake)
    kGated = 2,  ///< power-gated (no static power; slow costly wake)
};

/** Estimation headroom added before choosing a DVFS frequency or an
 *  f-V rung. */
inline constexpr double kDvfsMargin = 0.10;

/** Lowest continuous-DVFS frequency as a fraction of the nominal
 *  clock. */
inline constexpr double kDvfsMinScale = 0.25;
static_assert(kDvfsMinScale > 0.0 && kDvfsMinScale <= 1.0,
              "DVFS floor must be in (0, 1]");

// --- the per-domain power-state machine (domain_machine) ---

/** Cores per power domain (the TILEPro64 grid has 8). */
inline constexpr std::uint32_t kDomainSize = 8;

/** Discrete f-V rungs: ascending fractions of the nominal clock, the
 *  last one the nominal clock itself. */
inline constexpr std::array<double, 4> kRungs = {0.25, 0.5, 0.75, 1.0};
static_assert(kRungs.front() > 0.0 && kRungs.back() == 1.0 &&
                  std::adjacent_find(kRungs.begin(), kRungs.end(),
                                     std::greater_equal<>()) ==
                      kRungs.end(),
              "rungs must ascend within (0, 1] and end at 1.0");

/** Dispatch intervals a domain must be surplus before it is
 *  power-gated (hysteresis against gating thrash; it naps while
 *  waiting). */
inline constexpr std::uint32_t kGateHysteresis = 2;

/*
 * Latency and energy charged for domain-state and rung transitions.
 * The values follow the magnitudes of the paper's Sec. VI-C overhead
 * discussion: waking a power-gated domain costs tens of microseconds
 * and a switching-energy charge comparable to the 15 mW-for-one-
 * subframe Eq. 9 term.
 */

/** Latency before a power-gated domain's workers can take work. */
inline constexpr double kGateWakeS = 50e-6;
/** Energy charged per domain gate/ungate event (Eq. 9's 15 mW x 5 ms
 *  per 8-core domain ~= 75 uJ). */
inline constexpr double kGateEnergyJ = 75e-6;
/** Chip-wide stall while the PLL/regulator settles on a new f-V rung;
 *  new task starts are delayed by this much. */
inline constexpr double kRungSwitchS = 10e-6;
/** Energy charged per rung switch per active domain. */
inline constexpr double kRungEnergyJ = 20e-6;

/**
 * A power-management policy: which mechanisms are enabled and how the
 * domain state machine is parameterised.  Plain value type; copy
 * freely.
 */
struct PowerPolicy
{
    // --- paper mechanisms (bit-for-bit legacy semantics) ---
    /** Eq. 5 watermark: deactivate workers beyond the estimate. */
    bool proactive = false;
    /** Idle workers nap and poll instead of spinning. */
    bool reactive_idle = false;
    /** Apply the analytical Eq. 6-9 gating overlay to the series. */
    bool analytical_gating = false;

    // --- continuous DVFS (PR 7 extension) ---
    /** Scale the clock each dispatch to the estimated work plus
     *  kDvfsMargin, never below kDvfsMinScale. */
    bool dvfs = false;

    // --- per-domain power-state machine (PR 10) ---
    /** Track kDomainSize-core domains as {active@rung, nap, gated}
     *  over the kRungs ladder, with inline transition stalls and
     *  energy charges.  Requires proactive and reactive_idle (so a
     *  domain's cores never spin). */
    bool domain_machine = false;

    /** Short display name, e.g. "NAP+IDLE" or "DOMAIN-DVFS"; the
     *  five paper presets use the paper's table labels (NONAP, IDLE,
     *  NAP, NAP+IDLE, PowerGating). */
    const char *name = "NONAP";

    void validate() const;

    // --- the five paper strategies, bit-for-bit ---
    static PowerPolicy nonap();
    static PowerPolicy idle();
    static PowerPolicy nap();
    static PowerPolicy nap_idle();
    static PowerPolicy power_gating();

    /** The PR 10 composite: NAP+IDLE semantics plus the per-domain
     *  state machine with a four-rung DVFS ladder and inline gating. */
    static PowerPolicy domain_dvfs();

    /** The five paper strategies in the paper's presentation order
     *  (NONAP, IDLE, NAP, NAP+IDLE, PowerGating). */
    static std::vector<PowerPolicy> paper_presets();
};

} // namespace lte::mgmt

#endif // LTE_MGMT_POWER_POLICY_HPP
