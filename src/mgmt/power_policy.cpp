#include "mgmt/power_policy.hpp"

#include "common/check.hpp"

namespace lte::mgmt {

void
PowerPolicy::validate() const
{
    LTE_CHECK(dvfs_margin >= 0.0 && dvfs_margin <= 1.0,
              "DVFS margin must be a fraction");
    LTE_CHECK(dvfs_min_scale > 0.0 && dvfs_min_scale <= 1.0,
              "DVFS floor must be in (0, 1]");
    LTE_CHECK(domain_size >= 1 && domain_size <= 64,
              "domain size must be 1..64");
    if (domain_machine) {
        LTE_CHECK(proactive,
                  "domain machine needs the proactive watermark");
        LTE_CHECK(!dvfs,
                  "domain machine replaces continuous DVFS with rungs");
        LTE_CHECK(!rungs.empty(),
                  "domain machine needs at least one f-V rung");
    }
    double prev = 0.0;
    for (double r : rungs) {
        LTE_CHECK(r > prev && r <= 1.0,
                  "rungs must ascend within (0, 1]");
        prev = r;
    }
    if (!rungs.empty())
        LTE_CHECK(rungs.back() == 1.0,
                  "top rung must be the nominal clock");
    LTE_CHECK(costs.gate_wake_s >= 0.0 && costs.rung_switch_s >= 0.0 &&
                  costs.gate_energy_j >= 0.0 &&
                  costs.rung_energy_j >= 0.0,
              "transition costs must be non-negative");
}

PowerPolicy
PowerPolicy::nonap()
{
    PowerPolicy p;
    p.name = "NONAP";
    return p;
}

PowerPolicy
PowerPolicy::idle()
{
    PowerPolicy p;
    p.reactive_idle = true;
    p.name = "IDLE";
    return p;
}

PowerPolicy
PowerPolicy::nap()
{
    PowerPolicy p;
    p.proactive = true;
    p.name = "NAP";
    return p;
}

PowerPolicy
PowerPolicy::nap_idle()
{
    PowerPolicy p;
    p.proactive = true;
    p.reactive_idle = true;
    p.name = "NAP+IDLE";
    return p;
}

PowerPolicy
PowerPolicy::power_gating()
{
    PowerPolicy p;
    p.proactive = true;
    p.reactive_idle = true;
    p.analytical_gating = true;
    p.name = "PowerGating";
    return p;
}

PowerPolicy
PowerPolicy::domain_dvfs()
{
    PowerPolicy p;
    p.proactive = true;
    p.reactive_idle = true;
    p.domain_machine = true;
    p.rungs = {0.25, 0.5, 0.75, 1.0};
    p.name = "DOMAIN-DVFS";
    return p;
}

std::vector<PowerPolicy>
PowerPolicy::paper_presets()
{
    return {nonap(), idle(), nap(), nap_idle(), power_gating()};
}

} // namespace lte::mgmt
