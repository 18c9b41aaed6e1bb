#include "mgmt/power_policy.hpp"

#include "common/check.hpp"

namespace lte::mgmt {

void
PowerPolicy::validate() const
{
    if (domain_machine) {
        LTE_CHECK(proactive,
                  "domain machine needs the proactive watermark");
        LTE_CHECK(!dvfs,
                  "domain machine replaces continuous DVFS with rungs");
        LTE_CHECK(reactive_idle,
                  "domain machine needs idle workers to nap, not spin");
    }
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
    p.name = "DOMAIN-DVFS";
    return p;
}

std::vector<PowerPolicy>
PowerPolicy::paper_presets()
{
    return {nonap(), idle(), nap(), nap_idle(), power_gating()};
}

} // namespace lte::mgmt
