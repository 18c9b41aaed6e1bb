/**
 * @file
 * Discrete-event model of the LTE benchmark running on a TILEPro64.
 *
 * Subframes arrive every DELTA; each user expands into the paper's
 * task DAG (Sec. IV-C), walking the same phy::kUserTaskGraph as the
 * runtime's worker pool, with cycle costs from the analytical kernel
 * op model.  The model prices no decode stage, so that node has no
 * tasks and the walk skips it.
 * Ready tasks are assigned greedily: spinning workers pick up work
 * instantly; napping workers only at their next wake poll; workers
 * deactivated by the estimate (Eq. 5 watermark) take no work at all.
 * The run produces a per-interval core-state occupancy trace that the
 * power model turns into Watts.
 *
 * Power management follows the machine's mgmt::PowerPolicy: the
 * paper's reactive/proactive napping, the continuous-DVFS extension,
 * and (PR 10) the per-domain power-state machine — each 8-core domain
 * is {active @ f-V rung, nap, gated}; waking a gated domain stalls
 * its workers for mgmt::kGateWakeS, rung switches stall new task starts,
 * and every transition charges energy into the interval trace.
 */
#ifndef LTE_SIM_MACHINE_HPP
#define LTE_SIM_MACHINE_HPP

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "mgmt/estimator.hpp"
#include "mgmt/power_policy.hpp"
#include "phy/op_model.hpp"
#include "sim/sim_config.hpp"
#include "sim/trace.hpp"
#include "workload/parameter_model.hpp"

namespace lte::sim {

class Machine
{
  public:
    /**
     * @param config    machine parameters (validated)
     * @param n_antennas receive antennas assumed by the cost model
     */
    explicit Machine(const SimConfig &config,
                     std::size_t n_antennas = 4);

    /** Provide the estimator for NAP-family strategies. */
    void set_estimator(std::optional<mgmt::WorkloadEstimator> estimator);

    /** The machine's estimator copy (its stats reflect this run). */
    const std::optional<mgmt::WorkloadEstimator> &
    estimator() const
    {
        return estimator_;
    }

    /**
     * Simulate @p n_subframes drawn from @p model (consumed from its
     * current state) and return the occupancy trace.
     */
    SimResult run(workload::ParameterModel &model,
                  std::uint64_t n_subframes);

    const SimConfig &config() const { return config_; }

  private:
    enum class WState : std::uint8_t { kSpin, kBusy, kNapIdle, kNapDeact };

    /** One user's graph in flight, per node of phy::kUserTaskGraph. */
    struct Dag
    {
        double dispatch_time = 0.0;
        /** Cycles of one task of each node. */
        double cycles[phy::kStageCount] = {};
        /** Tasks of each node not yet finished (a node not yet seeded
         *  still holds its fan-out). */
        std::uint32_t left[phy::kStageCount] = {};
        std::uint32_t dispatch_index = 0;
    };

    struct SimTask
    {
        double cycles = 0.0;
        std::uint32_t dag = 0;
        phy::TaskStage stage = phy::TaskStage::kChanEst;
    };

    struct Event
    {
        double t = 0.0;
        std::uint64_t seq = 0;
        enum class Kind : std::uint8_t
        {
            kDispatch,
            kTaskDone,
            kWake,
            kDomainReady, ///< gated domain finished waking (worker =
                          ///< domain index)
        } kind = Kind::kDispatch;
        std::uint32_t worker = 0;

        bool
        operator>(const Event &rhs) const
        {
            if (t != rhs.t)
                return t > rhs.t;
            return seq > rhs.seq;
        }
    };

    struct Worker
    {
        WState state = WState::kSpin;
        double last_t = 0.0;
        bool wake_scheduled = false;
        /** Worker sits in a power-gated domain (domain machine);
         *  overrides state for occupancy accounting and cannot be
         *  reactivated until the domain's kDomainReady fires. */
        bool gated = false;
    };

    /** Runtime state of one power domain (domain machine only). */
    struct DomainRt
    {
        mgmt::DomainState state = mgmt::DomainState::kActive;
        /** Consecutive dispatches the domain has been surplus. */
        std::uint32_t surplus_streak = 0;
        double freq = 1.0; ///< current f-V rung
    };

    // --- event handling ---
    void handle_dispatch(double t, workload::ParameterModel &model);
    void handle_task_done(double t, std::uint32_t w);
    void handle_wake(double t, std::uint32_t w);
    void handle_domain_ready(double t, std::uint32_t d);

    // --- helpers ---
    void push_event(double t, Event::Kind kind, std::uint32_t worker);
    void accumulate(std::uint32_t w, double t);
    SimInterval &interval_at_index(std::size_t idx);
    void set_state(std::uint32_t w, double t, WState next);
    void start_task(std::uint32_t w, double t, const SimTask &task);
    void assign_ready(double t);
    std::optional<std::uint32_t> pop_spinner();
    double next_wake_time(std::uint32_t w, double t) const;
    void apply_watermark(double t);
    void update_domains(double t, double est, SimInterval &iv);
    std::uint32_t alloc_dag();
    /** Queue every task of node @p stage of DAG @p dag_idx. */
    void seed(std::uint32_t dag_idx, std::size_t stage);
    void complete_task(double t, const SimTask &task);

    std::uint32_t
    domain_of(std::uint32_t w) const
    {
        return w / mgmt::kDomainSize;
    }

    SimConfig config_;
    std::size_t n_antennas_;
    std::optional<mgmt::WorkloadEstimator> estimator_;

    // run state
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
    std::uint64_t next_seq_ = 0;
    std::vector<Worker> workers_;
    std::vector<SimTask> running_; ///< task being executed per worker
    std::vector<std::uint32_t> spin_stack_;
    std::deque<SimTask> ready_;
    std::vector<Dag> dags_;
    std::vector<std::uint32_t> free_dags_;
    std::uint32_t active_dags_ = 0;
    std::uint32_t watermark_ = 0;
    double freq_scale_ = 1.0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t target_subframes_ = 0;
    // domain machine state (empty vectors unless enabled)
    std::vector<DomainRt> domains_;
    std::uint32_t n_domains_ = 0;
    double stall_until_ = 0.0; ///< rung-switch settle deadline
    SimResult result_;
};

} // namespace lte::sim

#endif // LTE_SIM_MACHINE_HPP
