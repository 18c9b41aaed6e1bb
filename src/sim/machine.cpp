#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "phy/op_model.hpp"

namespace lte::sim {

Machine::Machine(const SimConfig &config, std::size_t n_antennas)
    : config_(config), n_antennas_(n_antennas)
{
    config_.validate();
    LTE_CHECK(n_antennas >= 1 && n_antennas <= kMaxRxAntennas,
              "antennas must be 1..4");
}

void
Machine::set_estimator(std::optional<mgmt::WorkloadEstimator> estimator)
{
    estimator_ = std::move(estimator);
}

void
Machine::push_event(double t, Event::Kind kind, std::uint32_t worker)
{
    events_.push(Event{t, next_seq_++, kind, worker});
}

SimInterval &
Machine::interval_at_index(std::size_t idx)
{
    while (result_.intervals.size() <= idx) {
        SimInterval iv;
        iv.t0 = static_cast<double>(result_.intervals.size()) *
                config_.delta_s;
        iv.dur = config_.delta_s;
        iv.watermark = watermark_;
        if (n_domains_ > 0) {
            iv.domains.resize(n_domains_);
            for (std::uint32_t d = 0; d < n_domains_; ++d) {
                iv.domains[d].freq_scale = domains_[d].freq;
                iv.domains[d].state =
                    static_cast<std::uint8_t>(domains_[d].state);
            }
        }
        result_.intervals.push_back(iv);
    }
    return result_.intervals[idx];
}

void
Machine::accumulate(std::uint32_t w, double t)
{
    Worker &worker = workers_[w];
    double cur = worker.last_t;
    const std::uint32_t d = n_domains_ > 0 ? domain_of(w) : 0;
    // Integer interval stepping: each iteration either reaches t or
    // advances to the next interval boundary, so termination does not
    // depend on floating-point epsilons.
    auto idx = static_cast<std::size_t>(cur / config_.delta_s);
    while (cur < t) {
        SimInterval &iv = interval_at_index(idx);
        const double end =
            static_cast<double>(idx + 1) * config_.delta_s;
        const double seg_end = std::min(t, end);
        const double take = seg_end - cur;
        if (take > 0.0) {
            DomainInterval *dom =
                n_domains_ > 0 ? &iv.domains[d] : nullptr;
            if (worker.gated) {
                iv.gated_cs += take;
                if (dom != nullptr)
                    dom->gated_cs += take;
            } else {
                switch (worker.state) {
                  case WState::kBusy:
                    iv.busy_cs += take;
                    result_.total_busy_cs += take;
                    if (dom != nullptr)
                        dom->busy_cs += take;
                    break;
                  case WState::kSpin:
                    // Never in a domain: the policy naps idle workers.
                    iv.spin_cs += take;
                    break;
                  case WState::kNapIdle:
                    iv.nap_idle_cs += take;
                    if (dom != nullptr)
                        dom->nap_idle_cs += take;
                    break;
                  case WState::kNapDeact:
                    iv.nap_deact_cs += take;
                    if (dom != nullptr)
                        dom->nap_deact_cs += take;
                    break;
                }
            }
        }
        cur = seg_end;
        ++idx;
    }
    worker.last_t = t;
}

void
Machine::set_state(std::uint32_t w, double t, WState next)
{
    accumulate(w, t);
    workers_[w].state = next;
    if (next == WState::kSpin)
        spin_stack_.push_back(w);
}

std::optional<std::uint32_t>
Machine::pop_spinner()
{
    while (!spin_stack_.empty()) {
        const std::uint32_t w = spin_stack_.back();
        spin_stack_.pop_back();
        if (workers_[w].state == WState::kSpin)
            return w;
        // Stale entry (worker changed state since being pushed).
    }
    return std::nullopt;
}

double
Machine::next_wake_time(std::uint32_t w, double t) const
{
    // Staggered periodic wake phases so nappers do not thunder.
    const double period = config_.idle_wake_period_s;
    const double phase = period * static_cast<double>(w) /
                         static_cast<double>(config_.n_workers);
    const double k = std::floor((t - phase) / period) + 1.0;
    return phase + k * period;
}

std::uint32_t
Machine::alloc_dag()
{
    if (!free_dags_.empty()) {
        const std::uint32_t idx = free_dags_.back();
        free_dags_.pop_back();
        return idx;
    }
    dags_.emplace_back();
    return static_cast<std::uint32_t>(dags_.size() - 1);
}

void
Machine::start_task(std::uint32_t w, double t, const SimTask &task)
{
    set_state(w, t, WState::kBusy);
    running_[w] = task;
    // A task started under the current DVFS point runs to completion
    // at that frequency; under the domain machine the worker runs at
    // its own domain's rung and a pending rung switch stalls the
    // start until the regulator has settled.
    const double freq = n_domains_ > 0 ? domains_[domain_of(w)].freq
                                       : freq_scale_;
    const double begin = std::max(t, stall_until_);
    const double duration = task.cycles / (kClockHz * freq);
    push_event(begin + duration, Event::Kind::kTaskDone, w);
}

void
Machine::assign_ready(double t)
{
    while (!ready_.empty()) {
        auto spinner = pop_spinner();
        if (!spinner.has_value())
            break;
        const SimTask task = ready_.front();
        ready_.pop_front();
        start_task(*spinner, t, task);
    }
    result_.max_ready_backlog =
        std::max(result_.max_ready_backlog, ready_.size());
    if (ready_.empty())
        return;

    // No spinning worker left: wake napping active workers at their
    // next poll boundary, one per pending task.
    std::size_t needed = ready_.size();
    for (std::uint32_t w = 0; w < config_.n_workers && needed > 0; ++w) {
        Worker &worker = workers_[w];
        if (worker.state != WState::kNapIdle || worker.wake_scheduled ||
            w >= watermark_ || worker.gated) {
            continue;
        }
        worker.wake_scheduled = true;
        push_event(next_wake_time(w, t), Event::Kind::kWake, w);
        --needed;
    }
}

void
Machine::apply_watermark(double t)
{
    const bool idle_naps = config_.policy.reactive_idle;

    for (std::uint32_t w = 0; w < config_.n_workers; ++w) {
        Worker &worker = workers_[w];
        if (worker.state == WState::kBusy)
            continue; // re-evaluated on completion
        if (worker.gated)
            continue; // waiting for its domain's kDomainReady
        if (w >= watermark_) {
            if (worker.state != WState::kNapDeact)
                set_state(w, t, WState::kNapDeact);
        } else {
            if (worker.state == WState::kNapDeact) {
                set_state(w, t,
                          idle_naps ? WState::kNapIdle : WState::kSpin);
            }
        }
    }
}

void
Machine::update_domains(double t, double est, SimInterval &iv)
{
    const std::uint32_t needed_cores = std::max<std::uint32_t>(
        1, std::min(watermark_, config_.n_workers));
    const std::uint32_t needed_domains = std::min<std::uint32_t>(
        n_domains_, (needed_cores + mgmt::kDomainSize - 1) /
                        mgmt::kDomainSize);

    // Pick the slowest f-V rung that still fits the estimated work
    // (plus headroom) into the dispatch period; the requirement is
    // normalised to the active set exactly as continuous DVFS does.
    const double active =
        static_cast<double>(needed_domains * mgmt::kDomainSize);
    const double required =
        est * static_cast<double>(config_.n_workers) / active +
        mgmt::kDvfsMargin;
    double rung = mgmt::kRungs.back();
    for (double r : mgmt::kRungs) {
        if (r >= required) {
            rung = r;
            break;
        }
    }

    std::uint32_t active_domains = 0;
    for (std::uint32_t d = 0; d < n_domains_; ++d) {
        DomainRt &dom = domains_[d];
        if (d < needed_domains) {
            dom.surplus_streak = 0;
            if (dom.state == mgmt::DomainState::kGated) {
                // Begin waking: workers stay gated (taking no work)
                // until the wake latency elapses.
                dom.state = mgmt::DomainState::kActive;
                iv.transition_energy_j += mgmt::kGateEnergyJ;
                ++iv.gate_transitions;
                push_event(t + mgmt::kGateWakeS,
                           Event::Kind::kDomainReady, d);
            } else if (dom.state == mgmt::DomainState::kNap) {
                dom.state = mgmt::DomainState::kActive;
            }
            ++active_domains;
        } else {
            switch (dom.state) {
              case mgmt::DomainState::kActive:
                dom.state = mgmt::DomainState::kNap;
                dom.surplus_streak = 1;
                break;
              case mgmt::DomainState::kNap: {
                ++dom.surplus_streak;
                const std::uint32_t lo = d * mgmt::kDomainSize;
                const std::uint32_t hi =
                    std::min((d + 1) * mgmt::kDomainSize,
                             config_.n_workers);
                bool draining = false;
                for (std::uint32_t w = lo; w < hi; ++w)
                    draining |= workers_[w].state == WState::kBusy;
                if (dom.surplus_streak >= mgmt::kGateHysteresis &&
                    !draining) {
                    dom.state = mgmt::DomainState::kGated;
                    iv.transition_energy_j += mgmt::kGateEnergyJ;
                    ++iv.gate_transitions;
                    for (std::uint32_t w = lo; w < hi; ++w) {
                        accumulate(w, t);
                        workers_[w].gated = true;
                    }
                }
                break;
              }
              case mgmt::DomainState::kGated:
                break;
            }
        }
    }

    // Apply the rung chip-wide to the active domains; a switch stalls
    // new task starts while the PLL/regulator settles and charges
    // energy per active domain.
    if (rung != freq_scale_) {
        ++iv.rung_transitions;
        iv.transition_energy_j +=
            mgmt::kRungEnergyJ * static_cast<double>(active_domains);
        stall_until_ = std::max(stall_until_, t + mgmt::kRungSwitchS);
        freq_scale_ = rung;
    }
    for (std::uint32_t d = 0; d < n_domains_; ++d) {
        if (domains_[d].state == mgmt::DomainState::kActive)
            domains_[d].freq = freq_scale_;
    }

    result_.transition_energy_j += iv.transition_energy_j;
}

void
Machine::handle_domain_ready(double t, std::uint32_t d)
{
    DomainRt &dom = domains_[d];
    if (dom.state != mgmt::DomainState::kActive)
        return; // re-gated while waking (stale event)
    const bool idle_naps = config_.policy.reactive_idle;
    const std::uint32_t lo = d * mgmt::kDomainSize;
    const std::uint32_t hi =
        std::min((d + 1) * mgmt::kDomainSize, config_.n_workers);
    for (std::uint32_t w = lo; w < hi; ++w) {
        Worker &worker = workers_[w];
        if (!worker.gated)
            continue;
        accumulate(w, t);
        worker.gated = false;
        if (w < watermark_) {
            set_state(w, t,
                      idle_naps ? WState::kNapIdle : WState::kSpin);
        } else {
            set_state(w, t, WState::kNapDeact);
        }
    }
    assign_ready(t);
}

void
Machine::handle_dispatch(double t, workload::ParameterModel &model)
{
    const phy::SubframeParams params = model.next_subframe();
    params.validate();

    // Proactive watermark from the known input parameters (Eq. 5).
    double est = 0.0;
    if (estimator_.has_value()) {
        est = estimator_->estimate_subframe(params);
        if (config_.policy.proactive) {
            watermark_ = std::max<std::uint32_t>(
                1, estimator_->active_cores(est, config_.n_workers,
                                            config_.core_margin));
        }
        result_.active_cores.push_back(estimator_->active_cores(
            est, config_.n_workers, config_.core_margin));
    }
    // DVFS: pick the slowest frequency that still fits the estimated
    // work (plus headroom) into the dispatch period.  The estimate is
    // expressed as a fraction of the *full* chip, so when core gating
    // has already shrunk the active set the required frequency is
    // est * n_workers / watermark — otherwise the two mechanisms
    // would double-throttle and the backlog would run away.
    if (config_.policy.dvfs && estimator_.has_value()) {
        const double active = static_cast<double>(
            std::max<std::uint32_t>(watermark_, 1));
        const double required =
            est * static_cast<double>(config_.n_workers) / active;
        freq_scale_ = std::clamp(required + mgmt::kDvfsMargin,
                                 mgmt::kDvfsMinScale, 1.0);
    }

    // Metadata is indexed by dispatch count, not by floor(t / delta):
    // accumulated floating-point dispatch times can land an ulp below
    // the interval boundary.
    SimInterval &iv =
        interval_at_index(static_cast<std::size_t>(dispatched_));

    if (n_domains_ > 0 && estimator_.has_value())
        update_domains(t, est, iv);
    apply_watermark(t);

    iv.watermark = watermark_;
    iv.est_activity = est;
    iv.freq_scale = freq_scale_;
    if (n_domains_ > 0) {
        iv.domains.resize(n_domains_);
        for (std::uint32_t d = 0; d < n_domains_; ++d) {
            iv.domains[d].freq_scale = domains_[d].freq;
            iv.domains[d].state =
                static_cast<std::uint8_t>(domains_[d].state);
        }
        result_.gate_transitions += iv.gate_transitions;
        result_.rung_transitions += iv.rung_transitions;
    }

    // Expand users into task DAGs.
    for (const auto &user : params.users) {
        const auto costs = phy::user_task_costs(user, n_antennas_);
        const std::uint32_t dag_idx = alloc_dag();
        Dag &dag = dags_[dag_idx];
        dag.chanest_cycles = static_cast<double>(costs.chanest_task) *
                             config_.cycles_per_op;
        dag.weights_cycles = static_cast<double>(costs.weights) *
                             config_.cycles_per_op;
        dag.demod_cycles = static_cast<double>(costs.demod_task) *
                           config_.cycles_per_op;
        dag.tail_task_cycles = static_cast<double>(costs.tail_task) *
                               config_.cycles_per_op;
        dag.reduce_cycles = static_cast<double>(costs.tail_reduce) *
                            config_.cycles_per_op;
        dag.chanest_left = costs.n_chanest_tasks;
        dag.demod_total = costs.n_demod_tasks;
        dag.demod_left = costs.n_demod_tasks;
        dag.tail_total = costs.n_tail_tasks;
        dag.tail_left = costs.n_tail_tasks;
        dag.dispatch_time = t;
        dag.dispatch_index = static_cast<std::uint32_t>(dispatched_);
        dag.in_use = true;
        ++active_dags_;

        for (std::uint32_t i = 0; i < costs.n_chanest_tasks; ++i)
            ready_.push_back(SimTask{dag.chanest_cycles, dag_idx, 0});
    }

    ++dispatched_;
    if (dispatched_ < target_subframes_) {
        // Exact multiple of the period (no accumulated drift).
        push_event(static_cast<double>(dispatched_) * config_.delta_s,
                   Event::Kind::kDispatch, 0);
    }
    assign_ready(t);
}

void
Machine::complete_stage(double t, const SimTask &task)
{
    Dag &dag = dags_[task.dag];
    switch (task.stage) {
      case 0:
        LTE_ASSERT(dag.chanest_left > 0, "chanest underflow");
        if (--dag.chanest_left == 0)
            ready_.push_back(SimTask{dag.weights_cycles, task.dag, 1});
        break;
      case 1:
        for (std::uint32_t i = 0; i < dag.demod_total; ++i)
            ready_.push_back(SimTask{dag.demod_cycles, task.dag, 2});
        break;
      case 2:
        LTE_ASSERT(dag.demod_left > 0, "demod underflow");
        if (--dag.demod_left == 0) {
            // Continuation-graph tail: one task per codeblock, folded
            // by a reduce — the runtime's real fan-out.
            for (std::uint32_t i = 0; i < dag.tail_total; ++i)
                ready_.push_back(SimTask{dag.tail_task_cycles, task.dag, 3});
        }
        break;
      case 3:
        LTE_ASSERT(dag.tail_left > 0, "tail underflow");
        if (--dag.tail_left == 0)
            ready_.push_back(SimTask{dag.reduce_cycles, task.dag, 4});
        break;
      case 4:
        dag.in_use = false;
        result_.user_latency.push_back(
            (t - dag.dispatch_time) / config_.delta_s);
        result_.user_dispatch.push_back(dag.dispatch_index);
        free_dags_.push_back(task.dag);
        LTE_ASSERT(active_dags_ > 0, "dag underflow");
        --active_dags_;
        break;
      default:
        LTE_ASSERT(false, "unknown task stage");
    }
}

void
Machine::handle_task_done(double t, std::uint32_t w)
{
    ++result_.tasks_executed;
    complete_stage(t, running_[w]);

    const bool idle_naps = config_.policy.reactive_idle;

    if (w >= watermark_) {
        set_state(w, t, WState::kNapDeact);
    } else if (!ready_.empty()) {
        const SimTask task = ready_.front();
        ready_.pop_front();
        start_task(w, t, task);
    } else {
        set_state(w, t,
                  idle_naps ? WState::kNapIdle : WState::kSpin);
    }
    assign_ready(t);
}

void
Machine::handle_wake(double t, std::uint32_t w)
{
    Worker &worker = workers_[w];
    worker.wake_scheduled = false;
    if (worker.state != WState::kNapIdle || w >= watermark_ ||
        worker.gated)
        return; // stale wake
    if (!ready_.empty()) {
        const SimTask task = ready_.front();
        ready_.pop_front();
        start_task(w, t, task);
        // More work may still be pending for other nappers.
        assign_ready(t);
    }
}

SimResult
Machine::run(workload::ParameterModel &model, std::uint64_t n_subframes)
{
    LTE_CHECK(n_subframes >= 1, "need at least one subframe");

    // Reset run state.
    events_ = {};
    next_seq_ = 0;
    workers_.assign(config_.n_workers, Worker{});
    running_.assign(config_.n_workers, SimTask{});
    spin_stack_.clear();
    ready_.clear();
    dags_.clear();
    free_dags_.clear();
    active_dags_ = 0;
    dispatched_ = 0;
    target_subframes_ = n_subframes;
    result_ = SimResult{};
    result_.n_workers = config_.n_workers;

    watermark_ = config_.n_workers;
    freq_scale_ = 1.0;
    stall_until_ = 0.0;
    n_domains_ = 0;
    domains_.clear();
    if (config_.policy.domain_machine) {
        n_domains_ =
            (config_.n_workers + mgmt::kDomainSize - 1) / mgmt::kDomainSize;
        domains_.assign(n_domains_, DomainRt{});
        result_.n_domains = n_domains_;
    }
    const bool idle_naps = config_.policy.reactive_idle;
    for (std::uint32_t w = 0; w < config_.n_workers; ++w) {
        workers_[w].state =
            idle_naps ? WState::kNapIdle : WState::kSpin;
        if (!idle_naps)
            spin_stack_.push_back(w);
    }

    push_event(0.0, Event::Kind::kDispatch, 0);

    double t_end = 0.0;
    while (!events_.empty()) {
        const Event ev = events_.top();
        events_.pop();
        t_end = std::max(t_end, ev.t);
        switch (ev.kind) {
          case Event::Kind::kDispatch:
            handle_dispatch(ev.t, model);
            break;
          case Event::Kind::kTaskDone:
            handle_task_done(ev.t, ev.worker);
            break;
          case Event::Kind::kWake:
            handle_wake(ev.t, ev.worker);
            break;
          case Event::Kind::kDomainReady:
            handle_domain_ready(ev.t, ev.worker);
            break;
        }
        if (dispatched_ == target_subframes_ && active_dags_ == 0 &&
            ready_.empty()) {
            break;
        }
    }

    // Close the books at the nominal end of the run.
    const double horizon = std::max(
        t_end, static_cast<double>(n_subframes) * config_.delta_s);
    for (std::uint32_t w = 0; w < config_.n_workers; ++w)
        accumulate(w, horizon);
    // The drain may end inside the final interval: trim its duration
    // so per-interval occupancy always sums to n_workers x dur.
    if (!result_.intervals.empty()) {
        SimInterval &last = result_.intervals.back();
        last.dur = std::max(horizon - last.t0, 1e-12);
    }

    result_.subframes = dispatched_;
    result_.wall_s = horizon;
    return result_;
}

} // namespace lte::sim
