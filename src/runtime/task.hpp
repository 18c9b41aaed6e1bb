/**
 * @file
 * Runtime task plumbing: per-user work state, the stealable task (one
 * node of phy::kUserTaskGraph: channel estimation, the weight join,
 * demodulation, the per-codeblock tail, the per-codeblock turbo decode
 * or the reduce), and the per-subframe job that owns everything
 * (paper Sec. IV-C).
 *
 * Stage transitions are continuation-driven: each node's counter is
 * decremented by the worker that finishes one of its tasks, and the
 * final decrement enqueues the next node instead of releasing a
 * blocked "user thread" — no worker ever waits inside a user.
 *
 * Memory model: UserWork and SubframeJob are long-lived pooled objects
 * that are re-bound every subframe via reset()/prepare().  The heavy
 * state (the UserProcessor's workspace arena) grows to its high-water
 * mark during warm-up and is reused from then on, so steady-state
 * dispatch performs zero heap allocations.
 */
#ifndef LTE_RUNTIME_TASK_HPP
#define LTE_RUNTIME_TASK_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "phy/op_model.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"
#include "runtime/run_record.hpp"

namespace lte::io {
struct IqFrame;
}

namespace lte::runtime {

struct SubframeJob;

/**
 * Work state for one user in one subframe.  The worker that dequeues
 * this from the global queue seeds the chanest fan-out; from then on
 * the node counters drive the continuation graph and any worker may
 * run any node.
 */
struct UserWork
{
    /** Create an unbound, poolable work state; reset() before use. */
    explicit UserWork(const phy::ReceiverConfig &config) : proc(config) {}

    /**
     * (Re)bind to a user's subframe.  Allocation-free once the
     * processor's workspace has grown past its high-water mark.
     */
    void
    reset(const phy::UserParams &params, const phy::UserSignal *signal,
          SubframeJob *parent_job, std::size_t slot,
          phy::DegradeLevel level = phy::DegradeLevel::kNone)
    {
        proc.bind(params, signal);
        proc.set_degrade(level);
        refresh_costs(level);
        parent = parent_job;
        result_slot = slot;
        LTE_ASSERT(costs.n_chanest_tasks == proc.n_chanest_tasks() &&
                       costs.n_demod_tasks == proc.n_demod_tasks() &&
                       costs.n_tail_tasks == proc.n_tail_tasks() &&
                       costs.n_decode_tasks == proc.n_decode_tasks(),
                   "op-model fan-outs disagree with the processor");
        for (std::size_t s = 0; s < phy::kStageCount; ++s) {
            remaining[s].store(
                static_cast<std::int32_t>(phy::fan_out(costs, s)),
                std::memory_order_relaxed);
        }
    }

    /**
     * Recompute the analytical costs for the current binding (called
     * from reset() and on degrade flips, which change the weight-join
     * cost and the decode iteration budget — but never a task count,
     * so the fan-outs loaded at reset() stay valid).
     */
    void
    refresh_costs(phy::DegradeLevel level)
    {
        costs = phy::user_task_costs(
            proc.params(), proc.config().n_antennas,
            level != phy::DegradeLevel::kNone,
            phy::decode_model(proc.config(), level));
    }

    phy::UserProcessor proc;
    /** Analytical flop counts and fan-outs: the pool walks the graph
     *  and accounts deterministic activity from them. */
    phy::UserTaskCosts costs{};
    SubframeJob *parent = nullptr;
    std::size_t result_slot = 0;
    /** Tasks of each node (phy::kUserTaskGraph) not yet finished. */
    std::array<std::atomic<std::int32_t>, phy::kStageCount> remaining{};
};

/** A stealable unit of work: task @p index of one node of the user's
 *  graph (phy::kUserTaskGraph). */
struct Task
{
    UserWork *work = nullptr;
    phy::TaskStage stage = phy::TaskStage::kChanEst;
    std::uint32_t index = 0;
};

/**
 * One dispatched subframe: owns the per-user work states and collects
 * their results.  Must outlive every task referencing it; the worker
 * pool signals completion through users_remaining.
 *
 * The user-work pool is grow-only: prepare() re-binds the first
 * n_users entries and leaves the rest warm.  Results are scalar
 * outcomes (no payload vectors), so collecting them never allocates.
 */
struct SubframeJob
{
    phy::SubframeParams params;
    /** Global admission order stamped by the engine: the position in
     *  the shared in-flight window, used to find the globally oldest
     *  executing job across the lanes. */
    std::uint64_t admit_seq = 0;
    /** Pooled per-user work states; only the first n_users are live. */
    std::vector<std::unique_ptr<UserWork>> users;
    std::size_t n_users = 0;
    std::vector<UserOutcome> results;
    std::atomic<std::int32_t> users_remaining{0};

    /** Observability (set by the engine when obs is on): arrival and
     *  dispatch timestamps relative to the engine's clock epoch and
     *  the estimator's Eq. 4 output for this subframe (-1 if none).
     *  Arrival is the TTI tick (or the producer's publish stamp) and
     *  dispatch is admission into the in-flight window, so the gap is
     *  admission-queue wait. */
    std::uint64_t t_arrival_ns = 0;
    std::uint64_t t_dispatch_ns = 0;
    double est_activity = -1.0;
    /** Shed ladder level the job runs at (see phy::DegradeLevel). */
    phy::DegradeLevel degrade_level = phy::DegradeLevel::kNone;
    /**
     * Sample-plane frame whose signals this job reads (null on the
     * inline-synthesis path).  The engine recycles it to the
     * transport's free ring wherever it releases the job — completion
     * reap, queue-full drop or expiry — always from the dispatch
     * thread, keeping the free ring single-producer.
     */
    io::IqFrame *io_frame = nullptr;

    /**
     * (Re)bind the job to a subframe: pools UserWork objects (growing
     * the pool only when this job sees more users than ever before)
     * and sizes the result array.  @p signals must outlive processing.
     */
    void
    prepare(const phy::SubframeParams &subframe,
            const std::vector<const phy::UserSignal *> &signals,
            const phy::ReceiverConfig &receiver)
    {
        params = subframe;
        n_users = subframe.users.size();
        degrade_level = phy::DegradeLevel::kNone;
        io_frame = nullptr;
        while (users.size() < n_users)
            users.push_back(std::make_unique<UserWork>(receiver));
        results.resize(n_users);
        for (std::size_t u = 0; u < n_users; ++u) {
            users[u]->reset(subframe.users[u], signals[u], this, u);
        }
    }

    /** Publish user @p slot's scalar outcome; the decoded bits stay
     *  in the processor's reused storage (no payload copy). */
    void
    set_result(std::size_t slot, const phy::UserResult &result)
    {
        UserOutcome &out = results[slot];
        out.user_id = result.user_id;
        out.checksum = result.checksum;
        out.crc_ok = result.crc_ok;
        out.crc_modelled = result.crc_modelled;
        out.evm_rms = result.evm_rms;
        out.decode_iterations = result.decode_iterations;
    }

    /**
     * Move every pooled user processor of this (prepared, not yet
     * submitted) job to a level of the shed ladder — the admission
     * controllers' "degrade" action.  Task counts never change, only
     * the weight algorithm and the decode iteration budget, so a flip
     * between prepare() and submit() is always safe.
     */
    void
    set_degrade(phy::DegradeLevel level)
    {
        degrade_level = level;
        for (std::size_t u = 0; u < n_users; ++u) {
            users[u]->proc.set_degrade(level);
            // Keep the accounted costs honest: the degraded chain
            // swaps the MMSE solve for per-layer MRC weights and
            // shrinks the decode budget.
            users[u]->refresh_costs(level);
        }
    }
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_TASK_HPP
