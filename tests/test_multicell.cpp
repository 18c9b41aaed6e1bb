/**
 * @file
 * Multi-cell engine tests: 1-cell bit-identity against the
 * single-cell engines, per-cell stream determinism (same seed + cell
 * id => same subframes no matter how many cells run beside it or
 * which engine kind serves it), weighted round-robin fairness under
 * overload, domain partitioning, and config validation.
 *
 * The cell-count-bearing tests honour LTE_CELLS (default 2, clamped
 * to 1..8) so CI can sweep the same binary at 1/2/4 cells.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mgmt/core_allocator.hpp"
#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"

namespace lte::runtime {
namespace {

std::size_t
cells_from_env()
{
    const char *env = std::getenv("LTE_CELLS");
    if (env == nullptr)
        return 2;
    const long parsed = std::strtol(env, nullptr, 10);
    return static_cast<std::size_t>(std::clamp(parsed, 1L, 8L));
}

workload::PaperModelConfig
model_config(std::uint64_t seed)
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = seed;
    return cfg;
}

/** Lossless free-running template shared by the parity tests. */
EngineConfig
lossless_engine_config()
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 3;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    cfg.max_in_flight = 3;
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.0;
    cfg.deadline_ms = 0.0;
    return cfg;
}

/**
 * Single-cell reference digest for (master seed, cell id): a serial
 * engine configured for that cell over that cell's model stream.
 */
std::uint64_t
single_cell_digest(std::uint32_t cell_id, std::size_t n_subframes)
{
    EngineConfig cfg = lossless_engine_config();
    cfg.kind = EngineKind::kSerial;
    cfg.receiver.cell_id = cell_id;
    cfg.input.cell_id = cell_id;
    auto engine = make_engine(cfg);
    workload::PaperModel model(
        model_config(cell_stream_seed(77, cell_id)));
    return engine->run(model, n_subframes).digest();
}

/** Run an n_cells multi-cell engine over per-cell paper streams. */
MultiCellRunRecord
run_multicell(std::size_t n_cells, std::size_t n_subframes)
{
    MultiCellConfig cfg;
    cfg.n_cells = n_cells;
    cfg.engine = lossless_engine_config();
    MultiCellEngine engine(cfg);

    std::vector<workload::PaperModel> models;
    models.reserve(n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
        models.emplace_back(
            model_config(cell_stream_seed(77, engine.cell_id(c))));
    }
    std::vector<workload::ParameterModel *> ptrs;
    for (auto &m : models)
        ptrs.push_back(&m);
    return engine.run(ptrs, n_subframes);
}

TEST(MultiCell, OneCellRunIsBitIdenticalToSingleCellEngines)
{
    // The tentpole invariant: a 1-cell multi-cell engine reproduces
    // the single-cell engines bit for bit — every cell-id derivation
    // (scrambler init, DMRS root, input stream seed) is the identity
    // at cell 1.
    const std::size_t n = 20;

    auto serial_cfg = lossless_engine_config();
    serial_cfg.kind = EngineKind::kSerial;
    auto serial = make_engine(serial_cfg);
    workload::PaperModel serial_model(model_config(77));
    const RunRecord ref = serial->run(serial_model, n);

    auto streaming = make_engine(lossless_engine_config());
    workload::PaperModel streaming_model(model_config(77));
    const RunRecord stream_record = streaming->run(streaming_model, n);

    MultiCellConfig cfg;
    cfg.n_cells = 1;
    cfg.engine = lossless_engine_config();
    MultiCellEngine engine(cfg);
    EXPECT_EQ(engine.cell_id(0), 1u);
    workload::PaperModel model(model_config(77));
    std::vector<workload::ParameterModel *> models{&model};
    const MultiCellRunRecord record = engine.run(models, n);

    ASSERT_EQ(record.cells.size(), 1u);
    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record.cells[0], &why))
        << why;
    EXPECT_EQ(ref.digest(), record.cells[0].digest());
    EXPECT_EQ(stream_record.digest(), record.cells[0].digest());
    EXPECT_GT(ref.user_count(), 0u);
    EXPECT_EQ(record.shed[0].shed, 0u);
    EXPECT_EQ(record.shed[0].completed, record.shed[0].submitted);
}

TEST(MultiCell, PerCellDigestsMatchSingleCellBaselines)
{
    // N-cell engine parity: every cell's record must be bit-identical
    // to a single-cell serial run of the same (seed, cell id), no
    // matter how many cells shared the pool.
    const std::size_t n = 15;
    const std::size_t n_cells = cells_from_env();
    const MultiCellRunRecord record = run_multicell(n_cells, n);

    ASSERT_EQ(record.cells.size(), n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
        const auto cell_id = static_cast<std::uint32_t>(c + 1);
        EXPECT_EQ(record.cells[c].cell_id, cell_id);
        EXPECT_EQ(record.cells[c].subframes.size(), n);
        EXPECT_EQ(record.cells[c].digest(),
                  single_cell_digest(cell_id, n))
            << "cell " << cell_id << " of " << n_cells;
        for (const auto &sf : record.cells[c].subframes)
            EXPECT_EQ(sf.cell_id, cell_id);
    }
    EXPECT_EQ(record.completed_subframes(), n * n_cells);
}

TEST(MultiCell, PerCellStreamsAreDeterministicAcrossCellCounts)
{
    // Same master seed + same cell id => the same subframe sequence,
    // regardless of how many other cells run beside it.
    const std::size_t n = 12;
    const MultiCellRunRecord two = run_multicell(2, n);
    const MultiCellRunRecord four = run_multicell(4, n);
    ASSERT_EQ(two.cells.size(), 2u);
    ASSERT_EQ(four.cells.size(), 4u);
    for (std::size_t c = 0; c < 2; ++c) {
        std::string why;
        EXPECT_TRUE(RunRecord::equivalent(two.cells[c], four.cells[c],
                                          &why))
            << why;
        EXPECT_EQ(two.cells[c].digest(), four.cells[c].digest());
    }
    // Different cells see different (decorrelated) streams.
    EXPECT_NE(four.cells[0].digest(), four.cells[1].digest());
}

TEST(MultiCell, DistinctCellsProduceDistinctChecksums)
{
    // The same parameter stream processed under two cell identities
    // yields different user checksums (cell-specific scrambling and
    // DMRS), which is what makes the parity tests above meaningful.
    EXPECT_NE(single_cell_digest(1, 6), single_cell_digest(2, 6));
}

TEST(MultiCell, ProcessSubframeServesEachLane)
{
    MultiCellConfig cfg;
    cfg.n_cells = 2;
    cfg.engine = lossless_engine_config();
    cfg.engine.obs.enabled = true;
    MultiCellEngine engine(cfg);

    workload::PaperModel model(model_config(5));
    for (std::size_t i = 0; i < 4; ++i) {
        phy::SubframeParams params = model.next_subframe();
        const std::size_t lane = i % 2;
        params.cell_id = engine.cell_id(lane);
        const SubframeOutcome &out =
            engine.process_subframe(lane, params);
        EXPECT_EQ(out.cell_id, engine.cell_id(lane));
        EXPECT_EQ(out.users.size(), params.users.size());
    }
    // Each lane's own tallies observed its two subframes.
    EXPECT_EQ(engine.shed_stats(0).completed, 2u);
    EXPECT_EQ(engine.shed_stats(1).completed, 2u);
    // The wrong lane is rejected, not silently re-tagged.
    phy::SubframeParams params = model.next_subframe();
    params.cell_id = engine.cell_id(0);
    EXPECT_THROW(engine.process_subframe(1, params),
                 std::invalid_argument);
}

TEST(MultiCell, PartitionDomainsApportionsTheChip)
{
    // Fits: grant ceil(demand / 8) domains each.
    EXPECT_EQ(mgmt::partition_domains({10, 3}, 8, 64),
              (std::vector<std::uint32_t>{16, 8}));
    // A zero-demand cell still keeps one domain powered.
    EXPECT_EQ(mgmt::partition_domains({0, 60}, 8, 64),
              (std::vector<std::uint32_t>{8, 56}));
    // Overload: largest-remainder scale-down, whole chip handed out.
    const auto granted = mgmt::partition_domains({60, 60, 60, 60}, 8, 64);
    EXPECT_EQ(granted,
              (std::vector<std::uint32_t>{16, 16, 16, 16}));
    // Asymmetric overload keeps proportionality and the floor.
    const auto skewed = mgmt::partition_domains({64, 64, 8}, 8, 64);
    std::uint32_t total = 0;
    for (std::uint32_t g : skewed) {
        EXPECT_GE(g, 8u);
        EXPECT_EQ(g % 8, 0u);
        total += g;
    }
    EXPECT_EQ(total, 64u);
    EXPECT_GT(skewed[0], skewed[2]);
    // Geometry violations throw.
    EXPECT_THROW(mgmt::partition_domains({1, 1, 1}, 8, 16),
                 std::invalid_argument);
}

TEST(MultiCell, ConfigValidationRejectsBadShapes)
{
    MultiCellConfig cfg;
    cfg.n_cells = 2;
    cfg.engine = lossless_engine_config();

    cfg.cell_ids = {4, 4};
    EXPECT_THROW(MultiCellEngine{cfg}, std::invalid_argument);
    cfg.cell_ids = {1, 512};
    EXPECT_THROW(MultiCellEngine{cfg}, std::invalid_argument);
    cfg.cell_ids = {1};
    EXPECT_THROW(MultiCellEngine{cfg}, std::invalid_argument);
    cfg.cell_ids.clear();
    cfg.n_cells = 0;
    EXPECT_THROW(MultiCellEngine{cfg}, std::invalid_argument);
}

} // namespace
} // namespace lte::runtime
