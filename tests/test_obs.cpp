/**
 * @file
 * Observability layer tests: trace ring discipline, metrics registry
 * semantics, and exporter output — including a structural JSON
 * validation of the chrome://tracing export from a real 100-subframe
 * engine run.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace {

// ------------------------------------------------- JSON validator

/**
 * Minimal recursive-descent JSON syntax checker — enough to prove the
 * exporter emits well-formed JSON (chrome://tracing would reject
 * anything this rejects).
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : s_(text)
    {
    }

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        for (const char *c = word; *c; ++c)
            if (!eat(*c))
                return false;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // unescaped control character
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i)
                        if (!std::isxdigit(static_cast<unsigned char>(
                                peek())))
                            return false;
                        else
                            ++pos_;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        eat('-');
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (eat('.'))
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        ws();
        if (eat('}'))
            return true;
        do {
            ws();
            if (!string())
                return false;
            ws();
            if (!eat(':'))
                return false;
            ws();
            if (!value())
                return false;
            ws();
        } while (eat(','));
        return eat('}');
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        ws();
        if (eat(']'))
            return true;
        do {
            ws();
            if (!value())
                return false;
            ws();
        } while (eat(','));
        return eat(']');
    }

    bool
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(JsonChecker, AcceptsAndRejects)
{
    EXPECT_TRUE(JsonChecker("{\"a\":[1,2.5,-3e4],\"b\":\"x\\ny\"}")
                    .valid());
    EXPECT_TRUE(JsonChecker("[]").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":}").valid());
    EXPECT_FALSE(JsonChecker("[1,2").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1}garbage").valid());
    EXPECT_FALSE(JsonChecker(std::string("\"a\nb\"")).valid());
}

} // namespace

namespace lte::obs {
namespace {

// ------------------------------------------------------ trace ring

TEST(ThreadTrace, RetainsNewestAndCountsDrops)
{
    ThreadTrace ring(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.record(TraceEvent{i, i + 1, i, SpanKind::kDemod});
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.recorded(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    std::vector<TraceEvent> events;
    ring.snapshot(events);
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].begin_ns, 6 + i) << "oldest-first order";
}

TEST(Tracer, SlotsAreIndependent)
{
    ObsConfig cfg;
    cfg.enabled = true;
    cfg.events_per_thread = 8;
    Tracer tracer(3, cfg);
    tracer.record(0, SpanKind::kChanEst, 10, 20, 1);
    tracer.record(0, SpanKind::kWeights, 20, 30, 1);
    tracer.record(2, SpanKind::kSubframe, 0, 40, 7);
    tracer.record_instant(1, SpanKind::kSteal, 15, 0);

    EXPECT_EQ(tracer.n_slots(), 3u);
    EXPECT_EQ(tracer.slot(0).recorded(), 2u);
    EXPECT_EQ(tracer.slot(1).recorded(), 1u);
    EXPECT_EQ(tracer.slot(2).recorded(), 1u);
    EXPECT_EQ(tracer.total_recorded(), 4u);
    EXPECT_EQ(tracer.total_dropped(), 0u);
}

TEST(SubframeSeries, CapacityBounded)
{
    SubframeSeries series(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        SubframeSample s;
        s.subframe_index = i;
        s.t_dispatch_ns = i * 1000;
        s.t_complete_ns = i * 1000 + 500;
        series.push(s);
    }
    EXPECT_EQ(series.size(), 3u);
    EXPECT_EQ(series.dropped(), 2u);
    EXPECT_EQ(series.at(2).subframe_index, 2u);
    EXPECT_NEAR(series.at(1).latency_ms(), 0.0005, 1e-12);
    series.clear();
    EXPECT_EQ(series.size(), 0u);
}

// --------------------------------------------------------- metrics

TEST(MetricsRegistry, FindOrCreateReturnsStableRefs)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("tasks");
    c1.add(5);
    Counter &c2 = reg.counter("tasks");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 5u);

    Gauge &g = reg.gauge("activity");
    g.set(0.25);
    EXPECT_DOUBLE_EQ(reg.gauge("activity").value(), 0.25);

    reg.counter("a_first").add(1);
    const auto samples = reg.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    // Sorted by name: a_first, activity, tasks.
    EXPECT_EQ(samples[0].name, "a_first");
    EXPECT_EQ(samples[1].name, "activity");
    EXPECT_EQ(samples[2].name, "tasks");
    EXPECT_TRUE(samples[0].is_counter);
    EXPECT_FALSE(samples[1].is_counter);
}

// ------------------------------------------------------- exporters

TEST(Export, ChromeTraceIsValidJson)
{
    ObsConfig cfg;
    cfg.enabled = true;
    cfg.events_per_thread = 64;
    Tracer tracer(2, cfg);
    tracer.record(0, SpanKind::kChanEst, 1000, 2000, 3);
    tracer.record(0, SpanKind::kNap, 2000, 9000, 0);
    tracer.record_instant(1, SpanKind::kDispatch, 500, 42);
    tracer.record(1, SpanKind::kSubframe, 500, 9500, 42);

    std::ostringstream os;
    write_chrome_trace(os, tracer);
    const std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("chanest"), std::string::npos);
    EXPECT_NE(json.find("subframe"), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Export, SubframeCsvHasDeadlineColumn)
{
    SubframeSeries series(8);
    SubframeSample fast;
    fast.subframe_index = 0;
    fast.t_complete_ns = 1'000'000; // 1 ms
    fast.n_users = 3;
    SubframeSample slow;
    slow.subframe_index = 1;
    slow.cell_id = 7;
    slow.t_complete_ns = 9'000'000; // 9 ms
    series.push(fast);
    series.push(slow);

    std::ostringstream os;
    write_subframe_csv(os, series, 3.0);
    const std::string csv = os.str();
    std::istringstream lines(csv);
    std::string header, row0, row1;
    std::getline(lines, header);
    std::getline(lines, row0);
    std::getline(lines, row1);
    EXPECT_NE(header.find("deadline_met"), std::string::npos);
    EXPECT_NE(header.find("subframe,cell,"), std::string::npos);
    EXPECT_EQ(row0.rfind("0,1,", 0), 0u); // default cell 1
    EXPECT_EQ(row1.rfind("1,7,", 0), 0u); // tagged cell
    EXPECT_EQ(row0.back(), '1'); // 1 ms <= 3 ms
    EXPECT_EQ(row1.back(), '0'); // 9 ms > 3 ms
}

} // namespace
} // namespace lte::obs

namespace lte::runtime {
namespace {

TEST(ObsIntegration, HundredSubframeRunExports)
{
    // The acceptance scenario: a 100-subframe run with tracing
    // enabled must export a chrome://tracing-loadable JSON timeline
    // and a per-subframe activity CSV with one row per subframe.
    EngineConfig cfg;
    cfg.pool.n_workers = 3;
    cfg.pool.strategy = mgmt::Strategy::kNoNap;
    cfg.input.pool_size = 4;
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);

    workload::PaperModelConfig model_cfg;
    model_cfg.ramp_subframes = 100;
    model_cfg.prob_update_interval = 10;
    workload::PaperModel model(model_cfg);

    const RunRecord record = engine->run(model, 100);
    EXPECT_EQ(record.subframes.size(), 100u);

    ASSERT_NE(engine->tracer(), nullptr);
    std::ostringstream trace_os;
    obs::write_chrome_trace(trace_os, *engine->tracer());
    EXPECT_TRUE(JsonChecker(trace_os.str()).valid());

    ASSERT_NE(engine->subframe_series(), nullptr);
    EXPECT_EQ(engine->subframe_series()->size(), 100u);
    std::ostringstream csv_os;
    obs::write_subframe_csv(csv_os, *engine->subframe_series(),
                            cfg.obs.deadline_ms);
    std::istringstream lines(csv_os.str());
    std::size_t n_lines = 0;
    std::string line;
    while (std::getline(lines, line))
        ++n_lines;
    EXPECT_EQ(n_lines, 101u); // header + one row per subframe

    ASSERT_NE(engine->metrics(), nullptr);
    EXPECT_EQ(engine->metrics()->counter("engine.subframes").value(),
              100u);
    std::ostringstream metrics_os;
    obs::write_metrics_csv(metrics_os, *engine->metrics());
    EXPECT_NE(metrics_os.str().find("engine.subframes"),
              std::string::npos);
}

TEST(ObsIntegration, DisabledEngineHasNoObsState)
{
    EngineConfig cfg;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    auto engine = make_engine(cfg);
    EXPECT_EQ(engine->tracer(), nullptr);
    EXPECT_EQ(engine->subframe_series(), nullptr);
    EXPECT_EQ(engine->metrics(), nullptr);
}

TEST(ObsIntegration, MetricsWithoutTracingStillCount)
{
    // Regression: subframe/user/deadline-miss accounting used to live
    // inside `if (tracer_)` blocks, so turning tracing off silently
    // zeroed engine.deadline_misses even when the metrics registry was
    // wanted.  Metrics are now their own switch.
    phy::UserParams user;
    user.prb = 25;
    user.layers = 2;
    user.mod = Modulation::k16Qam;
    for (EngineKind kind :
         {EngineKind::kSerial, EngineKind::kStreaming}) {
        EngineConfig cfg;
        cfg.kind = kind;
        cfg.pool.n_workers = 2;
        cfg.input.pool_size = 2;
        cfg.obs.enabled = false;
        cfg.obs.metrics_enabled = true;
        cfg.obs.deadline_ms = 1e-6; // every real subframe misses
        auto engine = make_engine(cfg);

        workload::SteadyModel model(user);
        engine->run(model, 10);

        EXPECT_EQ(engine->tracer(), nullptr)
            << engine_kind_name(kind);
        EXPECT_EQ(engine->subframe_series(), nullptr)
            << engine_kind_name(kind);
        ASSERT_NE(engine->metrics(), nullptr) << engine_kind_name(kind);
        auto &m = *engine->metrics();
        EXPECT_EQ(m.counter("engine.subframes").value(), 10u)
            << engine_kind_name(kind);
        EXPECT_EQ(m.counter("engine.users").value(), 10u)
            << engine_kind_name(kind);
        EXPECT_EQ(m.counter("engine.deadline_misses").value(), 10u)
            << engine_kind_name(kind);
    }
}

} // namespace
} // namespace lte::runtime
