/**
 * @file
 * Unit tests for the CBP branch-prediction framework: the predictor
 * factory, each predictor family's learning behaviour, and the ordering
 * properties the paper's Figures 8-10 rest on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "bpred/bimodal.hpp"
#include "bpred/gshare.hpp"
#include "bpred/perceptron.hpp"
#include "bpred/runner.hpp"
#include "bpred/tage.hpp"
#include "bpred/tage_sc_l.hpp"
#include "bpred/tournament.hpp"

namespace vepro::bpred
{
namespace
{

using trace::BranchRecord;

/** Run a trace and return the miss rate in percent. */
double
missRate(BranchPredictor &p, const std::vector<BranchRecord> &trace)
{
    return runTrace(p, trace, trace.size()).missRatePercent();
}

/** Always-taken stream at one PC. */
std::vector<BranchRecord>
alwaysTaken(int n)
{
    return std::vector<BranchRecord>(static_cast<size_t>(n),
                                     BranchRecord{0x400000, true});
}

/** Strict T/NT alternation at one PC (needs 1 bit of history). */
std::vector<BranchRecord>
alternating(int n)
{
    std::vector<BranchRecord> t;
    for (int i = 0; i < n; ++i) {
        t.push_back({0x400000, (i & 1) == 0});
    }
    return t;
}

/** A loop pattern: taken (period-1) times, then one fall-through. */
std::vector<BranchRecord>
loopPattern(int n, int period, uint64_t pc = 0x400100)
{
    std::vector<BranchRecord> t;
    for (int i = 0; i < n; ++i) {
        t.push_back({pc, (i % period) != period - 1});
    }
    return t;
}

/**
 * An encoder-like stream: many biased loop branches at distinct PCs plus
 * a minority of data-dependent decisions with pattern structure.
 */
std::vector<BranchRecord>
encoderLike(int n, uint64_t seed)
{
    std::mt19937 rng(static_cast<uint32_t>(seed));
    std::vector<BranchRecord> t;
    // Deterministic kernel structure (loops within loops) sprinkled with
    // biased random decisions — the mixture an encoder emits. The
    // structured part has long periods that reward long-history
    // predictors; the random part adds a bias-only floor.
    int outer = 0;
    while (static_cast<int>(t.size()) < n) {
        ++outer;
        int inner_period = 7 + (outer % 3) * 16;  // 7, 23, 39 iterations
        for (int i = 0; i < inner_period; ++i) {
            uint64_t pc = 0x410000 + static_cast<uint64_t>(outer % 4) * 1024;
            t.push_back({pc, i + 1 != inner_period});
            if ((i & 3) == 0) {
                t.push_back({0x420000, (outer + i) % 6 < 2});
            }
        }
        // Biased early-exit decision (85/15).
        t.push_back({0x430000, (rng() % 100) < 15});
    }
    return t;
}

TEST(Factory, BuildsAllKinds)
{
    for (const char *spec :
         {"gshare-2KB", "gshare-32KB", "tage-8KB", "tage-64KB", "bimodal-4KB",
          "perceptron-8KB", "tournament-16KB"}) {
        auto p = makePredictor(spec);
        ASSERT_NE(p, nullptr) << spec;
        EXPECT_GT(p->sizeBytes(), 0u);
        EXPECT_FALSE(p->name().empty());
    }
}

TEST(Factory, RejectsMalformedSpecs)
{
    EXPECT_THROW(makePredictor("gshare"), std::invalid_argument);
    EXPECT_THROW(makePredictor("gshare-2MB"), std::invalid_argument);
    EXPECT_THROW(makePredictor("unobtanium-8KB"), std::invalid_argument);
    // The budget is a whole decimal token that fits in bytes.
    for (const char *spec :
         {"tage-4abcKB", "tage-+8KB", "tage- 8KB", "gshare-0x10KB",
          "tage-99999999999999999999KB", "tage-18014398509481984KB"}) {
        EXPECT_THROW(makePredictor(spec), std::invalid_argument) << spec;
    }
}

TEST(Factory, BudgetsRoughlyHonoured)
{
    EXPECT_LE(makePredictor("gshare-2KB")->sizeBytes(), 2048u);
    EXPECT_LE(makePredictor("gshare-32KB")->sizeBytes(), 32u * 1024u);
    EXPECT_LE(makePredictor("tage-8KB")->sizeBytes(), 9u * 1024u);
    EXPECT_LE(makePredictor("tage-64KB")->sizeBytes(), 64u * 1024u);
}

TEST(Gshare, GeometryFromBudget)
{
    GsharePredictor small(2 * 1024);
    GsharePredictor big(32 * 1024);
    EXPECT_EQ(small.indexBits(), 13);
    EXPECT_EQ(big.indexBits(), 17);
    EXPECT_EQ(small.sizeBytes(), 2048u);
}

TEST(Gshare, LearnsBias)
{
    GsharePredictor p(2 * 1024);
    EXPECT_LT(missRate(p, alwaysTaken(10000)), 1.0);
}

TEST(Gshare, LearnsAlternationViaHistory)
{
    GsharePredictor p(2 * 1024);
    EXPECT_LT(missRate(p, alternating(10000)), 2.0);
}

TEST(Gshare, LearnsShortLoops)
{
    GsharePredictor p(32 * 1024);
    EXPECT_LT(missRate(p, loopPattern(20000, 8)), 2.0);
}

TEST(Bimodal, LearnsBiasButNotAlternation)
{
    BimodalPredictor p(4 * 1024);
    EXPECT_LT(missRate(p, alwaysTaken(10000)), 1.0);
    BimodalPredictor q(4 * 1024);
    EXPECT_GT(missRate(q, alternating(10000)), 40.0)
        << "bimodal has no history and cannot learn alternation";
}

TEST(Tage, LearnsLongPeriodsSmallGshareCannot)
{
    // A period-40 loop needs ~40 bits of history: far beyond gshare-2KB's
    // 13 bits, comfortably within TAGE's geometric histories.
    auto trace = loopPattern(60000, 40);
    GsharePredictor gshare(2 * 1024);
    TagePredictor tage(8 * 1024);
    double g = missRate(gshare, trace);
    double t = missRate(tage, trace);
    EXPECT_GT(g, 1.2);
    EXPECT_LT(t, 0.6);
    EXPECT_LT(t * 2, g);
}

TEST(Tage, GeometryScalesWithBudget)
{
    TageConfig small = tageGeometry(8 * 1024);
    TageConfig big = tageGeometry(64 * 1024);
    EXPECT_GT(big.histLengths.size(), small.histLengths.size() - 1u);
    EXPECT_GT(big.histLengths.back(), small.histLengths.back());
    EXPECT_GT(big.tableBits, small.tableBits);
    EXPECT_THROW(tageGeometry(100), std::invalid_argument);
}

TEST(Tage, ResetRestoresColdState)
{
    TagePredictor p(8 * 1024);
    auto trace = encoderLike(20000, 3);
    double first = missRate(p, trace);
    p.reset();
    double second = missRate(p, trace);
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Perceptron, LearnsHistoryCorrelation)
{
    // Outcome = XOR-ish function of history bit 3: linearly separable.
    std::vector<BranchRecord> trace;
    bool h3 = false;
    std::vector<bool> history(8, false);
    std::mt19937 rng(5);
    for (int i = 0; i < 20000; ++i) {
        h3 = history[3];
        bool outcome = h3;
        trace.push_back({0x440000, outcome});
        history.insert(history.begin(), outcome);
        history.pop_back();
        (void)rng;
    }
    PerceptronPredictor p(8 * 1024);
    EXPECT_LT(missRate(p, trace), 5.0);
}

TEST(Tournament, TracksBestComponent)
{
    // Mixed stream: some PCs purely biased (bimodal-friendly), some
    // history-patterned (gshare-friendly). The tournament should approach
    // the better component on each.
    std::vector<BranchRecord> trace;
    for (int i = 0; i < 30000; ++i) {
        if (i & 1) {
            trace.push_back({0x450000, true});
        } else {
            trace.push_back({0x460000, (i / 2) % 2 == 0});
        }
    }
    TournamentPredictor p(16 * 1024);
    EXPECT_LT(missRate(p, trace), 3.0);
}

TEST(TageScL, LoopPredictorNailsRegularTripCounts)
{
    // A fixed 40-iteration loop: plain TAGE needs 40 bits of history and
    // still misses warm-up; the loop predictor captures the trip count
    // exactly once confident.
    auto trace = loopPattern(80000, 40);
    TagePredictor tage(8 * 1024);
    TageScLPredictor scl(8 * 1024);
    double t = missRate(tage, trace);
    double l = missRate(scl, trace);
    EXPECT_LE(l, t + 0.01);
    EXPECT_LT(l, 0.2);
}

TEST(TageScL, NeverMuchWorseThanTageOnMixedStreams)
{
    auto trace = encoderLike(150000, 9);
    TagePredictor tage(64 * 1024);
    TageScLPredictor scl(64 * 1024);
    double t = missRate(tage, trace);
    double l = missRate(scl, trace);
    EXPECT_LT(l, t * 1.15 + 0.2)
        << "the corrector must not break the TAGE core";
}

TEST(TageScL, FactoryAndReset)
{
    auto p = makePredictor("tage-sc-l-64KB");
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), "tage-sc-l-64KB");
    auto trace = loopPattern(20000, 12);
    double first = runTrace(*p, trace, trace.size()).missRatePercent();
    p->reset();
    double second = runTrace(*p, trace, trace.size()).missRatePercent();
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Runner, CountsAndRates)
{
    GsharePredictor p(2 * 1024);
    auto trace = alwaysTaken(1000);
    RunResult r = runTrace(p, trace, 50000);
    EXPECT_EQ(r.branches, 1000u);
    EXPECT_EQ(r.instructions, 50000u);
    EXPECT_NEAR(r.mpki(), r.misses * 1000.0 / 50000.0, 1e-12);
    EXPECT_NEAR(r.missRatePercent(), r.misses * 100.0 / 1000.0, 1e-12);
    EXPECT_EQ(r.predictor, p.name());
}

TEST(Runner, EmptyTrace)
{
    GsharePredictor p(2 * 1024);
    RunResult r = runTrace(p, {}, 0);
    EXPECT_EQ(r.branches, 0u);
    EXPECT_DOUBLE_EQ(r.missRatePercent(), 0.0);
    EXPECT_DOUBLE_EQ(r.mpki(), 0.0);
}

/**
 * The paper's Fig. 8 ordering: bigger tables beat smaller tables within a
 * family, and TAGE beats Gshare at comparable budgets — on encoder-like
 * branch streams.
 */
class PredictorOrdering : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PredictorOrdering, PaperOrderingHolds)
{
    auto trace = encoderLike(250000, GetParam());
    auto g2 = makePredictor("gshare-2KB");
    auto g32 = makePredictor("gshare-32KB");
    auto t8 = makePredictor("tage-8KB");
    auto t64 = makePredictor("tage-64KB");
    double m_g2 = missRate(*g2, trace);
    double m_g32 = missRate(*g32, trace);
    double m_t8 = missRate(*t8, trace);
    double m_t64 = missRate(*t64, trace);

    EXPECT_LE(m_g32, m_g2 + 0.1) << "bigger gshare must not be worse";
    EXPECT_LE(m_t64, m_t8 + 0.1) << "bigger TAGE must not be worse";
    EXPECT_LT(m_t8, m_g2) << "TAGE-8KB must beat gshare-2KB";
    EXPECT_LT(m_t64, m_g32) << "TAGE-64KB must beat gshare-32KB";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorOrdering,
                         ::testing::Values(11u, 22u, 33u, 44u));

/** The streaming runner must score a branch stream exactly like the
 *  batch replay of the same records. */
TEST(StreamRunner, MatchesBatchReplay)
{
    auto trace = encoderLike(100000, 7u);

    auto batch_pred = makePredictor("tage-8KB");
    RunResult batch = runTrace(*batch_pred, trace, 1'000'000);

    auto stream_pred = makePredictor("tage-8KB");
    StreamRunner runner(*stream_pred);
    for (const BranchRecord &r : trace) {
        runner.onBranch(r);
    }
    runner.setInstructions(1'000'000);

    EXPECT_EQ(runner.result().predictor, batch.predictor);
    EXPECT_EQ(runner.result().branches, batch.branches);
    EXPECT_EQ(runner.result().misses, batch.misses);
    EXPECT_EQ(runner.result().instructions, batch.instructions);
    EXPECT_DOUBLE_EQ(runner.result().mpki(), batch.mpki());
}

} // namespace
} // namespace vepro::bpred
