/**
 * @file
 * Unit tests for the discrete-event multicore scheduler and task graphs.
 */

#include <gtest/gtest.h>

#include "sched/scheduler.hpp"
#include "sched/taskgraph.hpp"

namespace vepro::sched
{
namespace
{

Task
task(uint64_t weight, std::vector<int> deps = {})
{
    Task t;
    t.weight = weight;
    t.deps = std::move(deps);
    return t;
}

TEST(TaskGraph, AssignsSequentialIds)
{
    TaskGraph g;
    EXPECT_EQ(g.addTask(task(1)), 0);
    EXPECT_EQ(g.addTask(task(1)), 1);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_FALSE(g.empty());
}

TEST(TaskGraph, RejectsForwardDependencies)
{
    TaskGraph g;
    g.addTask(task(1));
    EXPECT_THROW(g.addTask(task(1, {5})), std::invalid_argument);
    EXPECT_THROW(g.addTask(task(1, {-1})), std::invalid_argument);
    EXPECT_THROW(g.addTask(task(1, {1})), std::invalid_argument)
        << "self-dependency";
}

TEST(TaskGraph, TotalWeight)
{
    TaskGraph g;
    g.addTask(task(10));
    g.addTask(task(20));
    g.addTask(task(30, {0, 1}));
    EXPECT_EQ(g.totalWeight(), 60u);
}

TEST(TaskGraph, CriticalPathChain)
{
    TaskGraph g;
    int a = g.addTask(task(10));
    int b = g.addTask(task(20, {a}));
    g.addTask(task(30, {b}));
    EXPECT_EQ(g.criticalPath(), 60u);
}

TEST(TaskGraph, CriticalPathDiamond)
{
    TaskGraph g;
    int a = g.addTask(task(10));
    int b = g.addTask(task(100, {a}));
    int c = g.addTask(task(5, {a}));
    g.addTask(task(10, {b, c}));
    EXPECT_EQ(g.criticalPath(), 120u);
}

TEST(TaskGraph, EmptyGraph)
{
    TaskGraph g;
    EXPECT_EQ(g.totalWeight(), 0u);
    EXPECT_EQ(g.criticalPath(), 0u);
}

TEST(Schedule, SingleTask)
{
    TaskGraph g;
    g.addTask(task(42));
    ScheduleResult r = schedule(g, 4);
    EXPECT_EQ(r.makespan, 42u);
    EXPECT_EQ(r.placements[0].start, 0u);
    EXPECT_EQ(r.placements[0].end, 42u);
}

TEST(Schedule, IndependentTasksSpreadAcrossCores)
{
    TaskGraph g;
    for (int i = 0; i < 8; ++i) {
        g.addTask(task(10));
    }
    EXPECT_EQ(schedule(g, 1).makespan, 80u);
    EXPECT_EQ(schedule(g, 2).makespan, 40u);
    EXPECT_EQ(schedule(g, 8).makespan, 10u);
    EXPECT_DOUBLE_EQ(schedule(g, 8).occupancy, 1.0);
}

TEST(Schedule, ChainCannotParallelise)
{
    TaskGraph g;
    int prev = g.addTask(task(10));
    for (int i = 0; i < 9; ++i) {
        prev = g.addTask(task(10, {prev}));
    }
    EXPECT_EQ(schedule(g, 8).makespan, 100u);
}

TEST(Schedule, RespectsDependencies)
{
    TaskGraph g;
    int a = g.addTask(task(10));
    int b = g.addTask(task(10, {a}));
    ScheduleResult r = schedule(g, 2);
    EXPECT_GE(r.placements[static_cast<size_t>(b)].start,
              r.placements[static_cast<size_t>(a)].end);
}

TEST(Schedule, WorkConservingWithMixedReadiness)
{
    // One long task plus many short ones: the short ones must fill the
    // other core while the long one runs.
    TaskGraph g;
    g.addTask(task(100));
    for (int i = 0; i < 10; ++i) {
        g.addTask(task(10));
    }
    ScheduleResult r = schedule(g, 2);
    EXPECT_EQ(r.makespan, 100u);
}

TEST(Schedule, SpeedupHelper)
{
    TaskGraph g;
    for (int i = 0; i < 4; ++i) {
        g.addTask(task(25));
    }
    ScheduleResult r = schedule(g, 4);
    EXPECT_DOUBLE_EQ(r.speedupVs(100), 4.0);
}

TEST(Schedule, DeterministicPlacement)
{
    TaskGraph g;
    for (int i = 0; i < 20; ++i) {
        g.addTask(task(5 + i % 3, i > 2 ? std::vector<int>{i - 3}
                                        : std::vector<int>{}));
    }
    ScheduleResult a = schedule(g, 3);
    ScheduleResult b = schedule(g, 3);
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].core, b.placements[i].core);
        EXPECT_EQ(a.placements[i].start, b.placements[i].start);
    }
}

TEST(Schedule, RejectsZeroCores)
{
    TaskGraph g;
    g.addTask(task(1));
    EXPECT_THROW(schedule(g, 0), std::invalid_argument);
}

TEST(Schedule, EmptyGraphIsTrivial)
{
    TaskGraph g;
    ScheduleResult r = schedule(g, 4);
    EXPECT_EQ(r.makespan, 0u);
    EXPECT_TRUE(r.placements.empty());
}

TEST(Schedule, OccupancyReflectsIdleCores)
{
    // A serial chain on 4 cores: 3 cores idle throughout.
    TaskGraph g;
    int prev = g.addTask(task(10));
    for (int i = 0; i < 3; ++i) {
        prev = g.addTask(task(10, {prev}));
    }
    ScheduleResult r = schedule(g, 4);
    EXPECT_NEAR(r.occupancy, 0.25, 1e-9);
}

TEST(Schedule, ManyCoresBoundedByCriticalPath)
{
    TaskGraph g;
    // Two parallel chains of 5 tasks each.
    int p1 = g.addTask(task(10));
    int p2 = g.addTask(task(10));
    for (int i = 0; i < 4; ++i) {
        p1 = g.addTask(task(10, {p1}));
        p2 = g.addTask(task(10, {p2}));
    }
    ScheduleResult r = schedule(g, 16);
    EXPECT_EQ(r.makespan, g.criticalPath());
    EXPECT_EQ(r.makespan, 50u);
}

} // namespace
} // namespace vepro::sched
