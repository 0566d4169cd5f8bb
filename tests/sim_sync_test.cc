#include "sim/sync.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/task.h"

namespace memgoal::sim {
namespace {

Task<void> WaitForEvent(Simulator* simulator, Event* event,
                        std::vector<double>* wake_times) {
  co_await event->Wait();
  wake_times->push_back(simulator->Now());
}

Task<void> SetAfter(Simulator* simulator, Event* event, SimTime delay) {
  co_await simulator->Delay(delay);
  event->Set();
}

TEST(EventTest, BroadcastWakesAllWaiters) {
  Simulator simulator;
  Event event(&simulator);
  std::vector<double> wake_times;
  for (int i = 0; i < 3; ++i) {
    simulator.Spawn(WaitForEvent(&simulator, &event, &wake_times));
  }
  EXPECT_EQ(event.waiter_count(), 3u);
  simulator.Spawn(SetAfter(&simulator, &event, 25.0));
  simulator.Run();
  ASSERT_EQ(wake_times.size(), 3u);
  for (double t : wake_times) EXPECT_DOUBLE_EQ(t, 25.0);
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Simulator simulator;
  Event event(&simulator);
  event.Set();
  std::vector<double> wake_times;
  simulator.Spawn(WaitForEvent(&simulator, &event, &wake_times));
  // Completed synchronously during Spawn.
  ASSERT_EQ(wake_times.size(), 1u);
  EXPECT_DOUBLE_EQ(wake_times[0], 0.0);
}

TEST(EventTest, SetIsIdempotent) {
  Simulator simulator;
  Event event(&simulator);
  std::vector<double> wake_times;
  simulator.Spawn(WaitForEvent(&simulator, &event, &wake_times));
  event.Set();
  event.Set();
  simulator.Run();
  EXPECT_EQ(wake_times.size(), 1u);
  EXPECT_TRUE(event.is_set());
}

}  // namespace
}  // namespace memgoal::sim
