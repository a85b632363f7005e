// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/verb.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace mage::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// A reserved number orders its event as if it had been scheduled at
// reservation time: after same-instant events scheduled before the
// reservation, before those scheduled after it.  Its tie is 0, so it also
// runs before a same-instant event with a higher tie (a delivery).
TEST(EventQueue, ReservedEventsFireWhereTheyWereReserved) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  const std::uint64_t seq = q.reserve_seq();
  q.schedule(5, [&] { order.push_back(3); });
  q.schedule(5, [&] { order.push_back(4); }, /*tie=*/1);
  q.schedule(4, [&] { order.push_back(0); });
  q.schedule_reserved(5, seq, [&] { order.push_back(2); });
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReportsTime) {
  EventQueue q;
  q.schedule(42, [] {});
  common::SimTime at = 0;
  (void)q.pop(at);
  EXPECT_EQ(at, 42);
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  sim.schedule_at(100, [] {});
  sim.run_until_idle();
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  common::SimTime fired_at = -1;
  sim.schedule_at(50, [&sim, &fired_at] {
    sim.schedule_after(25, [&sim, &fired_at] { fired_at = sim.now(); });
  });
  sim.run_until_idle();
  EXPECT_EQ(fired_at, 75);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.schedule_at(10, [] {});
  sim.run_until_idle();
  bool fired = false;
  sim.schedule_after(-5, [&fired] { fired = true; });
  sim.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilPredicate) {
  Simulation sim;
  int counter = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i * 10, [&counter] { ++counter; });
  }
  EXPECT_TRUE(sim.run_until([&counter] { return counter == 4; }));
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(sim.now(), 40);
}

// run_until checks its predicate after every event, so it returns at the
// event that satisfied it even when nothing marks that event — here a
// network delivery whose raw handler flips the flag — and a later event is
// still queued.
TEST(Simulation, RunUntilStopsAtTheEventThatSatisfiesIt) {
  Simulation sim;
  net::CostModel model = net::CostModel::zero();
  model.propagation_us = 200;
  net::Network network(sim, model);
  const auto a = network.add_node("a");
  const auto b = network.add_node("b");
  bool delivered = false;
  network.set_handler(a, [](net::Message) {});
  network.set_handler(b, [&delivered](net::Message) { delivered = true; });
  bool later_ran = false;
  sim.schedule_at(10'000, [&later_ran] { later_ran = true; });
  net::Message probe;
  probe.from = a;
  probe.to = b;
  probe.verb = common::intern_verb("probe");
  network.send(std::move(probe));

  EXPECT_TRUE(sim.run_until([&delivered] { return delivered; }));
  EXPECT_EQ(sim.now(), 200);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(sim.next_event_time(), 10'000);
}

TEST(Simulation, RunUntilReturnsFalseWhenDrained) {
  Simulation sim;
  sim.schedule_at(5, [] {});
  EXPECT_FALSE(sim.run_until([] { return false; }));
}

TEST(Simulation, RunUntilRespectsDeadline) {
  Simulation sim;
  int counter = 0;
  sim.schedule_at(10, [&counter] { ++counter; });
  sim.schedule_at(1000, [&counter] { ++counter; });
  EXPECT_FALSE(sim.run_until([&counter] { return counter == 2; }, 100));
  EXPECT_EQ(counter, 1);
}

TEST(Simulation, RunForAdvancesExactly) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(30, [&fired] { ++fired; });
  sim.schedule_at(80, [&fired] { ++fired; });
  sim.run_for(50);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(fired, 1);
  sim.run_for(50);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunForRejectsANegativeSpan) {
  Simulation sim;
  sim.schedule_at(100, [] {});
  sim.run_until_idle();
  try {
    sim.run_for(-30);
    FAIL() << "run_for(-30) ran the clock backwards";
  } catch (const common::MageError& e) {
    EXPECT_STREQ(e.what(),
                 "cannot run for a negative span: -30us at now 100us");
  }
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_at(15, [&] { order.push_back(2); });
  });
  sim.schedule_at(20, [&] { order.push_back(3); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, StatsAreAttached) {
  Simulation sim;
  sim.stats().add("k", 3);
  EXPECT_EQ(sim.stats().counter("k"), 3);
}

// Stress: many interleaved events with identical timestamps keep FIFO order.
TEST(Simulation, ManySameTimeEventsStableOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunWindowStopsStrictlyBeforeBound) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.run_window(30);  // [_, 30): the event AT the bound must wait
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.next_event_time(), 30);
  sim.run_window(31);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.next_event_time(), Simulation::kNoDeadline);
}

}  // namespace
}  // namespace mage::sim
