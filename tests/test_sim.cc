#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace autonet {
namespace {

// std::function train handlers, fired through the simulator's raw train
// API by one trampoline.  The handlers live as long as this object, which
// each test declares right after its simulator.
class Trains {
 public:
  using Handler = std::function<Simulator::TrainStep()>;

  explicit Trains(Simulator* sim) : sim_(sim) {}

  // `order` 0 fires like a plain event; see Simulator::Order.
  Simulator::EventId Schedule(Tick start, Handler handler,
                              Simulator::Order order = 0) {
    handlers_.push_back(std::make_unique<Handler>(std::move(handler)));
    return sim_->ScheduleTrainRawAt(
        start, order,
        [](void* ctx, std::uint64_t) {
          return (*static_cast<Handler*>(ctx))();
        },
        handlers_.back().get(), 0);
  }

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<Handler>> handlers_;
};

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(100, [&] { order.push_back(2); });
  sim.ScheduleAt(100, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto id = sim.ScheduleAt(50, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  auto id = sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, RunUntilAdvancesClockPastQuietPeriod) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(100, [&] { ++count; });
  sim.ScheduleAt(5000, [&] { ++count; });
  EXPECT_EQ(sim.RunUntil(1000), 1u);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.RunUntil(10000), 1u);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(10, chain);
    }
  };
  sim.ScheduleAfter(10, chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, PendingCountTracksLiveEvents) {
  Simulator sim;
  auto a = sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ScheduleAtPastClampsToNowAndCounts) {
  Simulator sim;
  sim.RunUntil(1000);
  auto* clamped = sim.metrics().GetCounter("sim.schedule_past_clamped");
  EXPECT_EQ(clamped->value(), 0u);
  Tick fired_at = 0;
  sim.ScheduleAt(200, [&] { fired_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired_at, 1000);  // clamped, not fired "in the past"
  EXPECT_EQ(clamped->value(), 1u);
}

TEST(Simulator, RunUntilCancelledHeadBeyondTargetDoesNotBlock) {
  // A cancelled entry may sit at the queue head with a timestamp beyond t;
  // RunUntil must discard it and still advance the clock to t.
  Simulator sim;
  auto id = sim.ScheduleAt(5000, [] {});
  sim.Cancel(id);
  EXPECT_EQ(sim.RunUntil(1000), 0u);
  EXPECT_EQ(sim.now(), 1000);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunUntilEmptyQueueAdvancesClock) {
  Simulator sim;
  EXPECT_EQ(sim.RunUntil(750), 0u);
  EXPECT_EQ(sim.now(), 750);
}

TEST(SimulatorTrain, UnboundedTrainEndsOnDone) {
  Simulator sim;
  Trains trains(&sim);
  int fires = 0;
  trains.Schedule(50, [&] {
    ++fires;
    return fires == 4 ? Simulator::TrainStep::Done()
                      : Simulator::TrainStep::At(sim.now() + 25);
  });
  sim.Run();
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(sim.now(), 50 + 3 * 25);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, ConversionIsTimingInvisible) {
  // A train and a self-rescheduling event chain interleaved with plain
  // events at the same ticks must fire in identical order: the train's
  // re-sift takes a fresh sequence exactly where the chain's re-schedule
  // would have.
  auto run_chain = [](std::vector<int>* order) {
    Simulator sim;
    std::function<void(std::uint32_t)> fire = [&](std::uint32_t k) {
      order->push_back(100 + static_cast<int>(k));
      if (k + 1 < 3) {
        Tick next = sim.now() + 10;
        sim.ScheduleAt(next, [&fire, k] { fire(k + 1); });
      }
    };
    sim.ScheduleAt(10, [&fire] { fire(0); });
    sim.ScheduleAt(20, [&] { order->push_back(1); });  // ties with firing 1
    sim.ScheduleAt(30, [&] { order->push_back(2); });  // ties with firing 2
    sim.Run();
  };
  auto run_train = [](std::vector<int>* order) {
    Simulator sim;
    Trains trains(&sim);
    std::uint32_t k = 0;
    trains.Schedule(10, [&] {
      order->push_back(100 + static_cast<int>(k));
      return ++k < 3 ? Simulator::TrainStep::At(sim.now() + 10)
                     : Simulator::TrainStep::Done();
    });
    sim.ScheduleAt(20, [&] { order->push_back(1); });
    sim.ScheduleAt(30, [&] { order->push_back(2); });
    sim.Run();
  };
  std::vector<int> chain_order;
  std::vector<int> train_order;
  run_chain(&chain_order);
  run_train(&train_order);
  EXPECT_EQ(train_order, chain_order);
}

TEST(SimulatorTrain, OrderRanksSimultaneousEntries) {
  // At one tick: plain events scheduled earlier, then arrivals (by transmit
  // tick, then channel), then pumps (by owner), then events scheduled for
  // that tick while it runs — whatever order they were scheduled in.
  Simulator sim;
  Trains trains(&sim);
  std::vector<int> order;
  auto once = [&](int tag) {
    return [&order, tag] {
      order.push_back(tag);
      return Simulator::TrainStep::Done();
    };
  };
  trains.Schedule(100, once(5), Simulator::PumpOrder(2));
  trains.Schedule(100, once(4), Simulator::PumpOrder(1));
  trains.Schedule(100, once(3), Simulator::ArrivalOrder(50, 0));
  trains.Schedule(100, once(2), Simulator::ArrivalOrder(90, 7));
  sim.ScheduleAt(100, [&] {
    order.push_back(1);
    sim.ScheduleAt(100, [&] { order.push_back(6); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(SimulatorTrain, OrderAtOrBeforeTheDispatchPositionRunsNow) {
  // A pump anchoring an arrival on its own tick (a zero-length cable) puts
  // it behind itself, with the events scheduled for that tick.
  Simulator sim;
  Trains trains(&sim);
  std::vector<int> order;
  trains.Schedule(
      100,
      [&] {
        order.push_back(1);
        sim.ScheduleAt(100, [&] { order.push_back(2); });
        trains.Schedule(
            100,
            [&] {
              order.push_back(3);
              return Simulator::TrainStep::Done();
            },
            Simulator::ArrivalOrder(0, 0));
        return Simulator::TrainStep::Done();
      },
      Simulator::PumpOrder(0));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(sim.Passed(100, Simulator::kRankNow));
}

TEST(SimulatorTrain, CancelStopsRemainingFirings) {
  Simulator sim;
  Trains trains(&sim);
  int fires = 0;
  auto id = trains.Schedule(100, [&] {
    ++fires;
    return Simulator::TrainStep::At(sim.now() + 10);
  });
  sim.RunUntil(120);  // firings at 100, 110, 120
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, HandlerMayCancelOwnTrain) {
  Simulator sim;
  Trains trains(&sim);
  Simulator::EventId id{};
  int fires = 0;
  id = trains.Schedule(100, [&] {
    if (++fires == 3) {
      EXPECT_TRUE(sim.Cancel(id));
    }
    return Simulator::TrainStep::At(sim.now() + 10);
  });
  sim.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, RawTrainFires) {
  struct Ctx {
    Simulator* sim;
    std::vector<std::pair<std::uint64_t, Tick>> fires;
  };
  Simulator sim;
  Ctx ctx{&sim, {}};
  sim.ScheduleTrainRawAt(
      200, 0,
      [](void* self, std::uint64_t arg) {
        Ctx* c = static_cast<Ctx*>(self);
        c->fires.push_back({arg, c->sim->now()});
        return c->fires.size() < 3
                   ? Simulator::TrainStep::At(c->sim->now() + 5)
                   : Simulator::TrainStep::Done();
      },
      &ctx, 77);
  sim.Run();
  ASSERT_EQ(ctx.fires.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(ctx.fires[k].first, 77u);
    EXPECT_EQ(ctx.fires[k].second, static_cast<Tick>(200 + 5 * k));
  }
  EXPECT_EQ(sim.now(), 210);
}

// A cancelled train's slot is free at once, so whatever is scheduled next
// may take it over; the train's queue entry, if any, must then stay dead.
TEST(SimulatorTrain, HandlerCancelsOwnTrainThenSchedulesIntoItsSlot) {
  Simulator sim;
  Trains trains(&sim);
  int train_fires = 0;
  std::vector<Tick> event_fires;
  Simulator::EventId id;
  id = trains.Schedule(100, [&] {
    ++train_fires;
    EXPECT_TRUE(sim.Cancel(id));
    sim.ScheduleAt(sim.now() + 10, [&] { event_fires.push_back(sim.now()); });
    return Simulator::TrainStep::At(sim.now() + 5);
  });
  sim.Run();
  EXPECT_EQ(train_fires, 1);
  EXPECT_EQ(event_fires, (std::vector<Tick>{110}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, StaleEntryOfCancelledTrainFiresNothing) {
  Simulator sim;
  Trains trains(&sim);
  std::vector<Tick> train_fires;
  std::vector<Tick> event_fires;
  auto id = trains.Schedule(200, [&] {
    train_fires.push_back(sim.now());
    return Simulator::TrainStep::Done();
  });
  sim.ScheduleAt(150, [&] {
    EXPECT_TRUE(sim.Cancel(id));
    sim.ScheduleAt(300, [&] { event_fires.push_back(sim.now()); });
  });
  EXPECT_EQ(sim.RunUntil(250), 1u);  // the train's entry at 200 is stale
  EXPECT_TRUE(train_fires.empty());
  EXPECT_TRUE(event_fires.empty());
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_TRUE(train_fires.empty());
  EXPECT_EQ(event_fires, (std::vector<Tick>{300}));
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, OldIdOfCancelledTrainMissesTheNewOccupant) {
  Simulator sim;
  Trains trains(&sim);
  auto id = trains.Schedule(10, [] { return Simulator::TrainStep::Done(); });
  EXPECT_TRUE(sim.Cancel(id));
  // The new occupant takes the freed slot and is queued there.
  std::vector<Tick> fires;
  auto next = trains.Schedule(20, [&] {
    fires.push_back(sim.now());
    return Simulator::TrainStep::Done();
  });
  ASSERT_EQ(next.slot, id.slot);
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{20}));
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTrain, ReanchorInPastClampsToNow) {
  Simulator sim;
  Trains trains(&sim);
  std::vector<Tick> fires;
  trains.Schedule(100, [&] {
    fires.push_back(sim.now());
    return fires.size() == 1 ? Simulator::TrainStep::At(50)  // in the past
                             : Simulator::TrainStep::Done();
  });
  auto* clamped = sim.metrics().GetCounter("sim.schedule_past_clamped");
  std::uint64_t before = clamped->value();
  sim.Run();
  EXPECT_EQ(fires, (std::vector<Tick>{100, 100}));
  EXPECT_EQ(clamped->value(), before + 1);
}

// A slot is held exactly while its entry is queued or its train fires: a
// train counts inside its own handler, a plain event does not count inside
// its callback, and a train that returned Done() no longer counts.
TEST(SimulatorTrain, PendingCountsQueuedAndFiringOnly) {
  Simulator sim;
  Trains trains(&sim);
  std::vector<std::size_t> in_train;
  std::size_t in_event = 99;
  trains.Schedule(100, [&] {
    in_train.push_back(sim.pending());
    return in_train.size() == 1 ? Simulator::TrainStep::At(200)
                                : Simulator::TrainStep::Done();
  });
  sim.ScheduleAt(150, [&] { in_event = sim.pending(); });
  EXPECT_EQ(sim.pending(), 2u);
  sim.Run();
  EXPECT_EQ(in_train, (std::vector<std::size_t>{2, 1}));  // itself counts
  EXPECT_EQ(in_event, 1u);  // only the train, not the firing event
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, InterleavedCancelAndDispatchAtSameTick) {
  // Events and a train all at one timestamp, with handlers cancelling
  // not-yet-fired entries at that same tick.  Exercises the stale-entry
  // drain in Step/RunUntil against live dispatches; run under ASan/UBSan in
  // CI this also checks the freed-slot recycling.
  Simulator sim;
  Trains trains(&sim);
  std::vector<int> order;
  std::vector<Simulator::EventId> ids;
  Simulator::EventId train_id{};
  ids.push_back(sim.ScheduleAt(100, [&] {
    order.push_back(0);
    sim.Cancel(ids[2]);      // plain event later at this tick
    sim.Cancel(train_id);    // train later at this tick
  }));
  ids.push_back(sim.ScheduleAt(100, [&] { order.push_back(1); }));
  ids.push_back(sim.ScheduleAt(100, [&] { order.push_back(2); }));
  train_id = trains.Schedule(100, [&] {
    order.push_back(3);
    return Simulator::TrainStep::At(sim.now() + 10);
  });
  ids.push_back(sim.ScheduleAt(100, [&] {
    order.push_back(4);
    // Re-use the freed slots at the same tick from inside a handler.
    sim.ScheduleAt(100, [&] { order.push_back(5); });
  }));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 5}));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ClampedEventRunsAfterSameTickEarlierSeq) {
  // An event clamped out of the past lands at (now, fresh seq): it must
  // fire after events already queued at `now` with earlier seqs, not jump
  // the same-tick line.
  Simulator sim;
  std::vector<int> order;
  sim.RunUntil(1000);
  sim.ScheduleAt(1000, [&] { order.push_back(1); });
  sim.ScheduleAt(1000, [&] { order.push_back(2); });
  auto* clamped = sim.metrics().GetCounter("sim.schedule_past_clamped");
  std::uint64_t before = clamped->value();
  sim.ScheduleAt(400, [&] { order.push_back(3); });  // clamped to 1000
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clamped->value(), before + 1);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTieChooser, ChoiceZeroMatchesBaseline) {
  // A chooser that always takes branch 0 reproduces the default
  // (when, seq) order exactly.
  auto run = [](bool with_chooser) {
    Simulator sim;
    std::vector<int> order;
    if (with_chooser) {
      sim.SetTieChooser([](Tick, std::uint32_t) { return 0u; });
    }
    for (int i = 0; i < 4; ++i) {
      sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
      sim.ScheduleAt(200, [&order, i] { order.push_back(10 + i); });
    }
    sim.ScheduleAt(150, [&order] { order.push_back(99); });
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SimulatorTieChooser, ConsultedOnlyForRealTies) {
  Simulator sim;
  int calls = 0;
  sim.SetTieChooser([&](Tick, std::uint32_t n) {
    ++calls;
    EXPECT_GE(n, 2u);
    return 0u;
  });
  sim.ScheduleAt(100, [] {});
  sim.ScheduleAt(200, [] {});
  sim.Run();
  EXPECT_EQ(calls, 0);
}

TEST(SimulatorTieChooser, PermutesSameTickOrderDeterministically) {
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    sim.SetTieChooser([](Tick, std::uint32_t n) { return n - 1; });
    for (int i = 0; i < 3; ++i) {
      sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  std::vector<int> first = run();
  EXPECT_EQ(first, (std::vector<int>{2, 1, 0}));  // always the last branch
  EXPECT_EQ(first, run());                        // and reproducibly so
}

TEST(SimulatorTieChooser, NewSameTickEventsJoinTheTiePool) {
  // An event scheduled *during* a same-tick dispatch becomes part of the
  // remaining tie pool, so the chooser can order it before older peers.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] { order.push_back(0); });
  sim.ScheduleAt(100, [&] {
    order.push_back(1);
    sim.ScheduleAt(100, [&] { order.push_back(9); });
  });
  int call = 0;
  sim.SetTieChooser([&](Tick, std::uint32_t n) {
    // First tie: pick the second event (which spawns the third); second
    // tie: pick the freshly spawned one ahead of event 0.
    ++call;
    return n - 1;
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 9, 0}));
  EXPECT_EQ(call, 2);
}

TEST(SimulatorTieChooser, CancelledBatchMembersAreSkipped) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::EventId> ids;
  ids.push_back(sim.ScheduleAt(100, [&] {
    order.push_back(0);
    sim.Cancel(ids[2]);  // cancel a later member of the current tie pool
  }));
  ids.push_back(sim.ScheduleAt(100, [&] { order.push_back(1); }));
  ids.push_back(sim.ScheduleAt(100, [&] { order.push_back(2); }));
  sim.SetTieChooser([](Tick, std::uint32_t) { return 0u; });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTieChooser, UninstallMidTickFallsBackToSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] {
    order.push_back(0);
    sim.SetTieChooser(nullptr);  // batch flushes back to the queue
  });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(100, [&] { order.push_back(2); });
  sim.SetTieChooser([](Tick, std::uint32_t) { return 0u; });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTieChooser, TrainFiringsJoinTheTiePool) {
  Simulator sim;
  Trains trains(&sim);
  std::vector<int> order;
  sim.ScheduleAt(100, [&] { order.push_back(0); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  int k = 0;
  trains.Schedule(100, [&] {
    order.push_back(100 + k);
    return ++k < 2 ? Simulator::TrainStep::At(sim.now() + 10)
                   : Simulator::TrainStep::Done();
  });
  sim.SetTieChooser([](Tick, std::uint32_t n) { return n - 1; });
  sim.Run();
  // At t=100 the pool is {0, 1, train}; picking the highest seq fires the
  // train first, then 1, then 0; the train's second firing at t=110 is a
  // lone event.
  EXPECT_EQ(order, (std::vector<int>{100, 1, 0, 101}));
}

// A pump train cancelled while queued, whose slot a new train takes over and
// re-queues at the same (when, order): the old entry is a twin of the new
// one and must not count as a second tie member.
TEST(SimulatorTieChooser, CancelledTrainsTwinIsNotATieMember) {
  Simulator sim;
  Trains trains(&sim);
  const Simulator::Order pump = Simulator::PumpOrder(7);
  auto first = trains.Schedule(
      200, [] { return Simulator::TrainStep::Done(); }, pump);
  std::vector<int> order;
  sim.ScheduleAt(100, [&] {
    EXPECT_TRUE(sim.Cancel(first));
    int k = 0;
    trains.Schedule(150, [&, k]() mutable {
      order.push_back(100 + k);
      return k++ == 0 ? Simulator::TrainStep::At(200, pump)
                      : Simulator::TrainStep::Done();
    });
  });
  // Live between the new train's start and its re-queue, so the dispatch
  // loop does not look past it while the old entry is still stale.
  sim.ScheduleAt(175, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(0); });
  std::vector<std::pair<Tick, std::uint32_t>> choices;
  sim.SetTieChooser([&](Tick now, std::uint32_t n) {
    choices.push_back({now, n});
    return 0u;
  });
  sim.Run();
  EXPECT_EQ(choices,
            (std::vector<std::pair<Tick, std::uint32_t>>{{200, 2}}));
  // Choice 0 at 200 is the plain event: it ranks before a pump.
  EXPECT_EQ(order, (std::vector<int>{100, 1, 0, 101}));
  EXPECT_TRUE(sim.empty());
}

TEST(Timer, RestartSupersedesPreviousArm) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Start(100);
  t.Start(500);  // re-arm: only the later expiry fires
  sim.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Timer, StopPreventsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(&sim, [&] { ++fires; });
  t.Start(100);
  t.Stop();
  sim.Run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRestartFromOwnCallback) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(&sim, [&] {
    if (++fires < 3) {
      tp->Start(100);
    }
  });
  tp = &t;
  t.Start(100);
  sim.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now(), 300);
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim;
  std::vector<Tick> times;
  PeriodicTask task(&sim, [&] { times.push_back(sim.now()); });
  task.Start(250);
  sim.RunUntil(1000);
  task.Stop();
  sim.Run();
  EXPECT_EQ(times, (std::vector<Tick>{250, 500, 750, 1000}));
}

TEST(PeriodicTask, InitialDelayOverride) {
  Simulator sim;
  std::vector<Tick> times;
  PeriodicTask task(&sim, [&] { times.push_back(sim.now()); });
  task.Start(1000, 10);
  sim.RunUntil(2100);
  task.Stop();
  ASSERT_GE(times.size(), 2u);
  EXPECT_EQ(times[0], 10);
  EXPECT_EQ(times[1], 1010);
}

TEST(PeriodicTask, CallbackMayStopTask) {
  Simulator sim;
  int fires = 0;
  PeriodicTask* tp = nullptr;
  PeriodicTask task(&sim, [&] {
    if (++fires == 2) {
      tp->Stop();
    }
  });
  tp = &task;
  task.Start(100);
  sim.Run();
  EXPECT_EQ(fires, 2);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

}  // namespace
}  // namespace autonet
