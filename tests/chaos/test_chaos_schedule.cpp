#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "net/world.hpp"
#include "obs/chaos_export.hpp"
#include "obs/metrics.hpp"

namespace riot::sim::chaos {
namespace {

ChaosProfile test_profile() {
  ChaosProfile p;
  p.node_count = 5;
  p.warmup = seconds(2);
  p.horizon = seconds(20);
  p.cooldown = seconds(5);
  p.min_actions = 3;
  p.max_actions = 8;
  return p;
}

// --- Generator --------------------------------------------------------------

TEST(ChaosGenerate, SameSeedSameSchedule) {
  const ChaosProfile profile = test_profile();
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const ChaosSchedule a = generate_schedule(seed, profile);
    const ChaosSchedule b = generate_schedule(seed, profile);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(schedule_to_json(a), schedule_to_json(b));
  }
}

TEST(ChaosGenerate, DifferentSeedsDiverge) {
  const ChaosProfile profile = test_profile();
  const ChaosSchedule a = generate_schedule(7, profile);
  const ChaosSchedule b = generate_schedule(8, profile);
  EXPECT_NE(a, b);
}

TEST(ChaosGenerate, RespectsEnvelope) {
  const ChaosProfile profile = test_profile();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    EXPECT_EQ(s.seed, seed);
    EXPECT_EQ(s.node_count, profile.node_count);
    EXPECT_LE(s.actions.size(), profile.max_actions);
    SimTime prev = kSimTimeZero;
    for (const ChaosAction& a : s.actions) {
      EXPECT_GE(a.at, profile.warmup);
      EXPECT_LT(a.at, profile.horizon);
      EXPECT_GT(a.duration, kSimTimeZero);
      EXPECT_LE(a.at + a.duration, profile.horizon)
          << "window must revert by the horizon";
      EXPECT_GE(a.at, prev) << "actions sorted by start time";
      prev = a.at;
      for (const std::uint32_t t : a.targets) {
        EXPECT_LT(t, profile.node_count);
      }
      switch (a.kind) {
        case ActionKind::kLoss:
          EXPECT_GT(a.magnitude, 0.0);
          EXPECT_LE(a.magnitude, profile.max_loss);
          break;
        case ActionKind::kDelay:
          EXPECT_GE(a.magnitude, profile.min_delay_factor);
          EXPECT_LE(a.magnitude, profile.max_delay_factor);
          break;
        case ActionKind::kDuplicate:
          EXPECT_GT(a.magnitude, 0.0);
          EXPECT_LE(a.magnitude, profile.max_duplicate);
          break;
        case ActionKind::kClockSkew:
          EXPECT_GT(a.magnitude, 0.0);
          EXPECT_LE(a.magnitude, profile.max_skew_seconds);
          break;
        default:
          break;
      }
    }
  }
}

TEST(ChaosGenerate, SameFamilyWindowsNeverOverlap) {
  const ChaosProfile profile = test_profile();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    // Per-node crash/isolate windows must be disjoint.
    std::map<std::uint32_t, std::vector<std::pair<SimTime, SimTime>>> down;
    std::vector<std::pair<SimTime, SimTime>> topology;
    for (const ChaosAction& a : s.actions) {
      const auto window = std::make_pair(a.at, a.at + a.duration);
      if (a.kind == ActionKind::kCrash || a.kind == ActionKind::kIsolate) {
        down[a.targets[0]].push_back(window);
      }
      if (a.kind == ActionKind::kPartition ||
          a.kind == ActionKind::kIsolate) {
        topology.push_back(window);
      }
    }
    auto disjoint = [](std::vector<std::pair<SimTime, SimTime>> windows) {
      std::sort(windows.begin(), windows.end());
      for (std::size_t i = 1; i < windows.size(); ++i) {
        if (windows[i].first < windows[i - 1].second) return false;
      }
      return true;
    };
    for (const auto& [node, windows] : down) {
      EXPECT_TRUE(disjoint(windows)) << "seed " << seed << " node " << node;
    }
    EXPECT_TRUE(disjoint(topology)) << "seed " << seed;
  }
}

TEST(ChaosGenerate, HonorsConcurrentDownCap) {
  ChaosProfile profile = test_profile();
  profile.max_actions = 16;
  profile.max_concurrent_down = 2;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    // Sweep every window boundary and count down nodes.
    for (const ChaosAction& probe : s.actions) {
      std::vector<std::uint32_t> down_nodes;
      for (const ChaosAction& a : s.actions) {
        if (a.kind != ActionKind::kCrash && a.kind != ActionKind::kIsolate) {
          continue;
        }
        if (a.at <= probe.at && probe.at < a.at + a.duration &&
            std::find(down_nodes.begin(), down_nodes.end(), a.targets[0]) ==
                down_nodes.end()) {
          down_nodes.push_back(a.targets[0]);
        }
      }
      EXPECT_LE(down_nodes.size(), profile.max_concurrent_down)
          << "seed " << seed;
    }
  }
}

TEST(ChaosGenerate, DisabledKindsNeverAppear) {
  ChaosProfile profile = test_profile();
  profile.crash_weight = 0.0;
  profile.partition_weight = 0.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const ChaosAction& a : generate_schedule(seed, profile).actions) {
      EXPECT_NE(a.kind, ActionKind::kCrash);
      EXPECT_NE(a.kind, ActionKind::kPartition);
    }
  }
}

TEST(ChaosGenerate, ByzantineKindsOffByDefault) {
  // Adversary weights default to zero, so pre-existing profiles (and their
  // pinned seeds) generate bit-identical schedules with no Byzantine kinds.
  const ChaosProfile profile = test_profile();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const ChaosAction& a : generate_schedule(seed, profile).actions) {
      EXPECT_NE(a.kind, ActionKind::kFalsify);
      EXPECT_NE(a.kind, ActionKind::kSelectiveDrop);
      EXPECT_NE(a.kind, ActionKind::kDelayInflate);
      EXPECT_NE(a.kind, ActionKind::kFlipFlop);
    }
  }
}

TEST(ChaosGenerate, ByzantineKindsRespectTheAdversaryEnvelope) {
  ChaosProfile profile = test_profile();
  profile.max_actions = 16;
  profile.falsify_weight = 3.0;
  profile.selective_drop_weight = 3.0;
  profile.delay_inflate_weight = 3.0;
  profile.flip_flop_weight = 3.0;
  bool saw_adversary = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    // Per-node adversary windows must be disjoint (one personality at a
    // time, like crash/isolate).
    std::map<std::uint32_t, std::vector<std::pair<SimTime, SimTime>>> windows;
    for (const ChaosAction& a : s.actions) {
      switch (a.kind) {
        case ActionKind::kFalsify:
        case ActionKind::kSelectiveDrop:
        case ActionKind::kFlipFlop:
          saw_adversary = true;
          ASSERT_EQ(a.targets.size(), 1u);
          EXPECT_GE(a.magnitude, 0.25) << "too soft to observe";
          EXPECT_LE(a.magnitude, profile.max_adversary_prob);
          windows[a.targets[0]].emplace_back(a.at, a.at + a.duration);
          break;
        case ActionKind::kDelayInflate:
          saw_adversary = true;
          ASSERT_EQ(a.targets.size(), 1u);
          EXPECT_GE(a.magnitude, profile.min_delay_factor);
          EXPECT_LE(a.magnitude, profile.max_delay_factor);
          windows[a.targets[0]].emplace_back(a.at, a.at + a.duration);
          break;
        default:
          break;
      }
    }
    for (auto& [node, spans] : windows) {
      std::sort(spans.begin(), spans.end());
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].first, spans[i - 1].second)
            << "seed " << seed << " node " << node;
      }
    }
  }
  EXPECT_TRUE(saw_adversary);
}

TEST(ChaosJson, ByzantineSchedulesRoundTripExactly) {
  ChaosProfile profile = test_profile();
  profile.falsify_weight = 4.0;
  profile.selective_drop_weight = 4.0;
  profile.delay_inflate_weight = 4.0;
  profile.flip_flop_weight = 4.0;
  std::size_t byzantine_actions = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    for (const ChaosAction& a : s.actions) {
      if (a.kind == ActionKind::kFalsify ||
          a.kind == ActionKind::kSelectiveDrop ||
          a.kind == ActionKind::kDelayInflate ||
          a.kind == ActionKind::kFlipFlop) {
        ++byzantine_actions;
      }
    }
    const std::string json = schedule_to_json(s);
    std::string error;
    const auto parsed = schedule_from_json(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, s) << json;
    EXPECT_EQ(schedule_to_json(*parsed), json);
  }
  EXPECT_GT(byzantine_actions, 0u)
      << "the round-trip must actually cover the new kinds";
}

TEST(ChaosGenerate, EmptyEnvelopeYieldsEmptySchedule) {
  ChaosProfile profile = test_profile();
  profile.horizon = profile.warmup;  // no room for any window
  EXPECT_TRUE(generate_schedule(3, profile).actions.empty());
}

// --- Serialization ----------------------------------------------------------

TEST(ChaosJson, RoundTripsExactly) {
  const ChaosProfile profile = test_profile();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ChaosSchedule s = generate_schedule(seed, profile);
    const std::string json = schedule_to_json(s);
    std::string error;
    const auto parsed = schedule_from_json(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, s) << json;
    EXPECT_EQ(schedule_to_json(*parsed), json) << "re-emit must be stable";
  }
}

TEST(ChaosJson, SkipsUnknownKeys) {
  const std::string json =
      R"({"format":"riot-chaos-v1","seed":9,"node_count":3,"horizon_ns":5000000000,)"
      R"("violations":[{"invariant":"x","message":"boom"}],)"
      R"("actions":[{"kind":"crash","at_ns":1000000000,"duration_ns":2000000000,)"
      R"("targets":[1],"magnitude":0,"note":"extra"}],"trace_tail":[]})";
  const auto parsed = schedule_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 9u);
  EXPECT_EQ(parsed->node_count, 3u);
  ASSERT_EQ(parsed->actions.size(), 1u);
  EXPECT_EQ(parsed->actions[0].kind, ActionKind::kCrash);
  EXPECT_EQ(parsed->actions[0].at, seconds(1));
  EXPECT_EQ(parsed->actions[0].targets, std::vector<std::uint32_t>{1});
}

TEST(ChaosJson, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(schedule_from_json("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(schedule_from_json("{\"seed\":1}", &error).has_value())
      << "a schedule without actions is not a schedule";
  EXPECT_FALSE(schedule_from_json(
                   R"({"actions":[{"kind":"meteor","at_ns":1}]})", &error)
                   .has_value());
  EXPECT_FALSE(schedule_from_json("{\"actions\":[", &error).has_value());
}

TEST(ChaosJson, ActionKindNamesRoundTrip) {
  for (const ActionKind kind : kAllActionKinds) {
    const auto back = action_kind_from(to_string(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(action_kind_from("meteor").has_value());
}

// --- install_schedule -------------------------------------------------------

struct InstallFixture : ::testing::Test {
  Simulation sim{7};
  TraceLog trace;
  FaultInjector injector{sim, trace};

  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  // Recorded hook calls, in order.
  std::vector<std::string> calls;
  ChaosHooks recording_hooks() {
    ChaosHooks hooks;
    hooks.crash_node = [this](std::uint32_t n) {
      calls.push_back("crash " + std::to_string(n));
    };
    hooks.restart_node = [this](std::uint32_t n) {
      calls.push_back("restart " + std::to_string(n));
    };
    hooks.partition = [this](const std::vector<std::uint32_t>& g) {
      std::string call = "partition";
      for (const std::uint32_t n : g) call += " " + std::to_string(n);
      calls.push_back(std::move(call));
    };
    hooks.heal = [this] { calls.push_back("heal"); };
    hooks.isolate = [this](std::uint32_t n) {
      calls.push_back("isolate " + std::to_string(n));
    };
    hooks.unisolate = [this](std::uint32_t n) {
      calls.push_back("unisolate " + std::to_string(n));
    };
    hooks.ambient_loss = [this](double p) {
      calls.push_back("loss " + fmt(p));
    };
    hooks.falsify = [this](std::uint32_t n, double p) {
      calls.push_back("falsify " + std::to_string(n) + " " + fmt(p));
    };
    hooks.selective_drop = [this](std::uint32_t n, double p) {
      calls.push_back("sdrop " + std::to_string(n) + " " + fmt(p));
    };
    hooks.delay_inflate = [this](std::uint32_t n, double f) {
      calls.push_back("inflate " + std::to_string(n) + " " + fmt(f));
    };
    return hooks;
  }
};

TEST_F(InstallFixture, AppliesAndRevertsWindows) {
  ChaosSchedule s;
  s.node_count = 3;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(2), {1}, 0.0},
      ChaosAction{ActionKind::kLoss, seconds(2), seconds(2), {}, 0.3},
  };
  EXPECT_EQ(install_schedule(s, injector, recording_hooks()), 2u);
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls, (std::vector<std::string>{"crash 1", "loss 0.3",
                                             "restart 1", "loss 0"}));
}

TEST_F(InstallFixture, OverlappingCrashWindowsRefcount) {
  // Two windows crash the same node; it must crash once and restart once,
  // when the *last* window ends — the first window's revert abstains.
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(3), {0}, 0.0},
      ChaosAction{ActionKind::kCrash, seconds(2), seconds(4), {0}, 0.0},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(5));
  EXPECT_EQ(calls, std::vector<std::string>{"crash 0"})
      << "no restart while a window still holds the node down";
  sim.run_until(seconds(10));
  EXPECT_EQ(calls, (std::vector<std::string>{"crash 0", "restart 0"}));
}

TEST_F(InstallFixture, OverlappingGlobalKnobsRestoreOuterMagnitude) {
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kLoss, seconds(1), seconds(4), {}, 0.5},
      ChaosAction{ActionKind::kLoss, seconds(2), seconds(1), {}, 0.2},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(4));
  EXPECT_EQ(calls, (std::vector<std::string>{"loss 0.5", "loss 0.2",
                                             "loss 0.5"}))
      << "inner window's revert restores the outer magnitude, not zero";
  sim.run_until(seconds(10));
  EXPECT_EQ(calls.back(), "loss 0");
  EXPECT_EQ(std::count(calls.begin(), calls.end(), std::string("loss 0")), 1)
      << "the knob returns to healthy exactly once, when the last window ends";
}

TEST_F(InstallFixture, OverlappingPartitionsRestoreOuterLayout) {
  ChaosSchedule s;
  s.node_count = 4;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kPartition, seconds(1), seconds(5), {0, 1}, 0.0},
      ChaosAction{ActionKind::kPartition, seconds(2), seconds(1), {2}, 0.0},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(4));
  EXPECT_EQ(calls, (std::vector<std::string>{"partition 0 1", "partition 2",
                                             "partition 0 1"}))
      << "inner partition's revert re-applies the still-open outer layout";
  sim.run_until(seconds(10));
  EXPECT_EQ(calls.back(), "heal");
  EXPECT_EQ(std::count(calls.begin(), calls.end(), std::string("heal")), 1);
}

TEST_F(InstallFixture, HealReassertsActiveIsolates) {
  // Handcrafted composition the generator forbids: a partition heals while
  // an isolate window is still open. Since a heal resets all topology
  // state, the isolate must be re-asserted — and lifted only when its own
  // window ends.
  ChaosSchedule s;
  s.node_count = 4;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kPartition, seconds(1), seconds(2), {0}, 0.0},
      ChaosAction{ActionKind::kIsolate, seconds(2), seconds(4), {3}, 0.0},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(4));
  EXPECT_EQ(calls, (std::vector<std::string>{"partition 0", "isolate 3",
                                             "heal", "isolate 3"}));
  sim.run_until(seconds(10));
  EXPECT_EQ(calls.back(), "unisolate 3");
}

TEST_F(InstallFixture, HealPrecedesRestartAtSameInstant) {
  // A crash-restart window overlapping a partition heal on the same node,
  // both ending at the same instant. The crash window fires first, so its
  // revert timer is enqueued first — but the restart must still run after
  // the heal (two-phase revert drain), or the restarted node's first sends
  // would see the pre-heal groups.
  ChaosSchedule s;
  s.node_count = 3;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(4), {0}, 0.0},
      ChaosAction{ActionKind::kPartition, seconds(2), seconds(3), {0, 1}, 0.0},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls, (std::vector<std::string>{"crash 0", "partition 0 1",
                                             "heal", "restart 0"}));
}

// The same composition against a live net::Network: after every window of
// a composed crash/partition/isolate schedule has reverted, the fabric
// must be back in its home state — every node up, every pair mutually
// reachable, no group or isolation leftovers ("home-group consistency").
TEST(ChaosInstallNetwork, HomeGroupConsistencyAfterComposedRevert) {
  net::World world(11);
  auto& [sim, metrics, tracer, trace, network] = world;
  FaultInjector injector(sim, trace);

  std::vector<net::NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(network.register_endpoint([](const net::Message&) {}));
  }

  ChaosHooks hooks;
  hooks.crash_node = [&](std::uint32_t n) {
    network.set_node_up(ids[n], false);
  };
  hooks.restart_node = [&](std::uint32_t n) {
    network.set_node_up(ids[n], true);
  };
  hooks.partition = [&](const std::vector<std::uint32_t>& group) {
    std::vector<net::NodeId> side;
    for (const std::uint32_t n : group) side.push_back(ids[n]);
    network.partition({side});
  };
  hooks.heal = [&] { network.heal_partition(); };
  hooks.isolate = [&](std::uint32_t n) { network.isolate(ids[n]); };
  hooks.unisolate = [&](std::uint32_t n) { network.unisolate(ids[n]); };

  // Crash n0 and a partition containing n0 end on the same instant (t=6);
  // an inner partition opens and closes inside the outer one; an isolate
  // window straddles the heal.
  ChaosSchedule s;
  s.node_count = 5;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(5), {0}, 0.0},
      ChaosAction{ActionKind::kPartition, seconds(2), seconds(4), {0, 1}, 0.0},
      ChaosAction{ActionKind::kIsolate, seconds(3), seconds(5), {2}, 0.0},
      ChaosAction{ActionKind::kPartition, seconds(4), seconds(1), {1, 4}, 0.0},
  };
  ASSERT_EQ(install_schedule(s, injector, hooks), 4u);
  injector.arm();

  sim.run_until(seconds(4) + millis(500));
  EXPECT_TRUE(network.reachable(ids[1], ids[4]))
      << "inner partition {1,4} is the active layout";
  sim.run_until(seconds(5) + millis(500));
  EXPECT_FALSE(network.reachable(ids[1], ids[4]))
      << "outer layout {0,1} restored: 1 is split from 4 again, not healed";
  EXPECT_TRUE(network.reachable(ids[3], ids[4]))
      << "majority side intact under the restored outer layout";
  sim.run_until(seconds(7));
  EXPECT_TRUE(network.node_up(ids[0])) << "restart lands with the heal";
  EXPECT_TRUE(network.reachable(ids[0], ids[3]))
      << "restarted node rejoins the healed topology, not the old group";
  EXPECT_FALSE(network.reachable(ids[0], ids[2]))
      << "the heal at t=6 must not lift the isolate window that ends at t=8";
  sim.run_until(seconds(10));
  for (const net::NodeId id : ids) EXPECT_TRUE(network.node_up(id));
  for (const net::NodeId a : ids) {
    for (const net::NodeId b : ids) {
      if (a == b) continue;
      EXPECT_TRUE(network.reachable(a, b))
          << "home-group consistency after composed revert";
    }
  }
  EXPECT_EQ(injector.reverts_skipped(), 0u);
}

TEST_F(InstallFixture, ByzantineKnobsApplyAndRevertPerNode) {
  ChaosSchedule s;
  s.node_count = 3;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kFalsify, seconds(1), seconds(2), {1}, 0.6},
      ChaosAction{ActionKind::kSelectiveDrop, seconds(2), seconds(3), {2},
                  0.3},
      ChaosAction{ActionKind::kDelayInflate, seconds(4), seconds(2), {0},
                  3.0},
  };
  EXPECT_EQ(install_schedule(s, injector, recording_hooks()), 3u);
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls,
            (std::vector<std::string>{"falsify 1 0.6", "sdrop 2 0.3",
                                      "falsify 1 0", "inflate 0 3",
                                      "sdrop 2 0", "inflate 0 1"}))
      << "each knob reverts to its own healthy value on its own node";
}

TEST_F(InstallFixture, OverlappingFalsifyWindowsRestoreOuterProbability) {
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kFalsify, seconds(1), seconds(4), {0}, 0.5},
      ChaosAction{ActionKind::kFalsify, seconds(2), seconds(1), {0}, 0.8},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls, (std::vector<std::string>{"falsify 0 0.5", "falsify 0 0.8",
                                             "falsify 0 0.5", "falsify 0 0"}))
      << "inner window's revert restores the outer probability, not honesty";
}

TEST_F(InstallFixture, FlipFlopExpandsToAlternatingFalsifyWindows) {
  // One six-second flip-flop = three on-phases separated by honest phases:
  // lie for a phase, behave for a phase — the pattern naive reputation
  // averages miss and decayed reputations catch.
  ChaosSchedule s;
  s.node_count = 3;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kFlipFlop, seconds(1), seconds(6), {2}, 0.5},
  };
  EXPECT_EQ(install_schedule(s, injector, recording_hooks()), 1u)
      << "flip-flop counts once however many windows it plans";
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls,
            (std::vector<std::string>{"falsify 2 0.5", "falsify 2 0",
                                      "falsify 2 0.5", "falsify 2 0",
                                      "falsify 2 0.5", "falsify 2 0"}));
}

TEST(ChaosShrink, SoftensByzantineMagnitudes) {
  // Fails whenever any falsify window is present: ddmin should strip the
  // noise and the simplifier drive probability and duration to the floor,
  // producing the smallest adversarial repro that still lies.
  ChaosProfile profile;
  profile.node_count = 5;
  profile.warmup = seconds(2);
  profile.horizon = seconds(20);
  ChaosExplorer explorer(profile, [](const ChaosSchedule& s) {
    ChaosRunReport report;
    for (const ChaosAction& a : s.actions) {
      if (a.kind == ActionKind::kFalsify) {
        report.violations.push_back(
            InvariantViolation{"taint", "falsified", a.at});
      }
    }
    return report;
  });
  ChaosSchedule failing;
  failing.node_count = 5;
  failing.horizon = seconds(20);
  failing.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(2), {1}, 0.0},
      ChaosAction{ActionKind::kFalsify, seconds(2), seconds(8), {0}, 0.8},
      ChaosAction{ActionKind::kDelayInflate, seconds(3), seconds(2), {2},
                  4.0},
  };
  const ShrinkResult result = explorer.shrink(failing, 128);
  ASSERT_EQ(result.schedule.actions.size(), 1u);
  EXPECT_EQ(result.schedule.actions[0].kind, ActionKind::kFalsify);
  EXPECT_LE(result.schedule.actions[0].magnitude, 0.02);
  EXPECT_LE(result.schedule.actions[0].duration, millis(200));
}

TEST_F(InstallFixture, UnboundKindsAreSkipped) {
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), seconds(1), {0}, 0.0},
      ChaosAction{ActionKind::kDelay, seconds(2), seconds(1), {}, 3.0},
      ChaosAction{ActionKind::kClockSkew, seconds(3), seconds(1), {1}, 0.5},
  };
  // Only crash hooks bound: delay and skew actions don't install.
  EXPECT_EQ(install_schedule(s, injector, recording_hooks()), 1u);
}

TEST_F(InstallFixture, OneShotActionsNeverRevert) {
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {
      ChaosAction{ActionKind::kCrash, seconds(1), kSimTimeZero, {0}, 0.0},
  };
  install_schedule(s, injector, recording_hooks());
  injector.arm();
  sim.run_until(seconds(10));
  EXPECT_EQ(calls, std::vector<std::string>{"crash 0"});
}

// --- InvariantRegistry ------------------------------------------------------

TEST(ChaosInvariants, AlwaysVsEventually) {
  InvariantRegistry registry;
  registry.add_always("safety", [] {
    return std::optional<std::string>("broken");
  });
  registry.add_eventually("convergence", [] {
    return std::optional<std::string>("diverged");
  });

  std::vector<InvariantViolation> out;
  EXPECT_EQ(registry.check_now(seconds(1), out), 1u)
      << "eventual checks don't run mid-schedule";
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, "safety");
  EXPECT_EQ(out[0].at, seconds(1));

  EXPECT_EQ(registry.check_final(seconds(2), out), 1u)
      << "safety already recorded; only convergence is new";
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].invariant, "convergence");
}

TEST(ChaosInvariants, RepeatedChecksDedupeByName) {
  InvariantRegistry registry;
  int evaluations = 0;
  registry.add_always("flaky", [&evaluations] {
    ++evaluations;
    return std::optional<std::string>("bad");
  });
  std::vector<InvariantViolation> out;
  registry.check_now(seconds(1), out);
  registry.check_now(seconds(2), out);
  registry.check_now(seconds(3), out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(evaluations, 1) << "a recorded invariant is not re-evaluated";
}

TEST(ChaosInvariants, HoldingChecksAddNothing) {
  InvariantRegistry registry;
  registry.add_always("fine", [] { return std::optional<std::string>{}; });
  std::vector<InvariantViolation> out;
  EXPECT_EQ(registry.check_final(seconds(1), out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ChaosInvariants, StatsCountChecksAndViolations) {
  InvariantRegistry registry;
  registry.add_always("fine", [] { return std::optional<std::string>{}; });
  registry.add_always("broken", [] {
    return std::optional<std::string>("bad");
  });
  registry.add_eventually("settled", [] {
    return std::optional<std::string>{};
  });

  std::vector<InvariantViolation> out;
  registry.check_now(seconds(1), out);
  registry.check_now(seconds(2), out);
  registry.check_final(seconds(3), out);

  const std::vector<InvariantStats> stats = registry.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "fine");
  EXPECT_TRUE(stats[0].always);
  EXPECT_EQ(stats[0].checks, 3u);
  EXPECT_EQ(stats[0].violations, 0u);
  EXPECT_EQ(stats[1].name, "broken");
  EXPECT_EQ(stats[1].checks, 1u) << "recorded invariants stop re-evaluating";
  EXPECT_EQ(stats[1].violations, 1u);
  EXPECT_EQ(stats[2].name, "settled");
  EXPECT_FALSE(stats[2].always);
  EXPECT_EQ(stats[2].checks, 1u) << "eventual checks only run at final";
  EXPECT_EQ(stats[2].violations, 0u);
}

TEST(ChaosInvariants, StatsExportAsChaosMetrics) {
  InvariantRegistry registry;
  registry.add_always("safety", [] {
    return std::optional<std::string>("bad");
  });
  registry.add_eventually("convergence", [] {
    return std::optional<std::string>{};
  });
  std::vector<InvariantViolation> out;
  registry.check_now(seconds(1), out);
  registry.check_final(seconds(2), out);

  obs::MetricsRegistry metrics;
  obs::tag_invariant_stats(metrics, registry.stats());
  EXPECT_EQ(metrics.counter_value("riot_chaos_invariant_checks_total",
                                  {{"invariant", "safety"},
                                   {"mode", "always"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("riot_chaos_invariant_violations_total",
                                  {{"invariant", "safety"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("riot_chaos_invariant_checks_total",
                                  {{"invariant", "convergence"},
                                   {"mode", "eventually"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("riot_chaos_invariant_violations_total",
                                  {{"invariant", "convergence"}}),
            0u);

  // Both exporters carry the per-invariant families.
  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("riot_chaos_invariant_checks_total{invariant=\"safety\""),
            std::string::npos)
      << prom;
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("riot_chaos_invariant_violations_total"),
            std::string::npos)
      << json;
}

// --- Explorer / shrinking (synthetic run functions; no scenario needed) -----

TEST(ChaosExplore, IterationSeedsAreStableAndDistinct) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 32; ++i) {
    const std::uint64_t s = ChaosExplorer::iteration_seed(99, i);
    EXPECT_EQ(s, ChaosExplorer::iteration_seed(99, i));
    seeds.push_back(s);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

/// Synthetic oracle: the "system" fails iff the schedule contains a crash
/// of node 0. Everything else is noise the shrinker must strip away.
ChaosRunReport crash0_oracle(const ChaosSchedule& schedule) {
  ChaosRunReport report;
  for (const ChaosAction& a : schedule.actions) {
    if (a.kind == ActionKind::kCrash && !a.targets.empty() &&
        a.targets[0] == 0) {
      report.violations.push_back(
          InvariantViolation{"crash0", "node 0 crashed", a.at});
    }
  }
  return report;
}

TEST(ChaosExplore, FindsAndShrinksToMinimalSchedule) {
  ChaosProfile profile = test_profile();
  profile.max_actions = 8;
  ChaosExplorer explorer(profile, crash0_oracle);
  const ExploreResult result = explorer.explore(/*base_seed=*/5,
                                                /*iterations=*/64);
  ASSERT_TRUE(result.failure.has_value())
      << "crash weight 3.0 over 5 nodes: node 0 crashes within 64 seeds";
  const ChaosFailure& failure = *result.failure;
  EXPECT_FALSE(failure.violations.empty());
  ASSERT_EQ(failure.shrunk.schedule.actions.size(), 1u)
      << "exactly the one guilty action survives ddmin";
  EXPECT_EQ(failure.shrunk.schedule.actions[0].kind, ActionKind::kCrash);
  EXPECT_EQ(failure.shrunk.schedule.actions[0].targets[0], 0u);
  // The one-command replay seed regenerates the original failing schedule.
  EXPECT_EQ(generate_schedule(failure.seed, profile), failure.schedule);
  // Summary carries the replay seed and the minimal repro.
  const std::string summary = failure.summary();
  EXPECT_NE(summary.find(std::to_string(failure.seed)), std::string::npos);
  EXPECT_NE(summary.find("riot-chaos-v1"), std::string::npos);
}

TEST(ChaosExplore, ReplayMatchesExploredIteration) {
  ChaosExplorer explorer(test_profile(), crash0_oracle);
  const ExploreResult result = explorer.explore(5, 64);
  ASSERT_TRUE(result.failure.has_value());
  const ChaosRunReport replayed = explorer.replay(result.failure->seed);
  ASSERT_EQ(replayed.violations.size(), result.failure->violations.size());
  EXPECT_EQ(replayed.violations[0].invariant,
            result.failure->violations[0].invariant);
}

TEST(ChaosExplore, CleanSystemReportsNoFailure) {
  ChaosExplorer explorer(test_profile(), [](const ChaosSchedule&) {
    return ChaosRunReport{};
  });
  const ExploreResult result = explorer.explore(1, 10);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_FALSE(result.failure.has_value());
}

TEST(ChaosShrink, RespectsRunBudget) {
  std::size_t runs = 0;
  ChaosExplorer explorer(test_profile(),
                         [&runs](const ChaosSchedule& s) {
                           ++runs;
                           return crash0_oracle(s);
                         });
  ChaosSchedule failing;
  failing.node_count = 5;
  failing.horizon = seconds(20);
  for (int i = 0; i < 8; ++i) {
    failing.actions.push_back(ChaosAction{
        ActionKind::kCrash, seconds(1 + i), seconds(1),
        {static_cast<std::uint32_t>(i % 2)}, 0.0});
  }
  const ShrinkResult result = explorer.shrink(failing, /*max_runs=*/5);
  EXPECT_LE(result.runs, 5u);
  EXPECT_EQ(result.runs, runs);
  EXPECT_FALSE(result.violations.empty());
}

TEST(ChaosShrink, ShrinkIsIdempotent) {
  // A shrunk schedule is a fixed point: ddmin can remove nothing more and
  // every simplification floor is reached, so re-shrinking returns it
  // unchanged (the property that makes pinned repros stable artifacts).
  ChaosExplorer explorer(test_profile(), crash0_oracle);
  ChaosSchedule failing;
  failing.node_count = 5;
  failing.horizon = seconds(20);
  failing.actions = {
      ChaosAction{ActionKind::kLoss, seconds(1), seconds(2), {}, 0.4},
      ChaosAction{ActionKind::kCrash, seconds(2), seconds(3), {1}, 0.0},
      ChaosAction{ActionKind::kCrash, seconds(4), seconds(3), {0}, 0.0},
      ChaosAction{ActionKind::kDelay, seconds(5), seconds(2), {}, 4.0},
      ChaosAction{ActionKind::kPartition, seconds(8), seconds(2), {0, 2}, 0.0},
  };
  const ShrinkResult once = explorer.shrink(failing, 256);
  ASSERT_EQ(once.schedule.actions.size(), 1u);
  EXPECT_EQ(once.schedule.actions[0].kind, ActionKind::kCrash);
  const ShrinkResult twice = explorer.shrink(once.schedule, 256);
  EXPECT_EQ(twice.schedule, once.schedule);
  EXPECT_EQ(schedule_to_json(twice.schedule), schedule_to_json(once.schedule));
}

TEST(ChaosShrink, NonReproducingFailureReturnsUntouched) {
  ChaosExplorer explorer(test_profile(), [](const ChaosSchedule&) {
    return ChaosRunReport{};  // never fails
  });
  ChaosSchedule s;
  s.node_count = 2;
  s.horizon = seconds(10);
  s.actions = {ChaosAction{ActionKind::kCrash, seconds(1), seconds(1), {0},
                           0.0}};
  const ShrinkResult result = explorer.shrink(s);
  EXPECT_EQ(result.schedule, s);
  EXPECT_EQ(result.runs, 1u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(ChaosShrink, SimplifiesMagnitudesAndDurations) {
  // Fails whenever *any* loss window is present, however soft: the
  // simplifier should then drive magnitude and duration to their floors.
  ChaosExplorer explorer(test_profile(), [](const ChaosSchedule& s) {
    ChaosRunReport report;
    for (const ChaosAction& a : s.actions) {
      if (a.kind == ActionKind::kLoss) {
        report.violations.push_back(
            InvariantViolation{"loss", "lossy", a.at});
      }
    }
    return report;
  });
  ChaosSchedule s;
  s.node_count = 3;
  s.horizon = seconds(20);
  s.actions = {
      ChaosAction{ActionKind::kLoss, seconds(2), seconds(8), {}, 0.8}};
  const ShrinkResult result = explorer.shrink(s, 64);
  ASSERT_EQ(result.schedule.actions.size(), 1u);
  EXPECT_LE(result.schedule.actions[0].magnitude, 0.02)
      << "magnitude halved until the floor";
  EXPECT_LE(result.schedule.actions[0].duration, millis(200))
      << "duration halved until the floor";
}

// --- Utilities --------------------------------------------------------------

TEST(ChaosUtil, TraceHashDiscriminates) {
  TraceLog a;
  a.log(seconds(1), TraceLevel::kInfo, "raft", 1, "leader", "term=3");
  TraceLog b;
  b.log(seconds(1), TraceLevel::kInfo, "raft", 1, "leader", "term=3");
  EXPECT_EQ(trace_hash(a), trace_hash(b));
  b.log(seconds(2), TraceLevel::kInfo, "raft", 2, "leader", "term=4");
  EXPECT_NE(trace_hash(a), trace_hash(b));
  TraceLog c;
  c.log(seconds(1), TraceLevel::kInfo, "raft", 1, "leader", "term=4");
  EXPECT_NE(trace_hash(a), trace_hash(c)) << "detail participates";
}

TEST(ChaosUtil, ParseDetailU64) {
  EXPECT_EQ(parse_detail_u64("term=3", "term"), 3u);
  EXPECT_EQ(parse_detail_u64("commit=9 term=12 leader=2", "term"), 12u);
  EXPECT_EQ(parse_detail_u64("myterm=5 term=6", "term"), 6u)
      << "key must match at a token boundary";
  EXPECT_FALSE(parse_detail_u64("term=abc", "term").has_value());
  EXPECT_FALSE(parse_detail_u64("nothing here", "term").has_value());
  EXPECT_FALSE(parse_detail_u64("term= 5", "term").has_value());
}

}  // namespace
}  // namespace riot::sim::chaos
