// Figure 4 — inter-IoT data flows: privacy, timeliness, availability.
//
// Figure 4 shows data-handling components that must stay synchronized
// across privacy scopes under timeliness and availability requirements.
// Two experiments:
//
//  (A) Synchronization strategy under a WAN partition. Replicated state
//      (an OR-Set of active alerts, a PN-Counter of occupancy) kept by
//      three parties (two sites + cloud) via (1) a central store in the
//      cloud vs (2) CRDT anti-entropy. During the partition, the central
//      store is unwritable/unreadable for the sites; CRDT replicas stay
//      available and converge after heal with zero lost updates.
//
//  (B) Privacy enforcement point. Personal items flowing producer ->
//      consumers across scopes, policy checked (1) nowhere (funnel),
//      (2) at the cloud broker, (3) at the edge relay. Leaks / blocked /
//      delivered, plus intra-scope delivery latency.
//
// Expected shape: CRDT sync gives availability 1.0 during partition and
// exact convergence after; edge enforcement yields zero leaks while
// keeping intra-scope flows LAN-fast.
#include <memory>

#include "bench_util.hpp"
#include "core/system.hpp"
#include "data/crdt_store.hpp"
#include "data/privacy.hpp"
#include "data/pubsub.hpp"

using namespace riot;

namespace {

// --- (A) sync strategies -----------------------------------------------------

struct SyncOutcome {
  double write_availability = 0.0;  // accepted writes / attempted, partition
  std::uint64_t lost_updates = 0;   // updates missing after heal
  double heal_converge_s = 0.0;     // time to convergence after heal
};

/// Central store: a gossip-free key-value on the cloud; sites read/write
/// via RPC-like messages. We model it with a CrdtStore on the cloud only —
/// writers must reach it synchronously.
SyncOutcome run_central() {
  core::IoTSystem system(core::SystemConfig{.seed = 31});
  auto cloud = device::make_cloud("cloud");
  const auto cloud_dev = system.add_device(std::move(cloud));
  auto& store = system.attach<data::CrdtStore>(cloud_dev);
  auto site_a = device::make_edge("a");
  site_a.location = {0, 0};
  const auto a_dev = system.add_device(std::move(site_a));
  auto site_b = device::make_edge("b");
  site_b.location = {5000, 0};
  const auto b_dev = system.add_device(std::move(site_b));

  struct Writer : net::Node {
    explicit Writer(net::Network& n) : net::Node(n) {}
  };
  auto& writer_a = system.attach<Writer>(a_dev);
  auto& writer_b = system.attach<Writer>(b_dev);

  // Partition the cloud away for [30s, 60s); sites attempt one write/s.
  std::uint64_t attempted = 0, accepted = 0;
  system.simulation().schedule_every(sim::seconds(1), [&] {
    const auto now = system.simulation().now();
    for (auto* writer : {&writer_a, &writer_b}) {
      ++attempted;
      // A central write succeeds only if the store is reachable.
      if (system.network().reachable(writer->id(), store.id())) {
        ++accepted;
        store.orset("alerts").add(
            "w" + std::to_string(attempted) + "@" +
                std::to_string(sim::to_seconds(now)),
            writer->id().value);
      }
    }
  });
  system.run_for(sim::seconds(30));
  system.network().partition({{store.id()}});
  const auto before_partition = attempted;
  system.run_for(sim::seconds(30));
  const auto partition_attempts = attempted - before_partition;
  const auto partition_accepts =
      accepted > before_partition ? accepted - before_partition : 0;
  system.network().heal_partition();
  system.run_for(sim::seconds(30));

  SyncOutcome outcome;
  outcome.write_availability =
      partition_attempts == 0
          ? 1.0
          : static_cast<double>(partition_accepts) /
                static_cast<double>(partition_attempts);
  outcome.lost_updates = attempted - store.orset("alerts").size();
  outcome.heal_converge_s = 0.0;  // central: no convergence protocol
  return outcome;
}

SyncOutcome run_crdt() {
  core::IoTSystem system(core::SystemConfig{.seed = 31});
  auto cloud = device::make_cloud("cloud");
  const auto cloud_dev = system.add_device(std::move(cloud));
  auto site_a = device::make_edge("a");
  site_a.location = {0, 0};
  const auto a_dev = system.add_device(std::move(site_a));
  auto site_b = device::make_edge("b");
  site_b.location = {5000, 0};
  const auto b_dev = system.add_device(std::move(site_b));

  auto& replica_cloud = system.attach<data::CrdtStore>(cloud_dev);
  auto& replica_a = system.attach<data::CrdtStore>(a_dev);
  auto& replica_b = system.attach<data::CrdtStore>(b_dev);
  replica_cloud.set_replicas({replica_a.id(), replica_b.id()});
  replica_a.set_replicas({replica_cloud.id(), replica_b.id()});
  replica_b.set_replicas({replica_cloud.id(), replica_a.id()});

  std::uint64_t attempted = 0;
  system.simulation().schedule_every(sim::seconds(1), [&] {
    for (auto* replica : {&replica_a, &replica_b}) {
      ++attempted;
      replica->orset("alerts").add("w" + std::to_string(attempted),
                                   replica->replica_id());
    }
  });
  system.run_for(sim::seconds(30));
  system.network().partition({{replica_cloud.id()}});
  system.run_for(sim::seconds(30));
  system.network().heal_partition();
  const auto heal_at = system.simulation().now();
  // Run until the cloud replica has everything.
  double converge_s = -1.0;
  for (int tick = 0; tick < 300; ++tick) {
    system.run_for(sim::millis(100));
    if (replica_cloud.orset("alerts").size() == attempted) {
      converge_s = sim::to_seconds(system.simulation().now() - heal_at);
      break;
    }
  }

  SyncOutcome outcome;
  outcome.write_availability = 1.0;  // local writes always accepted
  outcome.lost_updates = attempted - replica_cloud.orset("alerts").size();
  outcome.heal_converge_s = converge_s;
  return outcome;
}

// --- (B) privacy enforcement points -------------------------------------------

struct PrivacyOutcome {
  std::uint64_t leaks = 0;
  std::uint64_t blocked = 0;
  std::uint64_t delivered_cross = 0;  // cross-scope deliveries
  double intra_latency_ms = 0.0;      // intra-scope delivery latency
};

PrivacyOutcome run_privacy(int mode) {  // 0=none, 1=cloud broker, 2=edge
  core::IoTSystem system(core::SystemConfig{.seed = 77});
  const auto eu = system.add_domain(device::AdminDomain{
      .name = "eu", .jurisdiction = device::Jurisdiction::kGdpr,
      .trust = device::TrustLevel::kOwned});
  const auto provider = system.add_domain(device::AdminDomain{
      .name = "provider", .jurisdiction = device::Jurisdiction::kNone,
      .trust = device::TrustLevel::kPartner});

  auto edge = device::make_edge("edge");
  edge.location = {0, 0};
  edge.domain = eu;
  const auto edge_dev = system.add_device(std::move(edge));
  auto wearable = device::make_micro_sensor("wearable", "hr");
  wearable.location = {5, 0};
  wearable.domain = eu;
  const auto wearable_dev = system.add_device(std::move(wearable));
  auto panel = device::make_gateway("panel");  // intra-scope consumer
  panel.location = {8, 0};
  panel.domain = eu;
  const auto panel_dev = system.add_device(std::move(panel));
  auto cloud = device::make_cloud("cloud");
  cloud.domain = provider;
  const auto cloud_dev = system.add_device(std::move(cloud));

  data::PolicyEngine policy(system.registry());
  data::PrivacyScope scope;
  scope.name = "home";
  scope.jurisdiction = device::Jurisdiction::kGdpr;
  scope.policy = data::make_gdpr_policy();
  scope.members = {edge_dev, wearable_dev, panel_dev};
  policy.add_scope(std::move(scope));

  PrivacyOutcome outcome;
  data::FreshnessTracker intra;
  // The producer timers below bump it while the system runs, after the
  // branch that schedules them has closed.
  std::uint64_t seq = 0;

  if (mode == 2) {
    // Edge-relayed epidemic plane with enforcement at the relay.
    auto& relay = system.attach<data::EpidemicPubSub>(
        edge_dev, system.registry(), edge_dev);
    relay.set_policy(&policy, /*enforce=*/true);
    auto& panel_sub = system.attach<data::EpidemicPubSub>(
        panel_dev, system.registry(), panel_dev);
    auto& cloud_sub = system.attach<data::EpidemicPubSub>(
        cloud_dev, system.registry(), cloud_dev);
    relay.add_peer(panel_sub.id());
    relay.add_peer(cloud_sub.id());
    panel_sub.subscribe("hr", [&](const data::DataItem& item, sim::SimTime) {
      intra.observe("hr", item.produced_at, system.simulation().now());
    });
    cloud_sub.subscribe("hr", [&](const data::DataItem&, sim::SimTime) {
      ++outcome.delivered_cross;
    });
    struct Producer : net::Node {
      explicit Producer(net::Network& n) : net::Node(n) {}
    };
    auto& producer = system.attach<Producer>(wearable_dev);
    system.simulation().schedule_every(sim::millis(500), [&] {
      data::DataItem item;
      item.id = ++seq;
      item.topic = "hr";
      item.category = data::DataCategory::kPersonal;
      item.origin = wearable_dev;
      item.produced_at = system.simulation().now();
      producer.send(relay.id(), data::Publish{std::move(item)});
    });
  } else {
    // Broker in the cloud; mode 1 enforces there, mode 0 not at all.
    auto& broker = system.attach<data::BrokerNode>(cloud_dev,
                                                   system.registry());
    if (mode == 1) broker.set_policy(&policy, /*enforce=*/true);
    if (mode == 0) broker.set_policy(&policy, /*enforce=*/false);
    auto& panel_client = system.attach<data::BrokerClient>(
        panel_dev, broker.id(), panel_dev);
    auto& cloud_client = system.attach<data::BrokerClient>(
        cloud_dev, broker.id(), cloud_dev);
    auto& producer = system.attach<data::BrokerClient>(
        wearable_dev, broker.id(), wearable_dev);
    panel_client.subscribe("hr",
                           [&](const data::DataItem& item, sim::SimTime) {
                             intra.observe("hr", item.produced_at,
                                           system.simulation().now());
                           });
    cloud_client.subscribe("hr", [&](const data::DataItem&, sim::SimTime) {
      ++outcome.delivered_cross;
    });
    system.simulation().schedule_every(sim::millis(500), [&] {
      data::DataItem item;
      item.id = ++seq;
      item.topic = "hr";
      item.category = data::DataCategory::kPersonal;
      item.origin = wearable_dev;
      item.produced_at = system.simulation().now();
      producer.publish(std::move(item));
    });
  }

  system.run_for(sim::minutes(1));
  outcome.leaks = policy.violations() - policy.blocked();
  outcome.blocked = policy.blocked();
  outcome.intra_latency_ms = intra.mean_delivery_latency_us("hr") / 1000.0;
  return outcome;
}

}  // namespace

int main() {
  bench::banner(
      "Figure 4: inter-IoT data flows — privacy, timeliness, availability",
      "(A) replicated state across 2 sites + cloud under a 30s partition;\n"
      "(B) personal data producer with intra-scope and cross-scope\n"
      "consumers, policy enforced at different points.");

  bench::BenchReport report("bench_fig4_dataflows");
  report.config("seed", 31.0);
  std::printf("(A) synchronization strategy under partition:\n");
  bench::Table sync({"strategy", "write_avail", "lost_updates",
                     "heal_conv_s"});
  sync.tee_to(report);
  sync.print_header();
  {
    const auto central = run_central();
    sync.print_row({"central-store", bench::fmt(central.write_availability),
                    bench::fmt_u(central.lost_updates), "n/a"});
    const auto crdt = run_crdt();
    sync.print_row({"crdt-antientropy", bench::fmt(crdt.write_availability),
                    bench::fmt_u(crdt.lost_updates),
                    bench::fmt(crdt.heal_converge_s, 2)});
  }

  std::printf("\n(B) privacy enforcement point (personal data, GDPR scope):\n");
  bench::Table privacy({"enforcement", "leaks", "blocked", "cross_deliv",
                        "intra_lat_ms"});
  privacy.tee_to(report);
  privacy.print_header();
  const char* names[] = {"none(funnel)", "cloud-broker", "edge-relay"};
  for (int mode = 0; mode < 3; ++mode) {
    const auto outcome = run_privacy(mode);
    privacy.print_row({names[mode], bench::fmt_u(outcome.leaks),
                       bench::fmt_u(outcome.blocked),
                       bench::fmt_u(outcome.delivered_cross),
                       bench::fmt(outcome.intra_latency_ms, 2)});
  }
  std::printf(
      "\nReading: CRDT replicas accept 100%% of writes during the\n"
      "partition and lose nothing after heal; the central store rejects\n"
      "every partition-era write. Edge enforcement keeps leaks at zero\n"
      "AND intra-scope latency LAN-fast — the cloud broker can also block,\n"
      "but then even the intra-scope panel pays a WAN round trip.\n");
  return report.write() ? 0 : 1;
}
