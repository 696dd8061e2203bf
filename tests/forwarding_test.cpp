// Tests for the Section 5.2.2 forwarding strategies: when a member of the
// transitional set committed to a message that another member lacks (because
// the original sender is gone), the message must be forwarded so both can
// move to the new view with the agreed cut.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "helpers/oracle_world.hpp"

namespace vsgc {
namespace {

using testing::OracleWorld;

/// Scenario: p1, p2, p3 share a view. p1 multicasts a message; p3's link to
/// p1 is down, so only p2 receives it. The membership then excludes p1.
/// p2 committed to the message in its cut, so p2 must forward it to p3 and
/// both must deliver it before installing the {p2, p3} view.
void run_forwarding_scenario(gcs::ForwardingKind kind,
                             std::uint64_t* forwarded_copies) {
  OracleWorld w(3, /*seed=*/1, {}, kind);
  std::vector<std::vector<std::string>> rx(3);
  for (int i = 0; i < 3; ++i) {
    w.client(i).on_deliver([&rx, i](ProcessId from, const gcs::AppMsg& m) {
      rx[static_cast<std::size_t>(i)].push_back(to_string(from) + ":" +
                                                m.payload);
    });
  }
  w.change_view(w.all());

  // p3 stops hearing p1 directly.
  w.network->set_link_up(net::node_of(w.pid(0)), net::node_of(w.pid(2)),
                         false);
  w.client(0).send("lost-msg");
  w.run();
  EXPECT_EQ(rx[1].size(), 1u) << "p2 must have the message";
  EXPECT_TRUE(rx[2].empty()) << "p3 must be missing the message";

  // p1 is gone for good (its endless retransmissions to the dead link would
  // otherwise keep the simulation busy); membership excludes it and p2, p3
  // reconfigure into {p2, p3}.
  w.ep(0).crash();
  w.transport(0).crash();
  w.oracle.start_change_to(w.pid(1), w.pids({1, 2}));
  w.oracle.start_change_to(w.pid(2), w.pids({1, 2}));
  w.run();
  const View v = w.oracle.make_view(w.pids({1, 2}));
  w.oracle.deliver_view_to(w.pid(1), v);
  w.oracle.deliver_view_to(w.pid(2), v);
  w.run(2 * sim::kSecond);

  EXPECT_EQ(w.ep(1).current_view().members, w.pids({1, 2}));
  EXPECT_EQ(w.ep(2).current_view().members, w.pids({1, 2}));
  ASSERT_EQ(rx[2].size(), 1u) << "the lost message must be forwarded to p3";
  EXPECT_EQ(rx[2][0], "p1:lost-msg");
  *forwarded_copies = w.ep(1).vs_stats().forwards_sent +
                      w.ep(2).vs_stats().forwards_sent;
  w.checkers.finalize();
}

TEST(Forwarding, SimpleStrategyRecoversMissingMessage) {
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kSimple, &copies);
  EXPECT_GE(copies, 1u);
}

TEST(Forwarding, MinCopiesStrategyRecoversMissingMessage) {
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kMinCopies, &copies);
  EXPECT_EQ(copies, 1u) << "min-copies must forward exactly one copy";
}

TEST(Forwarding, NoForwardingWhenNothingMissing) {
  for (auto kind :
       {gcs::ForwardingKind::kSimple, gcs::ForwardingKind::kMinCopies}) {
    OracleWorld w(3, 1, {}, kind);
    w.change_view(w.all());
    w.client(0).send("m");
    w.settle();
    w.change_view(w.all());
    std::uint64_t copies = 0;
    for (int i = 0; i < 3; ++i) copies += w.ep(i).vs_stats().forwards_sent;
    EXPECT_EQ(copies, 0u);
    w.checkers.finalize();
  }
}

TEST(Forwarding, MultipleMissingMessagesAllRecovered) {
  OracleWorld w(3, 1, {}, gcs::ForwardingKind::kMinCopies);
  std::vector<std::string> rx3;
  w.client(2).on_deliver(
      [&rx3](ProcessId, const gcs::AppMsg& m) { rx3.push_back(m.payload); });
  w.change_view(w.all());
  w.network->set_link_up(net::node_of(w.pid(0)), net::node_of(w.pid(2)),
                         false);
  for (int i = 0; i < 7; ++i) w.client(0).send("x" + std::to_string(i));
  w.run();
  EXPECT_TRUE(rx3.empty());
  w.ep(0).crash();
  w.transport(0).crash();
  w.oracle.start_change_to(w.pid(1), w.pids({1, 2}));
  w.oracle.start_change_to(w.pid(2), w.pids({1, 2}));
  w.run();
  const View v = w.oracle.make_view(w.pids({1, 2}));
  w.oracle.deliver_view_to(w.pid(1), v);
  w.oracle.deliver_view_to(w.pid(2), v);
  w.run(2 * sim::kSecond);
  ASSERT_EQ(rx3.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(rx3[static_cast<std::size_t>(i)], "x" + std::to_string(i))
        << "forwarded messages must respect FIFO order";
  }
  w.checkers.finalize();
}

TEST(Forwarding, DuplicateForwardsSuppressed) {
  // Same scenario, but with message loss forcing retransmission pressure;
  // forwarded_set must still prevent duplicate copies per destination.
  std::uint64_t copies = 0;
  run_forwarding_scenario(gcs::ForwardingKind::kMinCopies, &copies);
  EXPECT_EQ(copies, 1u);
}

/// A view change whose sender lies outside T: p1 multicasts 5 messages; p4
/// never hears them and p3 hears only the first 2. p1 crashes, so p2, p3 and
/// p4 move to {p2, p3, p4} and the messages must be forwarded. Returns the
/// forwards_sent total; every forward is recorded at its receiver as
/// (forwarder, dest, orig, view, index) and must arrive exactly once.
std::uint64_t run_partial_holders_scenario(gcs::ForwardingKind kind) {
  OracleWorld w(4, /*seed=*/1, {}, kind);
  using Forward =
      std::tuple<ProcessId, ProcessId, ProcessId, ViewId, std::int64_t>;
  std::map<Forward, int> received;
  for (int i = 0; i < 4; ++i) {
    gcs::GcsEndpoint* ep = &w.ep(i);
    const ProcessId dest = w.pid(i);
    w.transport(i).set_deliver_handler(
        [ep, dest, &received](net::NodeId from, const std::any& payload) {
          if (const auto* fm = std::any_cast<gcs::wire::FwdMsg>(&payload)) {
            ++received[{net::process_of(from), dest, fm->orig, fm->view.id,
                        fm->index}];
          }
          ep->on_co_rfifo_deliver(net::process_of(from), payload);
        });
  }
  std::vector<std::vector<std::string>> rx(4);
  for (int i = 0; i < 4; ++i) {
    w.client(i).on_deliver([&rx, i](ProcessId, const gcs::AppMsg& m) {
      rx[static_cast<std::size_t>(i)].push_back(m.payload);
    });
  }
  w.change_view(w.all());

  const net::NodeId p1 = net::node_of(w.pid(0));
  w.network->set_link_up(p1, net::node_of(w.pid(3)), false);
  for (int i = 0; i < 2; ++i) w.client(0).send("m" + std::to_string(i));
  w.run();
  w.network->set_link_up(p1, net::node_of(w.pid(2)), false);
  for (int i = 2; i < 5; ++i) w.client(0).send("m" + std::to_string(i));
  w.run();
  EXPECT_EQ(rx[1].size(), 5u);
  EXPECT_EQ(rx[2].size(), 2u);
  EXPECT_TRUE(rx[3].empty());

  w.ep(0).crash();
  w.transport(0).crash();
  const std::set<ProcessId> rest = w.pids({1, 2, 3});
  for (int i = 1; i < 4; ++i) w.oracle.start_change_to(w.pid(i), rest);
  w.run();
  const View v = w.oracle.make_view(rest);
  for (int i = 1; i < 4; ++i) w.oracle.deliver_view_to(w.pid(i), v);
  w.run(2 * sim::kSecond);

  const std::vector<std::string> all = {"m0", "m1", "m2", "m3", "m4"};
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(w.ep(i).current_view(), v) << "endpoint " << i;
    EXPECT_EQ(rx[static_cast<std::size_t>(i)], all) << "endpoint " << i;
  }
  EXPECT_FALSE(received.empty());
  std::uint64_t copies = 0;
  for (const auto& [fwd, n] : received) {
    EXPECT_EQ(n, 1) << "forwarded " << n << " times to "
                    << to_string(std::get<1>(fwd)) << " by "
                    << to_string(std::get<0>(fwd)) << ", index "
                    << std::get<4>(fwd);
    copies += static_cast<std::uint64_t>(n);
  }
  std::uint64_t sent = 0;
  for (int i = 1; i < 4; ++i) sent += w.ep(i).vs_stats().forwards_sent;
  EXPECT_EQ(sent, copies) << "every forward sent is received once";
  w.checkers.finalize();
  return sent;
}

TEST(Forwarding, SenderOutsideTForwardedOncePerDestinationMinCopies) {
  // p2, the min-id holder, alone forwards: m0, m1 to p4 and m2..m4 to p3
  // and p4. Each (dest, orig, view, index) goes out once.
  EXPECT_EQ(run_partial_holders_scenario(gcs::ForwardingKind::kMinCopies), 8u);
}

TEST(Forwarding, SenderOutsideTForwardedOncePerForwarderSimple) {
  // p2 forwards m2..m4 to p3 and m0..m4 to p4; p3 also forwards m0, m1 to
  // p4. Each forwarder sends each (dest, orig, view, index) once.
  EXPECT_EQ(run_partial_holders_scenario(gcs::ForwardingKind::kSimple), 10u);
}

}  // namespace
}  // namespace vsgc
