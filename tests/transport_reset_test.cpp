// Tests for the CO_RFIFO stream-reset handshake: recovery of a RECEIVER that
// lost its state must never wedge a connection whose acked prefix is gone
// (the Section 8 scenario the churn sweeps uncovered — see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "spec/co_rfifo_checker.hpp"
#include "transport/co_rfifo.hpp"

namespace vsgc::transport {
namespace {

struct Pair {
  explicit Pair(net::Network::Config cfg = {}, std::uint64_t seed = 1,
                CoRfifoTransport::Config tcfg = {})
      : network(sim, Rng(seed), cfg),
        a(sim, network, net::NodeId{1}, tcfg),
        b(sim, network, net::NodeId{2}, tcfg) {
    a.set_reliable({net::NodeId{2}});
    checker.note_reliable(net::NodeId{1}, {net::NodeId{1}, net::NodeId{2}});
    b.set_deliver_handler([this](net::NodeId from, const std::any& payload) {
      const auto uid = std::any_cast<std::uint64_t>(payload);
      checker.note_deliver(from, net::NodeId{2}, uid);
      received.push_back(uid);
    });
  }

  void send(std::uint64_t uid) {
    checker.note_send(net::NodeId{1}, {net::NodeId{2}}, uid);
    a.send({net::NodeId{2}}, uid, 8);
  }

  sim::Simulator sim;
  net::Network network;
  CoRfifoTransport a;
  CoRfifoTransport b;
  /// Every delivery is checked against the CO_RFIFO spec automaton.
  spec::CoRfifoChecker checker;
  std::vector<std::uint64_t> received;
};

TEST(CoRfifoReset, ReceiverRecoveryUnwedgesOngoingStream) {
  Pair h;
  // Establish a stream with an acked prefix.
  for (std::uint64_t i = 1; i <= 5; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 5u);

  // Receiver crashes and recovers: its incoming state (and the delivered
  // prefix) is gone. The sender does not notice and keeps streaming.
  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();

  for (std::uint64_t i = 6; i <= 8; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);

  // Without the reset handshake the receiver would buffer seq 6.. forever
  // waiting for the unrecoverable seq 1..5. With it, the suffix arrives as a
  // fresh stream, in order.
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{6, 7, 8}));
}

TEST(CoRfifoReset, UnackedSuffixSurvivesTheReset) {
  Pair h;
  h.send(1);
  h.sim.run_to_quiescence();
  // Crash the receiver, then send while it is down: these stay unacked.
  h.b.crash();
  h.send(2);
  h.send(3);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  // The unacked suffix is re-homed onto the fresh incarnation and delivered.
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{2, 3}));
}

TEST(CoRfifoReset, NoResetWhenPrefixStillRetransmittable) {
  // If nothing was acked yet, a recovered receiver simply gets the stream
  // from seq 1 via retransmission — no reset, no loss.
  net::Network::Config cfg;
  Pair h(cfg);
  h.network.set_node_up(net::NodeId{2}, false);  // receiver unreachable
  h.send(1);
  h.send(2);
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.network.set_node_up(net::NodeId{2}, true);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CoRfifoReset, RepeatedRecoveryCyclesStayLive) {
  Pair h;
  std::uint64_t uid = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    h.send(++uid);
    h.sim.run_to_quiescence();
    h.b.crash();
    h.sim.run_until(h.sim.now() + sim::kMillisecond);
    h.b.recover();
  }
  h.received.clear();
  h.send(++uid);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  ASSERT_EQ(h.received.size(), 1u);
  EXPECT_EQ(h.received[0], uid);
}

TEST(CoRfifoReset, LossDuringHandshakeStillConverges) {
  net::Network::Config cfg;
  cfg.drop_probability = 0.3;
  Pair h(cfg, 77);
  for (std::uint64_t i = 1; i <= 10; ++i) h.send(i);
  h.sim.run_to_quiescence();
  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  for (std::uint64_t i = 11; i <= 30; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 20u) << "reset + retransmission must deliver "
                                       "the whole post-recovery stream";
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(h.received[i], 11 + i);
}

TEST(CoRfifoReset, RehomedPacketsCountAsRetransmissions) {
  // Regression: the reset re-home loop used to bypass stats_.retransmissions,
  // so a recovery storm looked free in the retransmission tables. With the
  // retransmit timer pushed out of reach, the one re-homed packet is the only
  // possible retransmission.
  CoRfifoTransport::Config tcfg;
  tcfg.retransmit_timeout = 3600 * sim::kSecond;
  Pair h({}, 1, tcfg);
  h.send(1);
  h.sim.run_until(h.sim.now() + sim::kSecond);
  ASSERT_EQ(h.received.size(), 1u);
  ASSERT_EQ(h.a.stats().retransmissions, 0u);

  h.b.crash();
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.b.recover();
  h.received.clear();
  h.send(2);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);

  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(h.a.stats().retransmissions, 1u)
      << "re-homing the unacked suffix onto the fresh incarnation is a "
         "retransmission and must be counted as one";
}

TEST(CoRfifoReset, IncarnationResetUnderSustainedLossStaysWithinSpec) {
  // The reset handshake itself runs under sustained packet loss AND a link
  // outage that strands the first reset exchanges: the receiver crashes and
  // recovers while the partition holds, so every handshake packet sent up to
  // then is lost. Pair's CoRfifoChecker asserts FIFO/no-gap/no-duplicate on
  // every delivery throughout.
  net::Network::Config cfg;
  cfg.drop_probability = 0.25;
  Pair h(cfg, 4242);
  for (std::uint64_t i = 1; i <= 5; ++i) h.send(i);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 5u);

  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, false);
  for (std::uint64_t i = 6; i <= 8; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 100 * sim::kMillisecond);
  h.b.crash();
  h.sim.run_until(h.sim.now() + 50 * sim::kMillisecond);
  h.b.recover();
  // Recovery completed behind the partition: any reset traffic is stranded.
  h.sim.run_until(h.sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(h.received.size(), 5u) << "nothing crosses a downed link";

  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, true);
  h.sim.run_to_quiescence();
  h.send(9);
  h.send(10);
  h.sim.run_to_quiescence();

  const std::vector<std::uint64_t> tail(h.received.begin() + 5,
                                        h.received.end());
  EXPECT_EQ(tail, (std::vector<std::uint64_t>{6, 7, 8, 9, 10}))
      << "the unacked suffix and fresh traffic arrive exactly once, in order";
  EXPECT_GE(h.a.stats().retransmissions, 3u)
      << "the stranded suffix had to be retransmitted";
}

TEST(CoRfifoReset, StaleResetAckIgnored) {
  Pair h;
  h.send(1);
  h.sim.run_to_quiescence();
  // Forge a stale reset for an old incarnation: must be ignored.
  Frame stale;
  stale.header.flags = wire::kFlagReset;
  stale.header.ack_incarnation = 1;  // definitely not the current incarnation
  h.network.send(net::NodeId{2}, net::NodeId{1}, std::any(stale),
                 encoded_size(stale.header));
  h.sim.run_to_quiescence();
  h.send(2);
  h.sim.run_to_quiescence();
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

TEST(CoRfifoFlowControl, ReceiveWindowBoundsOutOfOrderBuffer) {
  // Regression for the unbounded reorder buffer: the receiver used to emplace
  // every out-of-window packet into `out_of_order` forever. With recv_window
  // = 4, a gap at seq 1 plus a burst of later frames may buffer at most 4
  // entries; the rest are dropped and recovered by retransmission.
  CoRfifoTransport::Config tcfg;
  tcfg.max_batch = 1;  // one entry per frame, so individual frames can race
  tcfg.recv_window = 4;
  tcfg.retransmit_timeout = 50 * sim::kMillisecond;
  Pair h({}, 1, tcfg);

  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, false);
  h.send(1);  // frame for seq 1 is lost on the downed link
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, true);
  for (std::uint64_t i = 2; i <= 10; ++i) h.send(i);
  h.sim.run_to_quiescence();

  const auto& rx_stats = h.b.stats();
  EXPECT_GE(rx_stats.ooo_dropped, 1u)
      << "seqs beyond next_expected + recv_window must be dropped";
  EXPECT_LE(rx_stats.peak_out_of_order, 4u)
      << "the reorder buffer must never exceed the receive window";
  EXPECT_EQ(h.received,
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))
      << "retransmission must recover everything the window dropped";
  spec::CoRfifoChecker::check_bounded(
      net::NodeId{2}, h.b.stats().peak_unacked, tcfg.send_window,
      rx_stats.peak_out_of_order, tcfg.recv_window);
}

TEST(CoRfifoFlowControl, CreditWindowBoundsUnackedQueue) {
  CoRfifoTransport::Config tcfg;
  tcfg.send_window = 8;
  Pair h({}, 1, tcfg);
  h.network.set_node_up(net::NodeId{2}, false);  // no acks will come back
  for (std::uint64_t i = 1; i <= 50; ++i) h.send(i);
  h.sim.run_until(h.sim.now() + 500 * sim::kMillisecond);

  const auto& tx = h.a.stats();
  EXPECT_LE(tx.peak_unacked, 8u)
      << "sends past the credit window must queue, not enter unacked";
  EXPECT_GE(tx.window_stalls, 1u);
  EXPECT_GE(tx.peak_pending, 42u) << "the overflow waits in pending";

  h.network.set_node_up(net::NodeId{2}, true);
  h.sim.run_to_quiescence();
  ASSERT_EQ(h.received.size(), 50u) << "credits from acks drain the queue";
  for (std::uint64_t i = 1; i <= 50; ++i) EXPECT_EQ(h.received[i - 1], i);
  EXPECT_LE(h.a.stats().peak_unacked, 8u);
}

TEST(CoRfifoFlowControl, ExponentialBackoffShrinksDuplicateStorms) {
  // Acks from b to a are severed (one-way outage), so a retransmits the same
  // message into b forever. With a fixed interval that is a duplicate storm;
  // with capped exponential backoff the duplicate count shrinks by the
  // backoff factor. Same topology, same duration — only the policy differs.
  const auto run = [](std::uint32_t backoff_limit) {
    CoRfifoTransport::Config tcfg;
    tcfg.backoff_limit = backoff_limit;
    Pair h({}, 1, tcfg);
    h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, false);
    h.send(1);
    h.sim.run_until(h.sim.now() + 4 * sim::kSecond);
    return std::pair<std::uint64_t, std::uint64_t>{
        h.a.stats().retransmissions, h.b.stats().duplicates_dropped};
  };
  const auto [fixed_retrans, fixed_dups] = run(1);
  const auto [backoff_retrans, backoff_dups] = run(8);

  EXPECT_GT(fixed_retrans, 100u) << "fixed interval keeps hammering";
  EXPECT_LT(backoff_retrans * 3, fixed_retrans)
      << "backoff must cut retransmissions by at least 3x over the outage";
  EXPECT_LT(backoff_dups * 3, fixed_dups)
      << "duplicate deliveries at the receiver must shrink accordingly";
}

TEST(CoRfifoFlowControl, BackoffResetsOnAckProgress) {
  CoRfifoTransport::Config tcfg;
  tcfg.backoff_limit = 8;
  Pair h({}, 1, tcfg);
  // Phase 1: outage long enough to reach the backoff cap.
  h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, false);
  h.send(1);
  h.sim.run_until(h.sim.now() + 2 * sim::kSecond);
  h.network.set_oneway_link_up(net::NodeId{2}, net::NodeId{1}, true);
  h.sim.run_to_quiescence();
  const std::uint64_t after_heal = h.a.stats().retransmissions;

  // Phase 2: healthy traffic retransmits promptly again after a single loss —
  // the first retransmit fires one base interval (not 8x) after the send.
  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, false);
  h.send(2);
  h.sim.run_until(h.sim.now() + sim::kMillisecond);
  h.network.set_link_up(net::NodeId{1}, net::NodeId{2}, true);
  const sim::Time healed_at = h.sim.now();
  h.sim.run_until(healed_at + tcfg.retransmit_timeout +
                  10 * sim::kMillisecond);
  EXPECT_GT(h.a.stats().retransmissions, after_heal)
      << "after ack progress the timer runs at the base interval again";
  EXPECT_EQ(h.received, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace vsgc::transport
