// Unit tests: View type, FifoBuffer, wire message sizing, oracle membership.
#include <gtest/gtest.h>

#include "gcs/fifo_buffer.hpp"
#include "gcs/messages.hpp"
#include "membership/oracle.hpp"
#include "membership/view.hpp"
#include "util/assert.hpp"

namespace vsgc {
namespace {

TEST(View, InitialViewIsSingleton) {
  const View v = View::initial(ProcessId{7});
  EXPECT_EQ(v.id, ViewId::zero());
  EXPECT_EQ(v.members, std::set<ProcessId>{ProcessId{7}});
  EXPECT_EQ(v.start_id_of(ProcessId{7}), StartChangeId::zero());
  EXPECT_TRUE(v.contains(ProcessId{7}));
  EXPECT_FALSE(v.contains(ProcessId{8}));
}

TEST(View, EqualityComparesAllThreeComponents) {
  View a = View::initial(ProcessId{1});
  View b = a;
  EXPECT_EQ(a, b);
  b.start_id[ProcessId{1}] = StartChangeId{5};
  EXPECT_NE(a, b) << "same id+members but different startId => different view";
}

TEST(View, EncodeDecodeRoundTrip) {
  View v;
  v.id = ViewId{42, 3};
  v.members = {ProcessId{1}, ProcessId{2}, ProcessId{9}};
  v.start_id = {{ProcessId{1}, StartChangeId{10}},
                {ProcessId{2}, StartChangeId{20}},
                {ProcessId{9}, StartChangeId{90}}};
  const std::vector<std::uint8_t> bytes = encode(v);
  Decoder dec(bytes);
  const View round = decode<View>(dec);
  EXPECT_EQ(v, round);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(encoded_size(v), bytes.size());
}

TEST(View, ToStringMentionsMembersAndCids) {
  View v = View::initial(ProcessId{3});
  const std::string s = to_string(v);
  EXPECT_NE(s.find("p3"), std::string::npos);
}

TEST(FifoBuffer, AppendAndPrefix) {
  gcs::FifoBuffer buf;
  EXPECT_EQ(buf.longest_prefix(), 0);
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 1, "a"}), 1);
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 2, "b"}), 2);
  EXPECT_EQ(buf.longest_prefix(), 2);
  EXPECT_EQ(buf.last_index(), 2);
  ASSERT_NE(buf.get(1), nullptr);
  EXPECT_EQ(buf.get(1)->payload, "a");
  EXPECT_EQ(buf.get(3), nullptr);
}

TEST(FifoBuffer, OutOfOrderInsertsLeaveGap) {
  gcs::FifoBuffer buf;
  buf.put(3, gcs::AppMsg{ProcessId{1}, 3, "c"});
  EXPECT_EQ(buf.longest_prefix(), 0) << "gap at 1..2";
  EXPECT_EQ(buf.last_index(), 3);
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, "a"});
  EXPECT_EQ(buf.longest_prefix(), 1);
  buf.put(2, gcs::AppMsg{ProcessId{1}, 2, "b"});
  EXPECT_EQ(buf.longest_prefix(), 3) << "gap closed, prefix jumps";
}

TEST(FifoBuffer, DuplicatePutIsIdempotent) {
  gcs::FifoBuffer buf;
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, "a"});
  buf.put(1, gcs::AppMsg{ProcessId{1}, 99, "other"});
  EXPECT_EQ(buf.get(1)->uid, 1u) << "first write wins";
  EXPECT_EQ(buf.size(), 1u);
}

TEST(FifoBuffer, GapFillDrainsTheTailIntoThePrefix) {
  gcs::FifoBuffer buf;
  for (std::int64_t i : {5, 3, 2, 4}) {
    buf.put(i, gcs::AppMsg{ProcessId{1}, static_cast<std::uint64_t>(i), ""});
  }
  buf.put(7, gcs::AppMsg{ProcessId{1}, 7, ""});
  EXPECT_EQ(buf.longest_prefix(), 0);
  EXPECT_EQ(buf.size(), 5u);
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, ""});
  EXPECT_EQ(buf.longest_prefix(), 5) << "1 closes the gap; 2..5 drain";
  EXPECT_EQ(buf.last_index(), 7) << "7 stays past the gap at 6";
  EXPECT_EQ(buf.size(), 6u);
  for (std::int64_t i = 1; i <= 5; ++i) {
    ASSERT_NE(buf.get(i), nullptr);
    EXPECT_EQ(buf.get(i)->uid, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 6, ""}), 6);
  EXPECT_EQ(buf.longest_prefix(), 7) << "6 drains 7 as well";
  EXPECT_EQ(buf.size(), 7u);
}

TEST(FifoBuffer, FirstWriteWinsInPrefixAndTail) {
  gcs::FifoBuffer buf;
  buf.put(1, gcs::AppMsg{ProcessId{1}, 1, "a"});
  buf.put(3, gcs::AppMsg{ProcessId{1}, 3, "c"});
  buf.put(1, gcs::AppMsg{ProcessId{1}, 91, "dup"});  // prefix index
  buf.put(3, gcs::AppMsg{ProcessId{1}, 93, "dup"});  // tail index
  EXPECT_EQ(buf.get(1)->uid, 1u);
  EXPECT_EQ(buf.get(3)->uid, 3u);
  EXPECT_EQ(buf.size(), 2u);
  buf.put(2, gcs::AppMsg{ProcessId{1}, 2, "b"});
  EXPECT_EQ(buf.longest_prefix(), 3);
  EXPECT_EQ(buf.get(3)->uid, 3u) << "the drained entry is the first write";
  buf.put(3, gcs::AppMsg{ProcessId{1}, 93, "dup"});
  EXPECT_EQ(buf.get(3)->uid, 3u);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(FifoBuffer, ReadsAcrossThePrefixTailBoundary) {
  gcs::FifoBuffer buf;
  buf.append(gcs::AppMsg{ProcessId{1}, 1, "a"});
  buf.append(gcs::AppMsg{ProcessId{1}, 2, "b"});
  buf.put(4, gcs::AppMsg{ProcessId{1}, 4, "d"});
  buf.put(9, gcs::AppMsg{ProcessId{1}, 9, "i"});
  EXPECT_EQ(buf.longest_prefix(), 2);
  EXPECT_EQ(buf.last_index(), 9);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.get(2)->payload, "b") << "last prefix entry";
  EXPECT_EQ(buf.get(3), nullptr) << "the gap";
  EXPECT_EQ(buf.get(4)->payload, "d") << "first tail entry";
  EXPECT_EQ(buf.get(9)->payload, "i");
  EXPECT_EQ(buf.get(10), nullptr);
  EXPECT_FALSE(buf.empty());
}

TEST(FifoBuffer, NonPositiveAndHugeIndicesStaySparse) {
  gcs::FifoBuffer buf;
  buf.put(0, gcs::AppMsg{ProcessId{1}, 100, "zero"});
  buf.put(-3, gcs::AppMsg{ProcessId{1}, 101, "negative"});
  EXPECT_EQ(buf.longest_prefix(), 0);
  EXPECT_EQ(buf.last_index(), 0) << "largest index present is 0";
  // Sized to the index, the prefix would need 2^60 slots: this put would
  // throw or exhaust memory instead of storing one tail entry.
  constexpr std::int64_t kFar = std::int64_t{1} << 60;
  buf.put(kFar, gcs::AppMsg{ProcessId{1}, 102, "far"});
  EXPECT_EQ(buf.longest_prefix(), 0);
  EXPECT_EQ(buf.last_index(), kFar);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.get(0)->uid, 100u);
  EXPECT_EQ(buf.get(-3)->uid, 101u);
  EXPECT_EQ(buf.get(kFar)->uid, 102u);
  EXPECT_EQ(buf.append(gcs::AppMsg{ProcessId{1}, 1, "first"}), 1)
      << "sparse entries leave the prefix where it was";
  EXPECT_EQ(buf.longest_prefix(), 1);
  EXPECT_EQ(buf.size(), 4u);

  gcs::FifoBuffer only_negative;
  only_negative.put(-3, gcs::AppMsg{ProcessId{1}, 1, ""});
  EXPECT_EQ(only_negative.last_index(), -3);
  EXPECT_EQ(only_negative.longest_prefix(), 0);
}

TEST(WireMessages, SizesTrackPayloads) {
  gcs::AppMsg small{ProcessId{1}, 1, "x"};
  gcs::AppMsg big{ProcessId{1}, 2, std::string(1000, 'y')};
  EXPECT_GT(encoded_size(gcs::wire::AppMsgWire{big}),
            encoded_size(gcs::wire::AppMsgWire{small}) + 900);
  gcs::wire::SyncMsg sync{StartChangeId{1}, View::initial(ProcessId{1}), {}};
  sync.cut[ProcessId{1}] = 5;
  sync.cut[ProcessId{2}] = 7;
  EXPECT_GT(encoded_size(sync), 20u) << "cut entries must be accounted";
}

TEST(Oracle, EnforcesStartChangeBeforeView) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  EXPECT_THROW(oracle.deliver_view({ProcessId{1}}), InvariantViolation);
  oracle.start_change({ProcessId{1}});
  EXPECT_NO_THROW(oracle.deliver_view({ProcessId{1}}));
  // Second view without a new start_change is illegal.
  EXPECT_THROW(oracle.deliver_view({ProcessId{1}}), InvariantViolation);
}

TEST(Oracle, CidsIncreasePerProcess) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  const auto c1 = oracle.start_change_to(ProcessId{1}, {ProcessId{1}});
  const auto c2 = oracle.start_change_to(ProcessId{1}, {ProcessId{1}});
  EXPECT_LT(c1, c2);
}

TEST(Oracle, ViewCarriesLatestCids) {
  membership::OracleMembership oracle;
  class Nop : public membership::Listener {
    void on_start_change(StartChangeId, const std::set<ProcessId>&) override {}
    void on_view(const View&) override {}
  } nop;
  oracle.attach(ProcessId{1}, nop);
  oracle.attach(ProcessId{2}, nop);
  oracle.start_change({ProcessId{1}, ProcessId{2}});
  oracle.start_change({ProcessId{1}, ProcessId{2}});
  const View v = oracle.deliver_view({ProcessId{1}, ProcessId{2}});
  EXPECT_EQ(v.start_id_of(ProcessId{1}), oracle.last_cid(ProcessId{1}));
  EXPECT_EQ(v.start_id_of(ProcessId{1}).value, 2u);
}

}  // namespace
}  // namespace vsgc
