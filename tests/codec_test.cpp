// Codec tests for every wire message type — the wire format is part of the
// public contract. The codec is derived from each struct's field list
// (util/serialization.hpp); these tests pin what that derivation must keep:
//   * golden vectors: the exact bytes of one sample per message, captured
//     from the hand-written encoders the derived codec replaced;
//   * one property suite over the type list of every wire struct: random
//     values round-trip, encoded_size() equals the encoded length, and every
//     truncated prefix fails with DecodeError;
//   * distinct tags, checked at compile time over the same type list;
//   * the decode-time rejections (wrong tag, forged deltas, forged frames).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <utility>

#include "baseline/two_round_endpoint.hpp"
#include "gcs/messages.hpp"
#include "membership/wire.hpp"
#include "transport/frame.hpp"
#include "util/rng.hpp"

namespace vsgc {
namespace {

View random_view(Rng& rng) {
  View v;
  v.id = ViewId{rng.next_u64() % 1000, static_cast<std::uint32_t>(rng.next_below(8))};
  const int n = static_cast<int>(rng.next_in(1, 6));
  for (int i = 0; i < n; ++i) {
    const ProcessId p{static_cast<std::uint32_t>(rng.next_below(100))};
    v.members.insert(p);
    v.start_id[p] = StartChangeId{rng.next_u64() % 50};
  }
  return v;
}

std::string random_payload(Rng& rng) {
  std::string s(rng.next_below(64), '\0');
  for (char& c : s) c = static_cast<char>(rng.next_in(0, 255));
  return s;
}

template <typename T>
void round_trip(const T& value) {
  const std::vector<std::uint8_t> bytes = encode(value);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], codec::tag_of<T>());
  EXPECT_EQ(encoded_size(value), bytes.size());
  Decoder dec(bytes);
  const T back = decode<T>(dec);
  EXPECT_EQ(value, back);
  EXPECT_TRUE(dec.done());
}

TEST(Codec, GcsViewMsg) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) round_trip(gcs::wire::ViewMsg{random_view(rng)});
}

TEST(Codec, GcsAppMsg) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    round_trip(gcs::wire::AppMsgWire{
        gcs::AppMsg{ProcessId{static_cast<std::uint32_t>(rng.next_below(100))},
                    rng.next_u64(), random_payload(rng)}});
  }
}

TEST(Codec, GcsFwdMsg) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    gcs::wire::FwdMsg m;
    m.orig = ProcessId{static_cast<std::uint32_t>(rng.next_below(100))};
    m.view = random_view(rng);
    m.index = rng.next_in(1, 1 << 20);
    m.msg = gcs::AppMsg{m.orig, rng.next_u64(), random_payload(rng)};
    round_trip(m);
  }
}

TEST(Codec, GcsSyncMsg) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    gcs::wire::SyncMsg m;
    m.cid = StartChangeId{rng.next_u64() % 1000};
    m.view = random_view(rng);
    for (ProcessId p : m.view.members) m.cut[p] = rng.next_in(0, 1 << 16);
    round_trip(m);
  }
}

TEST(Codec, MembershipStartChange) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    membership::wire::StartChange sc;
    sc.cid = StartChangeId{rng.next_u64() % 1000};
    const int n = static_cast<int>(rng.next_in(1, 8));
    for (int k = 0; k < n; ++k) {
      sc.set.insert(ProcessId{static_cast<std::uint32_t>(rng.next_below(100))});
    }
    round_trip(sc);
  }
}

TEST(Codec, MembershipViewDelivery) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    round_trip(membership::wire::ViewDelivery{random_view(rng)});
  }
}

TEST(Codec, MembershipViewDelta) {
  Rng rng(61);
  for (int i = 0; i < 50; ++i) {
    // A base view plus random churn: leaves, joins, a common cid bump, and
    // an occasional outlier — diff/apply must reconstruct `next` exactly,
    // and the wire form must round-trip.
    View base = random_view(rng);
    base.id = ViewId{1 + rng.next_u64() % 100, 0};
    View next;
    next.id = ViewId{base.id.epoch + 1 + rng.next_u64() % 10, 0};
    const std::uint64_t bump = rng.next_in(1, 4);
    for (ProcessId p : base.members) {
      if (rng.next_below(4) == 0) continue;  // leave
      next.members.insert(p);
      std::uint64_t cid = base.start_id.at(p).value + bump;
      if (rng.next_below(5) == 0) cid += 1 + rng.next_below(3);  // outlier
      next.start_id[p] = StartChangeId{cid};
    }
    for (int k = static_cast<int>(rng.next_below(3)); k > 0; --k) {  // joins
      const ProcessId p{static_cast<std::uint32_t>(200 + rng.next_below(50))};
      next.members.insert(p);
      next.start_id[p] = StartChangeId{rng.next_u64() % 50};
    }
    if (next.members.empty()) continue;

    const auto delta = membership::wire::ViewDelta::diff(base, next);
    round_trip(delta);
    const std::optional<View> applied = delta.apply(base);
    ASSERT_TRUE(applied.has_value());
    EXPECT_EQ(*applied, next);
  }
}

TEST(Codec, ViewDeltaForgedRejection) {
  Rng rng(62);
  View base = random_view(rng);
  base.id = ViewId{5, 0};
  View next = base;
  next.id = ViewId{6, 0};
  const auto delta = membership::wire::ViewDelta::diff(base, next);

  // apply() against the wrong base: rejected, never a garbage view.
  View other = base;
  other.id = ViewId{4, 0};
  EXPECT_FALSE(delta.apply(other).has_value());

  // A leave for a process that is not a member of the base.
  {
    auto forged = delta;
    forged.leaves.insert(ProcessId{9999});
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A join for a process that already is a member.
  {
    auto forged = delta;
    forged.joins[*base.members.begin()] = StartChangeId{1};
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A start-id exception for a process outside the view.
  {
    auto forged = delta;
    forged.exceptions[ProcessId{9999}] = StartChangeId{1};
    EXPECT_FALSE(forged.apply(base).has_value());
  }
  // A delta that removes everyone cannot produce an empty view.
  {
    auto forged = delta;
    forged.joins.clear();
    forged.leaves = base.members;
    EXPECT_FALSE(forged.apply(base).has_value());
  }

  // Wire-level rejection: non-advancing id, overlapping joins/leaves, and
  // every truncation fail cleanly with DecodeError.
  {
    auto forged = delta;
    forged.base = forged.id;  // base must be < id
    const auto bytes = encode(forged);
    Decoder dec(bytes);
    EXPECT_THROW(decode<membership::wire::ViewDelta>(dec), DecodeError);
  }
  {
    auto forged = delta;
    const ProcessId p = *base.members.begin();
    forged.leaves.insert(p);
    forged.joins[p] = StartChangeId{1};
    const auto bytes = encode(forged);
    Decoder dec(bytes);
    EXPECT_THROW(decode<membership::wire::ViewDelta>(dec), DecodeError);
  }
  {
    auto populated = delta;
    populated.leaves.insert(ProcessId{7});
    populated.joins[ProcessId{300}] = StartChangeId{3};
    populated.exceptions[*base.members.begin()] = StartChangeId{11};
    const auto full = encode(populated);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      Decoder dec(prefix);
      EXPECT_THROW(decode<membership::wire::ViewDelta>(dec), DecodeError)
          << "prefix of " << cut << " bytes decoded without error";
    }
  }
}

TEST(Codec, MembershipProposal) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    membership::wire::Proposal p;
    p.from = ServerId{static_cast<std::uint32_t>(rng.next_below(8))};
    p.round = rng.next_u64() % 10000;
    const int n = static_cast<int>(rng.next_in(0, 6));
    for (int k = 0; k < n; ++k) {
      const ProcessId q{static_cast<std::uint32_t>(rng.next_below(100))};
      p.local_alive.insert(q);
      p.cids[q] = StartChangeId{rng.next_u64() % 100};
    }
    const int m = static_cast<int>(rng.next_in(1, 4));
    for (int k = 0; k < m; ++k) {
      p.participants.insert(ServerId{static_cast<std::uint32_t>(rng.next_below(8))});
    }
    round_trip(p);
  }
}

TEST(Codec, MembershipHeartbeat) {
  round_trip(membership::wire::Heartbeat{true, 3, 0});
  round_trip(membership::wire::Heartbeat{false, 42, 0x8000000000000007ull});
}

TEST(Codec, WireSizeMatchesEncodedSizeForViewCarriers) {
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const gcs::wire::ViewMsg vm{random_view(rng)};
    EXPECT_EQ(encoded_size(vm), encode(vm).size());
  }
}

TEST(Codec, AggregateSyncRejectsWrongInnerTag) {
  // Each relayed entry carries its SyncMsg whole, inner tag byte included;
  // hostile bytes with any other inner tag must not decode as a SyncMsg.
  gcs::wire::AggregateSyncMsg agg;
  agg.entries.emplace_back(ProcessId{3}, gcs::wire::SyncMsg{});
  std::vector<std::uint8_t> bytes = encode(agg);
  // tag (1) + hops (1) + entry count (4) + entry process id (4).
  const std::size_t inner_tag = 10;
  ASSERT_EQ(bytes[inner_tag], codec::tag_of<gcs::wire::SyncMsg>());
  {
    Decoder dec(bytes);
    EXPECT_EQ(decode<gcs::wire::AggregateSyncMsg>(dec), agg);
  }
  for (std::uint8_t forged :
       {static_cast<std::uint8_t>(gcs::wire::Tag::kViewMsg),
        static_cast<std::uint8_t>(gcs::wire::Tag::kAggregateSync),
        static_cast<std::uint8_t>(membership::wire::Tag::kStartChange),
        std::uint8_t{0}, std::uint8_t{0xff}}) {
    bytes[inner_tag] = forged;
    Decoder dec(bytes);
    EXPECT_THROW(decode<gcs::wire::AggregateSyncMsg>(dec), DecodeError)
        << "inner tag " << int{forged} << " accepted";
  }
}

TEST(Codec, EncoderReserveNeverChangesEncoding) {
  // reserve() is a pure capacity hint; the byte stream must be identical
  // with and without it, for any mix of scalar and bulk appends.
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    const View v = random_view(rng);
    const std::string s = random_payload(rng);
    Encoder plain;
    Encoder hinted;
    hinted.reserve(1 + 8 + 4 + 4 + 4 * v.members.size() + 4 + s.size());
    for (Encoder* e : {&plain, &hinted}) {
      e->put_u8(0x7e);
      encode(v.id, *e);
      encode(v.members, *e);
      e->put_string(s);
    }
    ASSERT_EQ(plain.bytes(), hinted.bytes()) << "round " << round;
    Decoder dec(hinted.bytes());
    EXPECT_EQ(dec.get_u8(), 0x7e);
    EXPECT_EQ(decode<ViewId>(dec), v.id);
    EXPECT_EQ(decode<std::set<ProcessId>>(dec), v.members);
    EXPECT_EQ(dec.get_string(), s);
    EXPECT_TRUE(dec.done());
  }
}

// --------------------------------------------------------------------------
// Transport frame codec (DESIGN.md §11): packed-frame round-trips and
// adversarial truncated / forged-count inputs. Decoding must fail cleanly
// via Decoder::need() (DecodeError), never read out of bounds, and never let
// a forged entry count drive an unbounded allocation.
// --------------------------------------------------------------------------

transport::wire::EncodedFrame random_frame(Rng& rng, std::size_t entries) {
  transport::wire::EncodedFrame f;
  f.header.flags = static_cast<std::uint8_t>(rng.next_below(4));
  f.header.incarnation = rng.next_u64();
  f.header.first_seq = 1 + rng.next_u64() % 1000;
  f.header.base_seq = f.header.first_seq + rng.next_u64() % 100;
  f.header.ack_incarnation = rng.next_u64();
  f.header.ack_seq = rng.next_u64() % 5000;
  for (std::size_t i = 0; i < entries; ++i) {
    std::vector<std::uint8_t> p(rng.next_below(48));
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_below(256));
    f.payloads.push_back(std::move(p));
  }
  f.header.count = static_cast<std::uint32_t>(entries);
  return f;
}

TEST(FrameCodec, PackedFrameRoundTrip) {
  Rng rng(11);
  for (std::size_t entries : {0u, 1u, 2u, 7u, 64u}) {
    const auto f = random_frame(rng, entries);
    const auto bytes = encode(f);
    Decoder dec(bytes);
    const auto back = decode<transport::wire::EncodedFrame>(dec);
    EXPECT_EQ(back.payloads, f.payloads);
    EXPECT_EQ(back.header.incarnation, f.header.incarnation);
    EXPECT_EQ(back.header.base_seq, f.header.base_seq);
    EXPECT_EQ(back.header.ack_seq, f.header.ack_seq);
    EXPECT_EQ(back.header.count, entries);
    EXPECT_TRUE(dec.done());
  }
}

TEST(FrameCodec, HeaderOnlyAckFrameRoundTrip) {
  transport::wire::EncodedFrame ack;
  ack.header.flags = transport::wire::kFlagHasAck;
  ack.header.ack_incarnation = 7;
  ack.header.ack_seq = 41;
  const auto bytes = encode(ack);
  Decoder dec(bytes);
  const auto back = decode<transport::wire::EncodedFrame>(dec);
  EXPECT_EQ(back, ack);
  EXPECT_TRUE(dec.done());
}

TEST(FrameCodec, GroupTagAndSackRoundTrip) {
  Rng rng(14);
  for (int i = 0; i < 20; ++i) {
    auto f = random_frame(rng, rng.next_below(4));
    f.header.group = static_cast<std::uint32_t>(rng.next_below(3) == 0
                                                    ? 0
                                                    : 1 + rng.next_below(100));
    if (rng.next_below(2) == 0) {
      std::uint64_t lo = 1 + rng.next_u64() % 50;
      for (std::size_t r = 0; r < 1 + rng.next_below(5); ++r) {
        const std::uint64_t hi = lo + rng.next_below(4);
        f.header.sack.insert_run(lo, hi);
        lo = hi + 2 + rng.next_below(8);  // keep runs maximal
      }
    }
    const auto bytes = encode(f);
    Decoder dec(bytes);
    const auto back = decode<transport::wire::EncodedFrame>(dec);
    // The presence flags are derived on encode and stripped on decode, so
    // the whole struct compares equal — group-0 / empty-sack frames pay
    // zero extra bytes.
    EXPECT_EQ(back, f);
    EXPECT_TRUE(dec.done());
  }
}

TEST(FrameCodec, ForgedGroupAndSackAreRejected) {
  // A set presence flag with a zero group tag (or an empty sack) is a forged
  // frame: honest encoders only set the flag when the field is non-trivial.
  {
    transport::wire::FrameHeader h;
    h.flags = transport::wire::kFlagHasGroup;
    auto bytes = encode(h);
    bytes.resize(bytes.size() + 4, 0);  // group tag = 0
    Decoder dec(bytes);
    EXPECT_THROW(decode<transport::wire::EncodedFrame>(dec), DecodeError);
  }
  {
    transport::wire::FrameHeader h;
    h.flags = transport::wire::kFlagHasSack;
    auto bytes = encode(h);
    bytes.resize(bytes.size() + 4, 0);  // sack run count = 0
    Decoder dec(bytes);
    EXPECT_THROW(decode<transport::wire::EncodedFrame>(dec), DecodeError);
  }
  // Non-maximal (abutting) runs and inverted runs are rejected by the
  // interval-set decoder, so a malicious sack cannot desync peers.
  {
    transport::wire::EncodedFrame f;
    f.header.sack.insert_run(5, 9);
    const auto bytes = encode(f);
    EXPECT_THROW(
        {
          // Flip the run to [9, 5] in place: the single (lo, hi) u64 pair is
          // the last 16 bytes of the encoding.
          std::vector<std::uint8_t> forged = bytes;
          const std::size_t base = forged.size() - 16;
          for (std::size_t k = 0; k < 8; ++k) {
            std::swap(forged[base + k], forged[base + 8 + k]);
          }
          Decoder dec(forged);
          decode<transport::wire::EncodedFrame>(dec);
        },
        DecodeError);
  }
}

TEST(FrameCodec, EveryTruncationFailsCleanly) {
  Rng rng(12);
  const auto f = random_frame(rng, 5);
  const std::vector<std::uint8_t> full = encode(f);
  // Any strict prefix is missing header bytes, a length prefix, or payload
  // bytes: decode must throw DecodeError, never read past the buffer.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    Decoder dec(prefix);
    EXPECT_THROW(decode<transport::wire::EncodedFrame>(dec), DecodeError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(FrameCodec, OversizedEntryCountIsRejected) {
  transport::wire::FrameHeader h;
  h.count = static_cast<std::uint32_t>(transport::wire::kMaxFrameEntries + 1);
  const auto bytes = encode(h);
  Decoder dec(bytes);
  EXPECT_THROW(decode<transport::wire::EncodedFrame>(dec), DecodeError);
}

TEST(FrameCodec, ForgedCountWithNoPayloadBytesFailsWithoutHugeAlloc) {
  // count claims the maximum but no payload bytes follow: the reserve is
  // clamped by the bytes actually remaining, and decode fails at entry 0.
  transport::wire::FrameHeader h;
  h.count = static_cast<std::uint32_t>(transport::wire::kMaxFrameEntries);
  const auto bytes = encode(h);
  Decoder dec(bytes);
  EXPECT_THROW(decode<transport::wire::EncodedFrame>(dec), DecodeError);
}

TEST(Codec, BytesBlobRoundTrip) {
  Rng rng(13);
  for (std::size_t n : {0u, 1u, 63u, 1024u}) {
    std::vector<std::uint8_t> blob(n);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    Encoder enc;
    enc.put_bytes(blob);
    Decoder dec(enc.bytes());
    EXPECT_EQ(dec.get_bytes(), blob);
    EXPECT_TRUE(dec.done());
  }
}


// --------------------------------------------------------------------------
// The type list of every wire struct. The tagged messages must have distinct
// tags (checked at compile time); every entry runs the property suite below.
// --------------------------------------------------------------------------

template <class T>
constexpr int tag_or_none() {
  if constexpr (codec::HasTag<T>) {
    return codec::tag_of<T>();
  } else {
    return -1;
  }
}

template <class... Ts>
struct WireList {
  using Types = ::testing::Types<Ts...>;

  static constexpr std::size_t tagged() {
    return ((tag_or_none<Ts>() >= 0 ? 1 : 0) + ...);
  }

  static constexpr bool tags_distinct() {
    constexpr std::array<int, sizeof...(Ts)> tags{tag_or_none<Ts>()...};
    for (std::size_t i = 0; i < tags.size(); ++i) {
      for (std::size_t j = i + 1; j < tags.size(); ++j) {
        if (tags[i] >= 0 && tags[i] == tags[j]) return false;
      }
    }
    return true;
  }
};

using AllWire = WireList<
    gcs::wire::ViewMsg, gcs::wire::AppMsgWire, gcs::wire::FwdMsg,
    gcs::wire::SyncMsg, gcs::wire::AggregateSyncMsg,
    membership::wire::StartChange, membership::wire::ViewDelivery,
    membership::wire::ViewDelta, membership::wire::Proposal,
    membership::wire::Heartbeat, membership::wire::Leave,
    baseline::wire::AgreeMsg, baseline::wire::SyncMsg,
    transport::wire::FrameHeader, transport::wire::EncodedFrame>;

TEST(Codec, TagsAreDistinct) {
  static_assert(AllWire::tags_distinct(),
                "two wire messages share a tag byte");
  static_assert(AllWire::tagged() == 13, "a tagged wire message is missing");
  // Baseline tags sit above the gcs (1-5) and membership (16-21) ranges.
  static_assert(codec::tag_of<baseline::wire::AgreeMsg>() > 21 &&
                codec::tag_of<baseline::wire::SyncMsg>() > 21);
  EXPECT_TRUE(AllWire::tags_distinct());
}

// --- Random values, derived from the same field lists ----------------------

template <class T>
void randomize(Rng& rng, T& v);

struct Randomizer {
  Rng& rng;
  template <class... F>
  void operator()(F&&... f) {
    (randomize(rng, f), ...);
  }
};

/// Restores the cross-field invariants decode() validates.
template <class T>
void fixup(Rng&, T&) {}

void fixup(Rng&, membership::wire::ViewDelta& d) {
  if (!(d.base < d.id)) {
    d.base = d.id;
    d.id.epoch = d.base.epoch + 1;
  }
  for (ProcessId p : d.leaves) d.joins.erase(p);
}

void fixup(Rng& rng, transport::wire::FrameHeader& h) {
  // Presence bits are derived on encode and stripped on decode.
  h.flags &= transport::wire::kFlagHasAck | transport::wire::kFlagReset;
  if (rng.next_below(3) == 0) h.group = 0;
  h.count %= 8;
  h.sack.clear();
  std::uint64_t lo = rng.next_u64() % 1000;
  for (std::uint64_t r = rng.next_below(4); r > 0; --r) {
    const std::uint64_t hi = lo + rng.next_below(5);
    h.sack.insert_run(lo, hi);
    lo = hi + 2 + rng.next_below(9);  // keep runs maximal
  }
}

template <class T>
void randomize(Rng& rng, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = rng.next_below(2) == 1;
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(rng.next_u64());
  } else if constexpr (std::is_same_v<T, ProcessId> ||
                       std::is_same_v<T, ServerId> ||
                       std::is_same_v<T, StartChangeId>) {
    randomize(rng, v.value);
  } else if constexpr (std::is_same_v<T, ViewId>) {
    v.epoch = rng.next_u64() >> 1;
    v.origin = static_cast<std::uint32_t>(rng.next_u64());
  } else if constexpr (codec::IsNamed<T>::value || codec::IsFlat<T>::value) {
    randomize(rng, v.value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = random_payload(rng);
  } else if constexpr (codec::IsPair<T>::value) {
    randomize(rng, v.first);
    randomize(rng, v.second);
  } else if constexpr (codec::IsMap<T>::value) {
    v.clear();
    for (std::int64_t n = rng.next_in(1, 4); n > 0; --n) {
      typename T::key_type key{};
      randomize(rng, key);
      randomize(rng, v[key]);
    }
  } else if constexpr (codec::IsSet<T>::value || codec::IsVector<T>::value) {
    v.clear();
    for (std::int64_t n = rng.next_in(1, 4); n > 0; --n) {
      typename T::value_type e{};
      randomize(rng, e);
      v.insert(v.end(), std::move(e));
    }
  } else if constexpr (codec::IsCountedBy<T>::value) {
    v.items.resize(v.count);
    for (auto& e : v.items) randomize(rng, e);
  } else if constexpr (codec::HasFields<T>) {
    Randomizer r{rng};
    v.fields(r);
    fixup(rng, v);
  } else {
    static_assert(std::is_same_v<T, transport::wire::FrameHeader>);
    Randomizer r{rng};
    r(v.flags, v.incarnation, v.first_seq, v.base_seq, v.ack_incarnation,
      v.ack_seq, v.count, v.group);
    fixup(rng, v);
  }
}

// --- The property suite, one instantiation per wire struct -----------------

template <class T>
class WireProperty : public ::testing::Test {};

TYPED_TEST_SUITE(WireProperty, AllWire::Types);

TYPED_TEST(WireProperty, RandomValuesRoundTrip) {
  Rng rng(0x5eed);
  for (int i = 0; i < 40; ++i) {
    TypeParam value{};
    randomize(rng, value);
    ASSERT_FALSE(value == TypeParam{}) << "sample " << i << " is default";
    const std::vector<std::uint8_t> bytes = encode(value);
    if constexpr (codec::HasTag<TypeParam>) {
      EXPECT_EQ(bytes[0], codec::tag_of<TypeParam>());
    }
    Decoder dec(bytes);
    EXPECT_EQ(decode<TypeParam>(dec), value) << "sample " << i;
    EXPECT_TRUE(dec.done()) << "sample " << i;
  }
}

TYPED_TEST(WireProperty, EncodedSizeIsTheEncodedLength) {
  Rng rng(0x512e);
  EXPECT_EQ(encoded_size(TypeParam{}), encode(TypeParam{}).size());
  for (int i = 0; i < 40; ++i) {
    TypeParam value{};
    randomize(rng, value);
    EXPECT_EQ(encoded_size(value), encode(value).size()) << "sample " << i;
  }
}

TYPED_TEST(WireProperty, EveryTruncationThrowsDecodeError) {
  Rng rng(0x7a11);
  for (int i = 0; i < 10; ++i) {
    TypeParam value{};
    randomize(rng, value);
    const std::vector<std::uint8_t> full = encode(value);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      Decoder dec(prefix);
      EXPECT_THROW(decode<TypeParam>(dec), DecodeError)
          << "prefix of " << cut << " of " << full.size() << " bytes";
    }
  }
}

// --- Golden vectors ---------------------------------------------------------
//
// One fixed sample per wire struct and its exact encoding. The hex strings
// were produced by the hand-written encoders the derived codec replaced, so
// these pin the wire format byte for byte. The two baseline messages had only
// a size model (13 and 109 bytes for these samples), which their derived
// encodings reproduce.

View sample_view() {
  View v;
  v.id = ViewId{0x0102030405060708ull, 0x0a0b0c0du};
  v.members = {ProcessId{3}, ProcessId{70000}, ProcessId{0xfffffffeu}};
  v.start_id = {{ProcessId{3}, StartChangeId{9}},
                {ProcessId{70000}, StartChangeId{0x1122334455667788ull}},
                {ProcessId{0xfffffffeu}, StartChangeId{1}}};
  return v;
}

gcs::AppMsg sample_app() {
  return gcs::AppMsg{ProcessId{0x01020304u}, 0xfedcba9876543210ull,
                     std::string("hi\0there", 8)};
}

gcs::wire::SyncMsg sample_gcs_sync() {
  gcs::wire::SyncMsg m;
  m.cid = StartChangeId{0x8000000000000001ull};
  m.view = sample_view();
  m.cut = {{ProcessId{3}, -1}, {ProcessId{70000}, 0x7fffffffffffffffll}};
  return m;
}

gcs::wire::ViewMsg sample_view_msg() {
  gcs::wire::ViewMsg m;
  m.view = sample_view();
  return m;
}

gcs::wire::AppMsgWire sample_app_msg() {
  gcs::wire::AppMsgWire m;
  m.msg = sample_app();
  return m;
}

gcs::wire::FwdMsg sample_fwd_msg() {
  gcs::wire::FwdMsg m;
  m.orig = ProcessId{70000};
  m.view = sample_view();
  m.index = 0x0123456789abcdefll;
  m.msg = sample_app();
  return m;
}

gcs::wire::AggregateSyncMsg sample_aggregate_sync() {
  gcs::wire::AggregateSyncMsg m;
  m.hops = 1;
  m.entries.emplace_back(ProcessId{3}, sample_gcs_sync());
  gcs::wire::SyncMsg compact;
  compact.cid = StartChangeId{5};
  compact.view = View::initial(ProcessId{8});
  m.entries.emplace_back(ProcessId{8}, compact);
  return m;
}

membership::wire::StartChange sample_start_change() {
  membership::wire::StartChange m;
  m.cid = StartChangeId{0x0706050403020100ull};
  m.set = {ProcessId{1}, ProcessId{2}, ProcessId{0x80000000u}};
  return m;
}

membership::wire::ViewDelivery sample_view_delivery() {
  membership::wire::ViewDelivery m;
  m.view = sample_view();
  return m;
}

membership::wire::ViewDelta sample_view_delta() {
  membership::wire::ViewDelta m;
  m.id = ViewId{12, 2};
  m.base = ViewId{11, 0xabcdef01u};
  m.cid_bump = 3;
  m.leaves = {ProcessId{4}, ProcessId{5}};
  m.joins = {{ProcessId{6}, StartChangeId{0x100}}};
  m.exceptions = {{ProcessId{7}, StartChangeId{0x0102}},
                  {ProcessId{9}, StartChangeId{0xffffffffffffffffull}}};
  return m;
}

membership::wire::Proposal sample_proposal() {
  membership::wire::Proposal m;
  m.from = ServerId{0x00c0ffeeu};
  m.round = 0x0000000100000002ull;
  m.local_alive = {ProcessId{2}, ProcessId{40}};
  m.cids = {{ProcessId{2}, StartChangeId{7}}, {ProcessId{40}, StartChangeId{8}}};
  m.participants = {ServerId{0}, ServerId{0x00c0ffeeu}};
  return m;
}

membership::wire::Heartbeat sample_heartbeat() {
  membership::wire::Heartbeat m;
  m.from_server = true;
  m.id = 0x01020304u;
  m.incarnation = 0xa1b2c3d4e5f60718ull;
  return m;
}

membership::wire::Leave sample_leave() {
  membership::wire::Leave m;
  m.who = ProcessId{0x0badf00du};
  return m;
}

transport::wire::FrameHeader sample_frame_header() {
  transport::wire::FrameHeader h;
  h.flags = transport::wire::kFlagHasAck;
  h.incarnation = 0x1111111111111111ull;
  h.first_seq = 2;
  h.base_seq = 5;
  h.ack_incarnation = 0x2222222222222222ull;
  h.ack_seq = 0x33;
  h.count = 2;
  h.group = 7;
  h.sack.insert_run(40, 41);
  h.sack.insert_run(50, 50);
  return h;
}

transport::wire::EncodedFrame sample_encoded_frame() {
  transport::wire::EncodedFrame f;
  f.header = sample_frame_header();
  f.payloads = {{0xde, 0xad}, {}};
  return f;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

template <class T>
void expect_golden(const T& value, const std::string& golden) {
  const std::vector<std::uint8_t> bytes = encode(value);
  EXPECT_EQ(hex(bytes), golden);
  EXPECT_EQ(encoded_size(value), golden.size() / 2);
  Decoder dec(bytes);
  EXPECT_EQ(decode<T>(dec), value);
  EXPECT_TRUE(dec.done());
}

const char* const kSampleViewHex =
    "08070605040302010d0c0b0a030000000300000070110100feffffff03000000030000"
    "000900000000000000701101008877665544332211feffffff0100000000000000";

TEST(WireGolden, GcsMessages) {
  expect_golden(sample_view_msg(), std::string("01") + kSampleViewHex);
  expect_golden(sample_app_msg(),
                "02040302011032547698badcfe080000006869007468657265");
  expect_golden(sample_fwd_msg(),
                std::string("0370110100") + kSampleViewHex +
                    "efcdab8967452301040302011032547698badcfe0800000068690074"
                    "68657265");
  expect_golden(sample_gcs_sync(),
                std::string("040100000000000080") + kSampleViewHex +
                    "0200000003000000ffffffffffffffff70110100ffffffffffffff7f");
  expect_golden(
      sample_aggregate_sync(),
      std::string("05010200000003000000040100000000000080") + kSampleViewHex +
          "0200000003000000ffffffffffffffff70110100ffffffffffffff7f08000000"
          "040500000000000000000000000000000000000000010000000800000001000000"
          "08000000000000000000000000000000");
}

TEST(WireGolden, MembershipMessages) {
  expect_golden(sample_start_change(),
                "10000102030405060703000000010000000200000000000080");
  expect_golden(sample_view_delivery(), std::string("11") + kSampleViewHex);
  expect_golden(sample_view_delta(),
                "150c00000000000000020000000b0000000000000001efcdab030000000000"
                "0000020000000400000005000000010000000600000000010000000000000200"
                "000007000000020100000000000009000000ffffffffffffffff");
  expect_golden(sample_proposal(),
                "12eeffc000020000000100000002000000020000002800000002000000020000"
                "0007000000000000002800000008000000000000000200000000000000eeffc0"
                "00");
  expect_golden(sample_heartbeat(), "1301040302011807f6e5d4c3b2a1");
  expect_golden(sample_leave(), "140df0ad0b");
}

TEST(WireGolden, BaselineMessages) {
  const baseline::wire::AgreeMsg agree{ViewId{12, 2}};
  expect_golden(agree, "200c0000000000000002000000");
  const baseline::wire::SyncMsg sync{
      ViewId{12, 2}, sample_view(), {{ProcessId{3}, -1}, {ProcessId{70000}, 5}}};
  expect_golden(sync, std::string("210c0000000000000002000000") +
                          kSampleViewHex +
                          "0200000003000000ffffffffffffffff701101000500000000"
                          "000000");
  EXPECT_EQ(encoded_size(agree), 13u);
  EXPECT_EQ(encoded_size(sync), 109u);
}

TEST(WireGolden, FrameHeaderAndEncodedFrame) {
  const std::string header =
      "0d1111111111111111020000000000000005000000000000002222222222222222330000"
      "0000000000020000000700000002000000280000000000000029000000000000003200"
      "0000000000003200000000000000";
  expect_golden(sample_frame_header(), header);
  expect_golden(sample_encoded_frame(), header + "02000000dead00000000");
}

}  // namespace
}  // namespace vsgc
