// CO_RFIFO wire frame format (DESIGN.md §11).
//
// One Frame is the unit the transport puts on the datagram network: a fixed
// header plus zero or more consecutively-sequenced payload entries. A frame
// with entries is a data frame; a frame without entries is pure control
// (standalone cumulative ack, or a stream-reset request). Every data frame
// may additionally piggyback the sender's cumulative ack for the *reverse*
// stream, which is what lets steady bidirectional traffic run with almost no
// standalone ack packets.
//
// The codec below is the byte-level contract: the transport charges every
// frame encoded_size(header) + Σ(4 + payload size), exactly the bytes
// EncodedFrame encodes, and the adversarial decode tests drive truncated and
// oversized-count frames through it. Inside the simulator frames travel as
// structured objects (one refcounted payload handle per entry — never a
// per-entry std::any wrap), so the codec is exercised by tests, not per
// packet on the hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "util/interval_set.hpp"
#include "util/serialization.hpp"

namespace vsgc::transport::wire {

/// Hard cap on entries per decoded frame: a forged count above this fails
/// decoding instead of driving a giant allocation.
constexpr std::size_t kMaxFrameEntries = 4096;

/// Cap on SACK runs per frame: beyond this the receiver falls back to the
/// cumulative ack alone (the retransmit path still converges, just with more
/// duplicate deliveries suppressed receiver-side).
constexpr std::uint32_t kMaxSackRuns = 64;

constexpr std::uint8_t kFlagHasAck = 0x1;    ///< ack_* fields are meaningful
constexpr std::uint8_t kFlagReset = 0x2;     ///< "restart this stream" request
constexpr std::uint8_t kFlagHasGroup = 0x4;  ///< group tag present (muxing)
constexpr std::uint8_t kFlagHasSack = 0x8;   ///< selective-ack runs present

/// Fixed frame header. `base_seq` numbers the first entry; entry i carries
/// sequence base_seq + i (entries in one frame are always consecutive).
/// `group` multiplexes many logical channels over one sequenced session
/// (DESIGN.md §13): all groups share one seq space, one ack stream, and one
/// retransmit budget per peer pair. `sack` lists received-but-unacked runs
/// above ack_seq so the sender can skip retransmitting across loss gaps.
///
/// The codec is hand-written because `group` and `sack` are present on the
/// wire only when their flag bit is set; encode derives those bits and
/// decode strips them again.
struct FrameHeader {
  std::uint8_t flags = 0;
  std::uint64_t incarnation = 0;      ///< sender connection incarnation
  std::uint64_t first_seq = 1;        ///< lowest seq still retransmittable
  std::uint64_t base_seq = 0;         ///< seq of entry 0 (data frames)
  std::uint64_t ack_incarnation = 0;  ///< reverse-stream incarnation acked
  std::uint64_t ack_seq = 0;          ///< cumulative ack for reverse stream
  std::uint32_t count = 0;            ///< number of payload entries
  std::uint32_t group = 0;            ///< multiplexed channel tag
  util::IntervalSet sack{};           ///< received runs above ack_seq

  template <class Out>
  void encode(Out& enc) const {
    std::uint8_t f = flags;
    if (group != 0) f |= kFlagHasGroup;
    if (!sack.empty()) f |= kFlagHasSack;
    enc.put_u8(f);
    enc.put_u64(incarnation);
    enc.put_u64(first_seq);
    enc.put_u64(base_seq);
    enc.put_u64(ack_incarnation);
    enc.put_u64(ack_seq);
    enc.put_u32(count);
    if (group != 0) enc.put_u32(group);
    if (!sack.empty()) sack.encode(enc);
  }

  static FrameHeader decode(Decoder& dec) {
    FrameHeader h;
    h.flags = dec.get_u8();
    h.incarnation = dec.get_u64();
    h.first_seq = dec.get_u64();
    h.base_seq = dec.get_u64();
    h.ack_incarnation = dec.get_u64();
    h.ack_seq = dec.get_u64();
    h.count = dec.get_u32();
    if (h.count > kMaxFrameEntries) {
      throw DecodeError("frame entry count exceeds kMaxFrameEntries");
    }
    if (h.flags & kFlagHasGroup) {
      h.group = dec.get_u32();
      if (h.group == 0) throw DecodeError("group flag with zero group tag");
    }
    if (h.flags & kFlagHasSack) {
      h.sack = util::IntervalSet::decode(dec, kMaxSackRuns);
      if (h.sack.empty()) throw DecodeError("sack flag with empty sack");
    }
    h.flags &= static_cast<std::uint8_t>(~(kFlagHasGroup | kFlagHasSack));
    return h;
  }

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

/// Bytes one entry of `payload_size` bytes adds to an encoded frame: the u32
/// length prefix EncodedFrame writes before each payload, plus the payload.
inline std::size_t encoded_entry_size(std::size_t payload_size) {
  return 4 + payload_size;
}

/// A fully serializable frame: header plus raw payload bytes per entry. The
/// entry count is the header's `count` field (which must equal
/// payloads.size() when encoding); each entry is a u32 length + its bytes.
/// Decoding fails cleanly (DecodeError) on any truncation and on counts
/// beyond kMaxFrameEntries, and never reserves from an untrusted count.
struct EncodedFrame {
  FrameHeader header{};
  std::vector<std::vector<std::uint8_t>> payloads{};

  template <class V>
  void fields(V& v) {
    v(header, codec::counted_by(header.count, payloads));
  }

  friend bool operator==(const EncodedFrame&, const EncodedFrame&) = default;
};

}  // namespace vsgc::transport::wire
