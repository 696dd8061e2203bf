// E2 — Steady-state within-view multicast throughput and delivery latency
// (Section 4.1.1's service, full stack: GCS over CO_RFIFO over the datagram
// network, real membership servers), plus the raw-transport fan-in case that
// gates the batched data plane (DESIGN.md §11).
//
// Expect: latency ~ one network hop regardless of group size (parallel
// multicast); aggregate deliveries scale with group size; per-message wire
// cost grows linearly in fan-out; batching + delayed/piggybacked acks cut
// simulator events per message enough for a >= 3x wall-clock msgs/sec win on
// the fan-in case (the sim network has no bandwidth model, so the batching
// dividend shows up as wall-clock event economy, like bench_simperf's kernel
// gate — wall-clock here is a host-dependent measurement, not sim state).
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "app/world.hpp"
#include "bench/helpers.hpp"
#include "obs/span.hpp"
#include "obs/xport_metrics.hpp"

using namespace vsgc;
using namespace vsgc::bench;

namespace {

/// Header overhead per entry, from the codec's own sizes: every frame pays a
/// bare frame header (no group tag, no SACK runs), every entry its length
/// prefix; standalone acks ride in the frame count with zero entries, so
/// their cost lands here too.
double header_overhead_per_entry(std::uint64_t frames, std::uint64_t entries) {
  if (entries == 0) return 0.0;
  const std::size_t frame_header = encoded_size(transport::wire::FrameHeader{});
  const std::size_t entry_header = transport::wire::encoded_entry_size(0);
  return static_cast<double>(frames * frame_header + entries * entry_header) /
         static_cast<double>(entries);
}

struct Result {
  double msgs_per_sec = 0;
  double avg_latency_ms = 0;
  double bytes_per_msg = 0;
  double overhead_bytes_per_msg = 0;  ///< honest header cost: frame + entry
  // Per-phase p95s from the causal span layer (DESIGN.md §10); log2-bucket
  // resolution — wire is the transport leg, gate the delivery-condition wait.
  std::uint64_t wire_p95_us = 0;
  std::uint64_t gate_p95_us = 0;
  std::uint64_t e2e_p95_us = 0;
};

Result run_case(int n, int payload_bytes, int messages,
                obs::BenchArtifact& art, obs::Registry& reg) {
  app::WorldConfig cfg;
  cfg.num_clients = n;
  cfg.attach_checkers = false;   // measuring, not verifying
  cfg.record_trace = false;      // nothing buffers the event stream
  cfg.lifecycle_spans = true;    // span histograms ride the trace bus
  app::World w(cfg);
  // Two span collectors: a per-case registry feeds this row's p95 columns,
  // the shared one accumulates the artifact's span.* histograms.
  obs::Registry case_reg;
  obs::SpanCollector case_spans(case_reg);
  obs::SpanCollector all_spans(reg);
  w.trace().subscribe(case_spans);
  w.trace().subscribe(all_spans);

  std::uint64_t delivered = 0;
  std::map<std::uint64_t, sim::Time> sent_at;
  double latency_sum = 0;
  std::uint64_t latency_n = 0;
  for (int i = 0; i < n; ++i) {
    w.client(i).on_deliver(
        [&](ProcessId, const gcs::AppMsg& m) {
          ++delivered;
          auto it = sent_at.find(m.uid);
          if (it != sent_at.end()) {
            latency_sum += ms(w.sim().now() - it->second);
            ++latency_n;
          }
        });
  }
  // Post-mortem accounting only (counters read after the run; nothing
  // subscribes to the trace bus while the measured traffic flows).
  struct Tally {
    obs::BenchArtifact& art;
    obs::Registry& reg;
    app::World& w;
    ~Tally() {
      art.tally(w.sim());
      record_network_stats(reg, w.network());
    }
  } tally{art, reg, w};

  w.start();
  if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
    return {};
  }

  const transport::CoRfifoTransport::Stats before =
      w.process(0).transport().stats();
  const sim::Time start = w.sim().now();
  const std::string payload(static_cast<std::size_t>(payload_bytes), 'x');
  // Sender p1 streams `messages` messages, paced 100us apart.
  for (int k = 0; k < messages; ++k) {
    w.sim().schedule_at(start + k * 100, [&w, &sent_at, payload]() {
      const gcs::AppMsg m = w.process(0).endpoint().send(payload);
      sent_at[m.uid] = w.sim().now();
    });
  }
  w.run_for(20 * sim::kSecond);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(messages) * static_cast<std::uint64_t>(n);
  if (delivered < expected) return {};

  // Time until the last delivery.
  const double span_s =
      static_cast<double>(latency_n ? (messages - 1) * 100 : 1) / sim::kSecond +
      latency_sum / latency_n / 1000.0;
  const transport::CoRfifoTransport::Stats after =
      w.process(0).transport().stats();
  const std::uint64_t frames = after.frames_sent - before.frames_sent;
  const std::uint64_t entries = after.entries_sent - before.entries_sent;
  const double overhead = header_overhead_per_entry(frames, entries);
  return {static_cast<double>(messages) / span_s,
          latency_sum / static_cast<double>(latency_n),
          static_cast<double>(after.bytes_sent - before.bytes_sent) / messages,
          overhead,
          case_reg.histogram("span.msg.wire_us").quantile(0.95),
          case_reg.histogram("span.msg.gate_us").quantile(0.95),
          case_reg.histogram("span.msg.e2e_us").quantile(0.95)};
}

/// The batching gate's workload: raw CO_RFIFO transports, many senders
/// converging on one receiver in same-instant bursts — the shape where
/// sender-side packing and delayed acks pay the most. Same simulated traffic
/// with batching on and off; the ratio of wall-clock msgs/sec is the gate.
struct FaninResult {
  bool ok = false;
  double wall_seconds = 0;
  double msgs_per_sec = 0;        ///< wall-clock, like bench_simperf
  std::uint64_t frames_sent = 0;  ///< across all senders
  double entries_per_frame = 0;
  double bytes_per_msg = 0;
  double overhead_bytes_per_msg = 0;
  std::uint64_t acks_standalone = 0;   ///< receiver's standalone ack frames
  std::uint64_t acks_piggybacked = 0;  ///< receiver's piggybacked acks
  std::uint64_t ooo_dropped = 0;
  std::uint64_t sim_events = 0;
};

constexpr int kFaninSenders = 8;
constexpr int kFaninBurst = 32;    ///< same-instant sends per sender per burst
constexpr int kFaninBursts = 250;  ///< one burst per simulated millisecond
constexpr int kFaninPayload = 8;
constexpr std::uint64_t kFaninMessages = static_cast<std::uint64_t>(
    kFaninSenders * kFaninBurst * kFaninBursts);

FaninResult run_fanin(bool batching, obs::BenchArtifact& art,
                      obs::Registry& reg) {
  sim::Simulator sim;
  net::Network network(sim, Rng(1), {});
  const net::NodeId receiver{1};
  std::vector<std::unique_ptr<transport::CoRfifoTransport>> xports;
  transport::CoRfifoTransport::Config tcfg;
  tcfg.batching = batching;
  if (batching) tcfg.ack_delay = 200;  // coalesce acks across a burst's frames
  for (int i = 0; i <= kFaninSenders; ++i) {
    xports.push_back(std::make_unique<transport::CoRfifoTransport>(
        sim, network, net::NodeId{static_cast<std::uint32_t>(i + 1)}, tcfg));
  }
  std::uint64_t delivered = 0;
  xports[0]->set_deliver_handler(
      [&delivered](net::NodeId, const std::any&) { ++delivered; });
  for (int s = 1; s <= kFaninSenders; ++s) {
    xports[static_cast<std::size_t>(s)]->set_reliable({receiver});
  }
  for (int b = 0; b < kFaninBursts; ++b) {
    sim.schedule_at(b * sim::kMillisecond, [&xports]() {
      for (int s = 1; s <= kFaninSenders; ++s) {
        for (int k = 0; k < kFaninBurst; ++k) {
          xports[static_cast<std::size_t>(s)]->send(
              {net::NodeId{1}}, std::uint64_t{1}, kFaninPayload);
        }
      }
    });
  }
  const auto wall_start = std::chrono::steady_clock::now();
  sim.run_to_quiescence();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  art.tally(sim);

  FaninResult r;
  r.ok = delivered == kFaninMessages;
  r.wall_seconds = wall_seconds;
  r.msgs_per_sec = static_cast<double>(kFaninMessages) / wall_seconds;
  std::uint64_t entries = 0, bytes = 0;
  const obs::Labels labels{
      {"case", batching ? "fanin_batching_on" : "fanin_batching_off"}};
  for (int s = 1; s <= kFaninSenders; ++s) {
    const auto& st = xports[static_cast<std::size_t>(s)]->stats();
    r.frames_sent += st.frames_sent;
    entries += st.entries_sent;
    bytes += st.bytes_sent;
    obs::record_xport_stats(reg, labels, st);
  }
  obs::record_xport_stats(reg, labels, xports[0]->stats());
  r.entries_per_frame =
      r.frames_sent == 0
          ? 0
          : static_cast<double>(entries) / static_cast<double>(r.frames_sent);
  r.bytes_per_msg =
      static_cast<double>(bytes) / static_cast<double>(kFaninMessages);
  r.overhead_bytes_per_msg =
      header_overhead_per_entry(r.frames_sent, entries);
  r.acks_standalone = xports[0]->stats().acks_sent;
  r.acks_piggybacked = xports[0]->stats().acks_piggybacked;
  r.ooo_dropped = xports[0]->stats().ooo_dropped;
  r.sim_events = sim.stats().events_executed;
  return r;
}

void fanin_row(obs::JsonValue& row, const char* name, const FaninResult& r) {
  row["case"] = name;
  row["wall_seconds"] = r.wall_seconds;
  row["msgs_per_sec"] = r.msgs_per_sec;
  row["frames_sent"] = static_cast<std::int64_t>(r.frames_sent);
  row["entries_per_frame"] = r.entries_per_frame;
  row["bytes_per_msg"] = r.bytes_per_msg;
  row["overhead_bytes_per_msg"] = r.overhead_bytes_per_msg;
  row["acks_standalone"] = static_cast<std::int64_t>(r.acks_standalone);
  row["acks_piggybacked"] = static_cast<std::int64_t>(r.acks_piggybacked);
  row["ooo_dropped"] = static_cast<std::int64_t>(r.ooo_dropped);
  row["sim_events"] = static_cast<std::int64_t>(r.sim_events);
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0;  // 0 = report only, no gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-batching-speedup") == 0 &&
        i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: bench_throughput [--check-batching-speedup X]\n";
      return 2;
    }
  }

  std::cout << "E2: within-view reliable FIFO multicast, full stack\n";
  std::cout << "(1 sender streaming 500 messages at 10k msg/s offered load; "
               "1 ms link latency)\n";

  obs::BenchArtifact art("throughput");
  art.config("messages") = 500;
  art.config("offered_load_msgs_per_s") = 10000;
  art.config("link_latency_ms") = 1.0;
  art.config("fanin_senders") = kFaninSenders;
  art.config("fanin_burst") = kFaninBurst;
  art.config("fanin_bursts") = kFaninBursts;
  art.config("fanin_messages") = static_cast<std::int64_t>(kFaninMessages);
  obs::Registry reg;

  Table t({"group size", "payload (B)", "msgs/s", "avg delivery latency (ms)",
           "sender bytes/msg", "hdr bytes/msg", "wire p95 (us)",
           "e2e p95 (us)"});
  for (int n : {2, 4, 8, 12}) {
    for (int payload : {32, 256, 1024}) {
      const Result r = run_case(n, payload, 500, art, reg);
      t.row(n, payload, r.msgs_per_sec, r.avg_latency_ms, r.bytes_per_msg,
            r.overhead_bytes_per_msg, r.wire_p95_us, r.e2e_p95_us);
      obs::JsonValue& row = art.add_result();
      row["group_size"] = n;
      row["payload_bytes"] = payload;
      row["msgs_per_sec"] = r.msgs_per_sec;
      row["avg_latency_ms"] = r.avg_latency_ms;
      row["sender_bytes_per_msg"] = r.bytes_per_msg;
      row["overhead_bytes_per_msg"] = r.overhead_bytes_per_msg;
      row["wire_p95_us"] = static_cast<std::int64_t>(r.wire_p95_us);
      row["gate_p95_us"] = static_cast<std::int64_t>(r.gate_p95_us);
      row["e2e_p95_us"] = static_cast<std::int64_t>(r.e2e_p95_us);
    }
  }
  t.print("throughput / latency vs group size and payload");

  std::cout << "\nFan-in: " << kFaninSenders << " raw-transport senders x "
            << kFaninBurst << "-message bursts x " << kFaninBursts
            << " bursts -> 1 receiver (" << kFaninMessages
            << " messages, wall-clock timed)\n";
  const FaninResult off = run_fanin(false, art, reg);
  const FaninResult on = run_fanin(true, art, reg);
  const double speedup =
      off.msgs_per_sec > 0 ? on.msgs_per_sec / off.msgs_per_sec : 0;

  Table ft({"case", "wall (s)", "msgs/s (wall)", "frames", "entries/frame",
            "bytes/msg", "hdr bytes/msg", "acks", "piggybacked"});
  ft.row("batching off", off.wall_seconds, off.msgs_per_sec, off.frames_sent,
         off.entries_per_frame, off.bytes_per_msg, off.overhead_bytes_per_msg,
         off.acks_standalone, off.acks_piggybacked);
  ft.row("batching on", on.wall_seconds, on.msgs_per_sec, on.frames_sent,
         on.entries_per_frame, on.bytes_per_msg, on.overhead_bytes_per_msg,
         on.acks_standalone, on.acks_piggybacked);
  ft.print("fan-in data plane: batching + delayed acks vs off");
  std::cout << "batching speedup: " << std::fixed << std::setprecision(2)
            << speedup << "x wall-clock msgs/sec\n";

  obs::JsonValue& off_row = art.add_result();
  fanin_row(off_row, "fanin_batching_off", off);
  obs::JsonValue& on_row = art.add_result();
  fanin_row(on_row, "fanin_batching_on", on);
  on_row["batching_speedup"] = speedup;

  art.set_metrics(reg);
  art.write_file();

  std::cout << "\nShape check: delivery latency ~ one hop (~1 ms) flat in "
               "group size; sender bytes/msg grow linearly with fan-out.\n";

  if (!off.ok || !on.ok) {
    std::cerr << "FAIL: fan-in case lost messages (off="
              << (off.ok ? "ok" : "lost") << ", on="
              << (on.ok ? "ok" : "lost") << ")\n";
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::cerr << "FAIL: batching speedup " << speedup << "x < required "
              << min_speedup << "x\n";
    return 1;
  }
  if (min_speedup > 0) {
    std::cout << "PASS: batching speedup " << speedup << "x >= "
              << min_speedup << "x\n";
  }
  return 0;
}
