#include "common.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using namespace vsgc;

namespace {

/// Median probe time behind unit `i`: its own probes, plus its nearest
/// neighbours' while it has fewer than kMinProbes. 0 when no probe ran.
double unit_probe_ms(const std::vector<UnitSample>& units, std::size_t i) {
  std::vector<double> pool = units[i].probe_ms;
  for (std::size_t d = 1; pool.size() < kMinProbes && d < units.size(); ++d) {
    for (const std::size_t j : {i - d, i + d}) {  // i - d wraps when d > i
      if (j < units.size()) {
        pool.insert(pool.end(), units[j].probe_ms.begin(),
                    units[j].probe_ms.end());
      }
    }
  }
  return median(pool);
}

}  // namespace

void add_end_to_end(Result& r, const std::vector<UnitSample>& units) {
  std::vector<double> setup, allocs, wall, probe;
  double ops = 0, wall_s = 0, scaled_wall_s = 0, scaled_cpu_s = 0;
  for (const UnitSample& u : units) {
    probe.push_back(unit_probe_ms(units, probe.size()));
    const double speed = probe.back() > 0 ? kProbeRefMs / probe.back() : 1.0;
    std::fprintf(stderr,
                 "  unit %zu: set-up %.4f s, wall %.4f s, cpu %.4f s, "
                 "probe %.4f ms\n",
                 probe.size() - 1, u.setup_s, u.wall_s, u.cpu_s, probe.back());
    setup.push_back(u.setup_s * speed);
    allocs.push_back(ratio(static_cast<double>(u.allocs),
                           static_cast<double>(u.ops)));
    wall.push_back(u.wall_s);
    ops += static_cast<double>(u.ops);
    wall_s += u.wall_s;
    scaled_wall_s += u.wall_s * speed;
    scaled_cpu_s += u.cpu_s * speed;
  }
  // Set-up runs the same kind of code as the measured phase, so the host's
  // speed moves it as much; it is scaled with its unit's probe time.
  r.set("setup_s", median(setup));
  // Rates are totals over the whole measured time, not medians of per-unit
  // rates, and each unit is scaled by the probe run inside it: the host's
  // speed drifts within a unit as well as between units.
  r.set("ops_per_s", ratio(ops, scaled_wall_s));
  r.set("cpu_ns_per_op", ratio(scaled_cpu_s * 1e9, ops));
  r.set("e2e.unscaled_ops_per_s", ratio(ops, wall_s));
  r.set("e2e.host_probe_ms", median(probe));
  // Counts repeat exactly from unit 1 on; unit 0 also pays lazy set-up.
  r.set("allocs_per_op", median(allocs));
  r.set("peak_rss_mb", units.front().peak_rss_mb);
  r.set("run.units", static_cast<double>(units.size()));
  r.set("run.unit_wall_s", median(wall));
  std::sort(wall.begin(), wall.end());
  r.set("run.unit_wall_p90_s",
        wall[std::min(wall.size() - 1, wall.size() * 9 / 10)]);
}

StackCounters read_counters(app::World& w) {
  StackCounters c;
  c.sim = w.sim().stats();
  c.net = w.network().stats();
  const auto add_transport = [&c](const transport::CoRfifoTransport& t) {
    const auto& s = t.stats();
    c.data_frames += s.frames_sent - s.acks_sent;
    c.entries += s.entries_sent;
    c.acks_standalone += s.acks_sent;
    c.acks_piggybacked += s.acks_piggybacked;
    c.window_stalls += s.window_stalls;
    c.peak_unacked = std::max(c.peak_unacked, s.peak_unacked);
    c.retransmits += s.retransmissions;
    c.duplicates += s.duplicates_dropped;
    c.sack_suppressed += s.sack_suppressed;
  };
  for (int i = 0; i < w.num_clients(); ++i) {
    gcs::Process& p = w.process(i);
    add_transport(p.transport());
    c.views_installed += p.endpoint().stats().views_delivered;
    const auto& vs = p.endpoint().vs_stats();
    c.sync_msgs += vs.sync_msgs_sent;
    c.sync_bytes += vs.sync_bytes_sent;
    c.forwards += vs.forwards_sent;
  }
  for (int i = 0; i < w.num_servers(); ++i) {
    membership::MembershipServer& s = w.server(i);
    add_transport(s.transport());
    c.server_frames += s.transport().stats().frames_sent;
    const auto& ms = s.stats();
    c.rounds += ms.rounds_started;
    c.views_formed += ms.views_formed;
    c.obsolete_suppressed += ms.obsolete_views_suppressed;
    c.full_views += ms.full_views_sent;
    c.delta_views += ms.delta_views_sent;
  }
  return c;
}

StackCounters operator-(const StackCounters& after,
                        const StackCounters& before) {
  StackCounters d = after;
  d.sim.events_scheduled -= before.sim.events_scheduled;
  d.sim.events_executed -= before.sim.events_executed;
  d.sim.events_cancelled -= before.sim.events_cancelled;
  d.net.packets_sent -= before.net.packets_sent;
  d.net.packets_delivered -= before.net.packets_delivered;
  d.net.packets_dropped -= before.net.packets_dropped;
  d.net.bytes_sent -= before.net.bytes_sent;
  d.data_frames -= before.data_frames;
  d.entries -= before.entries;
  d.acks_standalone -= before.acks_standalone;
  d.acks_piggybacked -= before.acks_piggybacked;
  d.window_stalls -= before.window_stalls;
  d.retransmits -= before.retransmits;
  d.duplicates -= before.duplicates;
  d.sack_suppressed -= before.sack_suppressed;
  d.server_frames -= before.server_frames;
  d.rounds -= before.rounds;
  d.views_formed -= before.views_formed;
  d.obsolete_suppressed -= before.obsolete_suppressed;
  d.full_views -= before.full_views;
  d.delta_views -= before.delta_views;
  d.views_installed -= before.views_installed;
  d.sync_msgs -= before.sync_msgs;
  d.sync_bytes -= before.sync_bytes;
  d.forwards -= before.forwards;
  return d;
}

StackCounters& operator+=(StackCounters& a, const StackCounters& b) {
  a.sim.events_scheduled += b.sim.events_scheduled;
  a.sim.events_executed += b.sim.events_executed;
  a.sim.events_cancelled += b.sim.events_cancelled;
  a.sim.peak_queue_depth =
      std::max(a.sim.peak_queue_depth, b.sim.peak_queue_depth);
  a.net.packets_sent += b.net.packets_sent;
  a.net.packets_delivered += b.net.packets_delivered;
  a.net.packets_dropped += b.net.packets_dropped;
  a.net.bytes_sent += b.net.bytes_sent;
  a.net.max_packet_bytes = std::max(a.net.max_packet_bytes, b.net.max_packet_bytes);
  a.data_frames += b.data_frames;
  a.entries += b.entries;
  a.acks_standalone += b.acks_standalone;
  a.acks_piggybacked += b.acks_piggybacked;
  a.window_stalls += b.window_stalls;
  a.peak_unacked = std::max(a.peak_unacked, b.peak_unacked);
  a.retransmits += b.retransmits;
  a.duplicates += b.duplicates;
  a.sack_suppressed += b.sack_suppressed;
  a.server_frames += b.server_frames;
  a.rounds += b.rounds;
  a.views_formed += b.views_formed;
  a.obsolete_suppressed += b.obsolete_suppressed;
  a.full_views += b.full_views;
  a.delta_views += b.delta_views;
  a.views_installed += b.views_installed;
  a.sync_msgs += b.sync_msgs;
  a.sync_bytes += b.sync_bytes;
  a.forwards += b.forwards;
  return a;
}

void add_stack_layers(Result& r, const StackCounters& c,
                      std::uint64_t deliveries, const obs::Registry& spans) {
  const auto d = static_cast<double>(deliveries);
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  // span.* histograms are in sim microseconds with log2-bucket resolution.
  const auto q_ms = [&spans](const char* name, double q) {
    auto& reg = const_cast<obs::Registry&>(spans);
    return static_cast<double>(reg.histogram(name).quantile(q)) / 1000.0;
  };

  r.set("sim.events_per_delivery", ratio(f(c.sim.events_executed), d));
  r.set("sim.cancelled_frac",
        ratio(f(c.sim.events_cancelled), f(c.sim.events_scheduled)));
  r.set("sim.peak_queue_depth", f(c.sim.peak_queue_depth));

  r.set("net.packets_per_delivery", ratio(f(c.net.packets_sent), d));
  r.set("net.bytes_per_packet",
        ratio(f(c.net.bytes_sent), f(c.net.packets_sent)));
  r.set("net.drop_frac",
        ratio(f(c.net.packets_dropped), f(c.net.packets_sent)));

  r.set("transport.entries_per_frame", ratio(f(c.entries), f(c.data_frames)));
  r.set("transport.ack_piggyback_frac",
        ratio(f(c.acks_piggybacked),
              f(c.acks_piggybacked + c.acks_standalone)));
  r.set("transport.window_stalls_per_delivery", ratio(f(c.window_stalls), d));
  r.set("transport.peak_unacked", f(c.peak_unacked));
  r.set("transport.retransmits_per_delivery", ratio(f(c.retransmits), d));
  r.set("transport.duplicates_per_delivery", ratio(f(c.duplicates), d));
  r.set("transport.sack_suppressed_frac",
        ratio(f(c.sack_suppressed), f(c.sack_suppressed + c.retransmits)));
  r.set("transport.wire_p50_ms", q_ms("span.msg.wire_us", 0.5));
  r.set("transport.wire_p999_ms", q_ms("span.msg.wire_us", 0.999));

  const double formed = f(c.views_formed);
  r.set("membership.rounds_per_view", ratio(f(c.rounds), formed));
  r.set("membership.obsolete_suppressed_per_view",
        ratio(f(c.obsolete_suppressed), formed));
  r.set("membership.server_frames_per_view", ratio(f(c.server_frames), formed));
  r.set("membership.delta_view_frac",
        ratio(f(c.delta_views), f(c.delta_views + c.full_views)));
  r.set("membership.wait_p50_ms", q_ms("span.view.membership_wait_us", 0.5));
  r.set("membership.wait_p95_ms", q_ms("span.view.membership_wait_us", 0.95));

  const double installed = f(c.views_installed);
  r.set("gcs.sender_queue_p999_ms", q_ms("span.msg.sender_queue_us", 0.999));
  r.set("gcs.gate_p50_ms", q_ms("span.msg.gate_us", 0.5));
  r.set("gcs.gate_p999_ms", q_ms("span.msg.gate_us", 0.999));
  r.set("gcs.sync_msgs_per_view", ratio(f(c.sync_msgs), installed));
  r.set("gcs.sync_bytes_per_view", ratio(f(c.sync_bytes), installed));
  r.set("gcs.forwards_per_view", ratio(f(c.forwards), installed));
  r.set("gcs.blocking_p95_ms", q_ms("span.view.blocking_us", 0.95));
  r.set("gcs.sync_send_p95_ms", q_ms("span.view.sync_send_us", 0.95));
  r.set("gcs.install_wait_p95_ms", q_ms("span.view.install_wait_us", 0.95));
}

void add_boundary_layers(Result& r, const SpanLog& log,
                         std::uint64_t deliveries, std::uint64_t sim_events,
                         double measured_wall_s) {
  const auto& send = log.totals(SpanKind::kSend);
  const auto& deliver = log.totals(SpanKind::kDeliver);
  const auto& view = log.totals(SpanKind::kView);
  const auto& sink = log.totals(SpanKind::kBenchSink);
  const auto& checker = log.totals(SpanKind::kChecker);
  const auto& simrun = log.totals(SpanKind::kSim);
  const auto f = [](auto v) { return static_cast<double>(v); };

  // Self times: nested spans (a send issued from a deliver callback, the
  // checkers a send's trace event runs) are charged to their own kind.
  r.set("gcs.send_ns", ratio(f(send.self_ns), f(send.count)));
  r.set("gcs.send_allocs", ratio(f(send.allocs), f(send.count)));

  // The benchmark's own callbacks plus its bookkeeping trace sink.
  const double callback_ns = f(deliver.self_ns + view.self_ns + sink.self_ns);
  r.set("app.callback_ns",
        ratio(callback_ns, f(deliver.count + view.count)));
  r.set("app.callback_share", ratio(callback_ns * 1e-9, measured_wall_s));

  r.set("sim.ns_per_event", ratio(f(simrun.total_ns), f(sim_events)));
  // Time inside the benchmark's sim slices not covered by any span the
  // benchmark records: sim + net + transport + membership + the gcs receive
  // path. Splitting it further needs probes inside the program.
  r.set("stack.residual_ns_per_delivery",
        ratio(f(simrun.self_ns), f(deliveries)));
  r.set("spec.share", ratio(f(checker.total_ns) * 1e-9, measured_wall_s));
}

void write_spans(Result& r, const Options& opt, const SpanLog& log) {
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  if (!log.write_jsonl(path)) r.fail("cannot write spans to " + path);
  r.set("obs.spans_written", static_cast<double>(log.records().size()));
  r.set("obs.spans_dropped", static_cast<double>(log.dropped()));
}

}  // namespace perfbench
