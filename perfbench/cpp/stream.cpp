// `stream`: the per-message data path at saturation.
//
// 8 members and 1 membership server on the default network (1 ms +- 0.2 ms,
// no loss), checkers and trace recording off, no faults, so one view holds
// for the whole measured phase. Closed loop: every member keeps twice the
// transport's credit window of multicasts outstanding, so the window, not
// the generator, limits the rate; a multicast completes when all 8 members
// have delivered it, and only then does its sender issue the next one.
//
// The run length is fixed (kPerSender multicasts per member): current-view
// buffers are pruned only at a view change, so memory grows with run length.
#include <algorithm>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/span.hpp"
#include "view_timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vsgc;

constexpr int kMembers = 8;
constexpr int kPerSender = 4096;
constexpr std::size_t kSmallPayload = 64;
constexpr std::size_t kLargePayload = 1024;
constexpr double kLargeShare = 0.25;
constexpr sim::Time kSlice = 1 * sim::kMillisecond;
constexpr sim::Time kStallLimit = 1 * sim::kSecond;

/// Flat, preallocated delivery bookkeeping indexed by (sender, uid); uids
/// are 1-based per sender. Nothing here allocates after construction.
struct Book {
  explicit Book(std::size_t latency_capacity)
      : sent_at(kMembers * (kPerSender + 1), 0),
        copies(kMembers * (kPerSender + 1), 0),
        bad(kMembers * (kPerSender + 1), 0),
        expected(kMembers * kMembers, 1) {
    latency.reserve(latency_capacity);
  }

  static std::size_t at(int s, std::uint64_t uid) {
    return static_cast<std::size_t>(s) * (kPerSender + 1) + uid;
  }

  /// Record one delivery of (s, uid) at receiver r at sim time `now`.
  /// Returns true when this delivery completes the multicast.
  bool deliver(int r, int s, std::uint64_t uid, sim::Time now) {
    ++deliveries;
    if (s < 0 || s >= kMembers || uid == 0 || uid > kPerSender) {
      ++unexpected;
      return false;
    }
    std::uint64_t& next = expected[static_cast<std::size_t>(r * kMembers + s)];
    if (uid != next) bad[at(s, uid)] = 1;  // gap, duplicate or reorder
    next = uid + 1;
    if (latency.size() < latency.capacity()) {
      latency.push_back(now - sent_at[at(s, uid)]);
    }
    const std::uint8_t n = ++copies[at(s, uid)];
    if (n > kMembers) bad[at(s, uid)] = 1;
    if (n != kMembers) return false;
    ++completed;
    return true;
  }

  std::vector<sim::Time> sent_at;
  std::vector<std::uint8_t> copies;
  std::vector<std::uint8_t> bad;
  std::vector<std::uint64_t> expected;  ///< [receiver][sender] next uid
  std::vector<std::int64_t> latency;    ///< sim us, one per delivery
  std::uint64_t deliveries = 0;
  std::uint64_t completed = 0;
  std::uint64_t unexpected = 0;
};

/// Seeded 64 B / 1 KiB payload mix, one string per multicast, built in
/// set-up and moved into send() so the measured phase copies nothing.
std::vector<std::string> make_payloads(std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedba5eULL);
  std::vector<std::string> out;
  out.reserve(kMembers * kPerSender);
  for (int i = 0; i < kMembers * kPerSender; ++i) {
    const std::size_t size =
        rng.chance(kLargeShare) ? kLargePayload : kSmallPayload;
    out.emplace_back(size, static_cast<char>('a' + i % 26));
  }
  return out;
}

/// The bookkeeping a delivery runs must not allocate: replay a full unit's
/// worth of deliveries into a scratch Book with counting on.
bool bookkeeping_allocates() {
  Book scratch(static_cast<std::size_t>(kMembers) * kMembers * kPerSender);
  const std::uint64_t before = alloc_count();
  set_alloc_counting(true);
  for (std::uint64_t uid = 1; uid <= kPerSender; ++uid) {
    for (int s = 0; s < kMembers; ++s) {
      for (int r = 0; r < kMembers; ++r) scratch.deliver(r, s, uid, 1);
    }
  }
  set_alloc_counting(false);
  return alloc_count() != before;
}

struct SimFigures {
  std::uint64_t deliveries = 0;
  std::int64_t latency_sum = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t events = 0;
  friend bool operator==(const SimFigures&, const SimFigures&) = default;
};

}  // namespace

Result run_stream(const Options& opt) {
  Result res;
  SpanLog log(opt.trace ? kSpanRecords : 0);  // enabled in measured phases only
  if (bookkeeping_allocates()) res.fail("stream bookkeeping allocates");

  const std::size_t latency_capacity =
      static_cast<std::size_t>(kMembers) * kMembers * kPerSender;
  SimFigures first;
  std::uint64_t traced_deliveries = 0, traced_events = 0;
  double traced_wall = 0;

  const auto unit = [&](int u) {
    UnitSample sample;
    const std::int64_t setup_start = u == 0 ? opt.start_ns : wall_ns();

    // Sinks and bookkeeping outlive the world that points at them.
    obs::Registry registry;
    obs::SpanCollector collector(registry);
    ViewTimer timer(kMembers, 4 * kMembers, log);
    Book book(latency_capacity);

    app::WorldConfig wc;
    wc.num_clients = kMembers;
    wc.num_servers = 1;
    wc.seed = opt.seed;
    wc.attach_checkers = false;
    wc.record_trace = false;
    wc.lifecycle_spans = opt.trace;
    app::World w(wc);
    if (opt.trace) w.trace().subscribe(collector);
    w.trace().subscribe(timer);

    std::vector<std::string> payloads = make_payloads(opt.seed);
    std::vector<int> issued(kMembers, 0);
    const std::size_t window = wc.transport.send_window;
    const int outstanding = static_cast<int>(2 * window);

    const auto issue = [&](int s) {
      if (issued[static_cast<std::size_t>(s)] == kPerSender) return;
      std::string& payload =
          payloads[static_cast<std::size_t>(s) * kPerSender +
                   static_cast<std::size_t>(issued[static_cast<std::size_t>(s)])];
      const std::uint64_t uid =
          static_cast<std::uint64_t>(++issued[static_cast<std::size_t>(s)]);
      book.sent_at[Book::at(s, uid)] = w.sim().now();
      Span span(log, SpanKind::kSend, static_cast<std::uint32_t>(s + 1), uid);
      const gcs::AppMsg m = w.process(s).endpoint().send(std::move(payload));
      if (m.uid != uid) book.bad[Book::at(s, uid)] = 1;
    };

    for (int r = 0; r < kMembers; ++r) {
      w.client(r).on_deliver([&, r](ProcessId from, const gcs::AppMsg& m) {
        Span span(log, SpanKind::kDeliver, from.value, m.uid);
        const int s = static_cast<int>(from.value) - 1;
        // Self-test: lose one delivery in the bookkeeping only.
        if (opt.plant_failure && r == 1 && s == 0 && m.uid == 100) return;
        if (book.deliver(r, s, m.uid, w.sim().now())) issue(s);
      });
    }

    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      res.fail("stream: initial view did not form");
    }
    const StackCounters before = read_counters(w);

    // ---- measured phase ----
    sample.setup_s = static_cast<double>(wall_ns() - setup_start) * 1e-9;
    const std::uint64_t allocs0 = alloc_count();
    const std::int64_t cpu0 = work_cpu_ns();
    const std::int64_t wall0 = work_wall_ns();
    set_alloc_counting(true);
    log.set_enabled(opt.trace);
    for (int k = 0; k < outstanding; ++k) {
      for (int s = 0; s < kMembers; ++s) issue(s);
    }
    const std::uint64_t total =
        static_cast<std::uint64_t>(kMembers) * kPerSender;
    sim::Time last_progress = w.sim().now();
    std::uint64_t seen = book.deliveries;
    while (book.completed < total) {
      {
        Span span(log, SpanKind::kSim);
        w.sim().run_until(w.sim().now() + kSlice);
      }
      if (book.deliveries != seen) {
        seen = book.deliveries;
        last_progress = w.sim().now();
      } else if (w.sim().now() - last_progress > kStallLimit) {
        break;  // some multicast can never complete; counted below
      }
    }
    log.set_enabled(false);
    set_alloc_counting(false);
    sample.wall_s = static_cast<double>(work_wall_ns() - wall0) * 1e-9;
    sample.cpu_s = static_cast<double>(work_cpu_ns() - cpu0) * 1e-9;
    sample.allocs = alloc_count() - allocs0;
    sample.ops = book.deliveries;
    // ---- end of measured phase ----

    const StackCounters delta = read_counters(w) - before;
    SimFigures figs;
    figs.deliveries = book.deliveries;
    for (std::int64_t l : book.latency) figs.latency_sum += l;
    figs.net_bytes = delta.net.bytes_sent;
    figs.events = delta.sim.events_executed;

    if (u == 0) {
      first = figs;
      res.attempted = total;
      std::uint64_t failed = 0;
      for (int s = 0; s < kMembers; ++s) {
        for (std::uint64_t uid = 1; uid <= kPerSender; ++uid) {
          const std::size_t i = Book::at(s, uid);
          if (book.bad[i] != 0 || book.copies[i] != kMembers) ++failed;
        }
      }
      if (failed > 0) {
        res.fail("stream: multicasts not delivered exactly once in FIFO "
                 "order at all members",
                 failed);
      }
      if (book.unexpected > 0) {
        res.fail("stream: deliveries of unknown messages", book.unexpected);
      }
      if (timer.overflow > 0) res.fail("stream: view sample capacity");

      const double d = static_cast<double>(book.deliveries);
      res.set("e2e.latency_p50_ms", percentile(book.latency, 0.5) / 1000.0);
      res.set("e2e.latency_p999_ms", percentile(book.latency, 0.999) / 1000.0);
      res.set("e2e.latency_samples", static_cast<double>(book.latency.size()));
      res.set("e2e.net_bytes_per_delivery",
              ratio(static_cast<double>(figs.net_bytes), d));
      // The one view change of this workload: forming the initial view.
      res.set("e2e.view_change_p50_ms",
              percentile(timer.view_change, 0.5) / 1000.0);
      res.set("e2e.view_change_p95_ms",
              percentile(timer.view_change, 0.95) / 1000.0);
      res.set("e2e.view_change_samples",
              static_cast<double>(timer.view_change.size()));
      res.set("e2e.blocked_p95_ms", percentile(timer.blocked, 0.95) / 1000.0);
      if (opt.trace) add_stack_layers(res, delta, book.deliveries, registry);
    } else if (!(figs == first)) {
      res.fail("stream: same seed, different sim-time outcome");
    }
    traced_deliveries += book.deliveries;
    traced_events += figs.events;
    traced_wall += sample.wall_s;
    return sample;
  };

  const std::vector<UnitSample> units = run_units(opt, res, unit);
  add_end_to_end(res, units);
  if (opt.trace) {
    add_boundary_layers(res, log, traced_deliveries, traced_events,
                        traced_wall);
    write_spans(res, opt, log);
  }
  return res;
}

}  // namespace perfbench
