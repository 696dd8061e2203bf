// `churn`: the reconfiguration path under seeded fault schedules.
//
// 16 members and 2 membership servers with every exact spec checker
// attached (as vsgc_stress runs them). A sim::FailureInjector policy with
// default weights (crash/recover, leave/rejoin, partitions, link flaps, drop
// spikes, delay bursts, server outages) runs kSteps actions, then
// stabilize(), reconvergence and a drain. Open-loop background traffic:
// every live member multicasts 64 B every kPeriod of sim time through
// BlockingClient::send; latency counts from when the send was due, so time
// spent queued while blocked is included.
//
// One unit runs kSchedules such schedules, each in a fresh world. The
// schedules are fixed inputs (injector seeds 1..kSchedules); --seed seeds
// the worlds, so network delays and every random choice inside the stack,
// and with them all interleavings, differ from seed to seed. Random
// schedules per seed were tried first: schedules differ so much (a long
// partition can triple the view count) that the cost per delivery moved by
// about 20% from one seed to the next, which no bound could absorb.
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common.hpp"
#include "obs/span.hpp"
#include "sim/failure_injector.hpp"
#include "util/assert.hpp"
#include "view_timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vsgc;

constexpr int kMembers = 16;
constexpr int kServers = 2;
constexpr int kSchedules = 6;  ///< independent fault schedules per unit
constexpr int kSteps = 40;      ///< injector actions per schedule
constexpr sim::Time kPeriod = 20 * sim::kMillisecond;
constexpr sim::Time kConverge = 60 * sim::kSecond;
constexpr sim::Time kDrain = 3 * sim::kSecond;
constexpr std::size_t kPayload = 64;
constexpr char kMagic[4] = {'p', 'b', 'c', 'h'};
constexpr std::size_t kTimerCapacity = 64 * 1024;  ///< view samples per world
constexpr int kCheckers = 6;
constexpr const char* kCheckerNames[kCheckers] = {
    "mbrshp", "wv_rfifo", "vs_rfifo", "trans_set", "self", "client"};

/// Upper bound on one sender's multicasts: the longest schedule the policy
/// can generate (every gap at max_gap plus the restore tail) plus the
/// reconvergence allowance, at one send per period.
std::size_t per_sender_capacity(const sim::FailureInjector::Policy& p) {
  const sim::Time span = kSteps * p.max_gap + p.spike_len + p.burst_len +
                         kConverge + sim::kSecond;
  return static_cast<std::size_t>(span / kPeriod) + 16;
}

/// Preallocated bookkeeping: per (sender, seq) due time, receivers that
/// delivered it, and the sender's epoch it was sent in. An epoch is the
/// stretch between two views (or a recovery and a view) at the sender. It
/// closes with the sender's move v -> v' and that view's transitional set
/// T; every member of T that also installs v' straight from v must have
/// delivered every message sent in the epoch (Virtual Synchrony + Self
/// Delivery). A crash drops the requirement.
struct Book {
  /// kFinal: still open when the run ends, in the final view, which every
  /// member installed; its messages must reach all of them.
  enum class EpochState : std::uint8_t { kOpen, kClosed, kCrashed, kFinal };
  struct Epoch {
    EpochState state = EpochState::kOpen;
    std::uint32_t transitional = 0;
    ViewId from;  ///< view the sender was in
    ViewId to;    ///< view that closed the epoch
  };
  struct Move {
    int p = 0;
    ViewId from, to;
  };
  static constexpr std::size_t kMaxEpochs = kMembers * 4096;

  explicit Book(std::size_t cap)
      : capacity(cap),
        due(kMembers * cap, 0),
        delivered(kMembers * cap, 0),
        epoch_of(kMembers * cap, -1),
        next_seq(kMembers, 0),
        first_queued(kMembers, 0),
        cur_epoch(kMembers, -1),
        cur_view(kMembers, ViewId::zero()) {
    epochs.reserve(kMaxEpochs);
    moves.reserve(kMaxEpochs);
    latency.reserve(kMembers * cap * kMembers);
    for (int s = 0; s < kMembers; ++s) open_epoch(s);
  }

  std::size_t at(int s, std::size_t seq) const {
    return static_cast<std::size_t>(s) * capacity + seq;
  }

  void open_epoch(int s) {
    if (epochs.size() == epochs.capacity()) {
      ++overflow;
      return;
    }
    cur_epoch[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(epochs.size());
    Epoch e;
    e.from = cur_view[static_cast<std::size_t>(s)];
    epochs.push_back(e);
  }

  Epoch* current(int s) {
    const std::int32_t e = cur_epoch[static_cast<std::size_t>(s)];
    return e < 0 ? nullptr : &epochs[static_cast<std::size_t>(e)];
  }

  void crash(int s) {
    if (Epoch* e = current(s)) e->state = EpochState::kCrashed;
  }

  void recover(int s) {
    cur_view[static_cast<std::size_t>(s)] = ViewId::zero();  // initial view
    open_epoch(s);
  }

  /// View v at sender s: close the epoch, open the next one, and place the
  /// sends BlockingClient queued while blocked (it flushes them right after
  /// this callback, in the new view).
  void view(int s, ViewId v, std::uint32_t transitional) {
    const auto i = static_cast<std::size_t>(s);
    if (moves.size() < moves.capacity()) {
      moves.push_back(Move{s, cur_view[i], v});
    } else {
      ++overflow;
    }
    if (Epoch* e = current(s); e != nullptr && e->state == EpochState::kOpen) {
      e->state = EpochState::kClosed;
      e->transitional = transitional;
      e->to = v;
    }
    cur_view[i] = v;
    open_epoch(s);
    for (std::size_t q = first_queued[i]; q < next_seq[i]; ++q) {
      if (epoch_of[at(s, q)] < 0) epoch_of[at(s, q)] = cur_epoch[i];
    }
    first_queued[i] = next_seq[i];
  }

  /// Receivers that must hold every message of epoch `e`.
  std::uint32_t required(const Epoch& e) const {
    std::uint32_t need = 0;
    for (const Move& m : moves) {
      if (m.from == e.from && m.to == e.to &&
          (e.transitional >> m.p & 1U) != 0) {
        need |= std::uint32_t{1} << m.p;
      }
    }
    return need;
  }

  /// One delivery at receiver r of our multicast (s, seq).
  void deliver(int r, std::uint32_t s, std::uint64_t seq, ProcessId from,
               sim::Time now) {
    if (s >= kMembers || seq >= next_seq[s] || from.value != s + 1) {
      ++unexpected;
      return;
    }
    const std::uint32_t bit = std::uint32_t{1} << r;
    std::uint32_t& mask = delivered[at(static_cast<int>(s), seq)];
    if ((mask & bit) != 0) ++duplicates;
    mask |= bit;
    if (latency.size() < latency.capacity()) {
      latency.push_back(now - due[at(static_cast<int>(s), seq)]);
    }
  }

  std::size_t capacity;
  std::vector<sim::Time> due;
  std::vector<std::uint32_t> delivered;  ///< bit r: receiver index r
  std::vector<std::int32_t> epoch_of;    ///< -1: still queued
  std::vector<std::size_t> next_seq;
  std::vector<std::size_t> first_queued;
  std::vector<std::int32_t> cur_epoch;
  std::vector<ViewId> cur_view;
  std::vector<Epoch> epochs;
  std::vector<Move> moves;  ///< every view installation, in order
  std::vector<std::int64_t> latency;
  std::uint64_t sends = 0;
  std::uint64_t queued_sends = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t overflow = 0;
};

std::uint32_t mask_of(const std::set<ProcessId>& members) {
  std::uint32_t m = 0;
  for (ProcessId p : members) m |= std::uint32_t{1} << (p.value - 1);
  return m;
}

/// Our multicasts carry (sender index, sequence number) after a magic tag;
/// the fault injector's own traffic does not.
bool decode(const std::string& payload, std::uint32_t& s, std::uint64_t& seq) {
  if (payload.size() != kPayload ||
      std::memcmp(payload.data(), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  std::memcpy(&s, payload.data() + 4, sizeof(s));
  std::memcpy(&seq, payload.data() + 8, sizeof(seq));
  return true;
}

std::string make_payload(std::uint32_t s, std::uint64_t seq) {
  std::string p(kPayload, '.');
  std::memcpy(p.data(), kMagic, sizeof(kMagic));
  std::memcpy(p.data() + 4, &s, sizeof(s));
  std::memcpy(p.data() + 8, &seq, sizeof(seq));
  return p;
}

/// Crash/recover notifications from the bus drive the epochs.
class ChurnTimer : public ViewTimer {
 public:
  ChurnTimer(Book& book, SpanLog& log)
      : ViewTimer(kMembers, kTimerCapacity, log), book_(book) {}

 protected:
  void on_crash(int i) override { book_.crash(i); }
  void on_recover(int i) override { book_.recover(i); }

 private:
  Book& book_;
};

/// Times one checker's on_event (traced run). Span-marker events carry no
/// protocol meaning and no checker reads them; they are not forwarded, so
/// the checkers do the same work as in the untraced run.
class TimedChecker : public spec::TraceSink {
 public:
  TimedChecker(spec::TraceSink& inner, std::uint64_t index, SpanLog& log)
      : inner_(inner), index_(index), log_(log) {}

  void on_event(const spec::Event& e) override {
    if (e.body.index() >= std::variant_size_v<spec::EventBody> - kMarkers) {
      return;
    }
    if (!log_.enabled()) {  // set-up: checked, not timed
      inner_.on_event(e);
      return;
    }
    ++events;
    log_.begin(SpanKind::kChecker, 0, index_);
    try {
      inner_.on_event(e);
    } catch (...) {  // a violation ends the measured phase
      ns += log_.end();
      throw;
    }
    ns += log_.end();
  }

  std::uint64_t events = 0;  ///< measured phase only
  std::int64_t ns = 0;

 private:
  // MsgWireSend, MsgRecv, MsgForward, SyncSent, SyncRecv, XportRetransmit,
  // MbrPhase: the trailing alternatives of spec::EventBody.
  static constexpr std::size_t kMarkers = 7;
  static_assert(std::is_same_v<std::variant_alternative_t<
                                   std::variant_size_v<spec::EventBody> -
                                       kMarkers,
                                   spec::EventBody>,
                               spec::MsgWireSend>);

  spec::TraceSink& inner_;
  std::uint64_t index_;
  SpanLog& log_;
};

/// Everything one unit accumulates over its schedules.
struct Tally {
  UnitSample sample;
  StackCounters counters;
  std::vector<std::string> failures;
  std::vector<std::int64_t> latency, view_change, blocked;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t queued_sends = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t overflow = 0;
  std::uint64_t fault_ops = 0;
  std::int64_t checker_ns[kCheckers] = {};
  std::uint64_t checker_events = 0;
  obs::Registry registry;  ///< span.* histograms of the traced run

  /// Sample buffers are reserved for the whole unit up front: growing them
  /// by doubling would add seed-dependent copies to the peak RSS.
  explicit Tally(std::size_t capacity) {
    latency.reserve(kSchedules * kMembers * capacity * kMembers);
    view_change.reserve(kSchedules * kTimerCapacity);
    blocked.reserve(kSchedules * kTimerCapacity);
  }
};

/// Messages that did not reach every member that had to deliver them.
std::uint64_t count_missing(Book& book, app::World& w) {
  for (int s = 0; s < kMembers; ++s) {
    if (Book::Epoch* e = book.current(s);
        e != nullptr && e->state == Book::EpochState::kOpen) {
      e->state = Book::EpochState::kFinal;
      e->transitional =
          mask_of(w.process(s).endpoint().current_view().members);
    }
  }
  std::uint64_t missing = 0;
  for (int s = 0; s < kMembers; ++s) {
    for (std::size_t q = 0; q < book.next_seq[static_cast<std::size_t>(s)];
         ++q) {
      const std::int32_t ei = book.epoch_of[book.at(s, q)];
      if (ei < 0) {
        ++missing;  // never left the blocking client's queue
        continue;
      }
      const Book::Epoch& e = book.epochs[static_cast<std::size_t>(ei)];
      if (e.state == Book::EpochState::kCrashed) continue;
      const std::uint32_t need = e.state == Book::EpochState::kFinal
                                     ? e.transitional
                                     : book.required(e);
      if ((book.delivered[book.at(s, q)] & need) != need) ++missing;
    }
  }
  return missing;
}

/// One fault schedule (injector seed `fault_seed`) in a fresh world seeded
/// with --seed: set-up, then the measured churn, stabilize, reconvergence and
/// drain; results go into `t`.
void run_schedule(const Options& opt, const sim::FailureInjector::Policy& policy,
                  std::uint64_t fault_seed, std::size_t capacity, SpanLog& log,
                  Tally& t) {
  const std::int64_t setup_start = wall_ns();
  // Sinks outlive the world that holds pointers to them.
  spec::AllCheckers checkers;
  spec::TraceSink* const named[kCheckers] = {
      &checkers.mbrshp,    &checkers.wv_rfifo, &checkers.vs_rfifo,
      &checkers.trans_set, &checkers.self,     &checkers.client};
  std::vector<std::unique_ptr<TimedChecker>> timed;
  Book book(capacity);
  ChurnTimer timer(book, log);
  obs::SpanCollector collector(t.registry);

  app::WorldConfig wc;
  wc.num_clients = kMembers;
  wc.num_servers = kServers;
  wc.seed = opt.seed;
  wc.attach_checkers = !opt.trace;  // traced: the timed copies below
  wc.record_trace = false;
  wc.lifecycle_spans = opt.trace;
  app::World w(wc);
  if (opt.trace) {
    for (spec::TraceSink* sink : named) {
      timed.push_back(std::make_unique<TimedChecker>(*sink, timed.size(), log));
      w.trace().subscribe(*timed.back());
    }
    w.trace().subscribe(collector);
  }
  w.trace().subscribe(timer);

  std::vector<std::string> payloads;
  payloads.reserve(kMembers * capacity);
  for (int s = 0; s < kMembers; ++s) {
    for (std::size_t q = 0; q < capacity; ++q) {
      payloads.push_back(make_payload(static_cast<std::uint32_t>(s), q));
    }
  }

  std::uint64_t deliveries = 0;
  for (int r = 0; r < kMembers; ++r) {
    // Spans carry (sender, payload seq), the id the send span had: the
    // blocking client assigns a uid only when it flushes a queued send.
    w.client(r).on_deliver([&, r](ProcessId from, const gcs::AppMsg& m) {
      std::uint32_t s = 0;
      std::uint64_t seq = 0;
      const bool ours = decode(m.payload, s, seq);
      Span span(log, SpanKind::kDeliver, from.value, ours ? seq : m.uid);
      ++deliveries;
      if (ours) book.deliver(r, s, seq, from, w.sim().now());
    });
    w.client(r).on_view(
        [&, r](const View& v, const std::set<ProcessId>& transitional) {
          Span span(log, SpanKind::kView, static_cast<std::uint32_t>(r + 1));
          book.view(r, v.id, mask_of(transitional));
        });
  }

  bool traffic_on = true;
  std::function<void()> tick = [&] {
    if (!traffic_on) return;
    for (int s = 0; s < kMembers; ++s) {
      if (w.process(s).crashed()) continue;
      const auto i = static_cast<std::size_t>(s);
      const std::size_t q = book.next_seq[i];
      if (q == capacity) {
        ++book.overflow;
        continue;
      }
      book.due[book.at(s, q)] = w.sim().now();
      ++book.next_seq[i];
      ++book.sends;
      bool sent = false;
      {
        Span span(log, SpanKind::kSend, static_cast<std::uint32_t>(s + 1), q);
        sent = w.client(s).send(std::move(payloads[book.at(s, q)]));
      }
      if (sent) {
        book.epoch_of[book.at(s, q)] = book.cur_epoch[i];
        book.first_queued[i] = book.next_seq[i];
      } else {
        ++book.queued_sends;
      }
    }
    w.sim().schedule(kPeriod, [&tick] { tick(); });
  };

  sim::FailureInjector injector(w.fault_target(), policy, fault_seed);
  std::string failure;
  try {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial view did not form");
    }
  } catch (const InvariantViolation& e) {
    failure = std::string("set-up: ") + e.what();
  }
  const StackCounters before = read_counters(w);
  timer.view_change.clear();  // only views installed under churn count
  timer.blocked.clear();

  // ---- measured phase ----
  t.sample.setup_s += static_cast<double>(wall_ns() - setup_start) * 1e-9;
  const std::uint64_t allocs0 = alloc_count();
  const std::int64_t cpu0 = work_cpu_ns();
  const std::int64_t wall0 = work_wall_ns();
  set_alloc_counting(true);
  log.set_enabled(opt.trace);
  try {
    if (!failure.empty()) throw InvariantViolation(failure);
    tick();
    {
      Span span(log, SpanKind::kSim);
      injector.run_churn();
    }
    injector.stabilize();
    {
      Span span(log, SpanKind::kSim);
      if (!w.run_until_converged(w.all_members(), kConverge)) {
        throw InvariantViolation("no reconvergence after stabilize()");
      }
    }
    traffic_on = false;
    {
      Span span(log, SpanKind::kSim);
      w.run_for(kDrain);
    }
  } catch (const InvariantViolation& e) {
    failure = e.what();
  }
  log.set_enabled(false);
  set_alloc_counting(false);
  t.sample.wall_s += static_cast<double>(work_wall_ns() - wall0) * 1e-9;
  t.sample.cpu_s += static_cast<double>(work_cpu_ns() - cpu0) * 1e-9;
  t.sample.allocs += alloc_count() - allocs0;
  t.sample.ops += deliveries;
  // ---- end of measured phase ----
  traffic_on = false;

  if (failure.empty()) {
    try {
      w.check_transport_bounded();
      if (opt.trace) checkers.finalize();
      else w.finalize_checkers();
    } catch (const InvariantViolation& e) {
      failure = e.what();
    }
  }
  if (failure.empty()) {
    t.missing += count_missing(book, w);
  } else {
    t.failures.push_back("churn schedule " + std::to_string(fault_seed) + ": " +
                         failure);
  }

  t.counters += read_counters(w) - before;
  t.deliveries += deliveries;
  t.sends += book.sends;
  t.queued_sends += book.queued_sends;
  t.duplicates += book.duplicates;
  t.unexpected += book.unexpected;
  t.overflow += book.overflow + timer.overflow;
  t.fault_ops += injector.script().ops.size();
  t.latency.insert(t.latency.end(), book.latency.begin(), book.latency.end());
  t.view_change.insert(t.view_change.end(), timer.view_change.begin(),
                       timer.view_change.end());
  t.blocked.insert(t.blocked.end(), timer.blocked.begin(), timer.blocked.end());
  for (std::size_t i = 0; i < timed.size(); ++i) {
    t.checker_ns[i] += timed[i]->ns;
  }
  if (!timed.empty()) t.checker_events += timed.front()->events;
}

struct SimFigures {
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::int64_t latency_sum = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t events = 0;
  std::size_t views = 0;
  friend bool operator==(const SimFigures&, const SimFigures&) = default;
};

}  // namespace

Result run_churn(const Options& opt) {
  Result res;
  SpanLog log(opt.trace ? kSpanRecords : 0);  // enabled in measured phases only
  sim::FailureInjector::Policy policy;
  policy.steps = kSteps;
  if (opt.plant_failure) {  // wedge one end-point's view epoch for good
    policy.bug_at_step = 3;
    policy.bug_is_corruption = true;
  }
  const std::size_t capacity = per_sender_capacity(policy);

  {  // Self-check: the per-delivery bookkeeping alone allocates nothing.
    Book scratch(capacity);
    for (int s = 0; s < kMembers; ++s) scratch.next_seq[s] = capacity;
    const std::string probe = make_payload(3, 7);
    const std::uint64_t before = alloc_count();
    set_alloc_counting(true);
    for (int r = 0; r < kMembers; ++r) {
      for (int i = 0; i < 1000; ++i) {
        std::uint32_t s = 0;
        std::uint64_t seq = 0;
        if (decode(probe, s, seq)) scratch.deliver(r, s, seq, ProcessId{4}, i);
      }
      scratch.view(r, ViewId{1, 1}, 0xffff);
    }
    set_alloc_counting(false);
    if (alloc_count() != before) res.fail("churn bookkeeping allocates");
  }

  SimFigures first;
  std::uint64_t traced_deliveries = 0, traced_events = 0;
  double traced_wall = 0;

  const auto unit = [&](int u) {
    Tally t(capacity);
    const std::int64_t unit_start = wall_ns();
    for (int k = 0; k < kSchedules && t.failures.empty(); ++k) {
      run_schedule(opt, policy, static_cast<std::uint64_t>(k + 1), capacity, log,
                   t);
    }
    if (u == 0) {  // unit 0's set-up also counts the time before it
      t.sample.setup_s += static_cast<double>(unit_start - opt.start_ns) * 1e-9;
    }

    SimFigures figs;
    figs.deliveries = t.deliveries;
    figs.sends = t.sends;
    for (std::int64_t l : t.latency) figs.latency_sum += l;
    figs.net_bytes = t.counters.net.bytes_sent;
    figs.events = t.counters.sim.events_executed;
    figs.views = t.view_change.size();

    if (u == 0) {
      first = figs;
      res.attempted = t.sends;
      for (const std::string& f : t.failures) res.fail(f);
      if (t.missing > 0) {
        res.fail("churn: multicasts missing at a member that moved with "
                 "their sender",
                 t.missing);
      }
      if (t.duplicates > 0) res.fail("churn: duplicate deliveries",
                                     t.duplicates);
      if (t.unexpected > 0) res.fail("churn: unknown deliveries",
                                     t.unexpected);
      if (t.overflow > 0) res.fail("churn: bookkeeping capacity exceeded");

      const double d = static_cast<double>(t.deliveries);
      res.set("e2e.latency_p50_ms", percentile(t.latency, 0.5) / 1000.0);
      res.set("e2e.latency_p999_ms", percentile(t.latency, 0.999) / 1000.0);
      res.set("e2e.latency_samples", static_cast<double>(t.latency.size()));
      res.set("e2e.net_bytes_per_delivery",
              ratio(static_cast<double>(figs.net_bytes), d));
      res.set("e2e.view_change_p50_ms",
              percentile(t.view_change, 0.5) / 1000.0);
      res.set("e2e.view_change_p95_ms",
              percentile(t.view_change, 0.95) / 1000.0);
      res.set("e2e.view_change_samples",
              static_cast<double>(t.view_change.size()));
      res.set("e2e.blocked_p95_ms", percentile(t.blocked, 0.95) / 1000.0);
      if (opt.trace) {
        add_stack_layers(res, t.counters, t.deliveries, t.registry);
        for (int i = 0; i < kCheckers; ++i) {
          res.set(std::string("spec.") + kCheckerNames[i] + ".ns_per_event",
                  ratio(static_cast<double>(t.checker_ns[i]),
                        static_cast<double>(t.checker_events)));
        }
        res.set("spec.events_per_delivery",
                ratio(static_cast<double>(t.checker_events), d));
        res.set("app.queued_sends_frac",
                ratio(static_cast<double>(t.queued_sends),
                      static_cast<double>(t.sends)));
        res.set("fault.ops_applied", static_cast<double>(t.fault_ops));
      }
    } else if (!(figs == first)) {
      res.fail("churn: same seed, different sim-time outcome");
    }
    traced_deliveries += t.deliveries;
    traced_events += figs.events;
    traced_wall += t.sample.wall_s;
    return t.sample;
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
