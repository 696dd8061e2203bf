// Measurement primitives of the full-stack benchmark: clocks, the global
// allocation counter, peak RSS, and the wall-clock span log that times the
// calls the benchmark makes into each layer from outside the program.
//
// Everything here is single-threaded (every workload runs one simulator on
// the calling thread) and allocation-free on the measured path: the span log
// and the sample buffers are sized before the measured phase starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t wall_ns();
std::int64_t cpu_ns();  ///< CPU time of the whole process
double peak_rss_mb();   ///< ru_maxrss of this process, in MiB

/// Global operator new calls while counting is on. The replacement
/// operators live in probe.cpp; counting is off outside measured phases.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// Host-speed probe. This host shares its cores with other tenants whose
/// load moves the speed of allocation- and pointer-heavy code by up to a
/// third over tens of seconds, and CPU time moves with it, so neither clock
/// alone gives a steady rate. The probe is a fixed kernel of that kind
/// (ordered-map inserts of short strings, then small arrays) on a private
/// arena, so its time follows the host's speed and not the stack's code or
/// heap. It runs twice and times the second pass, so the caches the workload
/// left behind do not count. Returns that pass's wall time in ms.
double host_probe_ms();

/// Counted allocations between two probes: probes run at fixed points of
/// the work, about every 150 ms.
constexpr std::uint64_t kProbeEvery = std::uint64_t{1} << 20;

/// While `out` is set, a probe runs every kProbeEvery counted allocations
/// and its time goes into `out` (never past its capacity, so the hook never
/// allocates). nullptr stops probing.
void record_probes(std::vector<double>* out);

/// Wall and CPU clocks that stand still while a probe runs. Measured phases
/// read these, so the probes they contain cost them nothing.
std::int64_t work_wall_ns();
std::int64_t work_cpu_ns();

/// The layer boundary a span crosses. One multicast's spans share its
/// (sender, uid) id.
enum class SpanKind : std::uint8_t {
  kSend,      ///< app -> gcs: GcsEndpoint::send / BlockingClient::send
  kDeliver,   ///< gcs -> app: the deliver callback
  kView,      ///< gcs -> app: the view callback
  kChecker,   ///< bus -> spec: one checker's on_event (uid = checker index)
  kSim,       ///< bench -> sim: a run_until slice or a churn phase
  kExplore,   ///< bench -> mc: Explorer::explore
  kBenchSink, ///< bus -> the benchmark's own bookkeeping sink
  kCount,
};

const char* to_string(SpanKind kind);

/// Span log: totals for every span, records for the first `capacity` spans.
/// Nested spans (a send issued from a deliver callback) charge their time to
/// the parent's child time, so self time = duration - child time.
class SpanLog {
 public:
  struct Record {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t uid = 0;
    std::int32_t parent = -1;  ///< index of the enclosing record, or -1
    std::uint32_t sender = 0;
    SpanKind kind = SpanKind::kSim;
  };

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;  ///< allocations inside the span (incl. children)
  };

  explicit SpanLog(std::size_t capacity);

  /// Enabled logs time spans; a disabled log makes begin()/end() no-ops, so
  /// the untraced run pays one branch per boundary.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void begin(SpanKind kind, std::uint32_t sender, std::uint64_t uid);
  /// Closes the innermost span; returns its duration in ns.
  std::int64_t end();

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<int>(kind)];
  }
  const std::vector<Record>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

  /// JSON lines, one span per line, times relative to the first span.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t allocs_at_start = 0;
    std::int32_t record = -1;
    SpanKind kind = SpanKind::kSim;
  };
  static constexpr int kMaxDepth = 16;

  bool enabled_ = false;
  std::vector<Record> records_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  Open stack_[kMaxDepth];
  int depth_ = 0;
  Totals totals_[static_cast<int>(SpanKind::kCount)];
};

/// RAII wrapper around SpanLog::begin/end.
class Span {
 public:
  Span(SpanLog& log, SpanKind kind, std::uint32_t sender = 0,
       std::uint64_t uid = 0)
      : log_(log) {
    if (log_.enabled()) log_.begin(kind, sender, uid);
  }
  ~Span() {
    if (log_.enabled()) log_.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
};

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty vector.
double percentile(std::vector<std::int64_t>& v, double q);
double median(std::vector<double> v);

}  // namespace perfbench
