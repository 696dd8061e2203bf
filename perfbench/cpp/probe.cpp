#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory_resource>
#include <new>
#include <string>

namespace perfbench {
namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;
std::vector<double>* g_probes = nullptr;
std::int64_t g_probe_wall_ns = 0;  ///< total time spent in hooked probes
std::int64_t g_probe_cpu_ns = 0;

void probe_from_hook();

void count_alloc() {
  if (!g_counting) return;
  if ((++g_allocs & (kProbeEvery - 1)) == 0 && g_probes != nullptr) {
    probe_from_hook();
  }
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  count_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void set_alloc_counting(bool on) { g_counting = on; }
std::uint64_t alloc_count() { return g_allocs; }

namespace {

// The probe's private heap: a pool over a fixed buffer, never the global
// allocator, so neither the stack's heap nor the allocation counter sees it.
alignas(64) std::byte g_probe_arena[16 << 20];
volatile std::uint64_t g_probe_sink = 0;

std::uint64_t probe_kernel() {
  std::pmr::monotonic_buffer_resource arena(
      g_probe_arena, sizeof g_probe_arena, std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);
  std::uint64_t sum = 0;
  std::pmr::map<int, std::pmr::string> map(&pool);
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 3000; ++k) {
      map[k * 7919 % 10007] =
          std::pmr::string(40, static_cast<char>('a' + k % 26), &pool);
    }
    sum += map.size();
    map.clear();
  }
  std::pmr::vector<std::pmr::vector<int>> arrays(&pool);
  for (int k = 0; k < 8000; ++k) {
    arrays.emplace_back(static_cast<std::size_t>(k % 64 + 1), k);
  }
  return sum + arrays.size();
}

void probe_from_hook() {
  if (g_probes->size() == g_probes->capacity()) return;
  const std::int64_t wall0 = wall_ns();
  const std::int64_t cpu0 = cpu_ns();
  g_counting = false;
  g_probes->push_back(host_probe_ms());
  g_counting = true;
  g_probe_wall_ns += wall_ns() - wall0;
  g_probe_cpu_ns += cpu_ns() - cpu0;
}

}  // namespace

double host_probe_ms() {
  g_probe_sink = g_probe_sink + probe_kernel();  // warm-up pass
  const std::int64_t start = wall_ns();
  g_probe_sink = g_probe_sink + probe_kernel();
  return static_cast<double>(wall_ns() - start) * 1e-6;
}

void record_probes(std::vector<double>* out) { g_probes = out; }

std::int64_t work_wall_ns() { return wall_ns() - g_probe_wall_ns; }
std::int64_t work_cpu_ns() { return cpu_ns() - g_probe_cpu_ns; }

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSend: return "app->gcs.send";
    case SpanKind::kDeliver: return "gcs->app.deliver";
    case SpanKind::kView: return "gcs->app.view";
    case SpanKind::kChecker: return "bus->spec.on_event";
    case SpanKind::kSim: return "bench->sim.run";
    case SpanKind::kExplore: return "bench->mc.explore";
    case SpanKind::kBenchSink: return "bus->bench.on_event";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  records_.reserve(capacity);
}

void SpanLog::begin(SpanKind kind, std::uint32_t sender, std::uint64_t uid) {
  if (depth_ == kMaxDepth) std::abort();  // nesting is at most send-in-deliver
  Open& o = stack_[depth_];
  o.kind = kind;
  o.child_ns = 0;
  o.record = -1;
  if (records_.size() < capacity_) {
    Record r;
    r.kind = kind;
    r.sender = sender;
    r.uid = uid;
    r.parent = depth_ > 0 ? stack_[depth_ - 1].record : -1;
    o.record = static_cast<std::int32_t>(records_.size());
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  ++depth_;
  o.allocs_at_start = g_allocs;
  o.start_ns = wall_ns();
}

std::int64_t SpanLog::end() {
  const std::int64_t now = wall_ns();
  Open& o = stack_[--depth_];
  const std::int64_t dur = now - o.start_ns;
  const std::int64_t self = dur - o.child_ns;
  Totals& t = totals_[static_cast<int>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += self;
  t.allocs += g_allocs - o.allocs_at_start;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (o.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(o.record)];
    r.start_ns = o.start_ns;
    r.end_ns = now;
    r.self_ns = self;
  }
  return dur;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"parent\":%d,\"span\":\"%s\",\"sender\":%u,"
                 "\"uid\":%llu,\"start_ns\":%lld,\"dur_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, r.parent, to_string(r.kind), r.sender,
                 static_cast<unsigned long long>(r.uid),
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - r.start_ns),
                 static_cast<long long>(r.self_ns));
  }
  return std::fclose(f) == 0;
}

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench

// ---- Global allocation hooks ---------------------------------------------
// Replacing the global operators counts every allocation the stack makes
// (containers, std::function captures, payload strings) without touching it.

void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
