// admbench: the end-to-end admission benchmark of slacksched.
//
//   admbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir>
//   admbench --self-test
//
// One run offers one workload's generated job stream to the system under
// test through its public entry points only, open loop: job j is due at its
// release time r_j mapped to wall-clock time at the offered rate, and every
// latency is timed from that due time, so a stall also delays (and is
// charged to) every job behind it.
//
// --trace 0 measures the end-to-end metrics: decide latency at the
// workload's nominal rate, the highest rate that meets the workload's
// latency limit, the accepted load (the paper's objective), set-up time and
// peak memory. --workdir is a scratch directory inside the checkout for the
// WALs; the traced run writes its spans next to it. METRICS.md documents
// every workload, metric, check and estimator. --trace 1 runs the layer ladder instead (R0 bare scheduler,
// R1 StreamingRunner, R2 in-process gateway, R3 +WAL, R4 +replication,
// R5 TCP front end), records spans around every call into a layer, and
// reports the per-layer metrics. Either way every output check runs, and a
// failed check makes the run incorrect. The last stdout line is the JSON
// result; everything before it is a human-readable report.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "job/instance.hpp"
#include "net/admission_client.hpp"
#include "net/admission_server.hpp"
#include "net/protocol.hpp"
#include "replication/replica_server.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "service/gateway.hpp"
#include "service/recovery.hpp"
#include "service/router.hpp"
#include "stats.hpp"
#include "workload/generators.hpp"

namespace {

using namespace slacksched;
using admbench::Quartiles;
using Clock = std::chrono::steady_clock;

constexpr double kEps = 0.1;
constexpr int kShards = 2;
/// Each shard's queue holds more than the latency limit's worth of jobs at
/// the highest rate any workload reaches (10 ms at 2.5M jobs/s over two
/// shards is 12.5k per shard). With a smaller queue a max-rate probe sheds
/// on a few-millisecond stall of the host long before its decide p99 nears
/// the limit, and the search measures the host's stalls instead.
constexpr std::size_t kQueueCapacity = 16384;
constexpr std::size_t kShardBatch = 256;
constexpr double kMeanProc = 5.5;  // p uniform on [1, 10]
/// Decide latency is summarized per window of this many consecutive jobs
/// (1000 is the smallest window whose p99 has ten samples beyond it): the
/// reported p50 is the median of the windows' p50s, the reported p99 the
/// lower quartile of the windows' p99s. The host this benchmark was tuned
/// on stalls a vCPU for 1-10 ms a dozen times a second, and in its busy
/// spells (seconds to minutes) more than half of all windows; a stall then
/// moves the windows it hits, not the run's figure. The pooled percentiles
/// are printed beside them.
constexpr std::size_t kWindowJobs = 1000;

// ---------------------------------------------------------------------------
// Workloads

enum class Front { kInProcess, kTcp };

struct Spec {
  const char* name;
  Front front;
  int machines;        ///< per shard
  bool wal;            ///< R3: commit log (FsyncPolicy::kNever)
  bool replication;    ///< R4: kAckOnBatch to an in-process ReplicaServer
  SlackModel slack;
  double load;         ///< offered volume / machine capacity (model time)
  double nominal_rate; ///< jobs/s offered when measuring decide latency
  double p99_limit_us; ///< max_rate: decide p99 must stay within this
  double failed_limit; ///< max_rate: failed share must stay within this
  std::size_t ladder_jobs;  ///< jobs per ladder rung (traced run)
  const char* predicted;    ///< the layer expected to cost the most per job
};

// The limits below are the ones BENCHMARK.json states per workload.
const Spec kSpecs[] = {
    {"tcp-interactive", Front::kTcp, 8, false, false,
     SlackModel::kUniformFactor, 0.6, 20000.0, 10000.0, 0.01, 40000, "net"},
    {"durable-accept", Front::kInProcess, 8, true, true,
     SlackModel::kUniformFactor, 0.6, 50000.0, 10000.0, 0.01, 200000,
     "commit_log+replication"},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Model arrivals per unit of model time that offer `load` of the
/// shards' total machine capacity.
double arrival_rate(const Spec& spec) {
  return spec.load * kShards * spec.machines / kMeanProc;
}

std::vector<Job> make_jobs(const Spec& spec, std::uint64_t seed,
                           std::size_t n) {
  WorkloadConfig c;
  c.n = n;
  c.eps = kEps;
  c.arrival = ArrivalModel::kPoisson;
  c.arrival_rate = arrival_rate(spec);
  c.size = SizeModel::kUniform;
  c.size_min = 1.0;
  c.size_max = 10.0;
  c.slack = spec.slack;
  c.slack_hi = 1.0;
  c.seed = seed;
  return generate_workload(c).jobs();
}

ShardSchedulerFactory factory(int machines) {
  return [machines](int) {
    return std::make_unique<ThresholdScheduler>(kEps, machines);
  };
}

// ---------------------------------------------------------------------------
// Clocks

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// One spin-loop pause: keeps a busy-waiting thread from competing for the
/// execution units of a hyperthread sibling the host may have paired with
/// this vCPU.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Keeps every CPU but the generator's out of the idle state for the whole
/// run: one SCHED_IDLE thread per CPU that only spins. Any runnable thread
/// preempts an idle-class thread at once, so the spinners take no time
/// from the system under test; what they remove is the hypervisor's
/// wake-up of a halted vCPU, which on the host this benchmark was tuned on
/// added 0.1-5 ms to a random share of decisions and made tail latency
/// differ several-fold from run to run. (The same effect as booting the
/// guest with idle=poll.) Their CPU time is excluded from every CPU metric.
class IdleSpinners {
 public:
  IdleSpinners() = default;
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() { stop(); }

  void start() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    clocks_.resize(cpus - 1);
    std::atomic<unsigned> ready{0};
    for (unsigned cpu = 0; cpu + 1 < cpus; ++cpu) {
      threads_.emplace_back([this, cpu, &ready] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        sched_param param{};
        (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        (void)pthread_getcpuclockid(pthread_self(), &clocks_[cpu]);
        ready.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
      });
    }
    while (ready.load() < threads_.size()) std::this_thread::yield();
  }

  void stop() {
    stop_ = true;
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  /// CPU time the spinners have used so far.
  [[nodiscard]] std::int64_t cpu() const {
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < threads_.size(); ++k) sum += cpu_ns(clocks_[k]);
    return sum;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<clockid_t> clocks_;
  std::vector<std::thread> threads_;
};

IdleSpinners g_spinners;

/// CPU time of the process, less the idle spinners'.
std::int64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - g_spinners.cpu();
}

/// Pins a load-generator thread to the last CPU, away from the shard
/// consumers (pin_shards puts shard s on CPU s) and from the TCP event loop
/// (left to the CPUs in between). A spinning generator left unpinned lets
/// the kernel's wake-affine placement queue a woken shard thread behind it
/// for a whole time slice, which shows up as millisecond decide-latency
/// episodes that belong to neither the system nor the load.
void pin_generator() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus - 1, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Restricts the calling (main) thread to the CPU between the shards' and
/// the generator's (shard s runs on CPU s, the generator on the last one).
/// Threads inherit the mask of the thread that creates them, so the event
/// loop, supervisor and replication threads of every system built later
/// share that CPU, and each run places every thread the same way.
void place_system_threads() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpus > static_cast<unsigned>(kShards) + 1) {
    CPU_SET(cpus - 2, &set);
  } else {
    for (unsigned c = 0; c + 1 < cpus; ++c) CPU_SET(c, &set);
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Spins (with short sleeps when far away) until the steady clock reaches
/// `deadline_ns`. The in-process producer waits this way: at its rates
/// the gap between jobs is microseconds, below what a sleep can hit.
void wait_until(std::int64_t deadline_ns) {
  for (;;) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) return;
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    }
  }
}

// ---------------------------------------------------------------------------
// Peak resident memory of the system under test. The benchmark's own
// buffers are allocated and touched before the baseline is taken; the peak
// high-water mark is reset (clear_refs 5) right before the system is built.

long status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) return std::atol(line.c_str() + klen);
  }
  return -1;
}

struct RssProbe {
  long baseline_kb = -1;
  void start() {
    std::ofstream("/proc/self/clear_refs") << "5";
    baseline_kb = status_kb("VmRSS:");
  }
  [[nodiscard]] double peak_mb() const {
    const long hwm = status_kb("VmHWM:");
    return static_cast<double>(hwm - baseline_kb) / 1024.0;
  }
};

// ---------------------------------------------------------------------------
// Spans. Recorded only in the traced run, from this file, around each call
// into a layer; kept in per-thread buffers in memory and written at exit.

enum SpanName : std::uint16_t {
  kSpanRung,
  kSpanCoreBatch,     ///< a batch of ThresholdScheduler::on_arrival calls
  kSpanRunnerBatch,   ///< a batch of StreamingRunner::feed calls
  kSpanSubmitBatch,   ///< AdmissionGateway::submit_batch
  kSpanHandoff,       ///< submit_batch call -> on_decision, one job
  kSpanClientSubmit,  ///< AdmissionClient::submit
  kSpanSend,          ///< write() of the SUBMIT frames due at one instant
  kSpanReply,         ///< due time -> DECISION frame read by the client
  kSpanRecovery,      ///< recover_commit_log, one shard
  kSpanEncode,        ///< net/protocol encode, a batch of frames
  kSpanDecode,        ///< net/protocol decode, a batch of frames
  kSpanCount
};
const char* const kSpanNames[kSpanCount] = {
    "rung",         "core.on_arrival",   "sched.feed",  "service.submit_batch",
    "service.handoff", "net.client.submit", "net.send", "net.reply", "recovery.replay",
    "net.encode",   "net.decode"};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t job = -1;  ///< job id, -1 for spans that cover no one job
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint32_t count = 1;   ///< calls the span covers (batched spans)
  std::uint16_t name = 0;
};

class Tracer {
 public:
  /// Switched only between passes, while no system thread runs.
  std::atomic<bool> enabled{false};

  std::uint64_t record(std::uint16_t name, std::int64_t start,
                       std::int64_t end, std::int64_t job = -1,
                       std::uint64_t parent = 0, std::uint32_t count = 1,
                       std::uint64_t id = 0) {
    if (!enabled) return 0;
    if (id == 0) id = reserve();
    buffer().push_back(Span{start, end, job, id, parent, count, name});
    return id;
  }

  /// An id for a span recorded later (a parent whose children end first).
  std::uint64_t reserve() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every span recorded so far, across threads (call when quiescent).
  [[nodiscard]] std::vector<Span> all() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  void write(const std::string& path, const std::vector<Span>& spans) const {
    std::ofstream out(path);
    out << "id,parent,name,job,count,start_ns,end_ns\n";
    for (const Span& s : spans) {
      out << s.id << ',' << s.parent << ',' << kSpanNames[s.name] << ','
          << s.job << ',' << s.count << ',' << s.start << ',' << s.end << '\n';
    }
  }

 private:
  std::vector<Span>& buffer() {
    // Buffers are owned by the tracer (a deque never moves its elements),
    // so spans survive the shard threads that recorded them.
    thread_local std::vector<Span>* mine = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (mine == nullptr || owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.emplace_back();
      buffers_.back().reserve(1 << 14);
      mine = &buffers_.back();
      owner = this;
    }
    return *mine;
  }

  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::deque<std::vector<Span>> buffers_;
};

Tracer g_tracer;

// ---------------------------------------------------------------------------
// Per-job buffers, allocated and touched once per run before any system is
// built (so they stay out of the measured memory) and reset per phase.

struct Buffers {
  Buffers(std::size_t n, bool traced)
      : due(n), submitted(n), decided(n), outcome(n),
        machine(n), start(n), order{std::vector<std::int32_t>(n),
                                              std::vector<std::int32_t>(n)},
        submit_span(traced ? n : 0) {}

  std::vector<std::int64_t> due;        ///< absolute due time (ns)
  std::vector<std::int64_t> submitted;  ///< when the generator offered it
  std::vector<std::int64_t> decided;    ///< decision reached the caller
  std::vector<std::uint8_t> outcome;    ///< Outcome wire value, 0 = none
  std::vector<std::int32_t> machine;
  std::vector<double> start;
  /// Per-shard decision order (job indices), written only by that shard's
  /// consumer thread; `order_len` is read after the gateway joined it.
  std::vector<std::int32_t> order[kShards];
  std::size_t order_len[kShards] = {0, 0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> decided_count{0};
  std::vector<std::uint64_t> submit_span;  ///< traced: parent span per job

  void reset(std::size_t n) {
    std::fill_n(outcome.begin(), n, std::uint8_t{0});
    std::fill_n(decided.begin(), n, std::int64_t{0});
    order_len[0] = order_len[1] = 0;
    duplicates = 0;
    decided_count = 0;
  }
};

/// Index of a job in the generated stream (ids are 1..n).
std::size_t idx_of(JobId id) { return static_cast<std::size_t>(id - 1); }

// ---------------------------------------------------------------------------
// Checks and impossible-value guard

struct Checks {
  std::vector<std::string> failures;
  std::vector<std::string> invalid;  ///< impossible values (reported, counted)

  void fail(std::string what) { failures.push_back(std::move(what)); }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

// ---------------------------------------------------------------------------
// One open-loop (or drain) pass through a system

enum class Rung { kR0, kR1, kR2, kR3, kR4, kR5 };

const char* rung_name(Rung r) {
  static const char* const names[] = {"R0", "R1", "R2", "R3", "R4", "R5"};
  return names[static_cast<int>(r)];
}

struct Pass {
  std::size_t offered = 0;
  std::size_t decisions = 0;  ///< answered with accept/reject
  std::size_t failed = 0;     ///< shed, error or no reply
  std::size_t queue_full = 0;
  double offered_volume = 0.0;
  double accepted_volume = 0.0;  ///< from decisions the caller received
  /// Every submission's decide latency, sorted; kNoDecision when none came.
  std::vector<double> latency_us;
  /// p50 / p99 of each window of kWindowJobs consecutive jobs (those with
  /// enough decided samples for a p99 only).
  std::vector<double> window_p50_us, window_p99_us;
  /// The generator's lateness p99 in each window (all windows).
  std::vector<double> window_late_p99_us;
  double late_p99_us = 0.0;
  bool growing = false;  ///< backlog grew over the pass
  double setup_s = 0.0;
  std::int64_t process_cpu = 0;  ///< process CPU ns during the pass
  std::int64_t loadgen_cpu = 0;  ///< load-generator threads' CPU ns
  std::uint64_t batches = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t acked_records = 0;
  double recover_s = 0.0;
  std::uint64_t recovered_records = 0;
  std::uint64_t accept_errors = 0;
  std::uint64_t connections_reaped = 0;
  double rss_mb = 0.0;

  [[nodiscard]] double accepted_frac() const {
    return offered_volume > 0 ? accepted_volume / offered_volume : 0.0;
  }
  [[nodiscard]] double cpu_ns_per_job() const {
    return offered ? static_cast<double>(process_cpu) /
                         static_cast<double>(offered)
                   : 0.0;
  }
};

struct PassOptions {
  Rung rung = Rung::kR2;
  double rate = 0.0;    ///< jobs/s; 0 = drain (offer as fast as accepted)
  bool checks = false;  ///< run every output check on this pass
  bool rss = false;     ///< measure peak memory
};

struct Context {
  const Spec& spec;
  const std::vector<Job>& jobs;
  Buffers& buf;
  std::string workdir;
  Checks& checks;
};

/// Latency of a submission that was never decided: it misses every limit.
constexpr double kNoDecision = std::numeric_limits<double>::infinity();

double percentile_or_nan(const std::vector<double>& sorted, double q) {
  const auto v = admbench::tail_percentile_sorted(sorted, q);
  return v ? *v : std::nan("");
}

/// Fills latency/late statistics of a finished pass from the buffers.
void summarize(Context& ctx, std::size_t n, Pass& pass) {
  const Buffers& b = ctx.buf;
  std::vector<double> late;
  late.reserve(n);
  pass.latency_us.clear();
  pass.latency_us.reserve(n);
  std::vector<double> first_q, last_q;
  for (std::size_t i = 0; i < n; ++i) {
    pass.offered_volume += ctx.jobs[i].proc;
    late.push_back(static_cast<double>(b.submitted[i] - b.due[i]) / 1000.0);
    const auto o = static_cast<Outcome>(b.outcome[i]);
    if (b.outcome[i] != 0 && outcome_is_decision(o)) {
      ++pass.decisions;
      if (o == Outcome::kAccepted) pass.accepted_volume += ctx.jobs[i].proc;
      const double us = static_cast<double>(b.decided[i] - b.due[i]) / 1000.0;
      pass.latency_us.push_back(us);
      if (i < n / 4) first_q.push_back(us);
      if (i >= n - n / 4) last_q.push_back(us);
    } else {
      // A submission that got no decision misses every latency limit.
      ++pass.failed;
      if (o == Outcome::kRejectedQueueFull) ++pass.queue_full;
      pass.latency_us.push_back(kNoDecision);
    }
  }
  pass.offered = n;
  std::sort(pass.latency_us.begin(), pass.latency_us.end());
  std::sort(late.begin(), late.end());
  // The first twentieth of every pass is warm-up (threads just started,
  // first touches of the system's memory): its jobs count everywhere but
  // in the windows.
  std::vector<double> lat, wlate;
  const std::size_t first_window = (n / 20 + kWindowJobs - 1) / kWindowJobs;
  for (std::size_t w = first_window; (w + 1) * kWindowJobs <= n; ++w) {
    lat.clear();
    wlate.clear();
    for (std::size_t i = w * kWindowJobs; i < (w + 1) * kWindowJobs; ++i) {
      wlate.push_back(static_cast<double>(b.submitted[i] - b.due[i]) / 1000.0);
      const auto o = static_cast<Outcome>(b.outcome[i]);
      lat.push_back(b.outcome[i] != 0 && outcome_is_decision(o)
                        ? static_cast<double>(b.decided[i] - b.due[i]) / 1000.0
                        : kNoDecision);
    }
    std::sort(lat.begin(), lat.end());
    std::sort(wlate.begin(), wlate.end());
    const auto w50 = admbench::tail_percentile_sorted(lat, 0.5);
    const auto w99 = admbench::tail_percentile_sorted(lat, 0.99);
    if (w50 && w99) {
      pass.window_p50_us.push_back(*w50);
      pass.window_p99_us.push_back(*w99);
    }
    pass.window_late_p99_us.push_back(percentile_or_nan(wlate, 0.99));
  }
  const auto lp = admbench::tail_percentile_sorted(late, 0.99);
  pass.late_p99_us = lp ? *lp : (late.empty() ? 0.0 : late.back());
  const double head = admbench::quartiles(first_q).median;
  const double tail = admbench::quartiles(last_q).median;
  pass.growing = !first_q.empty() && !last_q.empty() &&
                 tail > 2.0 * head + ctx.spec.p99_limit_us / 10.0;
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Sets every job's due time for a pass at `rate` starting at `t0`.
void schedule_due(Context& ctx, std::size_t n, double rate, std::int64_t t0) {
  const double r0 = ctx.jobs[0].release;
  // Model time advances 1/lambda per job; wall time 1/rate per job.
  const double ns_per_unit = 1e9 * arrival_rate(ctx.spec) / rate;
  for (std::size_t i = 0; i < n; ++i) {
    ctx.buf.due[i] =
        t0 + static_cast<std::int64_t>((ctx.jobs[i].release - r0) * ns_per_unit);
  }
}

std::vector<Placement> sorted_placements(const Schedule& s) {
  auto p = s.all_placements();
  std::sort(p.begin(), p.end(), [](const Placement& a, const Placement& b) {
    return a.job.id < b.job.id;
  });
  return p;
}

bool same_placements(const std::vector<Placement>& a,
                     const std::vector<Placement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job.id != b[i].job.id || a[i].machine != b[i].machine ||
        a[i].start != b[i].start || a[i].duration != b[i].duration) {
      return false;
    }
  }
  return true;
}

/// Validates every accepted commitment of one shard's decision sequence
/// against the schedule committed before it.
void validate_sequence(Context& ctx, int shard,
                       const std::vector<std::size_t>& seq,
                       const std::string& where) {
  Schedule schedule(ctx.spec.machines);
  for (const std::size_t i : seq) {
    const Job& job = ctx.jobs[i];
    if (static_cast<Outcome>(ctx.buf.outcome[i]) != Outcome::kAccepted) continue;
    const Decision d = Decision::accept(ctx.buf.machine[i], ctx.buf.start[i]);
    const std::string why = validate_commitment(schedule, job, d);
    if (!why.empty()) {
      ctx.checks.fail(where + ": shard " + std::to_string(shard) +
                      " illegal commitment: " + why);
      return;
    }
    schedule.commit(job, d.machine, d.start);
  }
}

// --- in-process gateway (R2, R3, R4) ---------------------------------------

Pass run_gateway(Context& ctx, std::size_t n, const PassOptions& opt) {
  const Spec& spec = ctx.spec;
  Buffers& b = ctx.buf;
  b.reset(n);
  Pass pass;
  const bool wal = opt.rung >= Rung::kR3;
  const bool repl = opt.rung >= Rung::kR4;
  const std::string leader_dir = ctx.workdir + "/leader";
  const std::string replica_dir = ctx.workdir + "/replica";
  if (wal) fresh_dir(leader_dir);
  if (repl) fresh_dir(replica_dir);
  const bool traced = g_tracer.enabled;
  std::atomic<std::uint64_t> acked[kShards] = {0, 0};

  RssProbe rss;
  if (opt.rss) rss.start();
  const std::int64_t setup0 = now_ns();
  std::unique_ptr<repl::ReplicaServer> replica;
  GatewayConfig config;
  config.shards = kShards;
  config.queue_capacity = kQueueCapacity;
  config.batch_size = kShardBatch;
  config.routing = RoutingPolicy::kHash;
  config.record_decisions = false;
  config.pin_shards = true;
  if (wal) {
    // No fsync waits on the decision path: on the host this was tuned on
    // one fsync took from 0.1 ms to 1 s within a minute (a shared disk), so
    // a workload that waits on it measures the neighbours' I/O. The WAL
    // still appends and writes every commitment before it is applied, and
    // the follower still writes and fsyncs every record it receives.
    config.wal_dir = leader_dir;
    config.wal_fsync = FsyncPolicy::kNever;
  }
  if (repl) {
    repl::ReplicaServerConfig rc;
    rc.dir = replica_dir;
    rc.shards = kShards;
    replica = std::make_unique<repl::ReplicaServer>(rc);
    config.replication.emplace();
    config.replication->port = replica->port();
    config.replication->ack_mode = repl::ReplAckMode::kAckOnBatch;
    config.replication->on_ack = [&acked](int shard, std::uint64_t mark) {
      acked[shard].store(mark, std::memory_order_relaxed);
    };
  }
  config.on_decision = [&b, traced](int shard, const Job& job,
                                    const Decision& d, std::uint64_t) {
    const std::int64_t t = now_ns();
    const std::size_t i = idx_of(job.id);
    if (b.outcome[i] != 0) b.duplicates.fetch_add(1, std::memory_order_relaxed);
    b.decided[i] = t;
    b.outcome[i] = static_cast<std::uint8_t>(d.accepted ? Outcome::kAccepted
                                                        : Outcome::kRejected);
    b.machine[i] = d.machine;
    b.start[i] = d.start;
    const auto s = static_cast<std::size_t>(shard);
    b.order[s][b.order_len[s]++] = static_cast<std::int32_t>(i);
    b.decided_count.fetch_add(1, std::memory_order_release);
    if (traced) {
      g_tracer.record(kSpanHandoff, b.submitted[i], t, job.id, b.submit_span[i]);
    }
  };
  auto gateway = std::make_unique<AdmissionGateway>(config, factory(spec.machines));
  pass.setup_s = static_cast<double>(now_ns() - setup0) / 1e9;

  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns() + 1000000;
  if (opt.rate > 0) schedule_due(ctx, n, opt.rate, t0);
  // The producer runs on a thread of its own, pinned to the generator CPU;
  // every thread of the system inherits the main thread's mask instead.
  auto producer = [&] {
    pin_generator();
    const std::int64_t gen_cpu0 = thread_cpu_ns();
    std::vector<Outcome> statuses;
    wait_until(t0);
    std::size_t next = 0;
    constexpr std::size_t kMaxCall = 512;
    while (next < n) {
      std::int64_t now = now_ns();
      std::size_t end = next;
      if (opt.rate > 0) {
        while (end < n && end - next < kMaxCall && b.due[end] <= now) ++end;
        if (end == next) {
          wait_until(b.due[next]);
          continue;
        }
      } else {
        // Drain: offer as fast as the shards decide, keeping at most half a
        // queue in flight so nothing is shed for backpressure.
        const std::uint64_t done = b.decided_count.load(std::memory_order_acquire);
        if (next - done >= kQueueCapacity / 2) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          continue;
        }
        end = std::min(n, next + std::min(kMaxCall, kQueueCapacity / 2 -
                                                        (next - done)));
        for (std::size_t i = next; i < end; ++i) b.due[i] = now;
      }
      // Everything the consumer reads about a job is written before the
      // call: its decision may arrive before submit_batch returns.
      const std::uint64_t span = traced ? g_tracer.reserve() : 0;
      for (std::size_t i = next; i < end; ++i) {
        b.submitted[i] = now;
        if (traced) b.submit_span[i] = span;
      }
      gateway->submit_batch(
          std::span<const Job>(ctx.jobs.data() + next, end - next), &statuses);
      if (traced) {
        g_tracer.record(kSpanSubmitBatch, now, now_ns(), ctx.jobs[next].id, 0,
                        static_cast<std::uint32_t>(end - next), span);
      }
      for (std::size_t i = next; i < end; ++i) {
        const Outcome o = statuses[i - next];
        if (o != Outcome::kEnqueued) b.outcome[i] = static_cast<std::uint8_t>(o);
      }
      next = end;
    }
    pass.loadgen_cpu = thread_cpu_ns() - gen_cpu0;
  };
  std::thread(producer).join();
  GatewayResult result = gateway->finish();
  pass.process_cpu = process_cpu_ns() - cpu0;
  gateway.reset();
  if (replica) replica->stop();
  if (opt.rss) pass.rss_mb = rss.peak_mb();

  summarize(ctx, n, pass);
  pass.batches = result.metrics.total.batches;
  pass.peak_queue_depth = result.metrics.total.peak_queue_depth;
  pass.wal_records = result.merged.accepted;
  for (int s = 0; s < kShards; ++s) pass.acked_records += acked[s].load();

  // --- output checks ---
  Checks& c = ctx.checks;
  const std::string where = std::string(rung_name(opt.rung)) + " pass";
  c.expect(result.clean(), where + ": gateway reported a violation: " +
                               result.first_violation());
  c.expect(result.errors.empty(), where + ": shard worker errors");
  c.expect(b.duplicates.load() == 0, where + ": a job was decided twice");
  c.expect(pass.decisions + pass.failed == n,
           where + ": answered != offered");
  std::size_t enqueued_without_decision = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (b.outcome[i] == 0) ++enqueued_without_decision;
  }
  c.expect(enqueued_without_decision == 0,
           where + ": " + std::to_string(enqueued_without_decision) +
               " enqueued jobs never got a decision");
  c.expect(result.merged.submitted == pass.decisions,
           where + ": decisions received != gateway decisions");
  c.expect(std::fabs(result.merged.accepted_volume - pass.accepted_volume) <=
               1e-9 * std::max(1.0, pass.accepted_volume),
           where + ": accepted volume differs from GatewayResult");
  if (!opt.checks) return pass;

  for (int s = 0; s < kShards; ++s) {
    std::vector<std::size_t> seq(b.order[s].begin(),
                                 b.order[s].begin() +
                                     static_cast<std::ptrdiff_t>(b.order_len[s]));
    validate_sequence(ctx, s, seq, where);
    // Single producer in release order: the shard's decisions must equal
    // the sequential engine on the same jobs, bit for bit (prefix).
    const std::size_t prefix = std::min<std::size_t>(seq.size(), 50000);
    std::vector<Job> sub;
    sub.reserve(prefix);
    for (std::size_t k = 0; k < prefix; ++k) sub.push_back(ctx.jobs[seq[k]]);
    ThresholdScheduler ref(kEps, spec.machines);
    const RunResult expect = run_online(ref, Instance(sub), true);
    bool same = expect.decisions.size() == prefix;
    for (std::size_t k = 0; same && k < prefix; ++k) {
      const Decision& d = expect.decisions[k].decision;
      const std::size_t i = seq[k];
      const bool acc = static_cast<Outcome>(b.outcome[i]) == Outcome::kAccepted;
      same = expect.decisions[k].job.id == ctx.jobs[i].id && d.accepted == acc &&
             (!acc || (d.machine == b.machine[i] && d.start == b.start[i]));
    }
    c.expect(same, where + ": shard " + std::to_string(s) +
                       " decisions differ from run_online");
    c.expect(sorted_placements(result.shards[static_cast<std::size_t>(s)].schedule)
                     .size() == static_cast<std::size_t>(std::count_if(
                     seq.begin(), seq.end(),
                     [&](std::size_t i) {
                       return static_cast<Outcome>(b.outcome[i]) ==
                              Outcome::kAccepted;
                     })),
             where + ": committed schedule size != accepts received");
  }

  if (wal) {
    // Recovery: rebuild every shard (schedule and scheduler state) from
    // the leader's WAL and compare with the pre-crash commitments.
    std::vector<std::vector<Placement>> leader(kShards);
    const std::int64_t r0 = now_ns();
    for (int s = 0; s < kShards; ++s) {
      const std::int64_t s0 = now_ns();
      ThresholdScheduler sched(kEps, spec.machines);
      const std::string path = leader_dir + "/shard-" + std::to_string(s) + ".wal";
      RecoveryResult rec = recover_commit_log(path, spec.machines, &sched, false);
      g_tracer.record(kSpanRecovery, s0, now_ns(), -1, 0,
                      static_cast<std::uint32_t>(rec.records_replayed));
      c.expect(rec.clean(), where + ": WAL recovery failed: " + rec.error);
      pass.recovered_records += rec.records_replayed;
      pass.wal_bytes += std::filesystem::file_size(path);
      leader[static_cast<std::size_t>(s)] = sorted_placements(rec.schedule);
    }
    pass.recover_s = static_cast<double>(now_ns() - r0) / 1e9;
    for (int s = 0; s < kShards; ++s) {
      const auto& pre = result.shards[static_cast<std::size_t>(s)].schedule;
      c.expect(same_placements(leader[static_cast<std::size_t>(s)],
                               sorted_placements(pre)),
               where + ": recovered commitments differ from pre-crash ones");
    }
    c.expect(pass.recovered_records == pass.wal_records,
             where + ": WAL records != accepted jobs");
    if (repl) {
      for (int s = 0; s < kShards; ++s) {
        const std::string path =
            replica_dir + "/shard-" + std::to_string(s) + ".wal";
        RecoveryResult rec = recover_commit_log(path, spec.machines, nullptr, false);
        c.expect(rec.clean() && same_placements(sorted_placements(rec.schedule),
                                                leader[static_cast<std::size_t>(s)]),
                 where + ": follower log differs from the leader's");
      }
      c.expect(pass.acked_records == pass.wal_records,
               where + ": acked records != leader records");
    }
  }
  return pass;
}

// --- TCP front end (R5) ------------------------------------------------------

/// One client connection driven through the net/protocol codec.
struct RawConn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::vector<char> out;  ///< encoded frames not yet written
  std::size_t out_pos = 0;
  std::uint32_t frames = 0;  ///< frames in `out`
  std::uint64_t next_rid = 1;
  std::size_t outstanding = 0;  ///< SUBMITs not answered yet

  RawConn() = default;
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  ~RawConn() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

Pass run_tcp(Context& ctx, std::size_t n, const PassOptions& opt) {
  const Spec& spec = ctx.spec;
  Buffers& b = ctx.buf;
  b.reset(n);
  Pass pass;
  const bool traced = g_tracer.enabled;
  constexpr int kConns = 2;

  RssProbe rss;
  if (opt.rss) rss.start();
  const std::int64_t setup0 = now_ns();
  net::AdmissionServerConfig config;
  config.loops = 1;
  config.gateway.shards = kShards;
  config.gateway.queue_capacity = kQueueCapacity;
  config.gateway.batch_size = kShardBatch;
  config.gateway.routing = RoutingPolicy::kHash;
  config.gateway.record_decisions = opt.checks;
  config.gateway.pin_shards = true;
  auto server = std::make_unique<net::AdmissionServer>(config, factory(spec.machines));
  // Open loop: the net/protocol codec over two non-blocking sockets, both
  // driven by one generator thread, so no job waits behind a blocking read
  // (AdmissionClient::wait_reply blocks). Drain (the ladder's R5 rung):
  // one AdmissionClient per connection, pipelined, each on its own thread.
  const bool open_loop = opt.rate > 0;
  std::unique_ptr<net::AdmissionClient> clients[kConns];
  RawConn raw[kConns];
  for (int c = 0; c < kConns; ++c) {
    if (open_loop) {
      raw[c].fd = net::connect_with_timeout("127.0.0.1", server->port(),
                                            std::chrono::milliseconds(5000));
      (void)fcntl(raw[c].fd, F_SETFL, fcntl(raw[c].fd, F_GETFL) | O_NONBLOCK);
    } else {
      clients[c] = std::make_unique<net::AdmissionClient>("127.0.0.1", server->port());
    }
  }
  pass.setup_s = static_cast<double>(now_ns() - setup0) / 1e9;

  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns() + 2000000;
  if (open_loop) schedule_due(ctx, n, opt.rate, t0);
  std::int64_t gen_cpu[kConns] = {0, 0};
  std::string errors[kConns];
  std::size_t replies[kConns] = {0, 0};
  net::DrainedMsg drained{};
  bool got_drained = false;

  auto record = [&](int c, JobId job_id, Outcome outcome, int machine,
                    double start, std::int64_t t) {
    ++replies[c];
    const std::size_t i = idx_of(job_id);
    if (job_id < 1 || i >= n) {
      errors[c] = "reply for an unknown job";
      return;
    }
    if (b.outcome[i] != 0) b.duplicates.fetch_add(1);
    b.outcome[i] = static_cast<std::uint8_t>(outcome);
    b.decided[i] = t;
    b.machine[i] = machine;
    b.start[i] = start;
    if (traced) g_tracer.record(kSpanReply, b.due[i], t, job_id);
  };

  // Reads whatever connection c has ready and records every frame in it.
  auto poll_replies = [&](int c) {
    char chunk[65536];
    for (;;) {
      const ssize_t got = ::read(raw[c].fd, chunk, sizeof chunk);
      if (got <= 0) {
        if (got == 0) errors[c] = "server closed the connection";
        else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          errors[c] = std::string("read: ") + std::strerror(errno);
        return;
      }
      const std::int64_t t = now_ns();
      raw[c].decoder.feed(chunk, static_cast<std::size_t>(got));
      net::Frame frame;
      for (;;) {
        const auto st = raw[c].decoder.next(frame);
        if (st == net::FrameDecoder::Status::kNeedMore) break;
        if (st == net::FrameDecoder::Status::kError) {
          errors[c] = "corrupt stream: " + raw[c].decoder.error();
          return;
        }
        --raw[c].outstanding;
        if (frame.type == net::FrameType::kDecision) {
          net::DecisionMsg d;
          if (!net::parse_decision(frame, d, nullptr)) errors[c] = "bad DECISION";
          record(c, d.job_id, d.outcome, d.machine, d.start, t);
        } else if (frame.type == net::FrameType::kReject) {
          net::RejectMsg r;
          if (!net::parse_reject(frame, r, nullptr)) errors[c] = "bad REJECT";
          record(c, r.job_id, r.outcome, -1, 0.0, t);
        } else if (frame.type == net::FrameType::kDrained) {
          ++raw[c].outstanding;  // not an answer to a SUBMIT
          got_drained = net::parse_drained(frame, drained, nullptr);
        } else {
          errors[c] = "unexpected frame: " + net::parse_error_message(frame);
        }
      }
      if (static_cast<std::size_t>(got) < sizeof chunk) return;
    }
  };

  auto flush = [&](int c) {
    RawConn& rc = raw[c];
    while (rc.out_pos < rc.out.size()) {
      const std::int64_t w0 = traced ? now_ns() : 0;
      const ssize_t put = ::write(rc.fd, rc.out.data() + rc.out_pos,
                                  rc.out.size() - rc.out_pos);
      if (put < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          errors[c] = std::string("write: ") + std::strerror(errno);
        return;
      }
      if (traced) g_tracer.record(kSpanSend, w0, now_ns(), -1, 0, rc.frames);
      rc.out_pos += static_cast<std::size_t>(put);
    }
    rc.out.clear();
    rc.out_pos = 0;
    rc.frames = 0;
  };

  auto open_loop_gen = [&] {
    pin_generator();
    const std::int64_t my_cpu0 = thread_cpu_ns();
    wait_until(t0);
    std::size_t k = 0;
    auto in_flight = [&] { return raw[0].outstanding + raw[1].outstanding; };
    while ((k < n || in_flight() > 0) && errors[0].empty() && errors[1].empty()) {
      const std::int64_t now = now_ns();
      while (k < n && b.due[k] <= now) {
        RawConn& rc = raw[k % kConns];
        b.submitted[k] = now;
        net::encode_submit(rc.out, net::SubmitMsg{rc.next_rid++, ctx.jobs[k]});
        ++rc.outstanding;
        ++rc.frames;
        ++k;
      }
      for (int c = 0; c < kConns; ++c) {
        if (!raw[c].out.empty()) flush(c);
        if (raw[c].outstanding > 0) poll_replies(c);
      }
    }
    // Every SUBMIT is answered: ask for the final counters on connection 0.
    net::encode_drain(raw[0].out);
    flush(0);
    const std::int64_t give_up = now_ns() + 30000000000LL;
    while (!got_drained && errors[0].empty() && now_ns() < give_up) poll_replies(0);
    gen_cpu[0] = thread_cpu_ns() - my_cpu0;
  };

  auto drain_gen = [&](int c) {
    net::AdmissionClient& client = *clients[c];
    const std::int64_t my_cpu0 = thread_cpu_ns();
    try {
      constexpr std::size_t kWindow = 256;
      for (std::size_t k = static_cast<std::size_t>(c); k < n || client.outstanding() > 0;) {
        while (k < n && client.outstanding() < kWindow) {
          const std::int64_t now = now_ns();
          b.due[k] = b.submitted[k] = now;
          (void)client.submit(ctx.jobs[k]);
          if (traced) g_tracer.record(kSpanClientSubmit, now, now_ns(), ctx.jobs[k].id);
          k += kConns;
        }
        const net::DecisionReply r = client.wait_reply();
        record(c, r.job_id, r.outcome, r.machine, r.start, now_ns());
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
    gen_cpu[c] = thread_cpu_ns() - my_cpu0;
  };

  if (open_loop) {
    std::thread gen(open_loop_gen);
    gen.join();
  } else {
    wait_until(t0);
    std::thread threads[kConns];
    for (int c = 0; c < kConns; ++c) threads[c] = std::thread(drain_gen, c);
    for (auto& t : threads) t.join();
    try {
      drained = clients[0]->drain();
      got_drained = true;
    } catch (const std::exception& e) {
      errors[0] += std::string(" DRAIN failed: ") + e.what();
    }
  }
  pass.accept_errors = server->accept_errors();
  pass.connections_reaped = server->connections_reaped();
  for (auto& cl : clients) cl.reset();
  for (RawConn& rc : raw) rc.close();
  GatewayResult result = server->shutdown();
  pass.process_cpu = process_cpu_ns() - cpu0;
  pass.loadgen_cpu = gen_cpu[0] + gen_cpu[1];
  server.reset();
  if (opt.rss) pass.rss_mb = rss.peak_mb();

  summarize(ctx, n, pass);
  pass.batches = result.metrics.total.batches;
  pass.peak_queue_depth = result.metrics.total.peak_queue_depth;

  Checks& c = ctx.checks;
  const std::string where = "R5 pass";
  for (int k = 0; k < kConns; ++k) {
    c.expect(errors[k].empty(), where + ": connection " + std::to_string(k) +
                                    ": " + errors[k]);
  }
  c.expect(got_drained, where + ": no DRAINED reply");
  c.expect(b.duplicates.load() == 0, where + ": a SUBMIT was answered twice");
  c.expect(replies[0] + replies[1] == n, where + ": replies != SUBMITs");
  c.expect(result.clean(), where + ": gateway reported a violation");
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto o = static_cast<Outcome>(b.outcome[i]);
    accepted += o == Outcome::kAccepted;
    rejected += o == Outcome::kRejected;
  }
  c.expect(drained.submitted == pass.decisions && drained.accepted == accepted &&
               drained.rejected == rejected,
           where + ": DRAINED counts differ from the client-observed ones");
  c.expect(std::fabs(drained.accepted_volume - pass.accepted_volume) <=
               1e-9 * std::max(1.0, pass.accepted_volume),
           where + ": DRAINED accepted volume differs from the client's");
  c.expect(std::fabs(result.merged.accepted_volume - pass.accepted_volume) <=
               1e-9 * std::max(1.0, pass.accepted_volume),
           where + ": accepted volume differs from GatewayResult");
  if (!opt.checks) return pass;

  // Every accepted commitment, in each shard's decision order, against the
  // server's own record — and the client saw exactly those decisions.
  for (int s = 0; s < kShards; ++s) {
    const auto& log = result.shards[static_cast<std::size_t>(s)].decisions;
    std::vector<std::size_t> seq;
    bool agree = true;
    for (const DecisionRecord& rec : log) {
      const std::size_t i = idx_of(rec.job.id);
      seq.push_back(i);
      const bool acc = static_cast<Outcome>(b.outcome[i]) == Outcome::kAccepted;
      agree = agree && acc == rec.decision.accepted &&
              (!acc || (rec.decision.machine == b.machine[i] &&
                        rec.decision.start == b.start[i]));
    }
    c.expect(agree, where + ": client decisions differ from the server's");
    validate_sequence(ctx, s, seq, where);
  }
  return pass;
}

Pass run_pass(Context& ctx, std::size_t n, const PassOptions& opt) {
  return opt.rung == Rung::kR5 ? run_tcp(ctx, n, opt) : run_gateway(ctx, n, opt);
}

// --- R0 / R1: the scheduler alone and under the streaming engine -----------

struct CorePass {
  double cpu_ns_per_job = 0.0;
  double accepted_volume = 0.0;
  double offered_volume = 0.0;
};

/// Runs the first n jobs, split by the gateway's hash routing, through one
/// fresh scheduler per shard: bare on_arrival calls (R0) or
/// StreamingRunner::feed (R1). One call is shorter than the clock is
/// precise, so each shard's whole batch of calls is one span.
CorePass run_core(Context& ctx, std::size_t n, Rung rung,
                  std::uint64_t parent) {
  ShardRouter router(RoutingPolicy::kHash, kShards);
  std::vector<Job> per[kShards];
  CorePass out;
  for (std::size_t i = 0; i < n; ++i) {
    per[router.route(ctx.jobs[i])].push_back(ctx.jobs[i]);
    out.offered_volume += ctx.jobs[i].proc;
  }
  // Solving the ratio recursion is set-up, not per-job work: build the
  // schedulers before the clock starts.
  std::vector<std::unique_ptr<ThresholdScheduler>> scheds;
  for (int s = 0; s < kShards; ++s) {
    scheds.push_back(std::make_unique<ThresholdScheduler>(kEps, ctx.spec.machines));
  }
  const std::int64_t cpu0 = process_cpu_ns();
  for (int s = 0; s < kShards; ++s) {
    ThresholdScheduler& sched = *scheds[static_cast<std::size_t>(s)];
    const std::int64_t t0 = now_ns();
    if (rung == Rung::kR0) {
      for (const Job& job : per[s]) {
        const Decision d = sched.on_arrival(job);
        if (d.accepted) out.accepted_volume += job.proc;
      }
    } else {
      RunOptions options;
      options.record_decisions = false;
      StreamingRunner runner(sched, options);
      for (const Job& job : per[s]) {
        const FeedOutcome o = runner.feed(job);
        if (o.decision.accepted) out.accepted_volume += job.proc;
      }
      ctx.checks.expect(!runner.halted(), "R1: StreamingRunner halted");
    }
    g_tracer.record(rung == Rung::kR0 ? kSpanCoreBatch : kSpanRunnerBatch, t0,
                    now_ns(), -1, parent,
                    static_cast<std::uint32_t>(per[s].size()));
  }
  out.cpu_ns_per_job =
      static_cast<double>(process_cpu_ns() - cpu0) / static_cast<double>(n);
  return out;
}

// --- net/protocol codec on the workload's own frames ------------------------

struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

/// Encodes the pass's SUBMIT frames and the DECISION frames it received,
/// then decodes both streams; per-frame cost of each direction. Checks the
/// round trip reproduces every field.
CodecCost measure_codec(Context& ctx, std::size_t n) {
  std::vector<char> submits, decisions;
  submits.reserve(n * 64);
  decisions.reserve(n * 64);
  CodecCost cost;
  const std::int64_t e0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    net::encode_submit(submits, net::SubmitMsg{i + 1, ctx.jobs[i]});
    net::DecisionMsg d;
    d.request_id = i + 1;
    d.job_id = ctx.jobs[i].id;
    d.outcome = static_cast<Outcome>(ctx.buf.outcome[i]);
    d.machine = ctx.buf.machine[i];
    d.start = ctx.buf.start[i];
    net::encode_decision(decisions, d);
  }
  const std::int64_t e1 = now_ns();
  g_tracer.record(kSpanEncode, e0, e1, -1, 0, static_cast<std::uint32_t>(2 * n));
  net::FrameDecoder dec_submits, dec_decisions;
  dec_submits.feed(submits.data(), submits.size());
  dec_decisions.feed(decisions.data(), decisions.size());
  net::Frame frame;
  std::size_t good = 0;
  const std::int64_t d0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    net::SubmitMsg s;
    if (dec_submits.next(frame) == net::FrameDecoder::Status::kFrame &&
        net::parse_submit(frame, s, nullptr) && s.job.id == ctx.jobs[i].id &&
        s.job.release == ctx.jobs[i].release && s.job.proc == ctx.jobs[i].proc &&
        s.job.deadline == ctx.jobs[i].deadline) {
      ++good;
    }
    net::DecisionMsg d;
    if (dec_decisions.next(frame) == net::FrameDecoder::Status::kFrame &&
        net::parse_decision(frame, d, nullptr) && d.job_id == ctx.jobs[i].id &&
        d.machine == ctx.buf.machine[i] && d.start == ctx.buf.start[i]) {
      ++good;
    }
  }
  const std::int64_t d1 = now_ns();
  g_tracer.record(kSpanDecode, d0, d1, -1, 0, static_cast<std::uint32_t>(2 * n));
  ctx.checks.expect(good == 2 * n, "codec: frames did not round-trip");
  cost.encode_ns = static_cast<double>(e1 - e0) / static_cast<double>(2 * n);
  cost.decode_ns = static_cast<double>(d1 - d0) / static_cast<double>(2 * n);
  return cost;
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string invalid;  ///< non-empty: impossible value, printed as null
};

class Report {
 public:
  explicit Report(Checks& checks) : checks_(checks) {}

  void add(const std::string& name, double value, const std::string& unit) {
    Metric m{name, value, unit, {}};
    if (std::isinf(value)) {
      m.invalid = "too many submissions got no decision to place it";
    } else if (std::isnan(value)) {
      m.invalid = "not measured (too few samples)";
    }
    metrics_.push_back(std::move(m));
  }
  /// A share of a whole: outside [0, 1] is impossible.
  void add_fraction(const std::string& name, double value,
                    const std::string& unit = "ratio") {
    add(name, value, unit);
    if (metrics_.back().invalid.empty() && (value < 0.0 || value > 1.0)) {
      metrics_.back().invalid = "fraction outside [0, 1]";
    }
  }
  /// A median and its tail percentile: p50 > p99 is impossible.
  void add_pair(const std::string& p50_name, double p50,
                const std::string& p99_name, double p99,
                const std::string& unit) {
    add(p50_name, p50, unit);
    add(p99_name, p99, unit);
    if (std::isfinite(p50) && std::isfinite(p99) && p50 > p99) {
      metrics_[metrics_.size() - 2].invalid = "p50 above p99";
      metrics_.back().invalid = "p99 below p50";
    }
  }
  void mark_invalid(const std::string& name, const std::string& why) {
    if (why.empty()) return;
    for (Metric& m : metrics_) {
      if (m.name == name) m.invalid = why;
    }
  }

  [[nodiscard]] std::size_t invalid_count() const {
    std::size_t n = 0;
    for (const Metric& m : metrics_) n += !m.invalid.empty();
    return n;
  }

  void print(const std::string& workload, std::size_t attempted,
             std::size_t failed, bool correct) const {
    for (const Metric& m : metrics_) {
      if (m.invalid.empty()) {
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      } else {
        std::printf("  %-30s %16s %s  INVALID: %s\n", m.name.c_str(), "-",
                    m.unit.c_str(), m.invalid.c_str());
      }
    }
    for (const std::string& f : checks_.failures) {
      std::printf("CHECK FAILED [%s]: %s\n", workload.c_str(), f.c_str());
    }
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t k = 0; k < metrics_.size(); ++k) {
      const Metric& m = metrics_[k];
      if (k) js << ", ";
      js << '"' << m.name << "\": {\"value\": ";
      if (m.invalid.empty()) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        js << num;
      } else {
        js << "null";
      }
      js << ", \"unit\": \"" << m.unit << '"';
      if (!m.invalid.empty()) js << ", \"invalid\": \"" << m.invalid << '"';
      js << '}';
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
  }

 private:
  Checks& checks_;
  std::vector<Metric> metrics_;
};

/// The pass's decide p99 as this benchmark reports it: the lower quartile
/// of the windows' p99s (NaN when too few windows had enough samples).
double window_p99(const Pass& p) {
  if (p.window_p99_us.size() * kWindowJobs * 2 < p.offered) return std::nan("");
  return admbench::quartiles(p.window_p99_us).q1;
}
/// How late the generator ran, the same way: median of the windows' p99.
double window_late_p99(const Pass& p) {
  if (p.window_late_p99_us.empty()) return p.late_p99_us;
  return admbench::quartiles(p.window_late_p99_us).median;
}
double window_p50(const Pass& p) {
  if (p.window_p50_us.size() * kWindowJobs * 2 < p.offered) return std::nan("");
  return admbench::quartiles(p.window_p50_us).median;
}

/// The stack the end-to-end metrics measure. durable-accept stops at the
/// WAL: its follower fsyncs every record, and on the host this was tuned on
/// one fsync took from 0.1 ms to 1 s within a minute (a shared disk), which
/// stalled the leader through replication backpressure and made every
/// end-to-end figure measure the neighbours' I/O. Replication is measured
/// in the traced run (rung R4), where no bound applies.
Rung e2e_rung(const Spec& spec) {
  if (spec.front == Front::kTcp) return Rung::kR5;
  if (spec.wal) return Rung::kR3;
  return Rung::kR2;
}

/// The top of the workload's layer ladder (traced run).
Rung ladder_top(const Spec& spec) {
  if (spec.replication) return Rung::kR4;
  return e2e_rung(spec);
}

/// Why a reported peak queue depth is impossible, or "" when it is not. A
/// shard queue never holds more than its capacity; the registry documents
/// that its unlocked depth counter may overshoot by up to one consumer
/// batch, and a peak beyond even that is the BoundedMpscQueue::size() wrap.
/// Either way the value is reported as invalid, never clamped.
std::string queue_depth_problem(std::uint64_t peak, std::size_t capacity) {
  if (peak <= capacity) return "";
  if (peak <= capacity + kShardBatch) {
    return "peak_queue_depth above queue_capacity by at most one batch";
  }
  return "peak_queue_depth far above queue_capacity (size() wrap)";
}

void guard_queue_depth(Context& ctx, std::uint64_t peak) {
  const std::string why = queue_depth_problem(peak, kQueueCapacity);
  if (!why.empty()) ctx.checks.invalid.push_back(why);
}

// --- the untraced run: end-to-end metrics -----------------------------------

struct Budget {
  double nominal_s;  ///< latency phase at the nominal rate, all segments
  int segments;      ///< nominal-rate passes; the probes run between them
  double probe_s;    ///< one max-rate probe
  int probes;        ///< max-rate probes in all
};

/// About 0.55 of the run at the nominal rate and at most 0.4 in probes, the
/// rest in building, checking and stopping systems.
Budget budget_for(double seconds) {
  return Budget{0.55 * seconds, 8, 0.011 * seconds, 36};
}

std::size_t jobs_for(double rate, double seconds, std::size_t cap) {
  const auto n = static_cast<std::size_t>(rate * seconds);
  return std::clamp<std::size_t>(n, 4000, cap);
}

/// The max-rate search. A probe runs a fresh system at one offered rate and
/// passes when decide p99 stays within the workload's limit, the failed
/// share within its limit, and the backlog does not grow.
///
/// 1. From the nominal rate the rate doubles (or halves) until one rate
///    passes and the next fails: the bracket [lo, hi = 2 lo]. A failing
///    probe is repeated once here, so one stall of the host cannot end the
///    doubling early.
/// 2. An up-down staircase from sqrt(lo hi): after a pass the next probe is
///    one step up, after a fail one step down. The step starts at
///    sqrt(hi / lo) and halves at every reversal until it is 2^(1/16)
///    (4.4%, finer than the metric's bound); the staircase has then
///    settled, and keeps oscillating around the rate that passes half its
///    probes.
///
/// The metric is the geometric mean of the rates probed once settled (the
/// staircase bounds them, so no single probe can pull it far). Near its
/// capacity edge the system passes a probe or not depending on how busy the
/// host is in that half second (the same rate passes and fails within one
/// run), so a bisection, which trusts every outcome, reads the host as much
/// as the system; the staircase's mean weighs every settled probe alike.
class MaxRateSearch {
 public:
  MaxRateSearch(Context& ctx, const Budget& budget)
      : ctx_(ctx), budget_(budget) {}

  /// Continues the search until `until` probes have run in all.
  void run(int until) {
    until = std::min(until, budget_.probes);
    if (!bracketed_) bracket(until);
    while (bracketed_ && probes_ < until) {
      const bool settled = log_step_ <= kMinLogStep;
      const bool ok = probe(rate_);
      if (settled) settled_.push_back(rate_);
      const int dir = ok ? 1 : -1;
      if (last_dir_ != 0 && dir != last_dir_) {
        log_step_ = std::max(log_step_ / 2.0, kMinLogStep);
      }
      last_dir_ = dir;
      rate_ *= std::exp(dir * log_step_);
    }
  }

  /// Geometric mean of the settled probes' rates; NaN (invalid) when the
  /// bracket was never found or fewer than kMinSettled probes ran settled.
  [[nodiscard]] double max_rate() const {
    if (settled_.size() < kMinSettled) return std::nan("");
    double log_sum = 0.0;
    for (const double r : settled_) log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(settled_.size()));
  }
  [[nodiscard]] const std::vector<double>& settled() const { return settled_; }
  [[nodiscard]] const std::vector<double>& setups() const { return setups_; }
  [[nodiscard]] int probes() const { return probes_; }

 private:
  static constexpr double kMinLogStep = 0.693147180559945 / 16.0;  // 2^(1/16)
  static constexpr std::size_t kMinSettled = 8;

  bool probe(double rate) {
    const Spec& spec = ctx_.spec;
    const std::size_t n = jobs_for(rate, budget_.probe_s, ctx_.jobs.size());
    PassOptions opt;
    opt.rung = e2e_rung(spec);
    opt.rate = rate;
    // Shedding is a legitimate probe outcome and no check fails on it; a
    // violated commitment or a lost or duplicated answer still does.
    const Pass p = run_pass(ctx_, n, opt);
    setups_.push_back(p.setup_s);
    ++probes_;
    guard_queue_depth(ctx_, p.peak_queue_depth);
    const double failed = static_cast<double>(p.failed) /
                          static_cast<double>(p.offered);
    const double p99 = window_p99(p);
    const bool ok = p99 <= spec.p99_limit_us && failed <= spec.failed_limit &&
                    !p.growing;
    std::printf("  probe %-10.0f jobs/s  n=%-7zu p99=%-10.1f failed=%-8.5f setup=%.3fs %s%s\n",
                rate, n, p99, failed, p.setup_s, p.growing ? "growing " : "",
                ok ? "pass" : "FAIL");
    return ok;
  }

  void bracket(int until) {
    auto passes = [&](double rate) {
      return probe(rate) || (probes_ < until && probe(rate));
    };
    double r = lo_ > 0 ? 2.0 * lo_ : hi_ > 0 ? hi_ / 2.0 : ctx_.spec.nominal_rate;
    while (probes_ < until) {
      if (passes(r)) {
        lo_ = r;
        if (hi_ > 0) break;
        r *= 2.0;
      } else {
        hi_ = r;
        if (lo_ > 0) break;
        r /= 2.0;
      }
    }
    bracketed_ = lo_ > 0 && hi_ > 0;
    if (bracketed_) {
      rate_ = std::sqrt(lo_ * hi_);
      log_step_ = 0.5 * std::log(hi_ / lo_);
    }
  }

  Context& ctx_;
  const Budget& budget_;
  int probes_ = 0;
  double lo_ = 0.0, hi_ = 0.0;
  bool bracketed_ = false;
  double rate_ = 0.0, log_step_ = 0.0;
  int last_dir_ = 0;
  std::vector<double> settled_;
  std::vector<double> setups_;
};

/// Adds pass `p`'s counts and windows to `total` (latency samples are
/// pooled, so whole-pass percentiles stay exact).
void accumulate(Pass& total, const Pass& p) {
  total.offered += p.offered;
  total.decisions += p.decisions;
  total.failed += p.failed;
  total.queue_full += p.queue_full;
  total.offered_volume += p.offered_volume;
  total.accepted_volume += p.accepted_volume;
  total.latency_us.insert(total.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
  for (auto [to, from] : {std::pair{&total.window_p50_us, &p.window_p50_us},
                          std::pair{&total.window_p99_us, &p.window_p99_us},
                          std::pair{&total.window_late_p99_us,
                                    &p.window_late_p99_us}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  total.late_p99_us = std::max(total.late_p99_us, p.late_p99_us);
}

void run_untraced(Context& ctx, double seconds) {
  const Spec& spec = ctx.spec;
  const Budget budget = budget_for(seconds);
  // The nominal-rate measurement is split into segments with a share of
  // the max-rate probes between each two, so it spans the whole run: a
  // slow spell of the host then weighs on few of its windows.
  const std::size_t n_segment = jobs_for(
      spec.nominal_rate, budget.nominal_s / budget.segments, ctx.jobs.size());
  Report report(ctx.checks);

  PassOptions opt;
  opt.rung = e2e_rung(spec);
  opt.rate = spec.nominal_rate;
  opt.checks = true;
  Pass nominal;
  std::vector<double> setups;
  MaxRateSearch search(ctx, budget);
  // Warm-up: one untimed pass at four times the nominal rate, long enough
  // to wrap every shard's queue twice, so the first measured segment does
  // not pay for first touches of memory that later systems reuse. Being
  // the run's first system, it is also the one whose peak memory counts:
  // later systems reuse what the allocator kept from earlier ones.
  PassOptions warm;
  warm.rung = e2e_rung(spec);
  warm.rate = 4.0 * spec.nominal_rate;
  warm.rss = true;
  nominal.rss_mb =
      run_pass(ctx, std::min(ctx.jobs.size(), 2 * kShards * kQueueCapacity), warm)
          .rss_mb;
  for (int k = 0; k < budget.segments; ++k) {
    if (k > 0) search.run(budget.probes * k / (budget.segments - 1));
    const Pass p = run_pass(ctx, n_segment, opt);
    guard_queue_depth(ctx, p.peak_queue_depth);
    setups.push_back(p.setup_s);
    accumulate(nominal, p);
  }
  setups.insert(setups.end(), search.setups().begin(), search.setups().end());
  if (!search.settled().empty()) {
    const Quartiles mr = admbench::quartiles(search.settled());
    std::printf("max rate: %zu settled probes of %d, rates q1/median/q3 %.0f/%.0f/%.0f jobs/s\n",
                search.settled().size(), search.probes(), mr.q1, mr.median, mr.q3);
  }
  std::sort(nominal.latency_us.begin(), nominal.latency_us.end());

  std::printf("nominal %.0f jobs/s: %zu jobs, %zu decided, %zu failed (%zu queue-full), "
              "generator late p99 %.1f us (worst whole segment %.1f us)\n",
              spec.nominal_rate, nominal.offered, nominal.decisions,
              nominal.failed, nominal.queue_full, window_late_p99(nominal),
              nominal.late_p99_us);
  // A run whose generator fell behind measured the generator, not the
  // system: it is invalid, not slow.
  ctx.checks.expect(window_late_p99(nominal) <= spec.p99_limit_us,
                    "load generator fell behind: its late p99 exceeds the "
                    "workload's latency limit in most windows");
  const Quartiles w50 = admbench::quartiles(nominal.window_p50_us);
  const Quartiles w99 = admbench::quartiles(nominal.window_p99_us);
  std::printf("  windows: p50 q1/median/q3 %.1f/%.1f/%.1f us, p99 %.1f/%.1f/%.1f us\n",
              w50.q1, w50.median, w50.q3, w99.q1, w99.median, w99.q3);
  std::printf("  (decide latency over %zu windows of %zu jobs, %zu samples in all;"
              " pooled p50 %.1f us, p99 %.1f us, highest supported percentile p%g)\n",
              nominal.window_p99_us.size(), kWindowJobs, nominal.latency_us.size(),
              percentile_or_nan(nominal.latency_us, 0.5),
              percentile_or_nan(nominal.latency_us, 0.99),
              admbench::highest_supported_percentile(nominal.latency_us.size()));
  report.add_pair("decide_p50_us", window_p50(nominal), "decide_p99_us",
                  window_p99(nominal), "us");
  report.add("max_rate_jobs_s", search.max_rate(), "jobs/s");
  report.add_fraction("accepted_load_frac", nominal.accepted_frac());
  report.add_fraction("answered_frac",
                      static_cast<double>(nominal.decisions) /
                          static_cast<double>(nominal.offered));
  report.add("setup_s", admbench::quartiles(setups).median, "s");
  report.add("rss_peak_mb", nominal.rss_mb, "MB");
  for (const std::string& why : ctx.checks.invalid) {
    std::printf("INVALID VALUE: %s\n", why.c_str());
  }
  const bool correct = ctx.checks.failures.empty();
  report.print(spec.name, nominal.offered, nominal.failed, correct);
}

// --- the traced run: the layer ladder and per-layer metrics -----------------

const char* layer_of(Rung r) {
  static const char* const names[] = {"core",       "sched",       "service",
                                      "commit_log", "replication", "net"};
  return names[static_cast<int>(r)];
}

void run_traced(Context& ctx, double seconds, const std::string& span_path) {
  const Spec& spec = ctx.spec;
  Report report(ctx.checks);
  std::vector<Rung> rungs = {Rung::kR0, Rung::kR1, Rung::kR2};
  if (spec.wal) rungs.push_back(Rung::kR3);
  if (spec.replication) rungs.push_back(Rung::kR4);
  if (spec.front == Front::kTcp) rungs.push_back(Rung::kR5);
  std::vector<int> base;
  for (const Rung r : rungs) {
    base.push_back(r == Rung::kR0   ? -1
                   : r == Rung::kR5 ? 2
                                    : static_cast<int>(r) - 1);
  }

  // 1. The ladder: every rung on the same jobs, in drain mode, interleaved
  //    over rounds so a slow moment of the host hits every rung alike.
  g_tracer.enabled = true;
  const std::size_t n_ladder = std::min(spec.ladder_jobs, ctx.jobs.size());
  constexpr int kRounds = 5;
  std::vector<std::vector<double>> cost(rungs.size());
  double r0_accept = 0.0, r2_accept = 0.0, offered_volume = 0.0;
  std::uint64_t r3_accepts = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const Rung r = rungs[k];
      const std::int64_t t0 = now_ns();
      const std::uint64_t rung_span = g_tracer.reserve();
      double per_job = 0.0;
      if (r == Rung::kR0 || r == Rung::kR1) {
        const CorePass p = run_core(ctx, n_ladder, r, rung_span);
        per_job = p.cpu_ns_per_job;
        if (r == Rung::kR0) {
          r0_accept = p.accepted_volume;
          offered_volume = p.offered_volume;
        }
      } else {
        PassOptions opt;
        opt.rung = r;
        opt.rate = 0.0;
        const bool tracing = g_tracer.enabled;
        g_tracer.enabled = false;  // the ladder's rungs are timed untraced
        const Pass p = run_pass(ctx, n_ladder, opt);
        g_tracer.enabled = tracing;
        guard_queue_depth(ctx, p.peak_queue_depth);
        per_job = p.cpu_ns_per_job();
        if (r == Rung::kR2) r2_accept = p.accepted_volume;
        if (r == Rung::kR3) r3_accepts = p.wal_records;
      }
      cost[k].push_back(per_job);
      g_tracer.record(kSpanRung, t0, now_ns(), -1, 0,
                      static_cast<std::uint32_t>(n_ladder), rung_span);
    }
  }
  // Single producer in release order: the gateway decides exactly what the
  // bare scheduler decides.
  ctx.checks.expect(std::fabs(r0_accept - r2_accept) <= 1e-9 * r0_accept,
                    "R2 accepted volume differs from R0 on the same jobs");
  std::vector<std::string> layers;
  for (const Rung r : rungs) layers.emplace_back(layer_of(r));
  const auto layer_costs = admbench::subtract_rungs(cost, layers, base);
  std::printf("layer ladder (%zu jobs/rung, %d rounds, CPU ns per job):\n",
              n_ladder, kRounds);
  double total = 0.0;
  std::map<std::string, double> self;
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    const Quartiles rq = admbench::quartiles(cost[k]);
    const Quartiles& d = layer_costs[k].diff;
    std::printf("  %s %-12s rung %10.1f  self %10.1f  [q1 %.1f, q3 %.1f]\n",
                rung_name(rungs[k]), layers[k].c_str(), rq.median, d.median,
                d.q1, d.q3);
    self[layers[k]] = d.median;
    total += d.median;
  }
  std::string dominant;
  double share = -1.0;
  // The WAL and its replication stream are one commit path.
  std::map<std::string, double> grouped = self;
  if (grouped.count("commit_log")) {
    grouped["commit_log+replication"] =
        grouped["commit_log"] + grouped["replication"];
    grouped.erase("commit_log");
    grouped.erase("replication");
  }
  for (const auto& [name, v] : grouped) {
    if (v > share) {
      share = v;
      dominant = name;
    }
  }
  std::printf("  dominant layer: %s (%.0f%% of %.1f ns/job); predicted %s: %s\n",
              dominant.c_str(), 100.0 * share / total, total, spec.predicted,
              dominant == spec.predicted ? "met" : "NOT MET");

  // 2. Nominal-rate passes: the top rung untraced (process CPU, lateness,
  //    failures) and traced (spans), plus R2 at the same rate for the net
  //    layer's latency.
  const Budget budget = budget_for(seconds);
  const std::size_t n_nom = jobs_for(spec.nominal_rate, 0.5 * budget.nominal_s,
                                     ctx.jobs.size());
  PassOptions opt;
  opt.rung = ladder_top(spec);
  opt.rate = spec.nominal_rate;
  opt.checks = true;
  g_tracer.enabled = false;
  const Pass untraced = run_pass(ctx, n_nom, opt);
  g_tracer.enabled = true;
  const Pass traced = run_pass(ctx, n_nom, opt);
  guard_queue_depth(ctx, untraced.peak_queue_depth);
  guard_queue_depth(ctx, traced.peak_queue_depth);
  std::vector<Span> spans = g_tracer.all();
  std::optional<Pass> inproc;
  CodecCost codec;
  if (spec.front == Front::kTcp) {
    codec = measure_codec(ctx, n_nom);  // on the traced pass's decisions
    PassOptions o2 = opt;
    o2.rung = Rung::kR2;
    inproc = run_pass(ctx, n_nom, o2);
    // AdmissionClient::submit, timed per call in a pipelined drain.
    PassOptions o3;
    o3.rung = Rung::kR5;
    (void)run_pass(ctx, std::min<std::size_t>(n_nom, 20000), o3);
    spans = g_tracer.all();
  }
  g_tracer.enabled = false;

  // Mean time per call covered by spans of one name (batched spans count
  // every call they cover), and the sorted durations of single-job spans.
  auto per_call_ns = [&](std::uint16_t name) {
    double sum = 0.0, calls = 0.0;
    for (const Span& s : spans) {
      if (s.name != name) continue;
      sum += static_cast<double>(s.end - s.start);
      calls += s.count;
    }
    return calls > 0 ? sum / calls : 0.0;
  };
  auto durations_us = [&](std::uint16_t name) {
    std::vector<double> d;
    for (const Span& s : spans) {
      if (s.name == name) d.push_back(static_cast<double>(s.end - s.start) / 1000.0);
    }
    std::sort(d.begin(), d.end());
    return d;
  };
  const bool tcp = spec.front == Front::kTcp;
  const bool durable = spec.wal;

  report.add("core.decide_ns", self["core"], "ns");
  report.add_fraction("core.accept_frac", r0_accept / offered_volume);
  report.add("sched.runner_ns", self["sched"], "ns");
  report.add("service.self_ns", self["service"], "ns");
  report.add("service.submit_ns", per_call_ns(kSpanSubmitBatch), "ns");
  const std::vector<double> handoff = durations_us(kSpanHandoff);
  report.add_pair("service.handoff_us_p50", percentile_or_nan(handoff, 0.5),
                  "service.handoff_us_p99", percentile_or_nan(handoff, 0.99),
                  "us");
  const Pass& top = tcp ? *inproc : traced;  // the in-process gateway pass
  report.add("service.jobs_per_batch",
             top.batches ? static_cast<double>(top.decisions) /
                               static_cast<double>(top.batches)
                         : std::nan(""),
             "jobs");
  report.add("service.queue_full", static_cast<double>(untraced.queue_full),
             "count");
  report.add("service.peak_queue_depth",
             static_cast<double>(untraced.peak_queue_depth), "count");
  report.mark_invalid("service.peak_queue_depth",
                      queue_depth_problem(untraced.peak_queue_depth,
                                          kQueueCapacity));
  report.add("commit_log.ns_per_accept",
             durable && r3_accepts ? self["commit_log"] *
                                         static_cast<double>(n_ladder) /
                                         static_cast<double>(r3_accepts)
                                   : 0.0,
             "ns");
  report.add("commit_log.bytes_per_accept",
             durable && traced.wal_records
                 ? static_cast<double>(traced.wal_bytes) /
                       static_cast<double>(traced.wal_records)
                 : 0.0,
             "bytes");
  report.add("replication.ns_per_accept",
             spec.replication && r3_accepts
                 ? self["replication"] * static_cast<double>(n_ladder) /
                       static_cast<double>(r3_accepts)
                 : 0.0,
             "ns");
  report.add("replication.acked_records",
             static_cast<double>(traced.acked_records), "count");
  report.add("recovery.recover_s", durable ? traced.recover_s : 0.0, "s");
  report.add("recovery.records_per_s",
             durable && traced.recover_s > 0
                 ? static_cast<double>(traced.recovered_records) / traced.recover_s
                 : 0.0,
             "1/s");
  // Differences of two latencies: either sign is possible.
  report.add("net.self_us_p50",
             tcp ? window_p50(traced) - window_p50(*inproc) : 0.0, "us");
  report.add("net.self_us_p99",
             tcp ? window_p99(traced) - window_p99(*inproc) : 0.0, "us");
  report.add("net.self_ns", tcp ? self["net"] : 0.0, "ns");
  report.add("net.client_send_ns", per_call_ns(kSpanClientSubmit), "ns");
  report.add("net.encode_ns", codec.encode_ns, "ns");
  report.add("net.decode_ns", codec.decode_ns, "ns");
  report.add("net.order_loss",
             tcp ? inproc->accepted_frac() - traced.accepted_frac() : 0.0,
             "ratio");
  report.add("net.accept_errors", static_cast<double>(traced.accept_errors),
             "count");
  report.add("net.connections_reaped",
             static_cast<double>(traced.connections_reaped), "count");
  const double sys_cpu_untraced =
      static_cast<double>(untraced.process_cpu - untraced.loadgen_cpu) /
      static_cast<double>(untraced.offered);
  const double sys_cpu_traced =
      static_cast<double>(traced.process_cpu - traced.loadgen_cpu) /
      static_cast<double>(traced.offered);
  report.add("process.cpu_us_per_job", sys_cpu_untraced / 1000.0, "us");
  report.add("loadgen.late_us_p99", window_late_p99(untraced), "us");
  report.add("trace.overhead_frac",
             (sys_cpu_traced - sys_cpu_untraced) / sys_cpu_untraced, "ratio");
  report.add_fraction("failed_frac",
                      static_cast<double>(untraced.failed) /
                          static_cast<double>(untraced.offered));
  report.add("check.invalid_values",
             static_cast<double>(ctx.checks.invalid.size() +
                                 report.invalid_count()),
             "count");
  for (const std::string& why : ctx.checks.invalid) {
    std::printf("INVALID VALUE: %s\n", why.c_str());
  }

  g_tracer.write(span_path, spans);
  std::printf("spans: %zu written to %s\n", spans.size(), span_path.c_str());
  const bool correct = ctx.checks.failures.empty();
  report.print(spec.name, untraced.offered, untraced.failed, correct);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".bench_build/work";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "admbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
    } else if (a == "--seconds") {
      seconds = std::stod(value());
    } else if (a == "--trace") {
      trace = std::stoi(value());
    } else if (a == "--workdir") {
      workdir = value();
    } else if (a == "--self-test") {
      self_test_only = true;
    } else {
      std::fprintf(stderr, "admbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  // The statistics code gates every run: a wrong percentile or rung
  // subtraction would make every number below wrong.
  const auto failures = admbench::self_test();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "admbench self-test failed: %s\n", f.c_str());
  }
  if (!failures.empty()) return 3;
  if (self_test_only) {
    std::printf("admbench self-test: all statistics checks passed\n");
    return 0;
  }

  const Spec* spec = find_spec(workload);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "admbench: bad --workload/--seconds/--trace\n");
    return 2;
  }
  fresh_dir(workdir);
  g_spinners.start();
  place_system_threads();
  // Inputs: enough jobs for the nominal phase and the fastest probe. The
  // system receives only these generated jobs.
  const std::size_t n_gen = 1000000;
  const std::vector<Job> jobs = make_jobs(*spec, seed, n_gen);
  Buffers buf(n_gen, trace == 1);
  Checks checks;
  Context ctx{*spec, jobs, buf, workdir, checks};
  std::printf("admbench %s seed %llu, %.0f s, trace %d, %u hardware threads\n",
              spec->name, static_cast<unsigned long long>(seed), seconds, trace,
              std::thread::hardware_concurrency());
  if (trace) {
    run_traced(ctx, seconds,
               workdir + "/../spans-" + spec->name + "-" + std::to_string(seed) + ".csv");
  } else {
    run_untraced(ctx, seconds);
  }
  g_spinners.stop();
  std::filesystem::remove_all(workdir);
  return 0;
}
