#pragma once

// Measurement plumbing shared by the workloads: the metric catalogue and the
// result line, span totals, the process-wide allocation counter, CPU
// placement, the host fingerprint and small order statistics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sched.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with --trace 0. On
/// zoo_compile one "request" is the compile of one layer.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, reported by every workload with --trace 1. A metric of
/// a layer the workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// One run's outcome, printed as the last line of standard output.
class Result {
 public:
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record a metric by catalogue name (throws on an unknown name).
  void set(const std::string& name, double value);
  /// The JSON object for the catalogue selected by `trace`. An end-to-end
  /// metric that was never set makes the run fail: every workload must
  /// measure each of them.
  std::string json(bool trace) const;

 private:
  std::map<std::string, double> values_;
};

/// Accumulated duration and count of one kind of span (a timed call into a
/// layer's public function).
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    ++count;
  }
  double mean_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
  }
};

/// Process-wide heap allocation counter (global operator new is replaced in
/// alloc_counter.cpp). Counting is off by default so untraced runs pay one
/// relaxed load per allocation and no shared-counter traffic.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// CPU placement: the load generator is pinned to one CPU and the engine's
/// threads are created from a thread restricted to the remaining CPUs, so
/// workers, the batch timer and cascade threads inherit that mask and never
/// compete with the client for a core. Placement `turn` puts the client on
/// the turn-th usable CPU (cyclically), so a run that advances the turn
/// spreads its samples over every CPU. With fewer than two usable CPUs
/// nothing is pinned.
struct Placement {
  bool pinned = false;
  int client_cpu = -1;
  cpu_set_t engine_cpus;
  std::string describe() const;
};
Placement plan_placement(int turn);
void pin_current_thread_to_client(const Placement& p);
/// Run `fn` on a fresh thread restricted to the engine CPUs and wait for it;
/// rethrows what `fn` throws.
void on_engine_cpus(const Placement& p, const std::function<void()>& fn);

/// Time the hypervisor ran something else while this machine's CPUs wanted
/// to run ("steal" in /proc/stat), summed over all CPUs, in seconds; 0 where
/// the kernel does not report it.
double steal_s();

/// CPU model, nproc, compiler and the resolved bit-sliced kernel, as JSON.
std::string host_fingerprint();

/// Call `fn` at least `min_reps` times and until `min_seconds` have passed,
/// but no more than `max_reps` times.
void repeat(int min_reps, double min_seconds, int max_reps, const std::function<void()>& fn);

double median(std::vector<double> v);
/// Nearest-rank percentile (0 < p <= 100); reorders `v`.
template <typename T>
double percentile(std::vector<T>& v, double p);

/// On a shared host, co-tenant load slows one CPU by up to 1.5x for seconds
/// at a time, and which CPUs it hits changes from second to second. A median
/// over one run then reports which phase the host was in. So each run takes
/// many short samples spread over every CPU and reports a time as their
/// 10th percentile and a rate as its 90th: the cost under the least
/// interference, which only a change to the program moves.
double quiet_time(std::vector<double> v);
double quiet_rate(std::vector<double> v);

/// The host's speed, from a fixed kernel of the benchmark's own. Beyond the
/// per-CPU phases above, the whole shared host slows by up to 40% for many
/// minutes at a time, so two sets of runs minutes apart would disagree by
/// more than any change to the program. The kernel (sorting and hash-map
/// inserts over fresh heap memory, the kind of work the compiler and the
/// request path do) slows in step with it. Timed end-to-end metrics are
/// therefore reported at the host speed where the kernel takes
/// kReferenceKernelS: a measured time is multiplied by scale() and a rate
/// divided by it. The benchmark prints the unscaled values too.
class HostSpeed {
 public:
  /// About the kernel's time on a quiet 4-vCPU Xeon (Sapphire Rapids) KVM
  /// guest, so scaled figures read close to that host's quiet ones.
  static constexpr double kReferenceKernelS = 0.006;
  /// Run the kernel once on the calling thread and record its time.
  void sample();
  /// sample() `reps` times on each usable CPU in turn; the calling thread is
  /// left pinned to the last one.
  void sample_on_every_cpu(int reps);
  /// quiet_time of the kernel samples.
  double kernel_s() const;
  /// kReferenceKernelS / kernel_s().
  double scale() const;

 private:
  std::vector<double> samples_;
};

double geomean(const std::vector<double>& v);

}  // namespace perfbench
