#include "harness.hpp"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "lpu/simulator.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_rps", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"compile_s", "s"},
    {"lpu_fps_geomean", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"nn.synth_s", "s"},
    {"opt.optimize_s", "s"},
    {"opt.tech_map_s", "s"},
    {"opt.balance_s", "s"},
    {"core.partition_s", "s"},
    {"core.merge_s", "s"},
    {"core.schedule_s", "s"},
    {"core.emit_s", "s"},
    {"lpu.compile_sliced_s", "s"},
    {"core.mfgs_before_merge", "count"},
    {"core.mfgs_after_merge", "count"},
    {"core.wavefronts_total", "count"},
    {"opt.gates_after", "count"},
    {"runtime.submit_ns", "ns/req"},
    {"runtime.wait_ns", "ns/req"},
    {"runtime.allocs_per_request", "count/req"},
    {"runtime.pack_ns", "ns/req"},
    {"runtime.unpack_ns", "ns/req"},
    {"lpu.run_us", "us"},
    {"runtime.member_p50_us", "us"},
    {"runtime.load_cold_s", "s"},
    {"runtime.load_warm_s", "s"},
    {"runtime.assembly_wait_p50_us", "us"},
    {"runtime.queue_wait_p50_us", "us"},
    {"runtime.execution_p50_us", "us"},
    {"runtime.finalize_p50_us", "us"},
    {"runtime.lane_occupancy", "ratio"},
    {"runtime.ledger_coverage", "ratio"},
    {"runtime.settle_residual_share", "ratio"},
    {"runtime.traced_throughput_ratio", "ratio"},
    {"serve.stage1_share", "ratio"},
    {"serve.forwarded", "count"},
    {"serve.bypassed", "count"},
    {"serve.tiny_p50_us", "us"},
    {"serve.big_p50_us", "us"},
};

namespace {

const MetricDef* find_def(const std::string& name) {
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

}  // namespace

void Result::set(const std::string& name, double value) {
  if (find_def(name) == nullptr) {
    throw std::logic_error("unknown metric " + name);
  }
  values_[name] = value;
}

std::string Result::json(bool trace) const {
  std::ostringstream metrics;
  metrics << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool complete = true;
  bool first = true;
  for (const MetricDef& d : trace ? kPerLayer : kEndToEnd) {
    const auto it = values_.find(d.name);
    double v = 0.0;
    if (it != values_.end() && std::isfinite(it->second)) {
      v = it->second;
    } else if (!trace) {
      complete = false;
    }
    metrics << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << v
            << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct && complete ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {" << metrics.str() << "}}";
  return os.str();
}

namespace {

/// The CPUs the process may use, read at the first plan_placement() call,
/// which comes before any pinning narrows the calling thread's mask.
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

}  // namespace

Placement plan_placement(int turn) {
  Placement p;
  CPU_ZERO(&p.engine_cpus);
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.size() < 2) {
    for (const int c : cpus) CPU_SET(c, &p.engine_cpus);
    return p;
  }
  p.pinned = true;
  const std::size_t client = static_cast<std::size_t>(turn) % cpus.size();
  p.client_cpu = cpus[client];
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i != client) CPU_SET(cpus[i], &p.engine_cpus);
  }
  return p;
}

std::string Placement::describe() const {
  if (!pinned) return "unpinned";
  std::ostringstream os;
  os << "client cpu " << client_cpu << ", engine cpus";
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &engine_cpus)) os << " " << c;
  }
  return os.str();
}

void pin_current_thread_to_client(const Placement& p) {
  if (!p.pinned) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(p.client_cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

void on_engine_cpus(const Placement& p, const std::function<void()>& fn) {
  std::exception_ptr error;
  std::thread t([&] {
    if (p.pinned) {
      pthread_setaffinity_np(pthread_self(), sizeof(p.engine_cpus), &p.engine_cpus);
    }
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (std::uint64_t& f : fields) stat >> f;
  const long hz = sysconf(_SC_CLK_TCK);
  return stat && cpu == "cpu" && hz > 0 ? static_cast<double>(fields[7]) / static_cast<double>(hz)
                                        : 0.0;
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "{\"cpu\": \"" << cpu << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"simd_kernel\": \""
     << lbnn::to_string(lbnn::LpuSimulator::resolve_kernel(true)) << "\"}";
  return os.str();
}

void repeat(int min_reps, double min_seconds, int max_reps, const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && seconds_between(t0, Clock::now()) >= min_seconds) break;
    fn();
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}
template double percentile(std::vector<float>& v, double p);
template double percentile(std::vector<double>& v, double p);

double quiet_time(std::vector<double> v) { return percentile(v, 10); }
double quiet_rate(std::vector<double> v) { return percentile(v, 90); }

void HostSpeed::sample() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::vector<std::uint64_t> keys(50000);
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < keys.size(); i += 2) ++counts[keys[i] >> 20];
  const double s = seconds_between(t0, Clock::now());
  if (counts.empty()) throw std::logic_error("reference kernel computed nothing");
  samples_.push_back(s);
}

void HostSpeed::sample_on_every_cpu(int reps) {
  for (std::size_t turn = 0; turn < usable_cpus().size(); ++turn) {
    pin_current_thread_to_client(plan_placement(static_cast<int>(turn)));
    for (int i = 0; i < reps; ++i) sample();
  }
}

double HostSpeed::kernel_s() const { return quiet_time(samples_); }

double HostSpeed::scale() const { return kReferenceKernelS / kernel_s(); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
