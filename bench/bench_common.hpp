#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/lpu_throughput.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"

namespace lbnn::bench {

/// The paper's LPU configuration (Table I: LPV count = 16, 333 MHz).
inline LpuConfig paper_lpu(std::uint32_t n = 16) {
  LpuConfig cfg;
  cfg.m = 64;
  cfg.n = n;
  cfg.tsw = 5;
  cfg.clock_mhz = 333.0;
  return cfg;
}

/// Workload synthesis preset: NullaNet-Tiny neurons (fan-in-pruned,
/// QM-minimized), which is what the paper's upstream flow feeds the LPU.
/// See EXPERIMENTS.md "workload scaling" for how measured schedules
/// extrapolate to full layer dimensions.
inline nn::SynthOptions tiny_synth() {
  nn::SynthOptions s;
  s.style = nn::NeuronStyle::kNullaNetTiny;
  s.fanin_cap = 5;  // NullaNet-Tiny prunes neurons to LUT-sized fan-in
  s.max_neurons = 24;
  s.max_inputs = 96;
  return s;
}

/// Format a throughput in the paper's "K FPS" / "M FPS" style.
inline std::string fps_str(double fps) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  if (fps >= 1e6) {
    os << fps / 1e6 << "M";
  } else if (fps >= 1e3) {
    os << fps / 1e3 << "K";
  } else {
    os << fps;
  }
  return os.str();
}

inline void print_rule(std::size_t width) {
  std::cout << std::string(width, '-') << "\n";
}

/// Deterministic Zipf-distributed index picker for serving-mix workloads:
/// P(k) proportional to 1 / (k + 1)^s over k in [0, n) — index 0 is the most
/// popular model, exactly the skew real multi-tenant serving shows. Built on
/// lbnn::Rng so every platform and standard library draws the same stream
/// (std::discrete_distribution is not reproducible across libstdc++/libc++).
/// The CDF is precomputed once; pick() is a binary search.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s) : cdf_(n == 0 ? 1 : n) {
    double total = 0.0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;  // guard against rounding: pick() can never fall off
  }

  std::size_t size() const { return cdf_.size(); }

  /// Theoretical probability of index k.
  double probability(std::size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

  std::size_t pick(Rng& rng) const {
    const double u = rng.next_double();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;  ///< cdf_[k] = P(index <= k)
};

/// A bench metric that may be structurally unmeasured. A bench that gates a
/// property as a ratio (serve_simd) has no absolute p99 worth tracking; it
/// reports `unmeasured()` and the JSONL line carries
/// `"p99_us":null,"p99_measured":false` — an explicit shape the comparer
/// skips structurally, instead of the old 0.0 sentinel that conflated
/// "not measured" with a value.
struct OptMetric {
  double value = 0.0;
  bool measured = true;
  OptMetric(double v) : value(v) {}  // NOLINT: implicit by design
  OptMetric(double v, bool m) : value(v), measured(m) {}
};

inline OptMetric unmeasured() { return OptMetric(0.0, false); }

/// Append one machine-readable result line (JSONL) to the file named by the
/// LBNN_BENCH_JSON environment variable; a no-op when it is unset, so plain
/// interactive runs emit nothing. bench/run_all.py collects the lines into
/// BENCH_PR<N>.json — the checked-in perf-trajectory file CI diffs against.
/// A metric a bench cannot measure is reported as `unmeasured()` (JSON null)
/// and skipped by the comparer, not guessed.
inline void emit_bench_json(const std::string& name, double p50_us,
                            OptMetric p99_us, double goodput_per_sec,
                            bool pass) {
  const char* path = std::getenv("LBNN_BENCH_JSON");
  if (path == nullptr) return;
  std::ofstream os(path, std::ios::app);
  os << std::fixed << std::setprecision(3) << "{\"bench\":\"" << name
     << "\",\"p50_us\":" << p50_us << ",\"p99_us\":";
  if (p99_us.measured) {
    os << p99_us.value << ",\"p99_measured\":true";
  } else {
    os << "null,\"p99_measured\":false";
  }
  os << ",\"goodput_per_sec\":" << goodput_per_sec
     << ",\"pass\":" << (pass ? "true" : "false") << "}\n";
}

}  // namespace lbnn::bench
