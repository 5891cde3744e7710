// The serving workloads. Each runs one closed-loop client thread that keeps a
// fixed number of requests outstanding: it waits for the oldest, checks its
// answer, and submits the next input in its place.
//
//   vgg_layer      VGG16 conv7 synthesized popcount-exact (256 neurons, fan-in
//                  32, 256 inputs/outputs) on the paper's LPU (m=64, n=16) at
//                  2048 lanes on 3 workers, 3 full batches in flight, batches
//                  sealed only when all lanes are full. The member run is a
//                  large share of latency, and 256-bit I/O loads the request
//                  path's per-bit pack/unpack.
//   cascade_timer  serve::Cascade: the jsc_l NullaNet-Tiny layer screens, the
//                  exact-popcount layer answers what it forwards; 256 lanes, 2
//                  workers, the default 200 us batch timeout, 128 outstanding.
//                  Batches seal partially on the timer and two models share
//                  the stride scheduler.
//
// The models are fixed; the seed draws the request inputs. Every answer is
// checked against the netlist-level simulator.

#include <algorithm>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "compile_stages.hpp"
#include "lpu/simulator.hpp"
#include "netlist/simulate.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/batcher.hpp"
#include "runtime/engine.hpp"
#include "serve/cascade.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lbnn;
using namespace lbnn::runtime;

namespace {

constexpr double kWarmupS = 0.5;
/// Minimum length of one block of set-up repetitions.
constexpr double kSetupBlockS = 1.2;
/// The measured time is split into this many serving segments, each on a
/// freshly set-up engine.
constexpr int kSegments = 4;
constexpr std::size_t kPoolSize = 4096;

struct Spec {
  std::vector<Netlist> models;  ///< one served model, or {tiny, big}
  double synth_s = 0.0;         ///< nn synthesis time of the models
  EngineOptions eopt;
  std::size_t outstanding = 0;
  bool cascade = false;
  std::size_t predicate_bit = 0;  ///< cascade: tiny output bit that answers
};

double timed_s(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

Spec make_spec(const std::string& workload) {
  Spec s;
  if (workload == "vgg_layer") {
    const nn::ModelDesc vgg = nn::vgg16();
    const auto conv7 = std::find_if(vgg.layers.begin(), vgg.layers.end(),
                                    [](const nn::LayerDesc& d) { return d.name == "conv7"; });
    nn::SynthOptions so;
    so.style = nn::NeuronStyle::kPopcountExact;
    so.max_neurons = 256;
    so.max_inputs = 256;
    so.fanin_cap = 32;
    s.synth_s = timed_s([&] {
      Rng rng(2024);
      s.models.push_back(nn::synthesize_layer_ffcl(*conv7, so, rng).ffcl);
    });
    s.eopt.num_workers = 3;
    s.eopt.batch_timeout = std::chrono::hours(1);
    s.eopt.compile.lpu = bench::paper_lpu();
    s.eopt.compile.lpu.word_width = 2048;
    s.outstanding = 3 * 2048;
  } else {
    const nn::LayerDesc layer = nn::jsc_l().layers.at(0);
    s.synth_s = timed_s([&] {
      Rng tiny_rng(41);
      s.models.push_back(nn::synthesize_layer_ffcl(layer, bench::tiny_synth(), tiny_rng).ffcl);
      Rng big_rng(41);
      s.models.push_back(nn::synthesize_layer_ffcl(layer, nn::SynthOptions{}, big_rng).ffcl);
    });
    s.eopt.num_workers = 2;
    s.eopt.compile.lpu.m = 8;
    s.eopt.compile.lpu.n = 8;
    s.eopt.compile.lpu.word_width = 256;
    s.outstanding = 128;
    s.cascade = true;
    // The predicate bit is the tiny output whose true-rate over a fixed
    // calibration sample is closest to one half.
    Rng cal(17);
    const std::vector<BitVec> out = simulate(s.models[0], random_inputs(s.models[0], 2048, cal));
    double best = 2.0;
    for (std::size_t b = 0; b < out.size(); ++b) {
      const double rate = static_cast<double>(out[b].popcount()) / 2048.0;
      if (std::abs(rate - 0.5) < best) {
        best = std::abs(rate - 0.5);
        s.predicate_bit = b;
      }
    }
  }
  return s;
}

/// Seeded request inputs and the netlist simulator's answers for each model.
struct Pool {
  std::vector<std::vector<bool>> inputs;
  std::vector<std::vector<std::vector<bool>>> expected;  ///< [model][row]
};

std::vector<std::vector<bool>> rows_of(const std::vector<BitVec>& cols, std::size_t rows) {
  std::vector<std::vector<bool>> out(rows, std::vector<bool>(cols.size()));
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) out[r][c] = cols[c].get(r);
  }
  return out;
}

Pool make_pool(const Spec& s, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<BitVec> in = random_inputs(s.models[0], kPoolSize, rng);
  Pool p;
  p.inputs = rows_of(in, kPoolSize);
  for (const Netlist& nl : s.models) p.expected.push_back(rows_of(simulate(nl, in), kPoolSize));
  return p;
}

/// Whether `got` is a right answer to pool row `row`. A cascade's answer may
/// come from the big model for any request, but from the tiny model only
/// where the predicate holds.
bool answer_ok(const Spec& s, const Pool& pool, std::size_t row, const std::vector<bool>& got) {
  if (got == pool.expected.back()[row]) return true;
  return s.cascade && got == pool.expected[0][row] && got[s.predicate_bit];
}

/// A serving engine with its models loaded (and the cascade over them).
/// Members are destroyed in reverse order: cascade, handles, engine.
struct Stack {
  std::unique_ptr<Engine> engine;
  std::vector<ModelHandle> handles;
  std::unique_ptr<serve::Cascade> cascade;
  double load_s = 0.0;  ///< Engine::load time of the models (program-cache miss)

  std::future<std::vector<bool>> submit(const std::vector<bool>& in) {
    return cascade ? cascade->submit(in) : engine->submit(handles[0], in);
  }
  void drain() {
    if (cascade) {
      cascade->drain();
    } else {
      engine->drain();
    }
  }
};

/// Fresh engine with an empty program cache -> models loaded -> first request
/// answered. Runs on the engine CPUs so every thread the stack creates
/// inherits their mask.
std::unique_ptr<Stack> set_up(const Spec& s, const Placement& placement, const Pool& pool,
                              double* setup_s, bool* first_ok) {
  auto stack = std::make_unique<Stack>();
  on_engine_cpus(placement, [&] {
    const Clock::time_point t0 = Clock::now();
    stack->engine = std::make_unique<Engine>(s.eopt);
    const Clock::time_point l0 = Clock::now();
    for (std::size_t i = 0; i < s.models.size(); ++i) {
      stack->handles.push_back(stack->engine->load("m" + std::to_string(i), s.models[i]));
    }
    stack->load_s = seconds_between(l0, Clock::now());
    if (s.cascade) {
      serve::CascadeOptions copt;
      const std::size_t bit = s.predicate_bit;
      copt.confident = [bit](const std::vector<bool>& out) { return out[bit]; };
      stack->cascade = std::make_unique<serve::Cascade>(*stack->engine, stack->handles[0],
                                                        stack->handles[1], copt);
    }
    std::future<std::vector<bool>> first = stack->submit(pool.inputs[0]);
    stack->drain();
    *first_ok = answer_ok(s, pool, 0, first.get());
    *setup_s = seconds_between(t0, Clock::now());
  });
  return stack;
}

struct LoopResult {
  std::uint64_t collected = 0;  ///< every answer checked, warmup and tail included
  std::uint64_t failed = 0;     ///< wrong answers and failed futures
  std::uint64_t measured = 0;   ///< answers inside the measured window
  /// One entry per equal time window: completions per second and latency
  /// percentiles. The run reports their quiet_rate and quiet_time, so a
  /// stall that lands in a few windows does not move them.
  std::vector<double> rates;
  std::vector<double> p50_us;
  std::vector<double> p90_us;
  std::vector<double> steal;    ///< per window: share of CPU time stolen
  Span submit;                  ///< traced only
  Span wait;                    ///< traced only
  std::uint64_t allocs = 0;     ///< traced only
};

/// Closed loop: warm up for kWarmupS, then measure for `seconds` in windows
/// of about one second. The engine statistics are reset when measurement
/// starts.
LoopResult closed_loop(const Spec& s, Stack& stack, const Pool& pool, double seconds,
                       bool traced) {
  struct Slot {
    std::future<std::vector<bool>> fut;
    Clock::time_point submitted;
    std::size_t row = 0;
  };
  LoopResult r;
  const std::size_t windows = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<std::vector<float>> latency_us(windows);
  for (auto& w : latency_us) w.reserve(static_cast<std::size_t>(window_s * 2e6));

  bool measuring = false;
  std::size_t next_row = 0;
  const auto send = [&](Slot& slot) {
    slot.row = next_row;
    next_row = (next_row + 1) % pool.inputs.size();
    slot.submitted = Clock::now();
    slot.fut = stack.submit(pool.inputs[slot.row]);
    if (traced && measuring) r.submit.add(slot.submitted, Clock::now());
  };
  // Waits for the slot's answer; false when the future failed.
  const auto get = [](Slot& slot, std::vector<bool>* got) {
    try {
      *got = slot.fut.get();
      return true;
    } catch (const std::exception& e) {
      std::cerr << "request failed: " << e.what() << "\n";
      return false;
    }
  };

  std::vector<Slot> ring(s.outstanding);
  for (Slot& slot : ring) send(slot);
  const Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupS));
  Clock::time_point m0;
  Clock::time_point m_end;
  std::uint64_t allocs0 = 0;
  std::vector<double> steal_at;  // steal_s() as each window began
  for (std::size_t head = 0;; head = (head + 1) % ring.size()) {
    Slot& slot = ring[head];
    const Clock::time_point w0 = traced && measuring ? Clock::now() : Clock::time_point{};
    std::vector<bool> got;
    const bool answered = get(slot, &got);
    const Clock::time_point t = Clock::now();
    ++r.collected;
    if (!answered || !answer_ok(s, pool, slot.row, got)) ++r.failed;
    if (!measuring && t >= warm_end) {
      measuring = true;
      stack.engine->reset_stats();
      m0 = t;
      m_end = m0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
      steal_at.push_back(steal_s());
      if (traced) {
        allocs0 = alloc_count();
        set_alloc_counting(true);
      }
    } else if (measuring) {
      if (traced) r.wait.add(w0, t);
      ++r.measured;
      const auto w = static_cast<std::size_t>(seconds_between(m0, t) / window_s);
      while (steal_at.size() <= std::min(w, windows)) steal_at.push_back(steal_s());
      if (w < windows) {
        latency_us[w].push_back(static_cast<float>(
            std::chrono::duration<double, std::micro>(t - slot.submitted).count()));
      }
      if (t >= m_end) break;
    }
    send(slot);
  }
  if (traced) {
    set_alloc_counting(false);
    r.allocs = alloc_count() - allocs0;
  }
  stack.drain();
  for (Slot& slot : ring) {
    if (!slot.fut.valid()) continue;
    std::vector<bool> got;
    ++r.collected;
    if (!get(slot, &got) || !answer_ok(s, pool, slot.row, got)) ++r.failed;
  }
  const double cpus = static_cast<double>(std::thread::hardware_concurrency());
  for (std::size_t w = 0; w < windows; ++w) {
    r.steal.push_back((steal_at.at(w + 1) - steal_at.at(w)) / (window_s * cpus));
  }
  for (std::vector<float>& w : latency_us) {
    r.rates.push_back(static_cast<double>(w.size()) / window_s);
    r.p50_us.push_back(percentile(w, 50));
    r.p90_us.push_back(percentile(w, 90));
  }
  return r;
}

/// Per-layer numbers measured outside the serving loop: the compile stages,
/// a standalone warm kernel run, and pack/unpack of one full batch.
void measure_standalone_layers(const Spec& s, const Pool& pool, Result& r) {
  // The stage-by-stage compile must produce what compile() produces, or its
  // stage times describe some other pipeline.
  for (const Netlist& nl : s.models) {
    ++r.attempted;
    if (!traced_compile_matches(nl, s.eopt.compile)) {
      std::cerr << "staged compile differs from compile()\n";
      ++r.failed;
    }
  }
  std::vector<StageTimes> reps;
  repeat(7, 3.0, 500, [&] {
    StageTimes total;
    for (const Netlist& nl : s.models) {
      Program staged;
      total += traced_compile(nl, s.eopt.compile, &staged);
    }
    reps.push_back(total);
  });
  r.set("nn.synth_s", s.synth_s);
  report_stages(reps, r);

  const std::size_t lanes = s.eopt.compile.lpu.effective_word_width();
  std::vector<BitVec> batch_in(s.models[0].num_inputs(), BitVec(lanes));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    for (std::size_t pi = 0; pi < batch_in.size(); ++pi) {
      batch_in[pi].set(lane, pool.inputs[lane % pool.inputs.size()][pi]);
    }
  }
  double run_us = 0.0;
  for (const Netlist& nl : s.models) {
    const Program prog = compile(nl, s.eopt.compile).program;
    LpuSimulator sim(prog);
    if (sim.run(batch_in) != simulate(nl, batch_in)) ++r.failed;
    ++r.attempted;
    std::vector<double> runs;
    for (int i = 0; i < 21; ++i) {
      const Clock::time_point a = Clock::now();
      sim.run(batch_in);
      runs.push_back(seconds_between(a, Clock::now()) * 1e6);
    }
    run_us += median(runs);
  }
  r.set("lpu.run_us", run_us);

  std::vector<Request> requests(lanes);
  for (std::size_t i = 0; i < lanes; ++i) requests[i].inputs = pool.inputs[i % pool.inputs.size()];
  const std::vector<BitVec> batch_out = simulate(s.models.back(), batch_in);
  std::vector<double> pack_ns;
  std::vector<double> unpack_ns;
  for (int i = 0; i < 21; ++i) {
    const Clock::time_point a = Clock::now();
    const std::vector<BitVec> packed = pack_requests(requests, batch_in.size());
    const Clock::time_point b = Clock::now();
    const std::vector<std::vector<bool>> unpacked = unpack_outputs(batch_out, lanes);
    const Clock::time_point c = Clock::now();
    if (packed != batch_in || unpacked.size() != lanes) ++r.failed;
    pack_ns.push_back(seconds_between(a, b) * 1e9 / static_cast<double>(lanes));
    unpack_ns.push_back(seconds_between(b, c) * 1e9 / static_cast<double>(lanes));
  }
  r.set("runtime.pack_ns", median(pack_ns));
  r.set("runtime.unpack_ns", median(unpack_ns));
}

}  // namespace

Result run_serving(const Args& args) {
  const Spec s = make_spec(args.workload);
  const Pool pool = make_pool(s, args.seed);
  Result r;

  // Set-ups and compiles alternate in blocks placed before, between and
  // after the serving segments. Each block and the segment after it move the
  // client to the next CPU, so every CPU hosts the client in some part of
  // the run.
  std::vector<double> setup_s;
  std::vector<double> compile_s;
  std::vector<double> load_cold_s;
  std::vector<double> load_warm_s;
  std::vector<Program> programs;
  std::unique_ptr<Stack> stack;
  int turn = 0;
  Placement placement;
  HostSpeed speed;
  const auto set_up_repeatedly = [&] {
    speed.sample_on_every_cpu(3);
    placement = plan_placement(turn++);
    pin_current_thread_to_client(placement);
    repeat(2, kSetupBlockS, 100, [&] {
      programs.clear();
      const Clock::time_point c0 = Clock::now();
      for (const Netlist& nl : s.models) programs.push_back(compile(nl, s.eopt.compile).program);
      compile_s.push_back(seconds_between(c0, Clock::now()));

      on_engine_cpus(placement, [&] { stack.reset(); });  // joins its threads
      double t = 0.0;
      bool first_ok = false;
      stack = set_up(s, placement, pool, &t, &first_ok);
      ++r.attempted;
      if (!first_ok) ++r.failed;
      setup_s.push_back(t);
      load_cold_s.push_back(stack->load_s);
      if (args.trace) {
        // A second load of the same netlists is a program-cache hit.
        on_engine_cpus(placement, [&] {
          std::vector<ModelHandle> again;
          const Clock::time_point t0 = Clock::now();
          for (std::size_t m = 0; m < s.models.size(); ++m) {
            again.push_back(stack->engine->load("warm" + std::to_string(m), s.models[m]));
          }
          load_warm_s.push_back(seconds_between(t0, Clock::now()));
          for (const ModelHandle& h : again) stack->engine->unload(h);
        });
      }
    });
  };
  set_up_repeatedly();
  std::vector<double> fps;
  for (const Program& p : programs) fps.push_back(p.samples_per_second());
  r.set("lpu_fps_geomean", geomean(fps));

  double serving_rps = 0.0;
  double serving_p50_us = 0.0;
  double serving_p90_us = 0.0;
  if (!args.trace) {
    LoopResult all;
    for (int segment = 0; segment < kSegments; ++segment) {
      if (segment > 0) set_up_repeatedly();
      const LoopResult loop = closed_loop(s, *stack, pool, args.seconds / double{kSegments}, false);
      std::cout << args.workload << ": segment " << segment << " (" << placement.describe()
                << ") window throughput (1/s)";
      for (std::size_t w = 0; w < loop.rates.size(); ++w) {
        std::cout << " " << loop.rates[w] << "(" << std::lround(loop.steal[w] * 100) << "%)";
      }
      std::cout << "\n";
      all.collected += loop.collected;
      all.failed += loop.failed;
      all.measured += loop.measured;
      all.rates.insert(all.rates.end(), loop.rates.begin(), loop.rates.end());
      all.p50_us.insert(all.p50_us.end(), loop.p50_us.begin(), loop.p50_us.end());
      all.p90_us.insert(all.p90_us.end(), loop.p90_us.begin(), loop.p90_us.end());
    }
    r.attempted += all.collected;
    r.failed += all.failed;
    serving_rps = quiet_rate(all.rates);
    serving_p50_us = quiet_time(all.p50_us);
    serving_p90_us = quiet_time(all.p90_us);
    std::cout << args.workload << ": " << all.measured << " requests measured in "
              << all.rates.size() << " windows, " << all.collected << " checked\n";
  } else {
    measure_standalone_layers(s, pool, r);

    // Half the time untraced, half traced: the ratio of their throughputs is
    // the cost of the client-side spans and the allocation counter.
    const double half = args.seconds / 2.0;
    const LoopResult plain = closed_loop(s, *stack, pool, half, false);
    const serve::CascadeReport c0 = stack->cascade ? stack->cascade->report() : serve::CascadeReport{};
    LoopResult traced = closed_loop(s, *stack, pool, half, true);
    const ServeReport rep = stack->engine->report();
    r.attempted += plain.collected + traced.collected;
    r.failed += plain.failed + traced.failed;

    const double n = static_cast<double>(std::max<std::uint64_t>(1, traced.measured));
    r.set("runtime.traced_throughput_ratio", median(traced.rates) / median(plain.rates));
    r.set("runtime.submit_ns", traced.submit.mean_ns());
    r.set("runtime.wait_ns", traced.wait.mean_ns());
    r.set("runtime.allocs_per_request", static_cast<double>(traced.allocs) / n);
    r.set("runtime.member_p50_us", static_cast<double>(rep.member_p50_exact_us));
    r.set("runtime.assembly_wait_p50_us", static_cast<double>(rep.phases.assembly_wait.p50_us));
    r.set("runtime.queue_wait_p50_us", static_cast<double>(rep.phases.queue_wait.p50_us));
    r.set("runtime.execution_p50_us", static_cast<double>(rep.phases.execution.p50_us));
    r.set("runtime.finalize_p50_us", static_cast<double>(rep.phases.finalize.p50_us));
    r.set("runtime.lane_occupancy", rep.lane_occupancy);
    if (!stack->cascade) {
      // The engine's phases stop at finalize's entry stamp, so settling the
      // futures and waking the client is what they leave unexplained. Only
      // the single-model workload's phases cover the same requests as the
      // client's latency; the sum of phase medians is not a share of any one
      // request's time, so the residual can read below zero.
      const double latency_p50 = median(traced.p50_us);
      const double phases = static_cast<double>(
          rep.phases.assembly_wait.p50_us + rep.phases.queue_wait.p50_us +
          rep.phases.execution.p50_us + rep.phases.finalize.p50_us);
      const double coverage = latency_p50 > 0 ? phases / latency_p50 : 0.0;
      r.set("runtime.ledger_coverage", coverage);
      r.set("runtime.settle_residual_share", 1.0 - coverage);
    } else {
      const serve::CascadeReport c1 = stack->cascade->report();
      const double submitted = static_cast<double>(c1.submitted - c0.submitted);
      r.set("serve.stage1_share",
            static_cast<double>(c1.stage1_answered - c0.stage1_answered) / submitted);
      r.set("serve.forwarded", static_cast<double>(c1.forwarded - c0.forwarded));
      r.set("serve.bypassed", static_cast<double>(c1.bypassed - c0.bypassed));
      r.set("serve.tiny_p50_us", static_cast<double>(rep.per_model.at(0).p50_latency_us));
      r.set("serve.big_p50_us", static_cast<double>(rep.per_model.at(1).p50_latency_us));
    }
  }
  set_up_repeatedly();
  on_engine_cpus(placement, [&] { stack.reset(); });
  const double k = speed.scale();
  r.set("setup_s", quiet_time(setup_s) * k);
  r.set("compile_s", quiet_time(compile_s) * k);
  if (!args.trace) {
    r.set("throughput_rps", serving_rps / k);
    r.set("latency_p50_us", serving_p50_us * k);
    r.set("latency_p90_us", serving_p90_us * k);
    std::cout << args.workload << ": unscaled setup_s " << quiet_time(setup_s) << " compile_s "
              << quiet_time(compile_s) << " throughput_rps " << serving_rps << " latency_p50_us "
              << serving_p50_us << " latency_p90_us " << serving_p90_us << "; reference kernel "
              << speed.kernel_s() * 1e3 << " ms, scale " << k << "\n";
  } else {
    r.set("runtime.load_cold_s", quiet_time(load_cold_s));
    r.set("runtime.load_warm_s", quiet_time(load_warm_s));
  }
  return r;
}

}  // namespace perfbench
