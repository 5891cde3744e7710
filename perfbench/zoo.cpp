// zoo_compile: compile every layer of the eight model-zoo models with the
// NullaNet-Tiny synthesis preset on the paper's LPU (m=64, n=16) — the flow
// behind Tables II and III. The compile pipeline does nearly all the work
// here and the serving stack none.
//
// The layer netlists are part of the workload definition and do not depend
// on the seed (each model is synthesized from seed 2024, as the table benches
// do), so the compile counts and the modeled FPS are identical in every run.
// The seed orders the layers within a compile pass and draws the inputs the
// compiled programs are checked on.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "baselines/lpu_throughput.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "compile_stages.hpp"
#include "lpu/simulator.hpp"
#include "netlist/simulate.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lbnn;

namespace {

constexpr std::uint64_t kZooSeed = 2024;
constexpr std::size_t kCheckLanes = 128;

using Zoo = std::vector<std::vector<nn::LayerWorkload>>;  // [model][layer]

Zoo synthesize_zoo(const std::vector<nn::ModelDesc>& models) {
  Zoo zoo;
  for (const nn::ModelDesc& model : models) {
    Rng rng(kZooSeed);
    std::vector<nn::LayerWorkload> layers;
    for (const nn::LayerDesc& desc : model.layers) {
      layers.push_back(nn::synthesize_layer_ffcl(desc, bench::tiny_synth(), rng));
    }
    zoo.push_back(std::move(layers));
  }
  return zoo;
}

Zoo timed_synthesis(const std::vector<nn::ModelDesc>& models, std::vector<double>* times) {
  const Clock::time_point t0 = Clock::now();
  Zoo zoo = synthesize_zoo(models);
  times->push_back(seconds_between(t0, Clock::now()));
  return zoo;
}

/// The exact shape of one compile, compared across passes.
struct Shape {
  std::uint64_t mfgs_before = 0;
  std::uint64_t mfgs_after = 0;
  std::uint64_t wavefronts = 0;
  std::uint64_t gates_after = 0;
  bool operator==(const Shape& o) const {
    return mfgs_before == o.mfgs_before && mfgs_after == o.mfgs_after &&
           wavefronts == o.wavefronts && gates_after == o.gates_after;
  }
};

Shape shape_of(const CompileResult& cr) {
  return {cr.report.mfgs_before_merge, cr.report.mfgs_after_merge,
          cr.program.num_wavefronts, cr.report.opt.gates_after};
}

Shape shape_of(const StageTimes& st) {
  return {st.mfgs_before_merge, st.mfgs_after_merge, st.wavefronts, st.gates_after};
}

/// Seed-ordered list of (model, layer) indices.
std::vector<std::pair<std::size_t, std::size_t>> layer_order(const Zoo& zoo, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    for (std::size_t l = 0; l < zoo[m].size(); ++l) order.emplace_back(m, l);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

Result run_untraced(const Args& args, const std::vector<nn::ModelDesc>& models) {
  Result r;
  std::vector<double> synth_s;
  Zoo zoo = timed_synthesis(models, &synth_s);
  Rng rng(args.seed);
  const auto order = layer_order(zoo, rng);
  CompileOptions copts;
  copts.lpu = bench::paper_lpu();

  std::vector<std::vector<Shape>> first(zoo.size());
  std::vector<std::vector<baselines::LayerLpuResult>> lpu_layers(zoo.size());
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    first[m].resize(zoo[m].size());
    lpu_layers[m].resize(zoo[m].size());
  }

  // Compile times per layer, one entry per pass.
  std::vector<std::vector<std::vector<double>>> layer_s(zoo.size());
  for (std::size_t m = 0; m < zoo.size(); ++m) layer_s[m].resize(zoo[m].size());
  std::vector<double> pass_s;
  HostSpeed speed;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  // Every pass synthesizes the zoo afresh (the set-up) and compiles it, each
  // pass on the next CPU.
  while (pass_s.size() < 10 || Clock::now() < deadline) {
    pin_current_thread_to_client(plan_placement(static_cast<int>(pass_s.size())));
    speed.sample();
    if (!pass_s.empty()) zoo = timed_synthesis(models, &synth_s);
    double pass = 0.0;
    for (const auto& [m, l] : order) {
      const nn::LayerWorkload& wl = zoo[m][l];
      ++r.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const CompileResult cr = compile(wl.ffcl, copts);
        const double s = seconds_between(t0, Clock::now());
        pass += s;
        layer_s[m][l].push_back(s);
        const Shape shape = shape_of(cr);
        if (pass_s.empty()) {
          first[m][l] = shape;
          lpu_layers[m][l] = {wl, cr.report, cr.program.num_wavefronts};
        } else if (!(shape == first[m][l])) {
          std::cerr << "zoo_compile: layer " << wl.desc.name
                    << " compiled to a different shape than in pass 1\n";
          r.correct = false;
        }
        if (!program_matches(cr.program, wl.ffcl,
                             random_inputs(wl.ffcl, kCheckLanes, rng))) {
          ++r.failed;
        }
      } catch (const Error& e) {
        std::cerr << "zoo_compile: " << wl.desc.name << ": " << e.what() << "\n";
        ++r.failed;
      }
    }
    pass_s.push_back(pass);
  }

  std::vector<double> fps;
  for (const auto& layers : lpu_layers) {
    fps.push_back(baselines::lpu_frames_per_second(layers, copts.lpu));
  }
  // A layer's latency is its quiet compile time over the passes; the
  // percentiles are taken over the layers.
  std::vector<double> latency_us;
  for (const auto& model : layer_s) {
    for (const std::vector<double>& times : model) latency_us.push_back(quiet_time(times) * 1e6);
  }
  const double compile = quiet_time(pass_s);
  const double p50 = percentile(latency_us, 50);
  const double p90 = percentile(latency_us, 90);
  const double k = speed.scale();
  r.set("setup_s", quiet_time(synth_s) * k);
  r.set("compile_s", compile * k);
  r.set("throughput_rps", static_cast<double>(order.size()) / (compile * k));
  r.set("latency_p50_us", p50 * k);
  r.set("latency_p90_us", p90 * k);
  std::cout << "zoo_compile: unscaled setup_s " << quiet_time(synth_s) << " compile_s " << compile
            << " latency_p50_us " << p50 << " latency_p90_us " << p90
            << "; reference kernel " << speed.kernel_s() * 1e3 << " ms, scale " << k << "\n";
  r.set("lpu_fps_geomean", geomean(fps));
  std::cout << "zoo_compile: " << order.size() << " layers x " << pass_s.size()
            << " passes\n";
  return r;
}

Result run_traced(const Args& args, const std::vector<nn::ModelDesc>& models) {
  Result r;
  std::vector<double> synth_s;
  Zoo zoo = timed_synthesis(models, &synth_s);
  Rng rng(args.seed);
  const auto order = layer_order(zoo, rng);
  CompileOptions copts;
  copts.lpu = bench::paper_lpu();

  // The stage-by-stage compile must produce what compile() produces, or its
  // stage times describe some other pipeline.
  for (const auto& [m, l] : order) {
    ++r.attempted;
    if (!traced_compile_matches(zoo[m][l].ffcl, copts)) {
      std::cerr << "zoo_compile: staged compile of " << zoo[m][l].desc.name
                << " differs from compile()\n";
      ++r.failed;
    }
  }

  std::vector<StageTimes> passes;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (passes.size() < 10 || Clock::now() < deadline) {
    pin_current_thread_to_client(plan_placement(static_cast<int>(passes.size())));
    if (!passes.empty()) zoo = timed_synthesis(models, &synth_s);
    StageTimes total;
    for (const auto& [m, l] : order) {
      Program staged;
      total += traced_compile(zoo[m][l].ffcl, copts, &staged);
    }
    passes.push_back(total);
  }
  r.set("nn.synth_s", quiet_time(synth_s));
  report_stages(passes, r);
  for (const StageTimes& p : passes) {
    if (!(shape_of(p) == shape_of(passes.front()))) r.correct = false;
  }
  return r;
}

}  // namespace

bool program_matches(const Program& program, const Netlist& nl,
                     const std::vector<BitVec>& inputs) {
  try {
    LpuSimulator sim(program);
    return sim.run(inputs) == simulate(nl, inputs);
  } catch (const Error& e) {
    std::cerr << "program check: " << e.what() << "\n";
    return false;
  }
}

Result run_zoo_compile(const Args& args) {
  const std::vector<nn::ModelDesc> models = nn::all_models();
  return args.trace ? run_traced(args, models) : run_untraced(args, models);
}

}  // namespace perfbench
