#include "compile_stages.hpp"

#include <chrono>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/emit.hpp"
#include "core/mfg.hpp"
#include "core/schedule.hpp"
#include "lpu/sliced_program.hpp"
#include "opt/path_balance.hpp"
#include "opt/tech_map.hpp"

namespace perfbench {

using namespace lbnn;

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  optimize_s += o.optimize_s;
  tech_map_s += o.tech_map_s;
  balance_s += o.balance_s;
  partition_s += o.partition_s;
  merge_s += o.merge_s;
  schedule_s += o.schedule_s;
  emit_s += o.emit_s;
  compile_sliced_s += o.compile_sliced_s;
  mfgs_before_merge += o.mfgs_before_merge;
  mfgs_after_merge += o.mfgs_after_merge;
  wavefronts += o.wavefronts;
  gates_after += o.gates_after;
  return *this;
}

StageTimes traced_compile(const Netlist& input, const CompileOptions& options,
                          Program* program) {
  StageTimes st;
  // Adds the time since `t` to `acc` and restarts `t`.
  Clock::time_point t = Clock::now();
  const auto lap = [&t](double& acc) {
    const Clock::time_point now = Clock::now();
    acc += seconds_between(t, now);
    t = now;
  };

  // The guards and error messages of compile(), in its order.
  options.lpu.validate();
  if (options.lpu.n < 2) {
    throw CompileError("LPU needs at least 2 LPVs (chaining and feedback both "
                       "require a successor stage)");
  }
  input.validate();
  if (input.num_outputs() == 0) throw CompileError("netlist has no outputs");
  if (input.num_inputs() == 0) throw CompileError("netlist has no inputs");

  t = Clock::now();
  OptStats ostats;
  Netlist nl = options.optimize ? optimize(input, &ostats) : input;
  lap(st.optimize_s);
  st.gates_after = ostats.gates_after;
  nl = tech_map(nl, options.library);
  nl = eliminate_dead(nl);
  lap(st.tech_map_s);
  const std::uint32_t n = options.lpu.n;
  const Level depth = nl.depth();
  const Level target =
      static_cast<Level>(((static_cast<std::uint32_t>(depth) + n) / n) * n - 1);
  nl = balance_paths(nl, target);
  lap(st.balance_s);

  std::uint32_t m_eff = options.lpu.m;
  bool emitted = false;
  for (std::uint32_t round = 0; !emitted; ++round) {
    t = Clock::now();
    PartitionOptions popt;
    popt.m = m_eff;
    popt.band = n;
    MfgForest forest = partition(nl, popt);
    lap(st.partition_s);
    st.mfgs_before_merge = forest.num_alive();
    if (options.merge) merge_mfgs(forest, m_eff);
    lap(st.merge_s);
    st.mfgs_after_merge = forest.num_alive();
    for (const SharingMode mode : {SharingMode::kShared, SharingMode::kTree}) {
      double* stage = &st.schedule_s;  // the stage a CompileError is booked to
      try {
        t = Clock::now();
        Schedule sched = build_schedule(forest, options.lpu, mode);
        lap(st.schedule_s);
        stage = &st.emit_s;
        *program = emit_program(forest, sched, options.lpu);
        lap(st.emit_s);
        st.wavefronts = program->num_wavefronts;
        emitted = true;
        break;
      } catch (const CompileError&) {
        lap(*stage);
        if (round >= options.width_headroom_retries && mode == SharingMode::kTree) {
          throw;
        }
      }
    }
    if (emitted) break;
    if (m_eff <= 2) {
      throw CompileError("cannot schedule the network on this LPU even at "
                         "minimal partition width");
    }
    m_eff = m_eff / 2;
  }
  t = Clock::now();
  const SlicedProgram sliced = compile_sliced(*program);
  lap(st.compile_sliced_s);
  return st;
}

namespace {

std::string program_text(const Program& p) {
  std::ostringstream os;
  p.disassemble(os, p.num_wavefronts);
  for (const std::uint32_t i : p.input_layout) os << i << ",";
  os << "\n";
  for (const OutputTap& tap : p.output_taps) {
    os << tap.wavefront << ":" << tap.lane << ":" << tap.po_index << ",";
  }
  return os.str();
}

}  // namespace

bool traced_compile_matches(const Netlist& nl, const CompileOptions& options) {
  Program staged;
  const StageTimes st = traced_compile(nl, options, &staged);
  const CompileResult cr = compile(nl, options);
  return st.mfgs_before_merge == cr.report.mfgs_before_merge &&
         st.mfgs_after_merge == cr.report.mfgs_after_merge &&
         st.gates_after == cr.report.opt.gates_after &&
         staged.total_routes() == cr.program.total_routes() &&
         staged.total_computes() == cr.program.total_computes() &&
         program_text(staged) == program_text(cr.program);
}

void report_stages(const std::vector<StageTimes>& reps, Result& r) {
  const auto stage_time = [&reps](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& st : reps) v.push_back(st.*field);
    return quiet_time(v);
  };
  r.set("opt.optimize_s", stage_time(&StageTimes::optimize_s));
  r.set("opt.tech_map_s", stage_time(&StageTimes::tech_map_s));
  r.set("opt.balance_s", stage_time(&StageTimes::balance_s));
  r.set("core.partition_s", stage_time(&StageTimes::partition_s));
  r.set("core.merge_s", stage_time(&StageTimes::merge_s));
  r.set("core.schedule_s", stage_time(&StageTimes::schedule_s));
  r.set("core.emit_s", stage_time(&StageTimes::emit_s));
  r.set("lpu.compile_sliced_s", stage_time(&StageTimes::compile_sliced_s));
  r.set("core.mfgs_before_merge", static_cast<double>(reps.at(0).mfgs_before_merge));
  r.set("core.mfgs_after_merge", static_cast<double>(reps.at(0).mfgs_after_merge));
  r.set("core.wavefronts_total", static_cast<double>(reps.at(0).wavefronts));
  r.set("opt.gates_after", static_cast<double>(reps.at(0).gates_after));
}

}  // namespace perfbench
