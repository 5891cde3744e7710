#pragma once

#include <cstdint>
#include <vector>

#include "core/compiler.hpp"
#include "harness.hpp"

namespace perfbench {

/// Wall time of each compile stage and the compile's exact shape counts.
struct StageTimes {
  double optimize_s = 0;
  double tech_map_s = 0;  ///< tech_map + eliminate_dead
  double balance_s = 0;   ///< depth + balance_paths
  double partition_s = 0;
  double merge_s = 0;
  double schedule_s = 0;
  double emit_s = 0;
  double compile_sliced_s = 0;
  std::uint64_t mfgs_before_merge = 0;
  std::uint64_t mfgs_after_merge = 0;
  std::uint64_t wavefronts = 0;
  std::uint64_t gates_after = 0;

  StageTimes& operator+=(const StageTimes& o);
};

/// lbnn::compile() performed as its sequence of public stage calls (the
/// same guards, pre-processing, partition-width ladder and sharing-mode
/// fallback), each one timed, followed by lowering to the bit-sliced replay
/// stream that every serving worker builds. A stage that throws is booked
/// the time it ran. `program` receives the emitted program. The copy can
/// drift from compile(); traced_compile_matches() detects that.
StageTimes traced_compile(const lbnn::Netlist& input, const lbnn::CompileOptions& options,
                          lbnn::Program* program);

/// Whether traced_compile() emits exactly the program compile() emits for
/// `nl` (the full instruction text, input layout and output taps) with the
/// same merge and optimization counts. Every traced run checks this on each
/// netlist whose stage times it reports.
bool traced_compile_matches(const lbnn::Netlist& nl, const lbnn::CompileOptions& options);

/// Set the per-layer compile metrics: each stage time as its quiet_time over
/// `reps`, the shape counts from the first repetition.
void report_stages(const std::vector<StageTimes>& reps, Result& r);

}  // namespace perfbench
