#pragma once

#include <vector>

#include "common/bitvec.hpp"
#include "core/program.hpp"
#include "harness.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

/// zoo_compile: the Table II/III compile flow over every layer of the model
/// zoo.
Result run_zoo_compile(const Args& args);

/// vgg_layer and cascade_timer: closed-loop serving.
Result run_serving(const Args& args);

/// Whether `program` computes what the netlist-level simulator computes for
/// `nl` on `inputs` — the check is independent of the compiler and the LPU.
bool program_matches(const lbnn::Program& program, const lbnn::Netlist& nl,
                     const std::vector<lbnn::BitVec>& inputs);

}  // namespace perfbench
