#include "core/program.hpp"

#include <ostream>

#include "common/error.hpp"

namespace lbnn {

double Program::samples_per_second() const {
  const double cycles = static_cast<double>(steady_state_interval_cycles());
  if (cycles == 0) return 0.0;
  const double batches_per_sec = cfg.clock_mhz * 1e6 / cycles;
  return batches_per_sec * cfg.effective_word_width();
}

std::uint64_t Program::total_routes() const {
  std::uint64_t t = 0;
  for (const auto& wave : instr) {
    for (const auto& li : wave) t += li.routes.size();
  }
  return t;
}

std::uint64_t Program::total_computes() const {
  std::uint64_t t = 0;
  for (const auto& wave : instr) {
    for (const auto& li : wave) t += li.computes.size();
  }
  return t;
}

void Program::validate() const {
  cfg.validate();
  if (instr.size() != num_wavefronts) throw Error("program: wavefront count mismatch");
  for (const std::uint32_t pi : input_layout) {
    if (pi >= num_primary_inputs) throw Error("program: input layout PI out of range");
  }
  for (const auto& wave : instr) {
    if (wave.size() != cfg.n) throw Error("program: LPV count mismatch");
    for (std::size_t j = 0; j < wave.size(); ++j) {
      for (const auto& r : wave[j].routes) {
        if (r.slot >= 2 * cfg.m) throw Error("program: route slot out of range");
        if (r.src.kind == SrcSel::Kind::kPrevLane && r.src.index >= cfg.m) {
          throw Error("program: route source lane out of range");
        }
        if (r.src.kind == SrcSel::Kind::kInput && r.src.index >= input_layout.size()) {
          throw Error("program: input buffer address out of range");
        }
      }
      for (const auto& c : wave[j].computes) {
        if (c.lane >= cfg.m) throw Error("program: compute lane out of range");
      }
      if (!wave[j].feedback_writes.empty() && j + 1 != cfg.n) {
        throw Error("program: feedback write on a non-terminal LPV");
      }
    }
  }
  for (const auto& tap : output_taps) {
    if (tap.wavefront >= num_wavefronts) throw Error("program: tap wavefront out of range");
    if (tap.lane >= cfg.m) throw Error("program: tap lane out of range");
    if (tap.po_index >= num_primary_outputs) throw Error("program: tap PO out of range");
  }
}

void Program::disassemble(std::ostream& os, std::uint32_t max_wavefronts) const {
  os << "program " << cfg.to_string() << " wavefronts=" << num_wavefronts
     << " pis=" << num_primary_inputs << " pos=" << num_primary_outputs << "\n";
  const std::uint32_t count = std::min(max_wavefronts, num_wavefronts);
  for (std::uint32_t w = 0; w < count; ++w) {
    bool printed_header = false;
    for (std::uint32_t j = 0; j < cfg.n; ++j) {
      const LpvInstr& li = instr[w][j];
      if (li.empty()) continue;
      if (!printed_header) {
        os << "memLoc " << w << ":\n";
        printed_header = true;
      }
      os << "  lpv" << j << ":";
      for (const auto& r : li.routes) {
        os << " s" << (r.slot / 2) << (r.slot % 2 == 0 ? "a" : "b") << "<-";
        switch (r.src.kind) {
          case SrcSel::Kind::kPrevLane: os << "p" << r.src.index; break;
          case SrcSel::Kind::kInput: os << "in" << r.src.index; break;
          case SrcSel::Kind::kFeedback: os << "fb" << r.src.index; break;
        }
      }
      for (const auto& c : li.computes) {
        os << " l" << c.lane << "=lut" << static_cast<int>(c.lut.bits());
      }
      if (!li.feedback_writes.empty()) {
        os << " fbw{";
        for (const Lane l : li.feedback_writes) os << l << ",";
        os << "}";
      }
      os << "\n";
    }
    if (!printed_header) os << "memLoc " << w << ": (bubble)\n";
  }
  if (count < num_wavefronts) os << "... (" << num_wavefronts - count << " more)\n";
}

}  // namespace lbnn
