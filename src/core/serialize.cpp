#include "core/serialize.hpp"

#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace lbnn {
namespace {

const char* kind_name(SrcSel::Kind k) {
  switch (k) {
    case SrcSel::Kind::kPrevLane: return "prev";
    case SrcSel::Kind::kInput: return "in";
    case SrcSel::Kind::kFeedback: return "fb";
  }
  return "?";
}

SrcSel::Kind kind_from(const std::string& s) {
  if (s == "prev") return SrcSel::Kind::kPrevLane;
  if (s == "in") return SrcSel::Kind::kInput;
  if (s == "fb") return SrcSel::Kind::kFeedback;
  throw Error("bad source kind '" + s + "' in program file");
}

}  // namespace

void write_program(std::ostream& os, const Program& prog) {
  os << "lpu " << prog.cfg.m << " " << prog.cfg.n << " " << prog.cfg.tsw << " "
     << prog.cfg.word_width << " " << prog.cfg.clock_mhz << "\n";
  os << "wavefronts " << prog.num_wavefronts << " pis " << prog.num_primary_inputs
     << " pos " << prog.num_primary_outputs << "\n";
  for (std::size_t a = 0; a < prog.input_layout.size(); ++a) {
    os << "layout " << a << " " << prog.input_layout[a] << "\n";
  }
  for (std::uint32_t w = 0; w < prog.num_wavefronts; ++w) {
    for (std::uint32_t j = 0; j < prog.cfg.n; ++j) {
      const LpvInstr& li = prog.instr[w][j];
      for (const auto& r : li.routes) {
        os << "route " << w << " " << j << " " << r.slot << " "
           << kind_name(r.src.kind) << " " << r.src.index << "\n";
      }
      for (const auto& c : li.computes) {
        os << "lpe " << w << " " << j << " " << c.lane << " "
           << static_cast<int>(c.lut.bits()) << "\n";
      }
      for (const Lane l : li.feedback_writes) {
        os << "fbw " << w << " " << l << "\n";
      }
    }
  }
  for (const auto& tap : prog.output_taps) {
    os << "tap " << tap.wavefront << " " << tap.lane << " " << tap.po_index << "\n";
  }
  os << "end\n";
}

Program read_program(std::istream& is) {
  Program prog;
  std::string line;
  bool have_header = false;
  bool have_counts = false;
  bool done = false;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    const auto need = [&](bool ok) {
      if (!ok || ls.fail()) {
        throw Error("program file line " + std::to_string(lineno) + ": bad '" +
                    tag + "' record");
      }
    };
    if (tag == "lpu") {
      ls >> prog.cfg.m >> prog.cfg.n >> prog.cfg.tsw >> prog.cfg.word_width >>
          prog.cfg.clock_mhz;
      need(true);
      have_header = true;
    } else if (tag == "wavefronts") {
      std::string t1, t2;
      ls >> prog.num_wavefronts >> t1 >> prog.num_primary_inputs >> t2 >>
          prog.num_primary_outputs;
      need(t1 == "pis" && t2 == "pos" && have_header);
      prog.instr.assign(prog.num_wavefronts, std::vector<LpvInstr>(prog.cfg.n));
      have_counts = true;
    } else if (tag == "layout") {
      std::size_t addr = 0;
      std::uint32_t pi = 0;
      ls >> addr >> pi;
      // The input buffer holds one word per primary input: an address or PI
      // past that would size the buffer, or index the inputs, out of range.
      need(have_counts && addr < prog.num_primary_inputs &&
           pi < prog.num_primary_inputs);
      if (prog.input_layout.size() <= addr) prog.input_layout.resize(addr + 1, 0);
      prog.input_layout[addr] = pi;
    } else if (tag == "route") {
      std::uint32_t w = 0, j = 0, slot = 0, index = 0;
      std::string kind;
      ls >> w >> j >> slot >> kind >> index;
      need(have_counts && w < prog.num_wavefronts && j < prog.cfg.n);
      prog.instr[w][j].routes.push_back(
          {static_cast<std::uint16_t>(slot), SrcSel{kind_from(kind), index}});
    } else if (tag == "lpe") {
      std::uint32_t w = 0, j = 0, lane = 0;
      int lut = 0;
      ls >> w >> j >> lane >> lut;
      need(have_counts && w < prog.num_wavefronts && j < prog.cfg.n);
      prog.instr[w][j].computes.push_back(
          {static_cast<Lane>(lane), TruthTable4(static_cast<std::uint8_t>(lut))});
    } else if (tag == "fbw") {
      std::uint32_t w = 0, lane = 0;
      ls >> w >> lane;
      need(have_counts && w < prog.num_wavefronts);
      prog.instr[w][prog.cfg.n - 1].feedback_writes.push_back(
          static_cast<Lane>(lane));
    } else if (tag == "tap") {
      OutputTap tap;
      ls >> tap.wavefront >> tap.lane >> tap.po_index;
      need(have_counts);
      prog.output_taps.push_back(tap);
    } else if (tag == "end") {
      done = true;
      break;
    } else {
      throw Error("program file line " + std::to_string(lineno) +
                  ": unknown record '" + tag + "'");
    }
  }
  if (!done) throw Error("program file truncated (missing 'end')");
  prog.validate();
  return prog;
}

std::string program_to_string(const Program& prog) {
  std::ostringstream os;
  write_program(os, prog);
  return os.str();
}

Program program_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_program(is);
}

std::string emit_hex_images(const Program& prog) {
  // One $readmemh section per LPV. Micro-op word packing (32 bit):
  //   routes:   [31:30]=01  [29:28]=kind  [27:16]=slot  [15:0]=index
  //   computes: [31:30]=10  [21:16]=lut   [15:0]=lane
  //   barrier:  [31:30]=11  marks the end of a memLoc
  std::ostringstream os;
  os << std::hex << std::setfill('0');
  for (std::uint32_t j = 0; j < prog.cfg.n; ++j) {
    os << "// LPV " << std::dec << j << " instruction queue image ("
       << "load with $readmemh)\n" << std::hex;
    for (std::uint32_t w = 0; w < prog.num_wavefronts; ++w) {
      const LpvInstr& li = prog.instr[w][j];
      for (const auto& r : li.routes) {
        const std::uint32_t word = (0x1u << 30) |
                                   (static_cast<std::uint32_t>(r.src.kind) << 28) |
                                   (static_cast<std::uint32_t>(r.slot) << 16) |
                                   (r.src.index & 0xFFFFu);
        os << std::setw(8) << word << "\n";
      }
      for (const auto& c : li.computes) {
        const std::uint32_t word = (0x2u << 30) |
                                   (static_cast<std::uint32_t>(c.lut.bits()) << 16) |
                                   c.lane;
        os << std::setw(8) << word << "\n";
      }
      os << std::setw(8) << (0x3u << 30) << "\n";  // memLoc barrier
    }
  }
  return os.str();
}

std::string emit_testbench(const Program& prog, const std::string& module_name) {
  std::ostringstream os;
  os << "// Auto-generated testbench skeleton for the LPU program driving\n"
     << "// module '" << module_name << "' (cf. Fig. 1 'Configuration file and\n"
     << "// HDL testbench'). Pair with the queue images from emit_hex_images.\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << module_name << "_tb;\n";
  os << "  localparam M = " << prog.cfg.m << ";\n";
  os << "  localparam N = " << prog.cfg.n << ";\n";
  os << "  localparam W = " << prog.cfg.effective_word_width() << ";\n";
  os << "  localparam MEMLOCS = " << prog.num_wavefronts << ";\n";
  os << "  localparam TC = " << prog.cfg.tc() << ";\n";
  os << "  reg clk = 0;\n";
  os << "  always #1.5 clk = ~clk; // " << prog.cfg.clock_mhz << " MHz\n";
  os << "  reg [W-1:0] input_buffer [0:" << (prog.input_layout.empty()
                                                 ? 0
                                                 : prog.input_layout.size() - 1)
     << "];\n";
  os << "  wire [W-1:0] po [0:" << (prog.num_primary_outputs == 0
                                        ? 0
                                        : prog.num_primary_outputs - 1)
     << "];\n";
  os << "  // instantiate the generated LPU here and stream memLocs 0.."
     << prog.num_wavefronts - 1 << "\n";
  os << "  initial begin\n";
  os << "    // $readmemh(\"lpv<k>.hex\", lpu.queue[k]);\n";
  os << "    #(MEMLOCS * TC * 3 + 100) $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace lbnn
