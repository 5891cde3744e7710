#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/compiler.hpp"
#include "core/serialize.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"

namespace lbnn {
namespace {

Program tiny_program() {
  // One memLoc: LPV0 loads PI0/PI1 into lane 0 as BUFs is impossible (one
  // lane has one output), so: lane0 <- in0, lane1 <- in1, then LPV1 ANDs them.
  Program p;
  p.cfg.m = 2;
  p.cfg.n = 2;
  p.cfg.word_width = 8;
  p.num_wavefronts = 1;
  p.num_primary_inputs = 2;
  p.num_primary_outputs = 1;
  p.input_layout = {0, 1};
  p.instr.assign(1, std::vector<LpvInstr>(2));
  p.instr[0][0].routes = {{0, {SrcSel::Kind::kInput, 0}},
                          {2, {SrcSel::Kind::kInput, 1}}};
  p.instr[0][0].computes = {{0, TruthTable4::from_op(GateOp::kBuf)},
                            {1, TruthTable4::from_op(GateOp::kBuf)}};
  p.instr[0][1].routes = {{0, {SrcSel::Kind::kPrevLane, 0}},
                          {1, {SrcSel::Kind::kPrevLane, 1}}};
  p.instr[0][1].computes = {{0, TruthTable4::from_op(GateOp::kAnd)}};
  p.output_taps = {{0, 0, 0}};
  return p;
}

TEST(LpuSim, HandAssembledProgram) {
  const Program p = tiny_program();
  LpuSimulator sim(p);
  BitVec a(8), b(8);
  a.set_word(0, 0b10110010);
  b.set_word(0, 0b11010110);
  const auto out = sim.run({a, b});
  EXPECT_EQ(out[0].word(0), 0b10010010u);
}

TEST(LpuSim, CountersAreFilled) {
  const Program p = tiny_program();
  LpuSimulator sim(p);
  sim.run({BitVec(8), BitVec(8)});
  const SimCounters& c = sim.counters();
  EXPECT_EQ(c.wavefronts, 1u);
  EXPECT_EQ(c.lpe_computes, 3u);
  EXPECT_EQ(c.route_writes, 4u);
  EXPECT_EQ(c.input_reads, 2u);
  EXPECT_EQ(c.macro_cycles, 2u);  // 1 wavefront + (n-1)
  EXPECT_EQ(c.clock_cycles, 12u);
  EXPECT_NEAR(c.lpe_utilization, 3.0 / (1 * 2 * 2), 1e-9);
}

TEST(LpuSim, WrongInputCountThrows) {
  const Program p = tiny_program();
  LpuSimulator sim(p);
  EXPECT_THROW(sim.run({BitVec(8)}), SimError);
}

TEST(LpuSim, RaggedWidthsThrow) {
  const Program p = tiny_program();
  LpuSimulator sim(p);
  EXPECT_THROW(sim.run({BitVec(8), BitVec(16)}), SimError);
}

TEST(LpuSim, ComputeOverInvalidOperandThrows) {
  Program p = tiny_program();
  // Remove the route that feeds LPV1 slot 1 -> AND reads an invalid B.
  p.instr[0][1].routes.pop_back();
  LpuSimulator sim(p);
  EXPECT_THROW(sim.run({BitVec(8), BitVec(8)}), SimError);
}

TEST(LpuSim, UnaryOpsIgnoreMissingB) {
  Program p = tiny_program();
  // Replace the AND with NOT(a): B slot stays invalid, must be fine.
  p.instr[0][1].routes.pop_back();
  p.instr[0][1].computes = {{0, TruthTable4::from_op(GateOp::kNot)}};
  LpuSimulator sim(p);
  BitVec a(8);
  a.set_word(0, 0x0F);
  const auto out = sim.run({a, BitVec(8)});
  EXPECT_EQ(out[0].word(0), 0xF0u);
}

TEST(LpuSim, RouteFromLpv0PredecessorThrows) {
  Program p = tiny_program();
  p.instr[0][0].routes[0] = {0, {SrcSel::Kind::kPrevLane, 0}};
  LpuSimulator sim(p);
  EXPECT_THROW(sim.run({BitVec(8), BitVec(8)}), SimError);
}

TEST(LpuSim, FeedbackReadBeforeWriteThrows) {
  Program p = tiny_program();
  p.instr[0][0].routes[0] = {0, {SrcSel::Kind::kFeedback, 0}};
  LpuSimulator sim(p);
  EXPECT_THROW(sim.run({BitVec(8), BitVec(8)}), SimError);
}

TEST(LpuSim, ProgramValidationCatchesBadFields) {
  {
    Program p = tiny_program();
    p.instr[0][1].computes[0].lane = 9;
    EXPECT_THROW(LpuSimulator{p}, Error);
  }
  {
    Program p = tiny_program();
    p.instr[0][0].routes[0].slot = 100;
    EXPECT_THROW(LpuSimulator{p}, Error);
  }
  {
    Program p = tiny_program();
    p.output_taps[0].wavefront = 5;
    EXPECT_THROW(LpuSimulator{p}, Error);
  }
  {
    Program p = tiny_program();
    p.instr[0][0].feedback_writes.push_back(0);  // not the terminal LPV
    EXPECT_THROW(LpuSimulator{p}, Error);
  }
  {
    Program p = tiny_program();
    p.input_layout[1] = 811764;  // would read inputs[811764]
    EXPECT_THROW(LpuSimulator{p}, Error);
  }
  // The same fields read from a program file: a layout record naming a PI or
  // an input-buffer address past the program's PI count is refused before
  // the buffer is sized from it.
  const std::string text = program_to_string(tiny_program());
  ASSERT_NE(text.find("layout 1 1\n"), std::string::npos);
  for (const char* bad : {"layout 1 811764\n", "layout 4294967295 0\n"}) {
    std::string mutated = text;
    mutated.replace(mutated.find("layout 1 1\n"), 11, bad);
    EXPECT_THROW(program_from_string(mutated), Error) << bad;
  }
}

TEST(LpuSim, InstrHookSeesEveryNonEmptyInstr) {
  Rng gen(3);
  const Netlist nl = reconvergent_grid(8, 5, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);
  LpuSimulator sim(res.program);
  std::size_t seen = 0;
  sim.set_instr_hook([&seen](std::uint32_t, std::uint32_t, const LpvInstr&) {
    ++seen;
  });
  Rng rng(4);
  sim.run(random_inputs(nl, 16, rng));
  std::size_t nonempty = 0;
  for (const auto& wave : res.program.instr) {
    for (const auto& li : wave) {
      if (!li.empty()) ++nonempty;
    }
  }
  EXPECT_EQ(seen, nonempty);
}

TEST(LpuSim, WordWidthIndependence) {
  // The datapath is bit-sliced: running at width 16 and 128 must agree on
  // the overlapping lanes.
  Rng gen(5);
  const Netlist nl = reconvergent_grid(10, 6, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);
  LpuSimulator sim(res.program);
  Rng rng(6);
  const auto wide = random_inputs(nl, 128, rng);
  std::vector<BitVec> narrow;
  for (const auto& w : wide) {
    BitVec v(16);
    for (std::size_t i = 0; i < 16; ++i) v.set(i, w.get(i));
    narrow.push_back(v);
  }
  const auto wide_out = sim.run(wide);
  const auto narrow_out = sim.run(narrow);
  for (std::size_t o = 0; o < wide_out.size(); ++o) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(narrow_out[o].get(i), wide_out[o].get(i));
    }
  }
}

TEST(LpuSim, RepeatedRunsAreIndependent) {
  Rng gen(7);
  const Netlist nl = reconvergent_grid(8, 6, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);
  LpuSimulator sim(res.program);
  Rng rng(8);
  const auto in1 = random_inputs(nl, 32, rng);
  const auto in2 = random_inputs(nl, 32, rng);
  const auto out1a = sim.run(in1);
  const auto out2 = sim.run(in2);
  const auto out1b = sim.run(in1);
  EXPECT_EQ(out1a, out1b);  // no state leaks between batches
  EXPECT_EQ(out1a, simulate(nl, in1));
  EXPECT_EQ(out2, simulate(nl, in2));
}

// ---- kernel edge cases the scalar-vs-sliced oracle alone can't localize:
// widths straddling the 64-bit word boundary, degenerate widths, and taps
// landing in a partial tail word (tests/test_simd_diff.cpp holds the kernels
// to EACH OTHER; these hold them to the netlist reference at the exact
// widths where tail masking bugs live).

TEST(LpuSim, NonMultipleOf64Widths) {
  Rng gen(11);
  const Netlist nl = reconvergent_grid(10, 5, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);
  Rng rng(12);
  for (const std::size_t width : {1u, 63u, 65u, 127u, 129u, 191u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const auto in = random_inputs(nl, width, rng);
    const auto want = simulate(nl, in);
    for (const bool simd : {false, true}) {
      LpuSimulator sim(res.program, simd);
      const auto out = sim.run(in);
      EXPECT_EQ(out, want);
      // The kernels' complement terms set bits past the batch width inside
      // the arena; none may leak into the returned BitVecs.
      for (const auto& v : out) {
        ASSERT_EQ(v.width(), width);
        for (std::size_t w = 0; w < v.num_words(); ++w) {
          const std::size_t live =
              std::min<std::size_t>(64, width - 64 * w);
          const std::uint64_t mask =
              live == 64 ? ~0ull : ((1ull << live) - 1);
          EXPECT_EQ(v.word(w) & ~mask, 0u) << "stray tail bits, word " << w;
        }
      }
    }
  }
}

TEST(LpuSim, WidthOneBatch) {
  // A single sample: every word is a tail word.
  Rng gen(13);
  RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_gates = 40;
  spec.num_outputs = 3;
  const Netlist nl = random_dag(spec, gen);
  const CompileResult res = compile(nl, CompileOptions{});
  Rng rng(14);
  for (int trial = 0; trial < 8; ++trial) {
    const auto in = random_inputs(nl, 1, rng);
    const auto want = simulate(nl, in);
    EXPECT_EQ(LpuSimulator(res.program, false).run(in), want);
    EXPECT_EQ(LpuSimulator(res.program).run(in), want);
  }
}

TEST(LpuSim, EmptyInputProgramRunsAtConfiguredWidth) {
  // No primary inputs: run({}) takes the width from the LPU config. The
  // program below computes const-1 in LPV0 (a LUT that ignores both of its
  // invalid-but-ignored operands) and taps it through LPV1.
  Program p;
  p.cfg.m = 2;
  p.cfg.n = 2;
  p.cfg.word_width = 70;  // deliberately not a multiple of 64
  p.num_wavefronts = 1;
  p.num_primary_inputs = 0;
  p.num_primary_outputs = 1;
  p.instr.assign(1, std::vector<LpvInstr>(2));
  p.instr[0][0].computes = {{0, TruthTable4(0xF)}};
  p.instr[0][1].routes = {{0, {SrcSel::Kind::kPrevLane, 0}}};
  p.instr[0][1].computes = {{0, TruthTable4::from_op(GateOp::kBuf)}};
  p.output_taps = {{0, 0, 0}};
  for (const bool simd : {false, true}) {
    LpuSimulator sim(p, simd);
    const auto out = sim.run({});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].width(), p.cfg.effective_word_width());
    for (std::size_t i = 0; i < out[0].width(); ++i) {
      EXPECT_TRUE(out[0].get(i)) << "lane " << i;
    }
  }
}

TEST(LpuSim, OutputTapsOnPartialTailWords) {
  // Outputs whose tap copies land in a partial tail word: width 97 leaves
  // 33 live bits in word 1. Compare lane-by-lane against the reference at
  // the exact boundary lanes.
  Rng gen(15);
  const Netlist nl = reconvergent_grid(12, 4, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);
  Rng rng(16);
  const std::size_t width = 97;
  const auto in = random_inputs(nl, width, rng);
  const auto want = simulate(nl, in);
  const auto out = LpuSimulator(res.program).run(in);
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t o = 0; o < out.size(); ++o) {
    for (const std::size_t lane : {0u, 63u, 64u, 95u, 96u}) {
      EXPECT_EQ(out[o].get(lane), want[o].get(lane))
          << "output " << o << " lane " << lane;
    }
    EXPECT_EQ(out[o], want[o]);
  }
}

TEST(EvalLut, IntoFormMatchesAndSupportsAliasing) {
  Rng rng(17);
  const std::size_t width = 130;
  BitVec a(width), b(width);
  for (std::size_t i = 0; i < width; ++i) {
    a.set(i, rng.next_bool());
    b.set(i, rng.next_bool());
  }
  for (int bits = 0; bits < 16; ++bits) {
    const TruthTable4 lut(static_cast<std::uint8_t>(bits));
    const BitVec want = eval_lut(lut, a, b);
    BitVec out(width);
    eval_lut_into(lut, a, b, out);
    EXPECT_EQ(out, want) << "lut " << bits;
    BitVec alias_a = a;  // out aliasing the A operand
    eval_lut_into(lut, alias_a, b, alias_a);
    EXPECT_EQ(alias_a, want) << "lut " << bits << " (aliased a)";
    BitVec alias_b = b;  // out aliasing the B operand
    eval_lut_into(lut, a, alias_b, alias_b);
    EXPECT_EQ(alias_b, want) << "lut " << bits << " (aliased b)";
  }
}

TEST(EvalLut, AllSixteenFunctions) {
  BitVec a(4), b(4);
  // lanes: (a,b) = (0,0),(1,0),(0,1),(1,1)
  a.set(1, true);
  a.set(3, true);
  b.set(2, true);
  b.set(3, true);
  for (int bits = 0; bits < 16; ++bits) {
    const BitVec r = eval_lut(TruthTable4(static_cast<std::uint8_t>(bits)), a, b);
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(r.get(static_cast<std::size_t>(lane)), ((bits >> lane) & 1) != 0)
          << "lut " << bits << " lane " << lane;
    }
  }
}

}  // namespace
}  // namespace lbnn
