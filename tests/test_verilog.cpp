#include <gtest/gtest.h>

#include "common/error.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace lbnn {
namespace {

using verilog::parse_module;
using verilog::write_module;

TEST(VerilogParser, MinimalModule) {
  const auto mod = parse_module(R"(
    module top(a, b, y);
      input a, b;
      output y;
      and g1(y, a, b);
    endmodule
  )");
  EXPECT_EQ(mod.name, "top");
  EXPECT_EQ(mod.netlist.num_inputs(), 2u);
  EXPECT_EQ(mod.netlist.num_outputs(), 1u);
  EXPECT_EQ(simulate_scalar(mod.netlist, {true, true})[0], true);
  EXPECT_EQ(simulate_scalar(mod.netlist, {true, false})[0], false);
}

TEST(VerilogParser, AnsiPorts) {
  const auto mod = parse_module(
      "module m(input a, input b, output y); xor g(y, a, b); endmodule");
  EXPECT_EQ(mod.netlist.num_inputs(), 2u);
  EXPECT_TRUE(simulate_scalar(mod.netlist, {true, false})[0]);
}

TEST(VerilogParser, VectorsAndBitSelect) {
  const auto mod = parse_module(R"(
    module top(b, y);
      input [3:0] b;
      output y;
      wire t;
      and g1(t, b[0], b[1]);
      or g2(y, t, b[3]);
    endmodule
  )");
  EXPECT_EQ(mod.netlist.num_inputs(), 4u);
  EXPECT_EQ(mod.netlist.input_name(2), "b[2]");
  // y = b0&b1 | b3
  EXPECT_TRUE(simulate_scalar(mod.netlist, {true, true, false, false})[0]);
  EXPECT_FALSE(simulate_scalar(mod.netlist, {true, false, true, false})[0]);
  EXPECT_TRUE(simulate_scalar(mod.netlist, {false, false, false, true})[0]);
}

TEST(VerilogParser, AssignExpressionPrecedence) {
  // & binds tighter than ^ binds tighter than |.
  const auto mod = parse_module(R"(
    module top(a, b, c, d, y);
      input a, b, c, d; output y;
      assign y = a | b & c ^ d;
    endmodule
  )");
  for (int mask = 0; mask < 16; ++mask) {
    const bool a = mask & 1, b = mask & 2, c = mask & 4, d = mask & 8;
    const bool expect = a | ((b & c) ^ d);
    EXPECT_EQ(simulate_scalar(mod.netlist, {a, b, c, d})[0], expect) << mask;
  }
}

TEST(VerilogParser, UnaryNotAndParens) {
  const auto mod = parse_module(R"(
    module top(a, b, y); input a, b; output y;
      assign y = ~(a & ~b);
    endmodule
  )");
  EXPECT_TRUE(simulate_scalar(mod.netlist, {false, false})[0]);
  EXPECT_FALSE(simulate_scalar(mod.netlist, {true, false})[0]);
  EXPECT_TRUE(simulate_scalar(mod.netlist, {true, true})[0]);
}

TEST(VerilogParser, XnorOperators) {
  const auto m1 = parse_module(
      "module t(a,b,y); input a,b; output y; assign y = a ~^ b; endmodule");
  const auto m2 = parse_module(
      "module t(a,b,y); input a,b; output y; assign y = a ^~ b; endmodule");
  for (int mask = 0; mask < 4; ++mask) {
    const bool a = mask & 1, b = mask & 2;
    EXPECT_EQ(simulate_scalar(m1.netlist, {a, b})[0], a == b);
    EXPECT_EQ(simulate_scalar(m2.netlist, {a, b})[0], a == b);
  }
}

TEST(VerilogParser, SizedLiterals) {
  const auto mod = parse_module(R"(
    module t(a, y0, y1); input a; output y0, y1;
      assign y0 = a & 1'b0;
      assign y1 = a ^ 1'b1;
    endmodule
  )");
  const auto out = simulate_scalar(mod.netlist, {true});
  EXPECT_FALSE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(VerilogParser, MultiInputGateDecomposes) {
  const auto mod = parse_module(R"(
    module t(a, b, c, d, y); input a, b, c, d; output y;
      nand g(y, a, b, c, d);
    endmodule
  )");
  for (int mask = 0; mask < 16; ++mask) {
    const bool a = mask & 1, b = mask & 2, c = mask & 4, d = mask & 8;
    EXPECT_EQ(simulate_scalar(mod.netlist, {a, b, c, d})[0], !(a && b && c && d));
  }
}

TEST(VerilogParser, CommentsAreSkipped) {
  const auto mod = parse_module(R"(
    // leading comment
    module t(a, y); /* block
       comment */ input a; output y;
      buf g(y, a);  // trailing
    endmodule
  )");
  EXPECT_TRUE(simulate_scalar(mod.netlist, {true})[0]);
}

TEST(VerilogParser, OutOfOrderNetsResolve) {
  // w2 used before its driver appears.
  const auto mod = parse_module(R"(
    module t(a, y); input a; output y;
      wire w1, w2;
      and g1(w1, a, w2);
      not g2(w2, a);
      buf g3(y, w1);
    endmodule
  )");
  EXPECT_FALSE(simulate_scalar(mod.netlist, {true})[0]);
  EXPECT_FALSE(simulate_scalar(mod.netlist, {false})[0]);
}

TEST(VerilogParser, ErrorsAreReported) {
  EXPECT_THROW(parse_module("module t(a,y); input a; output y; assign y = z; endmodule"),
               ParseError);
  EXPECT_THROW(parse_module("module t(a,y); input a; output y; endmodule"),
               ParseError);  // y undriven
  EXPECT_THROW(parse_module(R"(
      module t(a,y); input a; output y;
        assign y = a; assign y = ~a;
      endmodule)"),
               ParseError);  // multiple drivers
  EXPECT_THROW(parse_module(R"(
      module t(a,y); input a; output y; wire w1, w2;
        and g1(w1, a, w2); and g2(w2, a, w1); buf g3(y, w1);
      endmodule)"),
               ParseError);  // combinational cycle
  EXPECT_THROW(parse_module("module t(a,y); input [3:0] a; output y; assign y = a; endmodule"),
               ParseError);  // vector without bit-select
  EXPECT_THROW(parse_module(
                   "module t(a,y); input [99999999999:0] a; output y; assign y = a[0]; endmodule"),
               ParseError);  // number past int range
}

TEST(VerilogWriter, RoundTripPreservesSemantics) {
  Rng rng(2024);
  for (int seed = 0; seed < 6; ++seed) {
    RandomCircuitSpec spec;
    spec.num_inputs = 8;
    spec.num_gates = 120;
    spec.num_outputs = 6;
    Rng gen(seed + 1);
    const Netlist nl = random_dag(spec, gen);
    const std::string text = write_module(nl, "rt");
    const auto mod = parse_module(text);
    EXPECT_TRUE(equivalent_random(nl, mod.netlist, 64, 4, rng)) << "seed " << seed;
  }
}

TEST(VerilogWriter, SanitizesBracketNames) {
  Netlist nl;
  const NodeId a = nl.add_input("b[3]");
  nl.add_output(nl.add_gate(GateOp::kNot, a), "y[0]");
  const std::string text = write_module(nl, "top");
  EXPECT_EQ(text.find('['), std::string::npos);
  const auto mod = parse_module(text);
  EXPECT_FALSE(simulate_scalar(mod.netlist, {true})[0]);
}

TEST(VerilogWriter, ConstantsRoundTrip) {
  Netlist nl;
  nl.add_input("a");
  const NodeId c1 = nl.add_gate(GateOp::kConst1);
  nl.add_output(c1, "y");
  const auto mod = parse_module(write_module(nl, "top"));
  EXPECT_TRUE(simulate_scalar(mod.netlist, {false})[0]);
}

}  // namespace
}  // namespace lbnn
