#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "interconnect/benes.hpp"
#include "interconnect/copy_network.hpp"
#include "interconnect/multicast.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"

namespace lbnn {
namespace {

using interconnect::BenesNetwork;
using interconnect::CopyNetwork;
using interconnect::MulticastSwitch;

TEST(Benes, StageGeometry) {
  const BenesNetwork net(8);
  EXPECT_EQ(net.num_stages(), 5u);
  EXPECT_EQ(net.elements_per_stage(), 4u);
  EXPECT_EQ(net.total_elements(), 20u);
}

TEST(Benes, RejectsNonPowerOfTwo) {
  EXPECT_THROW(BenesNetwork(6), Error);
  EXPECT_THROW(BenesNetwork(1), Error);
}

TEST(Benes, IdentityPermutation) {
  const BenesNetwork net(8);
  std::vector<std::int32_t> perm(8);
  std::iota(perm.begin(), perm.end(), 0);
  const auto cfg = net.route(perm);
  std::vector<std::uint32_t> in(8);
  std::iota(in.begin(), in.end(), 100);
  const auto out = net.apply(cfg, in);
  EXPECT_EQ(out, in);
}

TEST(Benes, ReversalPermutation) {
  const BenesNetwork net(16);
  std::vector<std::int32_t> perm(16);
  for (int i = 0; i < 16; ++i) perm[static_cast<std::size_t>(i)] = 15 - i;
  const auto cfg = net.route(perm);
  std::vector<std::uint32_t> in(16);
  std::iota(in.begin(), in.end(), 0);
  const auto out = net.apply(cfg, in);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out[15 - i], in[i]);
}

TEST(Benes, TwoPortNetwork) {
  const BenesNetwork net(2);
  const auto cfg = net.route({1, 0});
  const auto out = net.apply(cfg, {7, 9});
  EXPECT_EQ(out[0], 9u);
  EXPECT_EQ(out[1], 7u);
}

TEST(Benes, PartialPermutationWithIdleInputs) {
  const BenesNetwork net(8);
  std::vector<std::int32_t> perm(8, -1);
  perm[2] = 5;
  perm[7] = 0;
  const auto cfg = net.route(perm);
  std::vector<std::uint32_t> in(8);
  std::iota(in.begin(), in.end(), 0);
  const auto out = net.apply(cfg, in);
  EXPECT_EQ(out[5], 2u);
  EXPECT_EQ(out[0], 7u);
}

TEST(Benes, DuplicateDestinationRejected) {
  const BenesNetwork net(4);
  EXPECT_THROW(net.route({1, 1, -1, -1}), Error);
}

class BenesProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BenesProperty, RoutesRandomPermutations) {
  const auto [ports, seed] = GetParam();
  const BenesNetwork net(static_cast<std::uint32_t>(ports));
  Rng rng(static_cast<std::uint64_t>(seed));
  // Fisher-Yates permutation.
  std::vector<std::int32_t> perm(static_cast<std::size_t>(ports));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  const auto cfg = net.route(perm);
  std::vector<std::uint32_t> in(perm.size());
  std::iota(in.begin(), in.end(), 0);
  const auto out = net.apply(cfg, in);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(perm[i])], in[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BenesProperty,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 64, 128),
                       ::testing::Range(1, 6)));

TEST(CopyNetwork, SingleBlockBroadcast) {
  const CopyNetwork net(8);
  const auto cfg = net.route_blocks({0, 0, 0, 0, 0, 0, 0, 0});
  const auto out = net.apply(cfg, {42, 0, 0, 0, 0, 0, 0, 0});
  for (const auto v : out) EXPECT_EQ(v, 42u);
}

TEST(CopyNetwork, MultipleBlocks) {
  const CopyNetwork net(8);
  const auto cfg = net.route_blocks({0, 0, 0, 1, 1, 2, 3, 3});
  const auto out = net.apply(cfg, {1, 0, 0, 2, 0, 3, 4, 0});
  const std::vector<std::uint32_t> want{1, 1, 1, 2, 2, 3, 4, 4};
  EXPECT_EQ(out, want);
}

TEST(CopyNetwork, ElementsCount) {
  const CopyNetwork net(128);
  EXPECT_EQ(net.num_stages(), 7u);
  EXPECT_EQ(net.total_elements(), 7u * 128u);
}

class CopyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CopyProperty, RandomBlockPartitions) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::uint32_t n = 64;
  const CopyNetwork net(n);
  // Random contiguous partition.
  std::vector<std::uint32_t> block_of(n);
  std::uint32_t block = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p > 0 && rng.next_below(3) == 0) ++block;
    block_of[p] = block;
  }
  std::vector<std::uint32_t> in(n, 0);
  for (std::uint32_t p = 0; p < n; ++p) {
    if (p == 0 || block_of[p] != block_of[p - 1]) in[p] = 1000 + block_of[p];
  }
  const auto out = net.apply(net.route_blocks(block_of), in);
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_EQ(out[p], 1000 + block_of[p]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CopyProperty, ::testing::Range(1, 9));

TEST(Multicast, BroadcastOneToAll) {
  const MulticastSwitch sw(4, 8);
  std::vector<std::int32_t> assign(8, 2);
  const auto cfg = sw.route(assign);
  const auto out = sw.apply(cfg, {10, 11, 12, 13});
  for (const auto v : out) EXPECT_EQ(v, 12u);
}

TEST(Multicast, MixedFanouts) {
  const MulticastSwitch sw(4, 8);
  const std::vector<std::int32_t> assign{0, 0, 3, -1, 1, 3, 3, -1};
  const auto cfg = sw.route(assign);
  const auto out = sw.apply(cfg, {10, 11, 12, 13});
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 10u);
  EXPECT_EQ(out[2], 13u);
  EXPECT_EQ(out[4], 11u);
  EXPECT_EQ(out[5], 13u);
  EXPECT_EQ(out[6], 13u);
}

TEST(Multicast, LogicalStagesMatchConstruction) {
  const MulticastSwitch sw(64, 128);
  // Beneš(128) twice (13 stages each) + copy (7 stages).
  EXPECT_EQ(sw.logical_stages(), 2u * 13u + 7u);
}

class MulticastProperty : public ::testing::TestWithParam<int> {};

TEST_P(MulticastProperty, RandomAssignments) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::uint32_t m = 16;
  const MulticastSwitch sw(m, 2 * m);
  std::vector<std::int32_t> assign(2 * m);
  for (auto& a : assign) {
    a = rng.next_below(4) == 0 ? -1 : static_cast<std::int32_t>(rng.next_below(m));
  }
  const auto cfg = sw.route(assign);
  std::vector<std::uint32_t> src(m);
  std::iota(src.begin(), src.end(), 500);
  const auto out = sw.apply(cfg, src);
  for (std::uint32_t d = 0; d < 2 * m; ++d) {
    if (assign[d] >= 0) {
      EXPECT_EQ(out[d], src[static_cast<std::size_t>(assign[d])]) << "dest " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MulticastProperty, ::testing::Range(1, 17));

TEST(Multicast, StagedSwitchModeMatchesReference) {
  // Full staged-fabric execution: every inter-LPV route is resolved by
  // actually routing the Benes+copy network and pushing lane indices through
  // its stages; the LPU outputs must still match the reference simulator.
  Rng gen(21);
  const Netlist nl = reconvergent_grid(10, 7, gen);
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  const CompileResult res = compile(nl, opt);

  // The oracle runs on the scalar kernel: the bit-sliced replay stream fixes
  // every route at construction.
  LpuSimulator sim(res.program, /*simd=*/false);
  const MulticastSwitch fabric(opt.lpu.m, 2 * opt.lpu.m);
  const LpuSimulator::RouteOracle oracle =
      [&fabric](const std::vector<std::int32_t>& assignment) {
        const auto cfg = fabric.route(assignment);
        std::vector<std::uint32_t> ids(fabric.sources());
        std::iota(ids.begin(), ids.end(), 0);
        return fabric.apply(cfg, ids);
      };
  sim.set_route_oracle(oracle);

  Rng rng(22);
  for (int round = 0; round < 3; ++round) {
    const auto in = random_inputs(nl, 32, rng);
    EXPECT_EQ(sim.run(in), simulate(nl, in));
  }

  // A bit-sliced instance refuses the oracle instead of ignoring it
  // (LBNN_FORCE_SCALAR resolves the simd request to the scalar kernel).
  LpuSimulator sliced(res.program);
  if (sliced.kernel() != SimdKernel::kScalar) {
    EXPECT_THROW(sliced.set_route_oracle(oracle), Error);
  }
}

TEST(Multicast, CompiledProgramsAreRealizable) {
  // Every route config emitted by the compiler must be realizable on the
  // staged fabric — the link between the functional simulator and hardware.
  for (const int seed : {1, 2, 3}) {
    Rng gen(static_cast<std::uint64_t>(seed));
    const Netlist nl = reconvergent_grid(12, 8, gen);
    CompileOptions opt;
    opt.lpu.m = 8;
    opt.lpu.n = 8;
    const CompileResult res = compile(nl, opt);
    const std::size_t checked = interconnect::verify_program_routes(res.program);
    EXPECT_GT(checked, 0u);
  }
}

}  // namespace
}  // namespace lbnn
