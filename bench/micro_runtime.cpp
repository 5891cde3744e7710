// google-benchmark micro-benchmarks of the serving runtime's batch packing:
// pack_requests (per-request input bits -> one datapath word per primary
// input) and unpack_outputs (one word per primary output -> per-request
// output bits), at the paper's 2048-lane word and 16 or 256 bits of I/O.
// The per_request counter is the time one request costs.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "runtime/batcher.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;

constexpr std::size_t kLanes = 2048;

void set_per_request(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kLanes));
  state.counters["per_request"] = benchmark::Counter(
      static_cast<double>(kLanes),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_PackRequests(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  std::vector<Request> requests(kLanes);
  for (Request& req : requests) {
    req.inputs.resize(bits);
    for (std::size_t i = 0; i < bits; ++i) req.inputs[i] = rng.next_bool();
  }
  for (auto _ : state) {
    std::vector<BitVec> packed = pack_requests(requests, bits);
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  set_per_request(state);
}
BENCHMARK(BM_PackRequests)->Arg(16)->Arg(256);

void BM_UnpackOutputs(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  std::vector<BitVec> outputs;
  for (std::size_t i = 0; i < bits; ++i) outputs.push_back(BitVec::random(kLanes, rng));
  for (auto _ : state) {
    std::vector<std::vector<bool>> unpacked = unpack_outputs(outputs, kLanes);
    benchmark::DoNotOptimize(unpacked.data());
    benchmark::ClobberMemory();
  }
  set_per_request(state);
}
BENCHMARK(BM_UnpackOutputs)->Arg(16)->Arg(256);

}  // namespace
