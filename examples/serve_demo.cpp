// Serving quickstart (API v2): load models into the batched multi-threaded
// engine via ref-counted handles, fire async single-sample requests at them,
// exercise bounded admission (try_submit) and unload, and read the per-model
// serving stats. Contrast with examples/quickstart.cpp, which drives one
// LpuSimulator synchronously with hand-packed words — here the runtime does
// the packing, batching, weighted-fair dispatch, and lifecycle.
//
//   $ ./serve_demo [--backend scalar|sliced] [--shards N]
//                  [--trace out.json] [--prometheus] [--metrics-json]
//
// --backend picks the simulator kernel: `scalar` is the BitVec-at-a-time
// oracle interpreter, `sliced` (the default) the compiled bit-sliced SIMD
// replay stream. --trace FILE turns the engine's
// request-lifecycle tracing on and writes a Chrome trace-event JSON to FILE
// (open it in chrome://tracing or Perfetto). --prometheus / --metrics-json
// print the same ServeReport in scrape-able formats (see README
// "Observability"). --shards N runs the same traffic through an N-shard
// Router instead of a single Engine: the models replicate across shards,
// dispatch is power-of-two-choices, and the summary becomes a fleet report
// with one row per shard (trace/metrics output is then shard-labelled).

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"

namespace {

// A 4-bit ripple-carry adder as the served model.
lbnn::Netlist build_adder() {
  using namespace lbnn;
  Netlist nl;
  std::vector<NodeId> a, b;
  for (int i = 0; i < 4; ++i) a.push_back(nl.add_input("a" + std::to_string(i)));
  for (int i = 0; i < 4; ++i) b.push_back(nl.add_input("b" + std::to_string(i)));
  NodeId carry = kInvalidNode;
  for (int i = 0; i < 4; ++i) {
    const NodeId axb = nl.add_gate(GateOp::kXor, a[i], b[i]);
    if (carry == kInvalidNode) {
      nl.add_output(axb, "s" + std::to_string(i));
      carry = nl.add_gate(GateOp::kAnd, a[i], b[i]);
    } else {
      nl.add_output(nl.add_gate(GateOp::kXor, axb, carry), "s" + std::to_string(i));
      const NodeId t1 = nl.add_gate(GateOp::kAnd, a[i], b[i]);
      const NodeId t2 = nl.add_gate(GateOp::kAnd, carry, axb);
      carry = nl.add_gate(GateOp::kOr, t1, t2);
    }
  }
  nl.add_output(carry, "cout");
  return nl;
}

// The --shards demo: the same adder + grid traffic through an N-shard
// Router. Shows replica sets (the adder runs on two shards), p2c dispatch,
// a manual scale-up, and the aggregated fleet report with per-shard rows.
int run_sharded(std::size_t num_shards, const std::string& trace_path,
                bool print_prometheus) {
  using namespace lbnn;
  using namespace lbnn::runtime;

  const Netlist adder_nl = build_adder();
  Rng gen(3);
  const Netlist grid_nl = reconvergent_grid(10, 5, gen);

  router::RouterOptions ropt;
  ropt.num_shards = num_shards;
  ropt.engine.num_workers = 1;  // per shard: the shards are the parallelism
  ropt.engine.batch_timeout = std::chrono::microseconds(200);
  ropt.engine.compile.lpu.m = 8;
  ropt.engine.compile.lpu.n = 8;
  ropt.engine.tracing = !trace_path.empty();
  ropt.initial_replicas = 2;  // each model starts on two shards
  router::Router router(ropt);

  ModelOptions adder_opt;
  adder_opt.weight = 4;
  const router::RoutedHandle adder = router.load("adder4", adder_nl, adder_opt);
  ModelOptions grid_opt;
  grid_opt.queue_bound = 32;
  const router::RoutedHandle grid = router.load("grid", grid_nl, grid_opt);
  std::cout << num_shards << "-shard router; adder4 replicas on shards {";
  for (std::size_t s : router.replica_shards(adder)) std::cout << " " << s;
  std::cout << " }, grid on {";
  for (std::size_t s : router.replica_shards(grid)) std::cout << " " << s;
  std::cout << " }\n";

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(router.submit(adder, std::vector<bool>(8, i % 2 != 0)));
  }
  unsigned grid_accepted = 0;
  for (int i = 0; i < 32; ++i) {
    std::future<std::vector<bool>> fut;
    if (router.try_submit(grid, std::vector<bool>(grid_nl.num_inputs()),
                          &fut) == SubmitStatus::kAccepted) {
      ++grid_accepted;
      futs.push_back(std::move(fut));
    }
  }
  // Manual elasticity: grow the adder onto every shard mid-traffic. A later
  // set_replicas back down would drain the retiring copy without dropping
  // anything (see bench/serve_sharding's scripted cycle).
  router.set_replicas(adder, num_shards);
  for (int i = 0; i < 64; ++i) {
    futs.push_back(router.submit(adder, std::vector<bool>(8, i % 2 == 0)));
  }
  for (auto& f : futs) f.get();
  router.drain();
  std::cout << "adder4 grew to " << router.replicas(adder)
            << " replicas; served " << futs.size() << " requests ("
            << grid_accepted << " grid)\n";

  const router::FleetReport fleet = router.report();
  std::cout << "\n" << std::left << std::setw(8) << "shard" << std::right
            << std::setw(9) << "reqs" << std::setw(9) << "batches"
            << std::setw(9) << "p50us" << std::setw(9) << "p99us"
            << std::setw(7) << "occ%" << std::setw(6) << "shed"
            << std::setw(10) << "goodput/s" << "\n";
  for (std::size_t s = 0; s < fleet.per_shard.size(); ++s) {
    const ServeReport& r = fleet.per_shard[s];
    std::cout << std::left << std::setw(8) << s << std::right << std::setw(9)
              << r.requests << std::setw(9) << r.batches << std::setw(9)
              << r.p50_latency_us << std::setw(9) << r.p99_latency_us
              << std::setw(7) << static_cast<int>(r.lane_occupancy * 100)
              << std::setw(6) << r.shed << std::setw(10)
              << static_cast<long long>(r.goodput_per_sec) << "\n";
  }
  const ServeReport& t = fleet.total;
  std::cout << std::left << std::setw(8) << "fleet" << std::right
            << std::setw(9) << t.requests << std::setw(9) << t.batches
            << std::setw(9) << t.p50_latency_us << std::setw(9)
            << t.p99_latency_us << std::setw(7)
            << static_cast<int>(t.lane_occupancy * 100) << std::setw(6)
            << t.shed << std::setw(10)
            << static_cast<long long>(t.goodput_per_sec) << "\n";

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    router.export_trace(os);
    std::cout << "\nwrote fleet Chrome trace to " << trace_path
              << " (one process per shard)\n";
  }
  if (print_prometheus) {
    std::cout << "\n--- prometheus (shard-labelled) ---\n"
              << router.metrics_prometheus();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbnn;
  using namespace lbnn::runtime;

  std::string trace_path;
  std::string backend = "sliced";
  bool print_prometheus = false;
  bool print_metrics_json = false;
  long shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend = argv[++i];
      if (backend != "scalar" && backend != "sliced") {
        std::cerr << "unknown --backend '" << backend
                  << "' (expected scalar or sliced)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--prometheus") == 0) {
      print_prometheus = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      print_metrics_json = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atol(argv[++i]);
    } else {
      std::cerr << "usage: serve_demo [--backend scalar|sliced] "
                   "[--shards N] [--trace out.json] [--prometheus] "
                   "[--metrics-json]\n";
      return 2;
    }
  }
  if (shards > 0) {
    return run_sharded(static_cast<std::size_t>(shards), trace_path,
                       print_prometheus);
  }

  const Netlist adder_nl = build_adder();
  Rng gen(3);
  const Netlist grid_nl = reconvergent_grid(10, 5, gen);

  EngineOptions opt;
  opt.num_workers = 4;
  opt.batch_timeout = std::chrono::microseconds(200);
  opt.compile.lpu.m = 8;
  opt.compile.lpu.n = 8;
  opt.tracing = !trace_path.empty();
  // --backend: scalar = the oracle interpreter, sliced = bit-sliced SIMD.
  opt.simd = backend != "scalar";
  Engine engine(opt);

  // load() returns a ref-counted handle carrying per-model QoS options.
  ModelOptions adder_opt;
  adder_opt.weight = 4;  // 4x the worker share of the background model
  const ModelHandle adder = engine.load("adder4", adder_nl, adder_opt);
  ModelOptions grid_opt;
  grid_opt.weight = 1;
  grid_opt.queue_bound = 32;
  const ModelHandle grid = engine.load("grid", grid_nl, grid_opt);
  // Loading the same netlist again is free: the program cache fingerprints
  // (netlist, options) and returns the compiled artifact. Concurrent loads of
  // DISTINCT netlists compile in parallel (see Engine::load_async).
  const ModelHandle replica = engine.load("adder4-replica", adder_nl);
  std::cout << "cache: " << engine.cache_stats().hits << " hit(s), "
            << engine.cache_stats().misses << " miss(es); "
            << engine.num_models() << " models loaded\n";

  // Fire a few adds as independent single-sample requests. The batcher packs
  // them into one 16-lane datapath word; the engine answers futures.
  const auto encode = [](unsigned av, unsigned bv) {
    std::vector<bool> bits(8);
    for (int i = 0; i < 4; ++i) bits[static_cast<std::size_t>(i)] = (av >> i) & 1;
    for (int i = 0; i < 4; ++i) bits[static_cast<std::size_t>(4 + i)] = (bv >> i) & 1;
    return bits;
  };
  const auto decode = [](const std::vector<bool>& out) {
    unsigned v = 0;
    for (std::size_t i = 0; i < out.size(); ++i) v |= (out[i] ? 1u : 0u) << i;
    return v;
  };

  std::vector<std::future<std::vector<bool>>> futs;
  for (unsigned av = 0; av < 4; ++av) {
    for (unsigned bv = 0; bv < 4; ++bv) {
      futs.push_back(engine.submit(adder, encode(3 * av + 1, 2 * bv + 5)));
    }
  }
  // Background traffic on the second model, via the non-blocking path: a full
  // queue surfaces as a status, never as an unbounded backlog.
  unsigned grid_accepted = 0;
  for (int i = 0; i < 48; ++i) {
    std::future<std::vector<bool>> fut;
    const SubmitStatus st = engine.try_submit(
        grid, std::vector<bool>(grid_nl.num_inputs(), i % 2 != 0), &fut);
    if (st == SubmitStatus::kAccepted) {
      ++grid_accepted;
      futs.push_back(std::move(fut));
    } else {
      std::cout << "grid admission: " << to_string(st) << " at request " << i
                << "\n";
      break;
    }
  }

  std::size_t i = 0;
  for (unsigned av = 0; av < 4; ++av) {
    for (unsigned bv = 0; bv < 4; ++bv) {
      const unsigned sum = decode(futs[i++].get());
      std::cout << 3 * av + 1 << " + " << 2 * bv + 5 << " = " << sum << "\n";
    }
  }

  // SLO-aware admission: a deadline the queue can no longer meet is refused
  // up front (kDeadlineUnmeetable) instead of wasting a lane, and a request
  // that expires while queued fails fast with DeadlineExceeded. Here the
  // deadline is already in the past, so the shed is deterministic.
  std::future<std::vector<bool>> doomed;
  const SubmitStatus doomed_st = engine.try_submit(
      adder, encode(1, 2), &doomed,
      engine.clock().now() - std::chrono::microseconds(1));
  std::cout << "submit with an already-missed deadline -> "
            << to_string(doomed_st) << "\n";

  engine.drain();
  const ServeReport rep = engine.report();
  std::cout << "\nserved " << rep.requests << " requests in " << rep.batches
            << " batch(es), lane occupancy "
            << static_cast<int>(rep.lane_occupancy * 100) << "%\n";
  std::cout << "latency p50 <= " << rep.p50_latency_us << " us, p99 <= "
            << rep.p99_latency_us << " us\n";
  std::cout << "goodput " << static_cast<long long>(rep.goodput_per_sec)
            << " on-deadline req/s (" << rep.deadline_met << " met, "
            << rep.shed << " shed at admission, " << rep.expired
            << " expired in queue)\n";
  std::cout << "member work items " << rep.member_runs << " (" << rep.steals
            << " stolen by idle workers), straggler gap p99 <= "
            << rep.straggler_gap_p99_us << " us\n";
  std::cout << "simulator kernel: "
            << to_string(LpuSimulator::resolve_kernel(opt.simd)) << "\n";
  std::cout << "hedges " << rep.hedges_launched << " launched, "
            << rep.hedge_wins << " won, " << rep.hedge_wasted_us
            << " us discarded\n";
  std::cout << "simulated " << rep.sim.clock_cycles << " LPU clock cycles, "
            << rep.sim.lpe_computes << " LPE computes\n";
  // Where did the latency go? The same lifecycle stamps the trace records,
  // folded into per-phase histograms (submit->seal->dispatch->done->settled).
  const auto phase_row = [](const char* name, const PhaseStats& p) {
    std::cout << "  " << std::left << std::setw(14) << name << "p50 <= "
              << std::setw(8) << p.p50_us << "p99 <= " << std::setw(8)
              << p.p99_us << "(" << p.count << " samples)\n";
  };
  std::cout << "latency phases (us):\n";
  phase_row("assembly-wait", rep.phases.assembly_wait);
  phase_row("queue-wait", rep.phases.queue_wait);
  phase_row("execution", rep.phases.execution);
  phase_row("finalize", rep.phases.finalize);

  // Per-model breakdown: the weighted scheduler's fairness and each model's
  // SLO outcomes are observable.
  std::cout << "\n" << std::left << std::setw(16) << "model" << std::right
            << std::setw(7) << "weight" << std::setw(7) << "bound"
            << std::setw(9) << "reqs" << std::setw(9) << "p50us"
            << std::setw(9) << "p99us" << std::setw(7) << "occ%"
            << std::setw(7) << "q-hwm" << std::setw(6) << "shed"
            << std::setw(6) << "expd" << std::setw(10) << "goodput/s" << "\n";
  for (const ModelReport& m : rep.per_model) {
    std::cout << std::left << std::setw(16) << m.name << std::right
              << std::setw(7) << m.weight << std::setw(7) << m.queue_bound
              << std::setw(9) << m.requests << std::setw(9) << m.p50_latency_us
              << std::setw(9) << m.p99_latency_us << std::setw(7)
              << static_cast<int>(m.lane_occupancy * 100) << std::setw(7)
              << m.queue_depth_hwm << std::setw(6) << m.shed << std::setw(6)
              << m.expired << std::setw(10)
              << static_cast<long long>(m.goodput_per_sec) << "\n";
  }

  // Lifecycle: unload drains, releases the cache pin, shrinks the registry.
  engine.unload(grid);
  engine.unload(replica);
  std::cout << "\nafter unload: " << engine.num_models()
            << " model(s) loaded, cache evictions "
            << engine.cache_stats().evictions << ", stale-handle submit -> ";
  std::future<std::vector<bool>> stale;
  std::cout << to_string(engine.try_submit(
                   grid, std::vector<bool>(grid_nl.num_inputs()), &stale))
            << "\n";

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    engine.export_trace(os);
    std::cout << "\nwrote Chrome trace to " << trace_path
              << " (open in chrome://tracing or Perfetto; dropped events: "
              << engine.trace_dropped() << ")\n";
  }
  if (print_prometheus) {
    std::cout << "\n--- prometheus ---\n" << engine.metrics_prometheus();
  }
  if (print_metrics_json) {
    std::cout << "\n--- metrics json ---\n" << engine.metrics_json() << "\n";
  }
  return 0;
}
