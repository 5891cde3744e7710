#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/compiler.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/batcher.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_cache.hpp"
#include "runtime/serve_stats.hpp"

namespace lbnn::runtime {
namespace {

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;  // word width 2m = 16 lanes
}

std::vector<bool> sample_of(const std::vector<BitVec>& packed, std::size_t lane) {
  std::vector<bool> bits(packed.size());
  for (std::size_t pi = 0; pi < packed.size(); ++pi) bits[pi] = packed[pi].get(lane);
  return bits;
}

TEST(Engine, BitExactVsDirectSimulator) {
  Rng gen(11);
  const Netlist nl = reconvergent_grid(12, 6, gen);
  const CompileOptions opt = small_lpu();

  const CompileResult direct = compile(nl, opt);
  LpuSimulator sim(direct.program);
  Rng rng(12);
  const std::size_t lanes = direct.program.cfg.effective_word_width();
  const auto inputs = random_inputs(nl, lanes, rng);
  const auto expect = sim.run(inputs);

  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.compile = opt;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);
  EXPECT_TRUE(grid.loaded());
  EXPECT_EQ(grid.name(), "grid");
  EXPECT_EQ(grid.num_inputs(), nl.num_inputs());
  EXPECT_EQ(grid.num_outputs(), nl.num_outputs());

  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    futs.push_back(engine.submit(grid, sample_of(inputs, lane)));
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const auto out = futs[lane].get();
    ASSERT_EQ(out.size(), nl.num_outputs());
    for (std::size_t po = 0; po < out.size(); ++po) {
      EXPECT_EQ(out[po], expect[po].get(lane)) << "lane " << lane << " po " << po;
    }
  }
}

TEST(Engine, ParallelAssemblyBitExact) {
  Rng gen(21);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.num_outputs = 6;
  const Netlist nl = random_dag(spec, gen);

  EngineOptions eopt;
  eopt.num_workers = 3;
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle dag = engine.load_parallel("dag", nl, 3);

  Rng rng(22);
  for (int round = 0; round < 4; ++round) {
    const auto inputs = random_inputs(nl, 16, rng);
    std::vector<std::future<std::vector<bool>>> futs;
    for (std::size_t lane = 0; lane < 16; ++lane) {
      futs.push_back(engine.submit(dag, sample_of(inputs, lane)));
    }
    const auto expect = simulate(nl, inputs);
    for (std::size_t lane = 0; lane < 16; ++lane) {
      const auto out = futs[lane].get();
      for (std::size_t po = 0; po < out.size(); ++po) {
        EXPECT_EQ(out[po], expect[po].get(lane));
      }
    }
  }
}

TEST(Engine, ConcurrentSubmitStress) {
  Rng gen(31);
  const Netlist nl = reconvergent_grid(10, 5, gen);
  EngineOptions eopt;
  eopt.num_workers = 4;
  eopt.batch_timeout = std::chrono::microseconds(100);
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<bool> bits(nl.num_inputs());
        for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
        const auto expect = simulate_scalar(nl, bits);
        const auto got = engine.submit(grid, bits).get();
        if (got != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(rep.batches, 1u);
  EXPECT_LE(rep.p50_latency_us, rep.p99_latency_us);
  // The per-model breakdown carries the whole load (only one model).
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].name, "grid");
  EXPECT_EQ(rep.per_model[0].requests, rep.requests);
  EXPECT_GE(rep.per_model[0].queue_depth_hwm, 1u);
}

TEST(Engine, DrainAnswersEverything) {
  Rng gen(41);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 2;
  // Long timeout: without drain() the last partial batch would sit for 50 ms.
  eopt.batch_timeout = std::chrono::milliseconds(50);
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(engine.submit(grid, std::vector<bool>(nl.num_inputs(), i % 2 != 0)));
  }
  engine.drain();
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(Engine, SubmitErrors) {
  Rng gen(51);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  EXPECT_THROW(engine.submit(ModelHandle(), std::vector<bool>(nl.num_inputs())),
               Error);
  EXPECT_THROW(ModelHandle().name(), Error);  // empty-handle accessors throw
  EXPECT_FALSE(ModelHandle().loaded());
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs() + 3)), Error);
  engine.shutdown();
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs())), Error);
}

TEST(Engine, HandlesAreEngineSpecific) {
  Rng gen(52);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  Engine a(eopt);
  Engine b(eopt);
  const ModelHandle on_a = a.load("grid", nl);
  EXPECT_THROW(b.submit(on_a, std::vector<bool>(nl.num_inputs())), Error);
  std::future<std::vector<bool>> fut;
  EXPECT_THROW(b.try_submit(on_a, std::vector<bool>(nl.num_inputs()), &fut), Error);
}

/// Submit `bits` to a bare Batcher with a promise sink, the way the engine's
/// future path does; returns the request's future.
std::future<std::vector<bool>> submit_bits(Batcher& batcher,
                                           std::vector<bool> bits,
                                           TimePoint deadline = kNoDeadline,
                                           bool* opened_batch = nullptr) {
  Request req;
  req.inputs = std::move(bits);
  req.deadline = deadline;
  std::future<std::vector<bool>> fut =
      req.sink.emplace<std::promise<std::vector<bool>>>().get_future();
  batcher.submit(std::move(req), opened_batch);
  return fut;
}

TEST(Batcher, SealsWhenLanesFill) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 2, 4, 1, std::chrono::hours(1),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 9; ++i) futs.push_back(submit_bits(batcher, {true, false}));
  // 9 submits at capacity 4: two full batches sealed inline, one open.
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(batcher.open_count(), 1u);
  EXPECT_TRUE(batcher.deadline().has_value());
  batcher.flush();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 1}));
  EXPECT_EQ(batcher.open_count(), 0u);
  EXPECT_FALSE(batcher.deadline().has_value());
}

// The seal deadline comes from the injected clock, not the wall clock: a
// partial batch seals exactly max_wait after its first request, driven purely
// by ManualClock::advance — no real sleeping anywhere.
TEST(Batcher, SealsOnTimeoutManualClock) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 8, 1, std::chrono::microseconds(500),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  auto fut = submit_bits(batcher, {true});
  const auto deadline = batcher.deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, clock.now() + std::chrono::microseconds(500));

  // One tick short of the timeout: nothing seals.
  clock.advance(std::chrono::microseconds(499));
  batcher.seal_if_expired(clock.now());
  EXPECT_TRUE(batch_sizes.empty());
  // A second request joins the SAME batch and must not push the deadline out:
  // the seal timer runs from the OLDEST request.
  auto fut2 = submit_bits(batcher, {false});
  EXPECT_EQ(batcher.deadline(), deadline);
  // The final tick: the partial batch (both requests) seals.
  clock.advance(std::chrono::microseconds(1));
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  EXPECT_FALSE(batcher.deadline().has_value());
}

// Lane-full sealing racing the timeout: when the batch fills at the very
// moment its deadline expires, the inline lane-full seal wins and the
// (logically concurrent) timer call finds nothing left to seal — the batch is
// delivered exactly once.
TEST(Batcher, SealOnLaneFullRacesTimeout) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 2, 1, std::chrono::microseconds(100),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  auto f1 = submit_bits(batcher, {true});
  // Time reaches the deadline exactly as the filling request arrives...
  clock.advance(std::chrono::microseconds(100));
  auto f2 = submit_bits(batcher, {false});  // lane-full: seals inline
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  // ...so the timer's expiry sweep must be a no-op, not a double seal.
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batcher.open_count(), 0u);
}

// Zero max_wait: every open batch is born expired — the first expiry sweep
// after a submit seals it, even with no time passing at all.
TEST(Batcher, ZeroTimeoutSealsImmediately) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 8, 1, std::chrono::microseconds(0),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  bool opened = false;
  auto f1 = submit_bits(batcher, {true}, kNoDeadline, &opened);
  EXPECT_TRUE(opened);  // a deadline (now + 0) exists and is already due
  ASSERT_TRUE(batcher.deadline().has_value());
  batcher.seal_if_expired(clock.now());  // no advance needed
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1}));
  // Each subsequent request opens (and immediately expires) its own batch.
  auto f2 = submit_bits(batcher, {false});
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, 1}));
}

// Request deadlines ride through the batcher untouched: stamped on the
// Request for the engine's dequeue-time expiry handling.
TEST(Batcher, StampsRequestDeadlines) {
  ManualClock clock;
  std::vector<Request> sealed;
  Batcher batcher(clock, 1, 2, 1, std::chrono::hours(1), [&](Batch&& b) {
    for (auto& r : b.requests) sealed.push_back(std::move(r));
  });
  const TimePoint slo = clock.now() + std::chrono::milliseconds(5);
  auto f1 = submit_bits(batcher, {true}, slo);
  auto f2 = submit_bits(batcher, {false});  // no deadline
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_EQ(sealed[0].deadline, slo);
  EXPECT_EQ(sealed[1].deadline, kNoDeadline);
  EXPECT_EQ(sealed[0].enqueued, clock.now());
}

TEST(Batcher, RejectsWrongArity) {
  ManualClock clock;
  Batcher batcher(clock, 3, 4, 1, std::chrono::hours(1), [](Batch&&) {});
  Request req;
  req.inputs = {true, false};
  EXPECT_THROW(batcher.submit(std::move(req)), Error);
  // A refused request is left untouched: its inputs are still the caller's.
  EXPECT_EQ(req.inputs, (std::vector<bool>{true, false}));
  EXPECT_EQ(batcher.open_count(), 0u);
}

// Bit-by-bit references for pack_requests / unpack_outputs: one BitVec::set
// or get per bit, the loops the word-parallel versions must agree with.
std::vector<BitVec> pack_reference(const std::vector<Request>& requests,
                                   std::size_t num_inputs) {
  std::vector<BitVec> packed(num_inputs, BitVec(requests.size()));
  for (std::size_t lane = 0; lane < requests.size(); ++lane) {
    for (std::size_t pi = 0; pi < num_inputs; ++pi) {
      packed[pi].set(lane, requests[lane].inputs[pi]);
    }
  }
  return packed;
}

std::vector<std::vector<bool>> unpack_reference(const std::vector<BitVec>& outputs,
                                                std::size_t num_requests) {
  std::vector<std::vector<bool>> per_request(num_requests,
                                             std::vector<bool>(outputs.size()));
  for (std::size_t lane = 0; lane < num_requests; ++lane) {
    for (std::size_t po = 0; po < outputs.size(); ++po) {
      per_request[lane][po] = outputs[po].get(lane);
    }
  }
  return per_request;
}

// Lane and bit counts on both sides of every 64-bit word boundary, up to the
// paper's 2048-lane word and 256 bits of I/O.
TEST(Batcher, PackUnpackMatchBitByBitReference) {
  Rng rng(62);
  for (const std::size_t lanes : {1, 63, 64, 65, 130, 2048}) {
    for (const std::size_t bits : {1, 7, 64, 65, 256}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " bits " + std::to_string(bits));
      std::vector<Request> requests(lanes);
      for (Request& req : requests) {
        req.inputs.resize(bits);
        for (std::size_t i = 0; i < bits; ++i) req.inputs[i] = rng.next_bool();
      }
      const std::vector<BitVec> packed = pack_requests(requests, bits);
      const std::vector<BitVec> expect = pack_reference(requests, bits);
      ASSERT_EQ(packed.size(), bits);
      for (std::size_t pi = 0; pi < bits; ++pi) {
        ASSERT_EQ(packed[pi].width(), lanes);
        EXPECT_EQ(packed[pi], expect[pi]) << "pi " << pi;
        // Lanes past the batch are zero in the last word.
        if (lanes % 64 != 0) {
          EXPECT_EQ(packed[pi].word(packed[pi].num_words() - 1) >> (lanes % 64), 0u);
        }
      }

      std::vector<BitVec> outputs;
      for (std::size_t po = 0; po < bits; ++po) outputs.push_back(BitVec::random(lanes, rng));
      EXPECT_EQ(unpack_outputs(outputs, lanes), unpack_reference(outputs, lanes));
      // A batch narrower than the output words reads only its own lanes.
      EXPECT_EQ(unpack_outputs(outputs, lanes / 2), unpack_reference(outputs, lanes / 2));
    }
  }
}

TEST(Batcher, PackUnpackRejectShapeMismatch) {
  std::vector<Request> requests(65);
  for (Request& req : requests) req.inputs.assign(7, true);
  requests[64].inputs.push_back(false);
  EXPECT_THROW(pack_requests(requests, 7), std::logic_error);
  const std::vector<BitVec> outputs(3, BitVec(64));
  EXPECT_THROW(unpack_outputs(outputs, 65), std::logic_error);
}

TEST(ProgramCache, HitsMissesEvictions) {
  Rng gen(71);
  const Netlist a = reconvergent_grid(8, 4, gen);
  const Netlist b = reconvergent_grid(8, 5, gen);
  const Netlist c = reconvergent_grid(8, 6, gen);
  const CompileOptions opt = small_lpu();

  ProgramCache cache(2);
  const auto a1 = cache.get_or_compile(a, opt);
  const auto a2 = cache.get_or_compile(a, opt);
  EXPECT_EQ(a1.get(), a2.get());  // hit returns the same artifact
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);

  cache.get_or_compile(b, opt);
  cache.get_or_compile(c, opt);  // evicts a (LRU)
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  // `a` was evicted but a1 stays valid (shared ownership); re-get recompiles.
  const auto a3 = cache.get_or_compile(a, opt);
  EXPECT_NE(a1.get(), a3.get());
  EXPECT_EQ(a1->program.num_wavefronts, a3->program.num_wavefronts);
  LpuSimulator sanity(a1->program);  // evicted artifact still runs
  sanity.run(random_inputs(a, 8, gen));
}

TEST(ProgramCache, CapacityZeroIsPassThrough) {
  Rng gen(72);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();

  ProgramCache cache(0);
  const auto first = cache.get_or_compile(nl, opt);
  const auto second = cache.get_or_compile(nl, opt);
  // Nothing is retained: both loads compile, neither evicts.
  EXPECT_NE(first.get(), second.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 0u);
  // Both artifacts are fully usable (the caller owns them).
  LpuSimulator sim(first->program);
  sim.run(random_inputs(nl, 4, gen));
  EXPECT_EQ(first->program.num_wavefronts, second->program.num_wavefronts);
}

TEST(ProgramCache, ExplicitEraseCountsAsEviction) {
  Rng gen(73);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();
  ProgramCache cache(4);
  const auto kept = cache.get_or_compile(nl, opt);
  const std::uint64_t key = fingerprint(nl, opt);
  EXPECT_TRUE(cache.erase(key));
  EXPECT_FALSE(cache.erase(key));  // already gone
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 0u);
  // The erased artifact stays valid for holders.
  LpuSimulator sim(kept->program);
  sim.run(random_inputs(nl, 4, gen));
}

TEST(ProgramCache, DistinguishesOptionsAndParallelK) {
  Rng gen(81);
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 40;
  spec.num_outputs = 4;
  const Netlist nl = random_dag(spec, gen);
  ProgramCache cache(8);

  CompileOptions opt = small_lpu();
  const auto merged = cache.get_or_compile(nl, opt);
  opt.merge = false;
  const auto unmerged = cache.get_or_compile(nl, opt);
  EXPECT_NE(merged.get(), unmerged.get());

  const auto par2 = cache.get_or_compile_parallel(nl, opt, 2);
  const auto par3 = cache.get_or_compile_parallel(nl, opt, 3);
  const auto par2again = cache.get_or_compile_parallel(nl, opt, 2);
  EXPECT_EQ(par2.get(), par2again.get());
  EXPECT_NE(par2.get(), par3.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ProgramCache, FingerprintSensitivity) {
  Rng gen(91);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();
  CompileOptions opt2 = opt;
  opt2.lpu.n = 16;
  EXPECT_NE(fingerprint(nl, opt), fingerprint(nl, opt2));
  EXPECT_EQ(fingerprint(nl, opt), fingerprint(nl, opt));
}

TEST(LatencyHistogram, PercentilesAreMonotonic) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(99.0), 0u);
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record(us);
  EXPECT_EQ(h.count(), 1000u);
  const auto p50 = h.percentile_us(50.0);
  const auto p99 = h.percentile_us(99.0);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 256u);   // true p50 is 500 -> bucket [512, 1024)
  EXPECT_LE(p99, 2048u);  // true p99 is 990, octave resolution
}

/// A batch of `latencies.size()` completed requests on a 16-lane word, of
/// which `met` made their deadline.
BatchRecord completed(std::vector<std::uint64_t> latencies, std::uint64_t met) {
  BatchRecord b;
  b.lane_capacity = 16;
  b.assembly_us.assign(latencies.size(), 1);
  b.latencies_us = std::move(latencies);
  b.deadline_met = met;
  return b;
}

/// One executed member slot carrying `c` as its simulator counters.
std::vector<MemberSlot> ran_member(const SimCounters& c, std::uint64_t service_us) {
  std::vector<MemberSlot> slots(1);
  slots[0].ran = true;
  slots[0].service_us = service_us;
  slots[0].sim = c;
  return slots;
}

TEST(ServeLedger, AggregatesBatchesAndSims) {
  ServeLedger ledger;
  SimCounters c;
  c.wavefronts = 10;
  c.lpe_computes = 40;
  c.lpe_utilization = 0.5;
  ledger.record_batch(ran_member(c, 7), completed(std::vector<std::uint64_t>(12, 100), 12));
  ledger.record_batch(ran_member(c, 9), completed(std::vector<std::uint64_t>(4, 100), 4));
  const ServeReport rep = ledger.serve_report(1.0);
  EXPECT_EQ(rep.requests, 16u);
  EXPECT_EQ(rep.batches, 2u);
  EXPECT_EQ(rep.samples, 16u);
  EXPECT_EQ(rep.lanes_offered, 32u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 0.5);
  EXPECT_EQ(rep.member_runs, 2u);
  EXPECT_EQ(rep.member_p50_exact_us, 9u);
  EXPECT_EQ(rep.sim.wavefronts, 20u);
  EXPECT_EQ(rep.sim.lpe_computes, 80u);
  EXPECT_DOUBLE_EQ(rep.sim.lpe_utilization, 0.5);
  EXPECT_EQ(rep.phases.queue_wait.count, 2u);
  EXPECT_EQ(rep.phases.assembly_wait.count, 16u);
}

// A failed batch spends its lanes but completes nothing; a fully-expired one
// never ran and books no batch at all.
TEST(ServeLedger, FailedAndExpiredBatches) {
  ServeLedger ledger;
  BatchRecord failed;
  failed.lane_capacity = 16;
  ledger.record_batch(std::vector<MemberSlot>(2), failed);
  ledger.record_batch(std::vector<MemberSlot>(2), BatchRecord{});
  ledger.record_expired(3);
  const ServeReport rep = ledger.serve_report(1.0);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.lanes_offered, 16u);
  EXPECT_EQ(rep.samples, 0u);
  EXPECT_EQ(rep.requests, 0u);
  EXPECT_EQ(rep.expired, 3u);
  EXPECT_EQ(rep.member_runs, 0u);
  EXPECT_EQ(rep.phases.queue_wait.count, 0u);
}

// Wall-clock-derived figures (rates, goodput) come from the snapshot's
// window, not from the ledger: a fixed window makes them exact.
TEST(ServeLedger, RatesComeFromTheSnapshotWindow) {
  LedgerSnapshot snap;
  snap.wall_seconds = 2.0;
  snap.models.push_back({"m", 1, 8, ServeLedger{}});
  ServeLedger& ledger = snap.models[0].ledger;
  ledger.record_batch({}, completed({100, 200, 300, 400}, /*met=*/3));
  ledger.record_shed();
  ledger.record_shed();
  ledger.record_expired(5);
  const ServeReport rep = to_report(snap);
  EXPECT_EQ(rep.requests, 4u);
  EXPECT_EQ(rep.shed, 2u);
  EXPECT_EQ(rep.expired, 5u);
  EXPECT_EQ(rep.deadline_met, 3u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.requests_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(rep.goodput_per_sec, 1.5);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].name, "m");
  EXPECT_EQ(rep.per_model[0].queue_bound, 8u);
  EXPECT_DOUBLE_EQ(rep.per_model[0].goodput_per_sec, 1.5);
}

TEST(ServeLedger, PerModelBreakdown) {
  ServeLedger ledger;
  ledger.record_batch({}, completed({100, 200, 400}, /*met=*/2));
  ledger.record_queue_depth(2);
  ledger.record_queue_depth(7);
  ledger.record_queue_depth(4);  // hwm keeps the peak, not the last sample
  ledger.record_shed();
  ledger.record_expired(2);
  const ModelReport rep = ledger.model_report(1.0);
  EXPECT_EQ(rep.requests, 3u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.samples, 3u);
  EXPECT_EQ(rep.lanes_offered, 16u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 3.0 / 16.0);
  EXPECT_LE(rep.p50_latency_us, rep.p99_latency_us);
  EXPECT_EQ(rep.queue_depth_hwm, 7u);
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.expired, 2u);
  EXPECT_EQ(rep.deadline_met, 2u);
}

// Merging is exact: two ledgers merged report what one ledger that saw every
// event reports — percentiles included (the merged histogram's, not the max
// of the two) — and snapshots merge rows by name.
TEST(ServeLedger, MergeEqualsRecordingEverythingOnce) {
  SimCounters c;
  c.wavefronts = 3;
  c.lpe_utilization = 0.25;
  ServeLedger fast, slow, both;
  for (ServeLedger* l : {&fast, &both}) {
    l->record_batch(ran_member(c, 5), completed({10, 10, 10}, 3));
    l->record_queue_depth(4);
  }
  for (ServeLedger* l : {&slow, &both}) {
    l->record_batch(ran_member(c, 50), completed({10000}, 1));
    l->record_shed();
    l->record_hedge_launch();
    l->record_hedge_waste(6);
  }
  ServeLedger merged = fast;
  merged.merge(slow);
  const ServeReport m = merged.serve_report(1.0);
  const ServeReport b = both.serve_report(1.0);
  EXPECT_EQ(m.requests, 4u);
  EXPECT_EQ(m.p50_latency_us, b.p50_latency_us);
  EXPECT_EQ(m.p99_latency_us, b.p99_latency_us);
  EXPECT_LT(m.p50_latency_us, slow.serve_report(1.0).p50_latency_us);
  EXPECT_EQ(m.member_p50_exact_us, b.member_p50_exact_us);
  EXPECT_EQ(m.member_p99_exact_us, b.member_p99_exact_us);
  EXPECT_EQ(m.phases.assembly_wait.count, b.phases.assembly_wait.count);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.hedges_launched, 1u);
  EXPECT_EQ(m.hedge_wasted_us, 6u);
  EXPECT_EQ(m.sim.wavefronts, 6u);
  EXPECT_DOUBLE_EQ(m.sim.lpe_utilization, 0.25);
  EXPECT_EQ(merged.model_report(1.0).queue_depth_hwm, 4u);

  LedgerSnapshot shard0, shard1;
  shard0.wall_seconds = 1.0;
  shard0.models.push_back({"a", 1, 0, fast});
  shard1.wall_seconds = 2.0;
  shard1.models.push_back({"b", 1, 0, slow});
  shard1.models.push_back({"a", 1, 0, slow});
  shard0.merge(shard1);
  ASSERT_EQ(shard0.models.size(), 2u);
  EXPECT_EQ(shard0.models[0].name, "a");
  EXPECT_EQ(shard0.models[0].ledger.requests(), 4u);
  EXPECT_EQ(shard0.models[1].name, "b");
  EXPECT_DOUBLE_EQ(shard0.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(to_report(shard0).requests_per_sec, 5.0 / 2.0);
}

// Engine-level ManualClock integration: a partial batch seals when the TEST
// advances time past batch_timeout — the timekeeper thread sleeps on the
// manual clock, so no real timer is involved and the test never sleeps.
TEST(Engine, ManualClockDrivesBatchTimeout) {
  ManualClock clock;
  Rng gen(55);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::milliseconds(10);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  auto fut = engine.submit(grid, std::vector<bool>(nl.num_inputs(), true));
  // Partial batch: under a frozen manual clock it can never seal on its own.
  clock.advance(std::chrono::milliseconds(9));
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  // Crossing batch_timeout wakes the timekeeper, seals, runs, resolves.
  clock.advance(std::chrono::milliseconds(1));
  const auto expect =
      simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EXPECT_EQ(fut.get(), expect);
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 1u);
  EXPECT_EQ(rep.deadline_met, 1u);  // no deadline set: completing counts
}

// Bit-exact serving across 64-bit word boundaries on both axes: a 130-lane
// word (three words, the last partial) and more than 64 primary inputs and
// outputs. One batch seals lane-full, the next partial one on the timer.
TEST(Engine, BitExactAcrossWordBoundaries) {
  Rng gen(57);
  RandomCircuitSpec spec;
  spec.num_inputs = 72;
  spec.num_gates = 400;
  spec.num_outputs = 70;
  const Netlist nl = random_dag(spec, gen);
  ASSERT_GE(nl.num_inputs(), 70u);
  ASSERT_GE(nl.num_outputs(), 70u);
  constexpr std::size_t kLanes = 130;
  constexpr std::size_t kPartial = 67;

  Rng rng(58);
  std::vector<std::vector<bool>> samples(kLanes + kPartial);
  for (auto& bits : samples) {
    bits.resize(nl.num_inputs());
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.next_bool();
  }

  for (const bool simd : {false, true}) {
    SCOPED_TRACE(simd ? "simd" : "scalar");
    ManualClock clock;
    EngineOptions eopt;
    eopt.num_workers = 2;
    eopt.compile.lpu.word_width = static_cast<std::uint32_t>(kLanes);
    eopt.batch_timeout = std::chrono::milliseconds(10);
    eopt.simd = simd;
    eopt.clock = &clock;
    Engine engine(eopt);
    const ModelHandle h = engine.load("wide", nl);

    // The first kLanes requests seal a full batch; the rest stay open until
    // the timer, which only the test moves.
    std::vector<std::future<std::vector<bool>>> futs;
    for (const auto& bits : samples) futs.push_back(engine.submit(h, bits));
    EXPECT_EQ(futs.back().wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    clock.advance(std::chrono::milliseconds(10));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(futs[i].get(), simulate_scalar(nl, samples[i])) << "request " << i;
    }
    const ServeReport rep = engine.report();
    EXPECT_EQ(rep.requests, samples.size());
    EXPECT_EQ(rep.batches, 2u);
    engine.shutdown();
  }
}

// reset_stats() restarts the wall-clock window on the injected clock and
// clears the per-model rows with the totals, so both cover the same window.
TEST(Engine, ResetStatsReanchorsTheWindowOnManualClock) {
  ManualClock clock;
  Rng gen(56);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::milliseconds(10);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  auto fut = engine.submit(grid, std::vector<bool>(nl.num_inputs(), false));
  clock.advance(std::chrono::milliseconds(10));
  fut.get();
  clock.advance(std::chrono::milliseconds(1990));
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 1u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.requests_per_sec, 0.5);
  EXPECT_DOUBLE_EQ(rep.goodput_per_sec, 0.5);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.per_model[0].goodput_per_sec, 0.5);

  engine.reset_stats();
  clock.advance(std::chrono::seconds(1));
  const ServeReport fresh = engine.report();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_DOUBLE_EQ(fresh.wall_seconds, 1.0);
  ASSERT_EQ(fresh.per_model.size(), 1u);
  EXPECT_EQ(fresh.per_model[0].requests, 0u);
  EXPECT_EQ(fresh.per_model[0].batches, 0u);
  EXPECT_EQ(fresh.per_model[0].queue_depth_hwm, 0u);
}

// The engine totals are the merge of the per_model rows: across an unload the
// unloaded model's history moves into "(retired)" and the totals still add
// up, and reset_stats() zeroes rows and totals alike.
TEST(Engine, TotalsAreTheMergeOfModelRowsAcrossUnload) {
  Rng gen(57);
  const Netlist na = reconvergent_grid(8, 4, gen);
  const Netlist nb = reconvergent_grid(8, 5, gen);
  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle a = engine.load("a", na);
  const ModelHandle b = engine.load("b", nb);
  const auto serve = [&](const ModelHandle& h, const Netlist& nl, int n) {
    std::vector<std::future<std::vector<bool>>> futs;
    for (int i = 0; i < n; ++i) {
      futs.push_back(engine.submit(h, std::vector<bool>(nl.num_inputs(), i % 2 == 0)));
    }
    engine.drain();
    for (auto& f : futs) f.get();
  };
  serve(a, na, 20);
  serve(b, nb, 7);
  ASSERT_TRUE(engine.unload(a));
  serve(b, nb, 5);

  const ServeReport rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 2u);
  EXPECT_EQ(rep.per_model[0].name, "b");
  EXPECT_EQ(rep.per_model[1].name, "(retired)");
  EXPECT_EQ(rep.per_model[0].requests, 12u);
  EXPECT_EQ(rep.per_model[1].requests, 20u);
  ModelReport sum;
  for (const ModelReport& m : rep.per_model) {
    sum.requests += m.requests;
    sum.batches += m.batches;
    sum.samples += m.samples;
    sum.lanes_offered += m.lanes_offered;
    sum.deadline_met += m.deadline_met;
    sum.member_runs += m.member_runs;
    sum.phases.assembly_wait.count += m.phases.assembly_wait.count;
    sum.phases.execution.count += m.phases.execution.count;
  }
  EXPECT_EQ(rep.requests, 32u);
  EXPECT_EQ(rep.requests, sum.requests);
  EXPECT_EQ(rep.batches, sum.batches);
  EXPECT_EQ(rep.samples, sum.samples);
  EXPECT_EQ(rep.lanes_offered, sum.lanes_offered);
  EXPECT_EQ(rep.deadline_met, sum.deadline_met);
  EXPECT_EQ(rep.member_runs, sum.member_runs);
  EXPECT_EQ(rep.phases.assembly_wait.count, sum.phases.assembly_wait.count);
  EXPECT_EQ(rep.phases.execution.count, sum.phases.execution.count);

  engine.reset_stats();
  const ServeReport fresh = engine.report();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_EQ(fresh.batches, 0u);
  EXPECT_EQ(fresh.member_runs, 0u);
  EXPECT_EQ(fresh.sim.wavefronts, 0u);
  ASSERT_EQ(fresh.per_model.size(), 2u);
  for (const ModelReport& m : fresh.per_model) {
    EXPECT_EQ(m.requests, 0u) << m.name;
    EXPECT_EQ(m.batches, 0u) << m.name;
    EXPECT_EQ(m.queue_depth_hwm, 0u) << m.name;
  }
}

}  // namespace
}  // namespace lbnn::runtime
