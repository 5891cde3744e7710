// Serve-layer coverage: two-stage cascades (easy/hard routing, absolute-
// deadline rebudgeting into stage 2), versioned aliases (exact stride canary
// splits, atomic flips, idle reaping of the old version), and the PR 10
// lifecycle bugfix sweep (evict_idle on the injected clock domain, the
// admission-vs-evict race window, dynamic set_weight rescaling). Everything
// timing-related runs on a ManualClock — this file contains zero wall-clock
// sleeps by construction (CI greps for them). The cascade usage-bug and
// head-of-line tests bound their waits with wait_for, so a hang or a request
// stuck behind another fails instead of stalling the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"
#include "serve/alias.hpp"
#include "serve/cascade.hpp"

namespace lbnn::serve {
namespace {

using namespace std::chrono_literals;
using runtime::Engine;
using runtime::EngineOptions;
using runtime::ManualClock;
using runtime::ModelHandle;
using runtime::ModelOptions;
using runtime::SubmitStatus;

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;  // word width 2m = 16 lanes
}

EngineOptions small_engine(std::uint32_t workers) {
  EngineOptions eopt;
  eopt.num_workers = workers;
  eopt.compile = small_lpu();
  return eopt;
}

/// Blocks every dispatch while armed (the test_serving_v2 idiom): pins the
/// single worker so backlogs can stage and weights can change mid-queue.
class DispatchGate {
 public:
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      hold_ = false;
    }
    cv_.notify_all();
  }
  void wait_if_armed() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !hold_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = true;
};

// ---------------------------------------------------------------------------
// Cascade: easy/hard routing
// ---------------------------------------------------------------------------

// The predicate (tiny output bit 0) splits a random workload between the
// stages; every future must resolve with the ANSWERING stage's bit-exact
// scalar-simulation output, and the cascade ledger must close.
TEST(Cascade, AnswersEasyForwardsHardBitExact) {
  Rng gen(301);
  const Netlist tiny_nl = reconvergent_grid(8, 3, gen);
  const Netlist big_nl = reconvergent_grid(8, 5, gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::hours(1);  // cascade.drain() seals
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 256;
  const ModelHandle tiny = engine.load("tiny", tiny_nl, mopt);
  const ModelHandle big = engine.load("big", big_nl, mopt);

  CascadeOptions copt;
  copt.confident = [](const std::vector<bool>& out) { return out[0]; };
  Cascade cascade(engine, tiny, big, copt);

  const int kN = 32;
  std::vector<std::vector<bool>> inputs;
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < kN; ++i) {
    std::vector<bool> bits(tiny_nl.num_inputs());
    for (std::size_t j = 0; j < bits.size(); ++j) bits[j] = gen.next_bool();
    inputs.push_back(bits);
    futs.push_back(cascade.submit(std::move(bits)));
  }
  cascade.drain();

  std::uint64_t easy = 0;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready) << i;
    const std::vector<bool> tiny_out = simulate_scalar(tiny_nl, inputs[i]);
    if (tiny_out[0]) {
      ++easy;
      EXPECT_EQ(futs[i].get(), tiny_out) << "stage-1 answer " << i;
    } else {
      EXPECT_EQ(futs[i].get(), simulate_scalar(big_nl, inputs[i]))
          << "stage-2 answer " << i;
    }
  }
  // The random workload must exercise both paths for the test to mean
  // anything.
  ASSERT_GT(easy, 0u);
  ASSERT_LT(easy, static_cast<std::uint64_t>(kN));

  const CascadeReport rep = cascade.report();
  EXPECT_EQ(rep.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(rep.stage1_answered, easy);
  EXPECT_EQ(rep.forwarded, kN - easy);
  EXPECT_EQ(rep.stage2_answered, kN - easy);
  EXPECT_EQ(rep.stage1_shed, 0u);
  EXPECT_EQ(rep.stage2_shed, 0u);
  EXPECT_EQ(rep.bypassed, 0u);
  EXPECT_EQ(rep.failed, 0u);
}

// ---------------------------------------------------------------------------
// Cascade: deadline rebudgeting into stage 2
// ---------------------------------------------------------------------------

// The deadline is one absolute TimePoint: after stage 1 runs, stage 2's
// admission sees only what is left of it. The member hook advances the
// ManualClock exactly 1 ms per member run, so stage 1's cost and stage 2's
// learned estimate are both exact multiples of 1 ms — the test budgets a
// request to clear stage 1 but land 1 us short of stage 2's estimate, and
// asserts the forwarded request sheds (while a no-deadline control passes).
TEST(Cascade, RebudgetShedsStage2WhenRemainingBudgetTooSmall) {
  ManualClock clock;
  Rng gen(302);
  const Netlist tiny_nl = reconvergent_grid(8, 2, gen);
  const Netlist big_nl = reconvergent_grid(8, 6, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 64;
  const ModelHandle tiny = engine.load("tiny", tiny_nl, mopt);
  const ModelHandle big = engine.load("big", big_nl, mopt);
  engine.set_member_hook(
      [&](const std::string&, std::size_t, bool) { clock.advance(1ms); });

  const std::vector<bool> bits(tiny_nl.num_inputs(), true);
  // Teach both admission EWMAs and measure each stage's member count (T, B):
  // a batch of one request costs exactly <members> ms on this clock.
  std::uint64_t runs0 = engine.report().member_runs;
  auto warm1 = engine.submit(tiny, bits);
  engine.drain();
  warm1.wait();
  const std::uint64_t T = engine.report().member_runs - runs0;
  runs0 = engine.report().member_runs;
  auto warm2 = engine.submit(big, bits);
  engine.drain();
  warm2.wait();
  const std::uint64_t B = engine.report().member_runs - runs0;
  ASSERT_GT(T, 0u);
  ASSERT_GT(B, 0u);

  CascadeOptions copt;
  copt.confident = [](const std::vector<bool>&) { return false; };  // all hard
  Cascade cascade(engine, tiny, big, copt);

  // Budget: stage 1 admits (T ms estimate <= budget) and consumes exactly
  // T ms; the forward then holds B*1000 - 1 us against a B*1000 us estimate.
  auto doomed = cascade.submit(
      bits, clock.now() + std::chrono::microseconds((T + B) * 1000 - 1));
  cascade.drain();
  ASSERT_EQ(doomed.wait_for(0s), std::future_status::ready);
  EXPECT_THROW(doomed.get(), DeadlineExceeded);

  // Control: same path, no deadline pressure — the big model answers.
  auto fine = cascade.submit(bits);
  cascade.drain();
  EXPECT_EQ(fine.get(), simulate_scalar(big_nl, bits));

  const CascadeReport rep = cascade.report();
  EXPECT_EQ(rep.submitted, 2u);
  EXPECT_EQ(rep.forwarded, 2u);    // stage 1 served both
  EXPECT_EQ(rep.stage2_shed, 1u);  // the rebudgeted admission refused one
  EXPECT_EQ(rep.stage2_answered, 1u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.stage1_shed, 0u);
  engine.set_member_hook(nullptr);
}

// ---------------------------------------------------------------------------
// Cascade: usage bugs and head-of-line blocking
// ---------------------------------------------------------------------------

/// Run `fn` on a helper thread and fail if it has not returned within
/// `limit`: a hang reads as a test failure, not a suite stalled until the
/// ctest timeout. A hung helper can never be joined, so after reporting the
/// process exits.
template <typename Fn>
void expect_returns_within(std::chrono::seconds limit, const char* what,
                           Fn fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> done = task.get_future();
  std::thread helper(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << what << " did not return within " << limit.count()
                  << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  helper.join();
  done.get();
}

// A wrong-arity submit is a usage bug: it throws before anything is counted,
// and the cascade keeps working — drain() and the destructor still return.
TEST(Cascade, WrongAritySubmitThrowsAndCountsNothing) {
  Rng gen(304);
  const Netlist tiny_nl = reconvergent_grid(8, 2, gen);
  const Netlist big_nl = reconvergent_grid(8, 4, gen);
  Engine engine(small_engine(1));
  const ModelHandle tiny = engine.load("tiny", tiny_nl);
  const ModelHandle big = engine.load("big", big_nl);
  expect_returns_within(10s, "drain and destruction after a refused submit",
                        [&] {
                          Cascade cascade(engine, tiny, big);
                          EXPECT_THROW(cascade.submit(std::vector<bool>(
                                           tiny_nl.num_inputs() + 1)),
                                       Error);
                          EXPECT_EQ(cascade.report().submitted, 0u);
                          const std::vector<bool> bits(tiny_nl.num_inputs(), true);
                          auto fut = cascade.submit(bits);
                          cascade.drain();
                          EXPECT_EQ(fut.get(), simulate_scalar(big_nl, bits));
                          EXPECT_EQ(cascade.report().submitted, 1u);
                        });
}

// A forwarded request carries stage 1's inputs to stage 2, so the stages
// must agree on the input count: the constructor refuses a mismatch up front
// rather than failing every forward later.
TEST(Cascade, StageArityMismatchIsRejectedAtConstruction) {
  Rng gen(305);
  const Netlist tiny_nl = reconvergent_grid(8, 2, gen);
  const Netlist big_nl = reconvergent_grid(9, 4, gen);
  ASSERT_NE(tiny_nl.num_inputs(), big_nl.num_inputs());
  Engine engine(small_engine(1));
  const ModelHandle tiny = engine.load("tiny", tiny_nl);
  const ModelHandle big = engine.load("big", big_nl);
  EXPECT_THROW(Cascade(engine, tiny, big), Error);
  EXPECT_THROW(Cascade(engine, big, tiny), Error);
}

// Each request moves on as soon as its own stage finishes: with request A's
// stage-1 run held inside the member hook, request B (submitted after A, run
// by the other worker) must resolve while A is still held.
TEST(Cascade, SlowRequestDoesNotHoldUpLaterAnswers) {
  Rng gen(306);
  const Netlist tiny_nl = reconvergent_grid(8, 3, gen);
  const Netlist big_nl = reconvergent_grid(8, 5, gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::microseconds(0);  // every request seals alone
  eopt.hedging = false;  // a duplicate must not finish A behind the hook's back
  Engine engine(eopt);
  const ModelHandle tiny = engine.load("tiny", tiny_nl);
  const ModelHandle big = engine.load("big", big_nl);

  std::mutex mu;
  std::condition_variable cv;
  bool a_running = false;
  bool release_a = false;
  std::atomic<bool> first{true};
  engine.set_member_hook([&](const std::string& model, std::size_t, bool) {
    if (model != "tiny" || !first.exchange(false)) return;
    std::unique_lock<std::mutex> lk(mu);
    a_running = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release_a; });
  });

  CascadeOptions copt;
  copt.confident = [](const std::vector<bool>&) { return true; };
  Cascade cascade(engine, tiny, big, copt);

  const std::vector<bool> a_bits(tiny_nl.num_inputs(), true);
  const std::vector<bool> b_bits(tiny_nl.num_inputs(), false);
  auto a = cascade.submit(a_bits);
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 10s, [&] { return a_running; }));
  }
  auto b = cascade.submit(b_bits);
  const bool b_ready = b.wait_for(3s) == std::future_status::ready;
  EXPECT_TRUE(b_ready) << "B waited behind the held request A";
  EXPECT_NE(a.wait_for(0s), std::future_status::ready);
  {
    std::lock_guard<std::mutex> lk(mu);
    release_a = true;
  }
  cv.notify_all();
  cascade.drain();
  EXPECT_EQ(a.get(), simulate_scalar(tiny_nl, a_bits));
  EXPECT_EQ(b.get(), simulate_scalar(tiny_nl, b_bits));
  const CascadeReport rep = cascade.report();
  EXPECT_EQ(rep.submitted, 2u);
  EXPECT_EQ(rep.stage1_answered, 2u);
  EXPECT_EQ(rep.failed, 0u);
  engine.set_member_hook(nullptr);
}

// ---------------------------------------------------------------------------
// Aliases: exact stride splits
// ---------------------------------------------------------------------------

// A 1:3 canary split is EXACT over every aligned window of 4 picks — stride
// selection, not sampling — and re-weighting restarts the cycle cleanly.
TEST(Alias, CanarySplitIsExactOverEveryWindow) {
  Rng gen(303);
  const Netlist v1_nl = reconvergent_grid(8, 4, gen);
  const Netlist v2_nl = reconvergent_grid(8, 5, gen);
  Engine engine(small_engine(1));
  const ModelHandle v1 = engine.load("jsc_v1", v1_nl);
  const ModelHandle v2 = engine.load("jsc_v2", v2_nl);

  AliasTable table(engine);
  table.publish("jsc@prod", v1);
  EXPECT_EQ(table.resolve("jsc@prod").name(), "jsc_v1");
  table.set_canary("jsc@prod", v2, 1, 3);

  // 10 aligned windows of 4: each must route exactly 3 to primary, 1 to
  // canary — asserted window by window from the table's own ledger.
  std::vector<std::future<std::vector<bool>>> futs;
  const std::vector<bool> bits(v1_nl.num_inputs(), true);
  for (int w = 0; w < 10; ++w) {
    const AliasReport before = table.report("jsc@prod");
    for (int i = 0; i < 4; ++i) futs.push_back(table.submit("jsc@prod", bits));
    const AliasReport after = table.report("jsc@prod");
    EXPECT_EQ(after.to_primary - before.to_primary, 3u) << "window " << w;
    EXPECT_EQ(after.to_canary - before.to_canary, 1u) << "window " << w;
  }
  engine.drain();

  // The ledger matches what actually ran: count futures by which version's
  // scalar simulation they reproduce.
  const std::vector<bool> want1 = simulate_scalar(v1_nl, bits);
  const std::vector<bool> want2 = simulate_scalar(v2_nl, bits);
  ASSERT_NE(want1, want2);
  std::uint64_t from_v1 = 0;
  std::uint64_t from_v2 = 0;
  for (auto& f : futs) {
    const std::vector<bool> out = f.get();
    if (out == want1) ++from_v1;
    if (out == want2) ++from_v2;
  }
  EXPECT_EQ(from_v1, 30u);
  EXPECT_EQ(from_v2, 10u);

  // Re-weight to 1:1 — alternation is exact from the next request on.
  table.set_split("jsc@prod", 1, 1);
  const AliasReport before = table.report("jsc@prod");
  for (int i = 0; i < 6; ++i) (void)table.submit("jsc@prod", bits);
  engine.drain();
  const AliasReport after = table.report("jsc@prod");
  EXPECT_EQ(after.to_primary - before.to_primary, 3u);
  EXPECT_EQ(after.to_canary - before.to_canary, 3u);

  EXPECT_THROW(table.set_split("jsc@prod", 0, 0), Error);
  EXPECT_THROW(table.resolve("nope@prod"), Error);
}

// ---------------------------------------------------------------------------
// Aliases: zero-drop version flip + idle reap
// ---------------------------------------------------------------------------

// The full rollout script on a ManualClock: publish v1, stage v2 at 0%, open
// to 25%, flip to 100%, then evict the idle v1. Every future across all
// phases resolves bit-exactly (v1 and v2 are the same netlist, so the oracle
// is version-independent); nothing drops, nothing double-resolves, and the
// duplicate load dedups in the program cache.
TEST(Alias, VersionFlipDropsNothingAndReapsOldVersion) {
  ManualClock clock;
  Rng gen(304);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle v1 = engine.load("jsc_v1", nl);
  const ModelHandle v2 = engine.load("jsc_v2", nl);
  // Same netlist, same compile options: v2 reuses v1's compiled program.
  EXPECT_GE(engine.cache_stats().hits, 1u);
  EXPECT_EQ(engine.cache_stats().entries, 1u);

  AliasTable table(engine);
  table.publish("jsc@prod", v1);
  table.set_canary("jsc@prod", v2, 0, 1);  // staged at 0%

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(table.submit("jsc@prod", bits));
  EXPECT_EQ(table.report("jsc@prod").to_canary, 0u);  // 0% means zero

  table.set_split("jsc@prod", 1, 3);  // 25%
  for (int i = 0; i < 8; ++i) futs.push_back(table.submit("jsc@prod", bits));
  EXPECT_EQ(table.report("jsc@prod").to_canary, 2u);  // exactly 2 of 8

  const ModelHandle old = table.flip("jsc@prod");  // 100%
  EXPECT_EQ(old.name(), "jsc_v1");
  EXPECT_EQ(table.resolve("jsc@prod").name(), "jsc_v2");
  for (int i = 0; i < 8; ++i) futs.push_back(table.submit("jsc@prod", bits));

  engine.drain();
  const std::vector<bool> want = simulate_scalar(nl, bits);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready)
        << "dropped future " << i;
    EXPECT_EQ(futs[i].get(), want) << i;
  }
  const AliasReport rep = table.report("jsc@prod");
  EXPECT_EQ(rep.submitted, 24u);
  EXPECT_EQ(rep.flips, 1u);
  EXPECT_EQ(rep.to_primary + rep.to_canary, rep.submitted);
  EXPECT_FALSE(rep.has_canary);

  // Reap: 10 clock-minutes later, one request keeps v2 warm; v1 has been
  // idle since the flip and evicts, v2 survives, the alias still serves.
  clock.advance(10min);
  auto keepwarm = table.submit("jsc@prod", bits);
  engine.drain();
  keepwarm.wait();
  EXPECT_EQ(engine.evict_idle(5min), 1u);
  EXPECT_FALSE(v1.loaded());
  EXPECT_TRUE(v2.loaded());
  EXPECT_EQ(engine.num_models(), 1u);
  auto still = table.submit("jsc@prod", bits);
  engine.drain();
  EXPECT_EQ(still.get(), want);
}

// ---------------------------------------------------------------------------
// Bugfix sweep: evict_idle on the injected clock domain
// ---------------------------------------------------------------------------

// `min_idle` is a duration on the injected ClockSource, the domain that
// stamps last_used — NOT wall time. Under a ManualClock, 10 advance()d idle
// minutes trip a 5-minute cutoff even though microseconds of wall time have
// passed (the pre-fix wall-clock comparison would evict nothing here).
TEST(Lifecycle, EvictIdleHonorsInjectedClockDomain) {
  ManualClock clock;
  Rng gen(305);
  const Netlist a_nl = reconvergent_grid(8, 4, gen);
  const Netlist b_nl = reconvergent_grid(8, 5, gen);
  EngineOptions eopt = small_engine(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle a = engine.load("a", a_nl);
  auto ua = engine.submit(a, std::vector<bool>(a_nl.num_inputs()));
  engine.drain();
  ua.wait();

  clock.advance(10min);
  const ModelHandle b = engine.load("b", b_nl);
  auto ub = engine.submit(b, std::vector<bool>(b_nl.num_inputs()));
  engine.drain();
  ub.wait();

  EXPECT_EQ(engine.evict_idle(30min), 0u);  // neither is 30 clock-minutes idle
  EXPECT_EQ(engine.evict_idle(5min), 1u);   // a: 10 idle minutes; b: 0
  EXPECT_FALSE(a.loaded());
  EXPECT_TRUE(b.loaded());
  EXPECT_EQ(engine.num_models(), 1u);
}

// ---------------------------------------------------------------------------
// Bugfix sweep: the admission-vs-evict race window
// ---------------------------------------------------------------------------

// A request admitted between evict_idle's outstanding==0 check and its
// unload() must be SERVED, not dropped: unload flips `accepting` first and
// then drains, so the late admission rides the drain out. The evict hook
// lands a submit deterministically inside that exact window.
TEST(Lifecycle, RequestAdmittedDuringEvictionIsServed) {
  Rng gen(306);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);  // only unload's drain seals
  Engine engine(eopt);
  const ModelHandle m = engine.load("m", nl);

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::future<std::vector<bool>> late;
  engine.set_evict_hook([&](const std::string& name) {
    if (name == "m") late = engine.submit(m, bits);
  });
  EXPECT_EQ(engine.evict_idle(0s), 1u);  // idle at the check; evicted anyway
  engine.set_evict_hook(nullptr);

  EXPECT_FALSE(m.loaded());
  ASSERT_TRUE(late.valid());
  // Served before evict_idle returned: unload's drain resolved it.
  ASSERT_EQ(late.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(late.get(), simulate_scalar(nl, bits));
  const runtime::ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 1u);  // folded into the retired row, not lost
  EXPECT_EQ(rep.expired, 0u);
}

// ---------------------------------------------------------------------------
// Bugfix sweep: set_weight rescales the live stride
// ---------------------------------------------------------------------------

// Re-weighting a model with a standing backlog takes effect immediately and
// exactly: after set_weight(a, 3), every aligned window of 4 dispatches
// drains 3 A batches and 1 B batch. Same trace-replay technique as the
// static-weight stride test — this is its dynamic twin (the canary lever).
TEST(Lifecycle, SetWeightReshapesDrainOrderExactly) {
  ManualClock clock;
  Rng gen(307);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  eopt.tracing = true;
  eopt.trace_ring_capacity = 1 << 14;
  Engine engine(eopt);
  const std::size_t lanes = 16;

  ModelOptions mopt;  // both start at weight 1
  mopt.queue_bound = 40 * lanes;
  const ModelHandle a = engine.load("A", nl, mopt);
  const ModelHandle b = engine.load("B", nl, mopt);
  EXPECT_EQ(a.weight(), 1u);

  DispatchGate gate;
  engine.set_dispatch_hook([&](const std::string&) { gate.wait_if_armed(); });

  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto submit_batches = [&](const ModelHandle& h, int n) {
    for (int i = 0; i < n * static_cast<int>(lanes); ++i) {
      auto fut = engine.submit(h, bits);
      (void)fut;
    }
  };
  // A first: the worker's one pre-gate dispatch is an A batch, leaving
  // 15 A + 5 B = 20 gated dispatches.
  submit_batches(a, 16);
  submit_batches(b, 5);

  // The canary lever, mid-backlog: A's share triples while its queue stands.
  EXPECT_TRUE(engine.set_weight(a, 3));
  EXPECT_EQ(a.weight(), 3u);
  gate.release();
  engine.drain();
  engine.set_dispatch_hook(nullptr);

  EXPECT_EQ(engine.trace_dropped(), 0u);
  std::vector<std::string> order;
  for (const runtime::TraceEvent& ev : engine.drain_trace()) {
    if (ev.type == runtime::TraceEventType::kDispatch) {
      order.push_back(engine.trace_model_name(ev.model_id));
    }
  }
  ASSERT_GE(order.size(), 21u);
  EXPECT_EQ(order[0], "A");  // the pinned pre-backlog dispatch
  std::map<std::string, int> counts;
  for (std::size_t i = 1; i <= 20; ++i) counts[order[i]]++;
  EXPECT_EQ(counts["A"], 15);
  EXPECT_EQ(counts["B"], 5);
  for (std::size_t w = 1; w + 4 <= 21; w += 4) {
    std::map<std::string, int> win;
    for (std::size_t i = w; i < w + 4; ++i) win[order[i]]++;
    EXPECT_EQ(win["A"], 3) << "window at " << w;
    EXPECT_EQ(win["B"], 1) << "window at " << w;
  }

  // Weight 0 is clamped to the starvation floor; unloaded models refuse.
  EXPECT_TRUE(engine.set_weight(b, 0));
  EXPECT_EQ(b.weight(), 1u);
  engine.unload(b);
  EXPECT_FALSE(engine.set_weight(b, 2));
}

}  // namespace
}  // namespace lbnn::serve
