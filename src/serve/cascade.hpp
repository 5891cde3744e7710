#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "runtime/engine.hpp"

namespace lbnn::serve {

/// Cascade policy knobs (see Cascade).
struct CascadeOptions {
  /// Decides from the tiny model's output whether the request is answered at
  /// stage 1 (true) or forwarded to the big model (false). A null predicate
  /// forwards everything — a cascade only pays off once this is configured
  /// (e.g. "the tiny classifier's margin bit is set").
  std::function<bool(const std::vector<bool>&)> confident;
  /// When stage-1 ADMISSION refuses (queue-full or shed), bypass the tiny
  /// model and dispatch straight to stage 2 (default) instead of failing the
  /// request — a backlogged tiny model must not take the big model down with
  /// it. Stage-2 refusals always fail the request.
  bool bypass_on_stage1_refusal = true;
};

/// Per-stage cascade ledger. Each stage is an ordinary engine model, so its
/// latency/shed/expired detail lives in the engine's ServeReport rows; this
/// report adds the cascade-level routing outcomes. Once drained:
///   submitted == stage1_answered + stage2_answered + failed
///   forwarded + bypassed == stage2_answered + stage2_shed + stage-2 errors
struct CascadeReport {
  std::uint64_t submitted = 0;
  std::uint64_t stage1_answered = 0;  ///< tiny output accepted by the predicate
  std::uint64_t forwarded = 0;        ///< tiny ran; predicate said no -> big
  std::uint64_t bypassed = 0;         ///< stage-1 refusal routed straight to big
  std::uint64_t stage1_shed = 0;      ///< stage-1 admission refusals
  std::uint64_t stage2_answered = 0;  ///< big model resolved the request
  std::uint64_t stage2_shed = 0;      ///< stage-2 admission refusals (request fails)
  std::uint64_t failed = 0;           ///< futures that resolved with an exception
};

/// Two-stage model cascade over the Engine handle API: a tiny model answers
/// the requests its output predicate is confident about, the rest forward to
/// the big model. The caller-facing future resolves exactly once either way.
///
/// Deadline rebudgeting: a request's deadline is one ABSOLUTE TimePoint
/// threaded through both stages. Stage 2's admission check runs at forward
/// time, after stage 1's queueing and service have already been spent from
/// the budget — so it sees the REMAINING budget, not the original deadline,
/// and sheds a forwarded request whose leftover budget is below the big
/// model's estimated drain (counted in stage2_shed; the future fails with
/// DeadlineExceeded in microseconds instead of wasting a big-model lane).
///
/// Threading: the Cascade owns no thread. Stage 1 is admitted with a
/// completion callback (Engine::try_submit's callback form). The callback
/// runs on the engine worker that settles the stage-1 request: it runs the
/// predicate there and, when the answer is not confident, admits stage 2
/// without blocking. Stage 2's callback settles the client's promise. Each
/// request moves on as soon as its own stage finishes; a slow request holds
/// up nothing behind it. The predicate must therefore be cheap, must not
/// block, and may run on several workers at once. Nothing here reads a
/// clock, so ManualClock tests stay sleep-free. The Cascade must be
/// destroyed before the Engine; its destructor drains.
class Cascade {
 public:
  /// Both handles must live on `engine` and take the same number of inputs
  /// (a forwarded request carries stage 1's inputs to stage 2); otherwise
  /// throws lbnn::Error. The options' predicate is called on an engine
  /// worker with the tiny model's output.
  Cascade(runtime::Engine& engine, runtime::ModelHandle tiny,
          runtime::ModelHandle big, CascadeOptions options = {});
  ~Cascade();

  Cascade(const Cascade&) = delete;
  Cascade& operator=(const Cascade&) = delete;

  /// Submit one sample; the future resolves with the answering stage's output
  /// (or DeadlineExceeded / Error if both stages refused it). Never blocks on
  /// model execution; uses the engines' non-blocking admission internally.
  /// Throws lbnn::Error, counting nothing, on an input-count mismatch.
  std::future<std::vector<bool>> submit(
      std::vector<bool> inputs,
      runtime::TimePoint deadline = runtime::kNoDeadline);

  /// Block until every submitted request's future has resolved: the engine's
  /// drain(), which also waits for the stage-2 work that stage-1 callbacks
  /// admit. Call it quiesced — concurrent submits extend it.
  void drain();

  CascadeReport report() const;

 private:
  /// One request between submit and its answer, owned by whichever
  /// completion callback currently holds it.
  struct Pending;

  /// Stage-1 completion: predicate, then answer or forward.
  void on_stage1(Pending* p, std::exception_ptr error,
                 std::vector<bool>&& out) noexcept;
  /// Stage-2 admission for one request (forward or bypass path); a refusal
  /// ends the request. Caller counted forwarded/bypassed already.
  void forward(Pending* p) noexcept;
  /// Count the request's outcome, resolve the client's promise and free the
  /// request: the one place a cascade request ends.
  void finish(Pending* p, std::uint64_t CascadeReport::*outcome,
              std::exception_ptr error, std::vector<bool>&& out) noexcept;

  runtime::Engine* engine_;
  runtime::ModelHandle tiny_;
  runtime::ModelHandle big_;
  CascadeOptions opt_;

  mutable std::mutex mu_;  ///< guards counters_
  CascadeReport counters_;
};

}  // namespace lbnn::serve
