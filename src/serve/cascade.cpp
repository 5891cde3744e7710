#include "serve/cascade.hpp"

#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace lbnn::serve {

using runtime::SubmitStatus;
using runtime::TimePoint;

struct Cascade::Pending {
  Cascade* cascade;
  std::promise<std::vector<bool>> promise;
  std::vector<bool> inputs;  ///< retained for the stage-2 forward
  TimePoint deadline;
};

Cascade::Cascade(runtime::Engine& engine, runtime::ModelHandle tiny,
                 runtime::ModelHandle big, CascadeOptions options)
    : engine_(&engine),
      tiny_(std::move(tiny)),
      big_(std::move(big)),
      opt_(std::move(options)) {
  engine_->probe(tiny_);  // throws on an empty or foreign handle
  engine_->probe(big_);
  if (tiny_.num_inputs() != big_.num_inputs()) {
    throw Error("cascade: tiny model takes " +
                std::to_string(tiny_.num_inputs()) + " inputs, big model " +
                std::to_string(big_.num_inputs()));
  }
}

Cascade::~Cascade() { drain(); }

std::future<std::vector<bool>> Cascade::submit(std::vector<bool> inputs,
                                               TimePoint deadline) {
  if (inputs.size() != tiny_.num_inputs()) {
    throw Error("cascade: request has " + std::to_string(inputs.size()) +
                " input bits, models expect " +
                std::to_string(tiny_.num_inputs()));
  }
  auto* p = new Pending{this, {}, std::move(inputs), deadline};
  std::future<std::vector<bool>> client = p->promise.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.submitted;
  }
  // Stage 1 gets a copy of the inputs; `p` keeps its own for stage 2. The
  // callback captures one pointer, so std::function stores it without an
  // allocation. Once accepted, the callback owns `p` and may already have
  // freed it when try_submit returns.
  const SubmitStatus st = engine_->try_submit(
      tiny_, p->inputs,
      [p](std::exception_ptr error, std::vector<bool>&& out) {
        p->cascade->on_stage1(p, std::move(error), std::move(out));
      },
      deadline);
  if (st == SubmitStatus::kAccepted) return client;

  const bool bypass = opt_.bypass_on_stage1_refusal;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.stage1_shed;
    if (bypass) ++counters_.bypassed;
  }
  if (bypass) {
    forward(p);
  } else {
    finish(p, nullptr,
           std::make_exception_ptr(
               Error(std::string("cascade: stage-1 admission refused: ") +
                     runtime::to_string(st))),
           {});
  }
  return client;
}

void Cascade::on_stage1(Pending* p, std::exception_ptr error,
                        std::vector<bool>&& out) noexcept {
  // A stage-1 failure after admission means the deadline expired in queue
  // (or the batch failed) — final either way: the same budget has already
  // run out for stage 2.
  if (error) return finish(p, nullptr, std::move(error), {});
  bool confident = false;
  try {
    confident = opt_.confident && opt_.confident(out);
  } catch (...) {
    return finish(p, nullptr, std::current_exception(), {});
  }
  if (confident) {
    return finish(p, &CascadeReport::stage1_answered, nullptr, std::move(out));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.forwarded;
  }
  forward(p);
}

void Cascade::forward(Pending* p) noexcept {
  const SubmitStatus st = engine_->try_submit(
      big_, std::move(p->inputs),
      [p](std::exception_ptr error, std::vector<bool>&& out) {
        p->cascade->finish(p, error ? nullptr : &CascadeReport::stage2_answered,
                           std::move(error), std::move(out));
      },
      p->deadline);
  if (st == SubmitStatus::kAccepted) return;
  // Stage-2 admission saw only the remaining budget (the deadline is
  // absolute; stage 1's queueing and service already came out of it) and
  // refused. The request fails here, in microseconds, instead of occupying a
  // big-model lane it cannot finish in time.
  std::exception_ptr error =
      st == SubmitStatus::kDeadlineUnmeetable
          ? std::make_exception_ptr(DeadlineExceeded(
                "cascade: remaining budget below the stage-2 drain estimate"))
          : std::make_exception_ptr(
                Error(std::string("cascade: stage-2 admission refused: ") +
                      runtime::to_string(st)));
  finish(p, &CascadeReport::stage2_shed, std::move(error), {});
}

void Cascade::finish(Pending* p, std::uint64_t CascadeReport::*outcome,
                     std::exception_ptr error,
                     std::vector<bool>&& out) noexcept {
  std::unique_ptr<Pending> owned(p);
  // Count before resolving: a client that wakes from get() and reads
  // report() must see its request.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (outcome != nullptr) ++(counters_.*outcome);
    if (error) ++counters_.failed;
  }
  if (error) {
    owned->promise.set_exception(std::move(error));
  } else {
    owned->promise.set_value(std::move(out));
  }
}

void Cascade::drain() { engine_->drain(); }

CascadeReport Cascade::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace lbnn::serve
