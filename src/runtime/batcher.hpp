#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "common/bitvec.hpp"
#include "lpu/simulator.hpp"
#include "runtime/clock.hpp"

namespace lbnn::runtime {

/// A request's completion callback: called exactly once, with either an error
/// (and no outputs) or a null error and one Boolean per primary output.
using Completion =
    std::function<void(std::exception_ptr error, std::vector<bool>&& outputs)>;

/// Where a request's answer goes: a Completion, or the promise behind a
/// std::future. The callback comes first so that a default-constructed
/// Request allocates nothing.
using Sink = std::variant<Completion, std::promise<std::vector<bool>>>;

/// One single-sample inference request: one Boolean per primary input going
/// in, one per primary output coming back through the sink.
struct Request {
  std::vector<bool> inputs;
  Sink sink;
  TimePoint enqueued;
  /// Engine-assigned request id (monotonic, never 0 when tracing): links the
  /// trace stream's submit event to this request's completion across threads.
  std::uint64_t id = 0;
  /// Absolute completion deadline; kNoDeadline when the client set none.
  TimePoint deadline = kNoDeadline;
  /// Set by the worker that finds the request already past its deadline at
  /// dequeue: the request has been settled with DeadlineExceeded, finalize
  /// must not touch it again.
  bool expired = false;
};

/// Result-claim states of one member execution slot (MemberSlot::claim).
/// Forward-only: pending -> running (a worker claimed the member off the
/// batch cursor and started it) -> hedged (an idle worker launched a
/// speculative duplicate of the batch's last unfinished member) -> done
/// (exactly one executor won the result slot; the loser discards its
/// output). running -> done skips the hedged state when no duplicate was
/// ever launched.
enum class MemberClaim : std::uint8_t {
  kPending = 0,
  kRunning = 1,
  kHedged = 2,
  kDone = 3,
};

/// Per-member execution slot of a sealed batch. The engine dispatches one
/// work item per assembly member; the executor that WINS member i's result
/// claim fills slot i (disjoint indices, so no lock on the data plane — the
/// batch's completion latch orders every slot write before finalize reads
/// them for stats). The atomic fields are the hedging plane: they are the
/// only ones touched by more than one thread at a time (a hedger reads
/// started_at_us and CASes claim while the original executor runs).
struct MemberSlot {
  bool ran = false;           ///< the member's simulator actually executed
  bool stolen = false;        ///< executed by a worker other than the batch claimer
  bool hedge_won = false;     ///< the winning executor was the hedge duplicate
  std::uint64_t service_us = 0;  ///< winner's simulator (+ member hook) service time
  std::int64_t done_at_us = 0;   ///< completion stamp; straggler gap = max - min
  SimCounters sim;               ///< the winning run's simulator counters

  /// Result-claim state machine; see MemberClaim. The winning transition to
  /// kDone is the exactly-once point: whoever makes it owns every plain
  /// field above, the outputs slice, and the completion-latch decrement.
  std::atomic<std::uint8_t> claim{static_cast<std::uint8_t>(MemberClaim::kPending)};
  /// When the first executor started (us since clock epoch); the hedge
  /// trigger compares it against hedge_factor x the service EWMA.
  std::atomic<std::int64_t> started_at_us{0};
  /// Set by the claim winner: tells the losing duplicate's simulator run to
  /// abandon the batch cooperatively (LpuSimulator::run's cancel flag).
  std::atomic<bool> cancel{false};

  MemberSlot() = default;
  /// Copyable for container pre-sizing only (Batcher::finish): slots are
  /// copied strictly before publication, never while executors race.
  MemberSlot(const MemberSlot& other) { *this = other; }
  MemberSlot& operator=(const MemberSlot& other) {
    ran = other.ran;
    stolen = other.stolen;
    hedge_won = other.hedge_won;
    service_us = other.service_us;
    done_at_us = other.done_at_us;
    sim = other.sim;
    claim.store(other.claim.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    started_at_us.store(other.started_at_us.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    cancel.store(other.cancel.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }
};

/// A sealed batch, ready to run: 1 <= requests.size() <= lane capacity, with
/// one pre-sized execution slot per assembly member.
struct Batch {
  std::vector<Request> requests;
  std::vector<MemberSlot> member_slots;
};

/// Pack requests into the LPU's datapath words: request i becomes bit lane i
/// of every primary-input BitVec (the simulator is bit-sliced, so a partial
/// batch simply runs with a narrower word). Returns one BitVec per PI. Works
/// 64 lanes x 64 inputs at a time (a bit-matrix transpose per block) and
/// stores whole words. Throws std::logic_error when a request's input count
/// is not num_inputs.
std::vector<BitVec> pack_requests(const std::vector<Request>& requests,
                                  std::size_t num_inputs);

/// Inverse of pack_requests on the output side: per-request output bits from
/// the simulator's per-PO BitVecs, read one word per PO per 64 lanes. Throws
/// std::logic_error when an output word is narrower than num_requests.
std::vector<std::vector<bool>> unpack_outputs(const std::vector<BitVec>& outputs,
                                              std::size_t num_requests);

/// Dynamic batching queue for one model.
///
/// submit() appends the request to the open batch. The batch seals — is
/// handed to `on_seal`, typically the engine's ready queue — when either
///   * it reaches `lane_capacity` requests (one per datapath bit lane), or
///   * the oldest request in it has waited `max_wait` (the engine's
///     timekeeper calls seal_if_expired()).
/// The lane-full path seals inside submit(), so a saturating client never
/// waits on the timer. Batcher owns no thread and never sleeps; all request
/// stamps come from the injected ClockSource, so tests drive sealing with a
/// ManualClock instead of real waits.
class Batcher {
 public:
  using SealFn = std::function<void(Batch&&)>;

  /// `num_members` is the model's assembly width: every sealed batch carries
  /// that many pre-initialized MemberSlots (1 for a single-LPU model).
  Batcher(ClockSource& clock, std::size_t num_inputs, std::size_t lane_capacity,
          std::size_t num_members, std::chrono::microseconds max_wait,
          SealFn on_seal);

  /// Stamp `req.enqueued` and append the request to the open batch. Throws
  /// lbnn::Error, leaving `req` untouched, when req.inputs.size() !=
  /// num_inputs. The caller sets the sink, deadline and trace id. When
  /// `opened_batch` is non-null it is set to whether this request started a
  /// new open batch (i.e. a new seal deadline now exists) — the engine only
  /// needs to re-arm its timekeeper in that case.
  void submit(Request&& req, bool* opened_batch = nullptr);

  /// Seal deadline of the currently open batch, if one is open.
  std::optional<TimePoint> deadline() const;

  /// Seal the open batch if its deadline has passed at `now`.
  void seal_if_expired(TimePoint now);

  /// Seal whatever is open regardless of deadline (shutdown / drain).
  void flush();

  /// Requests sitting in the open (not yet sealed) batch. Snapshot only — by
  /// the time the caller looks, a concurrent submit may have sealed it.
  std::size_t open_count() const;

  std::size_t lane_capacity() const { return lane_capacity_; }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_members() const { return num_members_; }

 private:
  /// Stamp member slots onto a batch about to be handed to on_seal_.
  Batch finish(std::vector<Request>&& requests) const;

  ClockSource& clock_;
  const std::size_t num_inputs_;
  const std::size_t lane_capacity_;
  const std::size_t num_members_;
  const std::chrono::microseconds max_wait_;
  const SealFn on_seal_;

  mutable std::mutex mu_;
  std::vector<Request> open_;
  TimePoint open_deadline_{};
};

}  // namespace lbnn::runtime
