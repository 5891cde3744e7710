#include "runtime/batcher.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/error.hpp"

namespace lbnn::runtime {

namespace {

/// Bits per BitVec storage word: pack and unpack move one 64 x 64 bit block
/// (64 lanes x 64 inputs or outputs) at a time.
constexpr std::size_t kBlock = 64;

/// Transpose a 64x64 bit matrix in place: bit c of word r moves to bit r of
/// word c. Six rounds of block swaps, 32x32 down to 1x1.
void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < kBlock; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

/// bits[from + i] as bit i of the result, for i < count (count <= 64).
std::uint64_t gather_word(const std::vector<bool>& bits, std::size_t from,
                          std::size_t count) {
  const auto first = bits.begin() + static_cast<std::ptrdiff_t>(from);
  const auto last = first + static_cast<std::ptrdiff_t>(count);
  std::uint64_t w = 0;
  std::uint64_t bit = 1;
  // Mask, not branch: a branch on random data bits mispredicts half the time.
  for (auto it = first; it != last; ++it, bit <<= 1) {
    w |= bit & -static_cast<std::uint64_t>(*it);
  }
  return w;
}

/// Set bits[from + i] for every set bit i of w; bits is all-false on entry.
void scatter_word(std::uint64_t w, std::vector<bool>& bits, std::size_t from) {
  for (; w != 0; w &= w - 1) {
    bits[from + static_cast<std::size_t>(countr_zero64(w))] = true;
  }
}

}  // namespace

std::vector<BitVec> pack_requests(const std::vector<Request>& requests,
                                  std::size_t num_inputs) {
  for (const Request& req : requests) {
    LBNN_CHECK(req.inputs.size() == num_inputs, "request input arity mismatch");
  }
  const std::size_t lanes = requests.size();
  std::vector<BitVec> packed(num_inputs, BitVec(lanes));
  std::uint64_t block[kBlock];
  for (std::size_t lane0 = 0; lane0 < lanes; lane0 += kBlock) {
    const std::size_t block_lanes = std::min(kBlock, lanes - lane0);
    for (std::size_t pi0 = 0; pi0 < num_inputs; pi0 += kBlock) {
      const std::size_t block_pis = std::min(kBlock, num_inputs - pi0);
      // Word j holds lane lane0+j's inputs from pi0 on; lanes past the batch
      // stay zero, so the packed words' tail bits do too.
      for (std::size_t j = 0; j < kBlock; ++j) {
        block[j] = j < block_lanes
                       ? gather_word(requests[lane0 + j].inputs, pi0, block_pis)
                       : 0;
      }
      transpose64(block);
      for (std::size_t k = 0; k < block_pis; ++k) {
        packed[pi0 + k].set_word(lane0 / kBlock, block[k]);
      }
    }
  }
  return packed;
}

std::vector<std::vector<bool>> unpack_outputs(const std::vector<BitVec>& outputs,
                                              std::size_t num_requests) {
  for (const BitVec& out : outputs) {
    LBNN_CHECK(out.width() >= num_requests, "output word narrower than batch");
  }
  const std::size_t num_outputs = outputs.size();
  std::vector<std::vector<bool>> per_request(
      num_requests, std::vector<bool>(num_outputs, false));
  std::uint64_t block[kBlock];
  for (std::size_t lane0 = 0; lane0 < num_requests; lane0 += kBlock) {
    const std::size_t block_lanes = std::min(kBlock, num_requests - lane0);
    for (std::size_t po0 = 0; po0 < num_outputs; po0 += kBlock) {
      const std::size_t block_pos = std::min(kBlock, num_outputs - po0);
      for (std::size_t k = 0; k < kBlock; ++k) {
        block[k] = k < block_pos ? outputs[po0 + k].word(lane0 / kBlock) : 0;
      }
      transpose64(block);  // now word j holds lane lane0+j's outputs from po0 on
      for (std::size_t j = 0; j < block_lanes; ++j) {
        scatter_word(block[j], per_request[lane0 + j], po0);
      }
    }
  }
  return per_request;
}

Batcher::Batcher(ClockSource& clock, std::size_t num_inputs,
                 std::size_t lane_capacity, std::size_t num_members,
                 std::chrono::microseconds max_wait, SealFn on_seal)
    : clock_(clock),
      num_inputs_(num_inputs),
      lane_capacity_(lane_capacity),
      num_members_(num_members),
      max_wait_(max_wait),
      on_seal_(std::move(on_seal)) {
  LBNN_CHECK(lane_capacity_ > 0, "batcher needs at least one lane");
  LBNN_CHECK(num_members_ > 0, "batcher needs at least one assembly member");
  LBNN_CHECK(on_seal_ != nullptr, "batcher needs a seal sink");
}

Batch Batcher::finish(std::vector<Request>&& requests) const {
  Batch sealed;
  sealed.requests = std::move(requests);
  sealed.member_slots.assign(num_members_, MemberSlot{});
  return sealed;
}

void Batcher::submit(Request&& req, bool* opened_batch) {
  if (req.inputs.size() != num_inputs_) {
    throw Error("request has " + std::to_string(req.inputs.size()) +
                " input bits, model expects " + std::to_string(num_inputs_));
  }
  req.enqueued = clock_.now();

  std::vector<Request> full;
  bool opened = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty()) {
      open_deadline_ = req.enqueued + max_wait_;
      opened = true;
    }
    open_.push_back(std::move(req));
    if (open_.size() >= lane_capacity_) {
      full.swap(open_);
      opened = false;  // sealed inline; no deadline left to watch
    }
  }
  if (opened_batch != nullptr) *opened_batch = opened;
  // Seal outside the lock: on_seal_ feeds a queue that wakes workers, and a
  // worker must never contend with submitters on the batcher mutex.
  if (!full.empty()) on_seal_(finish(std::move(full)));
}

std::size_t Batcher::open_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return open_.size();
}

std::optional<TimePoint> Batcher::deadline() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (open_.empty()) return std::nullopt;
  return open_deadline_;
}

void Batcher::seal_if_expired(TimePoint now) {
  std::vector<Request> expired;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty() || now < open_deadline_) return;
    expired.swap(open_);
  }
  on_seal_(finish(std::move(expired)));
}

void Batcher::flush() {
  std::vector<Request> open;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty()) return;
    open.swap(open_);
  }
  on_seal_(finish(std::move(open)));
}

}  // namespace lbnn::runtime
