#include "runtime/serve_stats.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace lbnn::runtime {

void LatencyHistogram::record(std::uint64_t micros) {
  std::size_t bucket = 0;
  if (micros > 0) {
    bucket = static_cast<std::size_t>(64 - countl_zero64(micros));
    if (bucket >= buckets_.size()) bucket = buckets_.size() - 1;
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

std::uint64_t LatencyHistogram::percentile_us(double p) const {
  if (count_ == 0) return 0;
  // Rank of the p-th percentile sample, 1-based, clamped to [1, count].
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return i == 0 ? 0 : (i >= 63 ? ~0ull : (1ull << i) - 1);
    }
  }
  return ~0ull;
}

namespace {

/// Sum the counters (utilization is a weighted mean; callers track it).
void add_counts(SimCounters& into, const SimCounters& from) {
  into.wavefronts += from.wavefronts;
  into.macro_cycles += from.macro_cycles;
  into.clock_cycles += from.clock_cycles;
  into.lpe_computes += from.lpe_computes;
  into.route_writes += from.route_writes;
  into.input_reads += from.input_reads;
  into.feedback_words += from.feedback_words;
}

PhaseStats phase_stats(const LatencyHistogram& h) {
  PhaseStats p;
  p.p50_us = h.percentile_us(50.0);
  p.p99_us = h.percentile_us(99.0);
  p.count = h.count();
  return p;
}

double per_second(std::uint64_t n, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0;
}

}  // namespace

void ServeLedger::record_queue_depth(std::size_t depth) {
  if (depth > queue_depth_hwm_) queue_depth_hwm_ = depth;
}

void ServeLedger::record_batch(const std::vector<MemberSlot>& members,
                               const BatchRecord& batch) {
  std::uint64_t ran = 0;
  std::int64_t first_done = 0;
  std::int64_t last_done = 0;
  for (const MemberSlot& slot : members) {
    if (!slot.ran) continue;
    if (ran == 0 || slot.done_at_us < first_done) first_done = slot.done_at_us;
    if (ran == 0 || slot.done_at_us > last_done) last_done = slot.done_at_us;
    ++ran;
    if (slot.stolen) ++steals_;
    if (slot.hedge_won) ++hedge_wins_;
    member_hist_.record(slot.service_us);
    if (member_samples_.size() < kMemberSampleCap) {
      member_samples_.push_back(slot.service_us);
    }
    add_counts(sim_, slot.sim);
    util_weight_ += slot.sim.lpe_utilization * static_cast<double>(slot.sim.wavefronts);
  }
  member_runs_ += ran;
  if (ran > 1) {
    straggler_hist_.record(static_cast<std::uint64_t>(last_done - first_done));
  }
  if (batch.lane_capacity == 0) return;
  ++batches_;
  samples_ += batch.latencies_us.size();
  lanes_offered_ += batch.lane_capacity;
  if (batch.latencies_us.empty()) return;
  for (const std::uint64_t us : batch.latencies_us) hist_.record(us);
  requests_ += batch.latencies_us.size();
  deadline_met_ += batch.deadline_met;
  for (const std::uint64_t us : batch.assembly_us) assembly_hist_.record(us);
  queue_wait_hist_.record(batch.queue_wait_us);
  execution_hist_.record(batch.execution_us);
  finalize_hist_.record(batch.finalize_us);
}

void ServeLedger::merge(const ServeLedger& other) {
  hist_.merge(other.hist_);
  member_hist_.merge(other.member_hist_);
  const std::size_t room = kMemberSampleCap - member_samples_.size();
  member_samples_.insert(
      member_samples_.end(), other.member_samples_.begin(),
      other.member_samples_.begin() +
          static_cast<std::ptrdiff_t>(std::min(room, other.member_samples_.size())));
  straggler_hist_.merge(other.straggler_hist_);
  assembly_hist_.merge(other.assembly_hist_);
  queue_wait_hist_.merge(other.queue_wait_hist_);
  execution_hist_.merge(other.execution_hist_);
  finalize_hist_.merge(other.finalize_hist_);
  requests_ += other.requests_;
  batches_ += other.batches_;
  samples_ += other.samples_;
  lanes_offered_ += other.lanes_offered_;
  queue_depth_hwm_ = std::max(queue_depth_hwm_, other.queue_depth_hwm_);
  shed_ += other.shed_;
  expired_ += other.expired_;
  deadline_met_ += other.deadline_met_;
  member_runs_ += other.member_runs_;
  steals_ += other.steals_;
  hedges_launched_ += other.hedges_launched_;
  hedge_wins_ += other.hedge_wins_;
  hedge_wasted_us_ += other.hedge_wasted_us_;
  add_counts(sim_, other.sim_);
  util_weight_ += other.util_weight_;
}

template <typename Report>
void ServeLedger::fill_shared(Report& r, double wall_seconds) const {
  r.requests = requests_;
  r.batches = batches_;
  r.samples = samples_;
  r.lanes_offered = lanes_offered_;
  r.lane_occupancy = lanes_offered_ == 0 ? 0.0
                                         : static_cast<double>(samples_) /
                                               static_cast<double>(lanes_offered_);
  r.p50_latency_us = hist_.percentile_us(50.0);
  r.p99_latency_us = hist_.percentile_us(99.0);
  r.shed = shed_;
  r.expired = expired_;
  r.deadline_met = deadline_met_;
  r.goodput_per_sec = per_second(deadline_met_, wall_seconds);
  r.member_runs = member_runs_;
  r.steals = steals_;
  r.hedges_launched = hedges_launched_;
  r.hedge_wins = hedge_wins_;
  r.hedge_wasted_us = hedge_wasted_us_;
  r.phases.assembly_wait = phase_stats(assembly_hist_);
  r.phases.queue_wait = phase_stats(queue_wait_hist_);
  r.phases.execution = phase_stats(execution_hist_);
  r.phases.finalize = phase_stats(finalize_hist_);
}

ModelReport ServeLedger::model_report(double wall_seconds) const {
  ModelReport r;
  fill_shared(r, wall_seconds);
  r.queue_depth_hwm = queue_depth_hwm_;
  return r;
}

ServeReport ServeLedger::serve_report(double wall_seconds) const {
  ServeReport r;
  fill_shared(r, wall_seconds);
  r.wall_seconds = wall_seconds;
  r.requests_per_sec = per_second(requests_, wall_seconds);
  r.member_p50_us = member_hist_.percentile_us(50.0);
  r.member_p99_us = member_hist_.percentile_us(99.0);
  if (!member_samples_.empty()) {
    std::vector<std::uint64_t> sorted(member_samples_);
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&sorted](double p) {
      std::size_t r = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(sorted.size()));
      return sorted[r < sorted.size() ? r : sorted.size() - 1];
    };
    r.member_p50_exact_us = rank(50.0);
    r.member_p99_exact_us = rank(99.0);
  }
  r.straggler_gap_p50_us = straggler_hist_.percentile_us(50.0);
  r.straggler_gap_p99_us = straggler_hist_.percentile_us(99.0);
  r.sim = sim_;
  r.sim.lpe_utilization =
      sim_.wavefronts == 0 ? 0.0 : util_weight_ / static_cast<double>(sim_.wavefronts);
  return r;
}

void LedgerSnapshot::merge(const LedgerSnapshot& other) {
  wall_seconds = std::max(wall_seconds, other.wall_seconds);
  for (const ModelLedger& row : other.models) {
    auto it = std::find_if(models.begin(), models.end(),
                           [&](const ModelLedger& m) { return m.name == row.name; });
    if (it == models.end()) {
      models.push_back(row);
    } else {
      it->ledger.merge(row.ledger);
    }
  }
}

ServeReport to_report(const LedgerSnapshot& snapshot) {
  ServeLedger total;
  for (const ModelLedger& row : snapshot.models) total.merge(row.ledger);
  ServeReport r = total.serve_report(snapshot.wall_seconds);
  r.per_model.reserve(snapshot.models.size());
  for (const ModelLedger& row : snapshot.models) {
    ModelReport m = row.ledger.model_report(snapshot.wall_seconds);
    m.name = row.name;
    m.weight = row.weight;
    m.queue_bound = row.queue_bound;
    r.per_model.push_back(std::move(m));
  }
  return r;
}

}  // namespace lbnn::runtime
