#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "lpu/simulator.hpp"
#include "runtime/batcher.hpp"
#include "runtime/clock.hpp"

namespace lbnn::runtime {

/// Log2-bucketed latency histogram over microseconds: bucket 0 holds 0 us,
/// bucket i >= 1 holds [2^(i-1), 2^i). 64 buckets cover every uint64 value,
/// so record() never saturates; percentiles are exact to within one octave,
/// which is the right resolution for serving dashboards (p99 of 370 us and
/// 510 us are the same operational fact).
class LatencyHistogram {
 public:
  void record(std::uint64_t micros);
  std::uint64_t count() const { return count_; }
  /// Upper bound (us) of the bucket containing the p-th percentile sample
  /// (0 < p <= 100). Returns 0 when the histogram is empty.
  std::uint64_t percentile_us(double p) const;
  /// Bucket-wise accumulate (exact: both sides use the same log2 buckets),
  /// so the merged percentiles are those of the union of the samples.
  void merge(const LatencyHistogram& other);

 private:
  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t count_ = 0;
};

/// Percentile summary of one lifecycle phase (see PhaseBreakdown).
struct PhaseStats {
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t count = 0;  ///< samples recorded (requests or batches)
};

/// Request-latency decomposition by lifecycle phase, derived from the same
/// transitions the trace stream records, so a p99 regression names the phase
/// that ate the budget instead of a single end-to-end number:
///   assembly_wait: request submit -> its batch sealing (request-weighted)
///   queue_wait:    batch seal -> a worker dispatching it (batch-weighted)
///   execution:     dispatch -> the batch's last member completing
///   finalize:      last member done -> outputs unpacked, as futures resolve
struct PhaseBreakdown {
  PhaseStats assembly_wait;
  PhaseStats queue_wait;
  PhaseStats execution;
  PhaseStats finalize;
};

/// Per-model slice of a ServeReport: one row per loaded model, so the
/// weighted-fair scheduler's isolation properties are observable (a starved
/// model shows up as a high p99 and a deep queue high-water mark) and so is
/// the SLO subsystem (shed/expired counters, on-deadline completions).
struct ModelReport {
  std::string name;
  std::uint32_t weight = 1;       ///< QoS weight (stride scheduling share)
  std::size_t queue_bound = 0;    ///< admission bound (outstanding requests)
  std::uint64_t requests = 0;     ///< completed single-sample requests
  std::uint64_t batches = 0;      ///< sealed batches executed
  std::uint64_t samples = 0;      ///< lanes actually occupied across batches
  std::uint64_t lanes_offered = 0;
  double lane_occupancy = 0.0;
  std::uint64_t p50_latency_us = 0;
  std::uint64_t p99_latency_us = 0;
  /// Deepest the model's ready queue (dispatchable work items) ever got.
  std::size_t queue_depth_hwm = 0;
  /// Admission rejections because the estimated drain time already exceeded
  /// the request deadline (SubmitStatus::kDeadlineUnmeetable / the blocking
  /// path's DeadlineExceeded throw).
  std::uint64_t shed = 0;
  /// Requests dropped at dequeue because their deadline had already passed
  /// (futures failed with DeadlineExceeded, no simulation work spent).
  std::uint64_t expired = 0;
  /// Completions that made their deadline (deadline-less requests count).
  std::uint64_t deadline_met = 0;
  /// deadline_met / the stats window's wall-clock seconds (the same window
  /// as the engine totals).
  double goodput_per_sec = 0.0;
  /// Member work items this model's batches executed (>= batches; one per
  /// assembly member per batch that ran).
  std::uint64_t member_runs = 0;
  /// Member work items executed by a worker that did NOT dequeue the batch —
  /// idle-worker stealing hiding a straggler member.
  std::uint64_t steals = 0;
  /// Speculative duplicates launched against a straggling last member
  /// (EngineOptions::hedging). A hedged member still counts exactly once in
  /// member_runs — the duplicate is redundancy, never extra logical work.
  std::uint64_t hedges_launched = 0;
  /// Hedges whose duplicate beat the original to the result claim.
  std::uint64_t hedge_wins = 0;
  /// Execution time burned by losing copies (original or duplicate) whose
  /// result was discarded — the price paid for the tail-latency insurance.
  std::uint64_t hedge_wasted_us = 0;
  /// Per-phase latency decomposition for this model's traffic.
  PhaseBreakdown phases;
};

/// An engine's (or a fleet's) serving stats: the merge of its ledgers, all
/// values since construction or the last reset_stats() (see to_report).
struct ServeReport {
  std::uint64_t requests = 0;  ///< completed single-sample requests
  std::uint64_t batches = 0;   ///< sealed batches executed
  std::uint64_t samples = 0;   ///< lanes actually occupied across batches
  std::uint64_t lanes_offered = 0;  ///< lane capacity summed over batches
  /// samples / lanes_offered — how full the 2m-lane datapath words were.
  double lane_occupancy = 0.0;
  std::uint64_t p50_latency_us = 0;  ///< request submit -> result latency
  std::uint64_t p99_latency_us = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  /// SLO counters: admission rejections (shed), dequeue drops (expired), and
  /// completions that made their deadline (deadline-less requests count as
  /// met — completing them is always good work).
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t deadline_met = 0;
  /// On-deadline completions per second — the number that must not degrade
  /// when admission shedding turns on (see bench/serve_overload).
  double goodput_per_sec = 0.0;
  /// Member-level execution counters (see bench/serve_stealing): work items
  /// run, how many ran on a worker other than their batch's claimer, the
  /// per-member service-time percentiles, and the batch straggler gap — the
  /// time between a batch's first and last member completing (only batches
  /// with >= 2 executed members record a gap; stealing exists to shrink it).
  std::uint64_t member_runs = 0;
  std::uint64_t steals = 0;
  /// Straggler-hedging ledger (see ModelReport for field semantics). The
  /// invariant hedge_wins <= hedges_launched <= member_runs holds whenever
  /// every hedged member actually executes (no failures/expiry skips).
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_wasted_us = 0;
  std::uint64_t member_p50_us = 0;
  std::uint64_t member_p99_us = 0;
  /// Exact (sample-based) member service percentiles, next to the octave-
  /// bucketed ones above: the histogram is the right dashboard resolution,
  /// but a speedup gate quantized to powers of two is a coin flip — a true
  /// 3.5x kernel ratio reads as 2x or 4x depending on where the times land
  /// relative to bucket edges. Raw samples are kept up to a fixed cap (see
  /// ServeLedger::kMemberSampleCap); past it the exact percentiles describe
  /// the first cap-many member runs while the histogram stays complete.
  /// bench/serve_simd gates on these.
  std::uint64_t member_p50_exact_us = 0;
  std::uint64_t member_p99_exact_us = 0;
  std::uint64_t straggler_gap_p50_us = 0;
  std::uint64_t straggler_gap_p99_us = 0;
  /// Per-phase latency decomposition across every model (see PhaseBreakdown).
  PhaseBreakdown phases;
  /// Simulator counters summed over every member run. lpe_utilization is the
  /// wavefront-weighted mean of the per-run utilizations.
  SimCounters sim;
  /// One row per currently loaded model (load order). Models unloaded since
  /// startup are folded into one persistent "(retired)" row at the end, so
  /// metrics spanning an unload or version flip keep their history.
  std::vector<ModelReport> per_model;
};

/// Everything one finalized batch contributes to a ServeLedger, recorded in
/// one call (see ServeLedger::record_batch).
struct BatchRecord {
  /// Lane capacity of the batch's datapath word. 0 records no batch: every
  /// request expired at dequeue and the simulator never ran.
  std::size_t lane_capacity = 0;
  /// Per completed request: its latency (submit -> finalize) and its
  /// assembly wait (submit -> seal). Both empty for a failed batch, which
  /// spent its lanes but produced no samples.
  std::vector<std::uint64_t> latencies_us;
  std::vector<std::uint64_t> assembly_us;
  /// How many of the completions made their deadline.
  std::uint64_t deadline_met = 0;
  /// Batch-weighted phases (see PhaseBreakdown); recorded only when the
  /// batch completed requests.
  std::uint64_t queue_wait_us = 0;
  std::uint64_t execution_us = 0;
  std::uint64_t finalize_us = 0;
};

/// The serving stats of one model: the one recorder every engine event goes
/// to. A plain mergeable value with no lock of its own — the engine keeps one
/// per loaded model behind that model's mutex, folds a model's ledger into a
/// retired one on unload, and builds engine totals (and the Router fleet
/// totals) by merging ledgers. Histograms merge bucket-wise and the counters
/// add, so a merged percentile is the percentile of the union of the samples,
/// not an estimate. The exact member samples merge up to kMemberSampleCap.
class ServeLedger {
 public:
  /// Raw member service samples kept for the exact percentiles (8 bytes
  /// each; recording stops at the cap, the histogram never does).
  static constexpr std::size_t kMemberSampleCap = 1 << 18;

  void record_shed() { ++shed_; }
  void record_expired(std::size_t n) { expired_ += n; }
  /// Ready-queue depth (in member work items) observed after an enqueue;
  /// keeps the high-water mark.
  void record_queue_depth(std::size_t depth);
  /// A speculative duplicate was launched against a straggling member.
  void record_hedge_launch() { ++hedges_launched_; }
  /// A losing copy (original or duplicate) finished and discarded
  /// `wasted_us` of execution time.
  void record_hedge_waste(std::uint64_t wasted_us) { hedge_wasted_us_ += wasted_us; }
  /// One finalized batch: its member slots (member runs, steals, hedge wins,
  /// service times, simulator counters and — with >= 2 executed members —
  /// the straggler gap between the first and last to finish), then `batch`.
  void record_batch(const std::vector<MemberSlot>& members,
                    const BatchRecord& batch);

  /// Fold `other` in. The queue-depth high-water mark takes the max;
  /// everything else adds.
  void merge(const ServeLedger& other);

  std::uint64_t requests() const { return requests_; }
  std::uint64_t shed() const { return shed_; }

  /// The per-model row (identity fields left empty); goodput is
  /// deadline_met / wall_seconds.
  ModelReport model_report(double wall_seconds) const;
  /// The engine-wide fields (per_model left empty); rates are counts /
  /// wall_seconds.
  ServeReport serve_report(double wall_seconds) const;

 private:
  /// Fill the fields ModelReport and ServeReport share.
  template <typename Report>
  void fill_shared(Report& r, double wall_seconds) const;

  LatencyHistogram hist_;
  LatencyHistogram member_hist_;
  std::vector<std::uint64_t> member_samples_;
  LatencyHistogram straggler_hist_;
  LatencyHistogram assembly_hist_;
  LatencyHistogram queue_wait_hist_;
  LatencyHistogram execution_hist_;
  LatencyHistogram finalize_hist_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t lanes_offered_ = 0;
  std::size_t queue_depth_hwm_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t deadline_met_ = 0;
  std::uint64_t member_runs_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t hedge_wasted_us_ = 0;
  SimCounters sim_;
  /// Sum of (lpe_utilization * wavefronts) per run; the reports divide by
  /// the summed wavefronts to recover the weighted mean.
  double util_weight_ = 0.0;
};

/// One report row's ledger with the identity fields the row carries.
struct ModelLedger {
  std::string name;
  std::uint32_t weight = 1;
  std::size_t queue_bound = 0;
  ServeLedger ledger;
};

/// An engine's stats at one instant (Engine::ledgers): each loaded model's
/// ledger in load order, then the "(retired)" aggregate once any model was
/// unloaded, and the wall-clock window since construction or the last
/// reset_stats().
struct LedgerSnapshot {
  std::vector<ModelLedger> models;
  double wall_seconds = 0.0;

  /// Merge another engine's snapshot in: rows merge by name (a row new to
  /// this snapshot is appended), and the window becomes the longer of the
  /// two — so fleet rates are merged counts over the longest shard window.
  void merge(const LedgerSnapshot& other);
};

/// Render a snapshot: the totals are the merge of every row's ledger, and
/// each row becomes one per_model entry.
ServeReport to_report(const LedgerSnapshot& snapshot);

}  // namespace lbnn::runtime
