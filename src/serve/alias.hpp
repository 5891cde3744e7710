#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"

namespace lbnn::serve {

/// Routing ledger for one alias (see BasicAliasTable::report).
struct AliasReport {
  std::uint64_t submitted = 0;   ///< requests routed through the alias
  std::uint64_t to_primary = 0;
  std::uint64_t to_canary = 0;
  std::uint64_t flips = 0;       ///< completed flip() calls
  std::uint32_t primary_weight = 1;
  std::uint32_t canary_weight = 0;
  bool has_canary = false;
};

/// Versioned model aliases with weighted canary splits, templated over the
/// serving frontend so the same table drives a single Engine
/// (Server = runtime::Engine, Handle = runtime::ModelHandle) or a sharded
/// fleet (Server = router::Router, Handle = router::RoutedHandle) — the two
/// expose the same submit/try_submit surface.
///
/// Clients address models by a stable alias ("jsc@prod"); versions are plain
/// models loaded under distinct names ("jsc_v1", "jsc_v2"), so a new version
/// loaded next to the old one reuses the engine's ProgramCache dedup
/// exactly like any other load. A canary rollout is:
///
///   table.publish("jsc@prod", v1);
///   table.set_canary("jsc@prod", v2, /*canary_weight=*/0, 1);  // 0% staged
///   table.set_split("jsc@prod", 1, 3);   // 25% of traffic to v2
///   engine.set_weight(v2, 1);            // optional matching QoS share
///   auto old = table.flip("jsc@prod");   // 100%: v2 is the new primary
///   engine.evict_idle(idle_cutoff);      // reaps v1 once its traffic ages out
///
/// The split is a deterministic two-way stride pick (the same arithmetic as
/// the engine's weighted-fair scheduler), so a w_c:w_p split is EXACT over
/// any aligned window of w_c + w_p requests — not probabilistic. Ties pick
/// the primary, and set_canary/set_split restart the stride cycle.
///
/// flip() atomically repoints the alias at the canary under the table lock:
/// every submit resolves the alias either entirely-before (old primary — the
/// engine still drains everything it accepted) or entirely-after (new
/// primary); nothing is dropped or double-routed. It returns the old primary
/// handle so the caller can retire it once idle.
///
/// Thread-safety: all methods may be called from any thread. Handle picks
/// run under the table mutex; the underlying submit runs outside it.
template <typename Server, typename Handle>
class BasicAliasTable {
 public:
  explicit BasicAliasTable(Server& server) : server_(&server) {}

  /// Create `alias` pointing at `h` with no canary (or repoint an existing
  /// alias, dropping its canary).
  void publish(const std::string& alias, Handle h) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entries_[alias];
    e.primary = Version{std::move(h), 1, 0};
    e.canary.reset();
  }

  /// Attach (or replace) a canary version. Traffic splits
  /// canary:primary = canary_weight:primary_weight; canary_weight 0 parks the
  /// canary with zero traffic (the 0% stage of a rollout), primary_weight 0
  /// sends everything to the canary without flipping. Both zero is invalid.
  void set_canary(const std::string& alias, Handle canary,
                  std::uint32_t canary_weight, std::uint32_t primary_weight) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entry(alias);
    check_weights(canary_weight, primary_weight);
    e.canary = Version{std::move(canary), canary_weight, 0};
    e.primary.weight = primary_weight;
    e.primary.pass = 0;
  }

  /// Re-weight an existing canary split (restarts the stride cycle, so the
  /// new ratio is exact from the next request on).
  void set_split(const std::string& alias, std::uint32_t canary_weight,
                 std::uint32_t primary_weight) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entry(alias);
    if (!e.canary) throw Error("alias '" + alias + "' has no canary");
    check_weights(canary_weight, primary_weight);
    e.canary->weight = canary_weight;
    e.canary->pass = 0;
    e.primary.weight = primary_weight;
    e.primary.pass = 0;
  }

  /// Promote the canary to primary (100% of traffic) and clear the canary
  /// slot. Returns the OLD primary's handle — still loaded, still draining
  /// whatever it accepted — so the caller can unload or evict_idle it.
  Handle flip(const std::string& alias) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entry(alias);
    if (!e.canary) throw Error("alias '" + alias + "' has no canary to flip to");
    Handle old = std::move(e.primary.handle);
    e.primary = Version{std::move(e.canary->handle), 1, 0};
    e.canary.reset();
    ++e.flips;
    return old;
  }

  /// Remove the alias (the versions behind it stay loaded). Returns false if
  /// the alias does not exist.
  bool drop(const std::string& alias) {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.erase(alias) != 0;
  }

  bool has(const std::string& alias) const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.count(alias) != 0;
  }

  /// The current primary handle (what a weight-ignoring client would get).
  Handle resolve(const std::string& alias) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(alias);
    if (it == entries_.end()) throw Error("unknown alias '" + alias + "'");
    return it->second.primary.handle;
  }

  AliasReport report(const std::string& alias) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(alias);
    if (it == entries_.end()) throw Error("unknown alias '" + alias + "'");
    const Entry& e = it->second;
    AliasReport r;
    r.submitted = e.submitted;
    r.to_primary = e.to_primary;
    r.to_canary = e.to_canary;
    r.flips = e.flips;
    r.primary_weight = e.primary.weight;
    r.has_canary = e.canary.has_value();
    r.canary_weight = e.canary ? e.canary->weight : 0;
    return r;
  }

  /// Blocking submit through the alias; the split is accounted per pick.
  std::future<std::vector<bool>> submit(
      const std::string& alias, std::vector<bool> inputs,
      runtime::TimePoint deadline = runtime::kNoDeadline) {
    Handle h = pick(alias);
    return server_->submit(h, std::move(inputs), deadline);
  }

  /// Non-blocking submit through the alias. The stride pick advances even if
  /// admission then refuses — the split is measured at dispatch, not at
  /// acceptance (a refusing canary should not warp the ratio for the
  /// requests around it).
  runtime::SubmitStatus try_submit(
      const std::string& alias, std::vector<bool> inputs,
      std::future<std::vector<bool>>* result,
      runtime::TimePoint deadline = runtime::kNoDeadline) {
    Handle h = pick(alias);
    return server_->try_submit(h, std::move(inputs), result, deadline);
  }

 private:
  /// Mirrors the engine's stride scheduler: stride = kScale / weight, lowest
  /// accumulated pass goes next. Two versions only, so no ready-list — just
  /// two counters.
  static constexpr std::uint64_t kScale = 1ull << 20;

  struct Version {
    Handle handle{};
    std::uint32_t weight = 1;
    std::uint64_t pass = 0;
  };
  struct Entry {
    Version primary;
    std::optional<Version> canary;
    std::uint64_t submitted = 0;
    std::uint64_t to_primary = 0;
    std::uint64_t to_canary = 0;
    std::uint64_t flips = 0;
  };

  Entry& entry(const std::string& alias) {
    auto it = entries_.find(alias);
    if (it == entries_.end()) throw Error("unknown alias '" + alias + "'");
    return it->second;
  }

  static void check_weights(std::uint32_t canary_weight,
                            std::uint32_t primary_weight) {
    if (canary_weight == 0 && primary_weight == 0)
      throw Error("alias split weights cannot both be zero");
  }

  Handle pick(const std::string& alias) {
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entry(alias);
    ++e.submitted;
    Version* chosen = &e.primary;
    if (e.canary && e.canary->weight > 0) {
      if (e.primary.weight == 0 || e.canary->pass < e.primary.pass)
        chosen = &*e.canary;  // ties go to the primary
    }
    chosen->pass += kScale / chosen->weight;
    if (chosen == &e.primary)
      ++e.to_primary;
    else
      ++e.to_canary;
    return chosen->handle;
  }

  Server* server_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Alias table over one Engine.
using AliasTable = BasicAliasTable<runtime::Engine, runtime::ModelHandle>;
/// Alias table over a sharded Router fleet: alias-aware dispatch composes
/// with p2c replica routing underneath.
using RoutedAliasTable = BasicAliasTable<router::Router, router::RoutedHandle>;

}  // namespace lbnn::serve
