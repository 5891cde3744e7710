#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/compiler.hpp"
#include "lpu/multi_lpu.hpp"

namespace lbnn::runtime {

/// Structural 64-bit fingerprint of a (netlist, compile options) pair: FNV-1a
/// over the netlist's ops/fanins/outputs and every option that changes the
/// emitted program. Two netlists that fingerprint equal compile to the same
/// Program, so the fingerprint is a sound cache key (names are included — a
/// renamed output is a different serving contract even if the logic matches).
std::uint64_t fingerprint(const Netlist& nl, const CompileOptions& opt);

struct CacheStats {
  std::uint64_t hits = 0;  ///< LRU hits plus joins on an in-flight compile
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< LRU pressure plus explicit erase()
  std::size_t entries = 0;
};

/// Fingerprint-keyed LRU cache of compiled programs, so repeated loads of the
/// same model (common in serving: replicas, restarts, A/B pairs) skip the
/// compile flow entirely. Values are shared_ptr<const ...>: an eviction never
/// invalidates a program an Engine is still serving from.
///
/// Single-LPU results and k-way parallel assemblies share one LRU (k is
/// folded into the key via parallel_key), so `capacity` bounds the total
/// count of compiled artifacts held. `capacity == 0` is a pass-through cache:
/// every load compiles (deduplicating concurrent same-key loads) but nothing
/// is retained.
///
/// Admission is lock-free with respect to compilation: the lock only guards
/// the maps. A miss publishes a per-key shared_future, compiles OUTSIDE the
/// lock, then fulfils the future — so concurrent loads of distinct models
/// compile in parallel, while concurrent same-key loads join the in-flight
/// future and the model compiles exactly once. A failed compile propagates
/// its exception to every joined waiter and clears the in-flight slot so a
/// later load can retry.
class ProgramCache {
 public:
  explicit ProgramCache(std::size_t capacity);

  /// `key_out`, when non-null, receives the entry's cache key (the caller
  /// needs it for erase() on unload; computing it re-hashes the netlist).
  std::shared_ptr<const CompileResult> get_or_compile(
      const Netlist& nl, const CompileOptions& opt,
      std::uint64_t* key_out = nullptr);
  std::shared_ptr<const ParallelCompileResult> get_or_compile_parallel(
      const Netlist& nl, const CompileOptions& opt, std::uint32_t k,
      std::uint64_t* key_out = nullptr);

  /// Cache key of a k-way parallel assembly compiled from a netlist whose
  /// single-LPU fingerprint is `single_fp` (distinct key space from k = 0).
  static std::uint64_t parallel_key(std::uint64_t single_fp, std::uint32_t k);

  /// Drop the entry for `key` (counted as an eviction). Used by model unload
  /// to release the cache's pin on a retired program. No-op on a key that is
  /// absent or only in flight; returns whether an entry was dropped.
  bool erase(std::uint64_t key);

  /// Test instrumentation: invoked once per actual compile, outside the cache
  /// lock, just before the compile flow runs. Not thread-safe to set while
  /// loads are in flight.
  void set_compile_hook(std::function<void()> hook) { compile_hook_ = std::move(hook); }

  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    /// Exactly one of the two is set, matching the key's k component.
    std::shared_ptr<const CompileResult> single;
    std::shared_ptr<const ParallelCompileResult> parallel;
    std::list<std::uint64_t>::iterator lru_it;
  };

  template <typename R>
  using InflightMap =
      std::unordered_map<std::uint64_t,
                         std::shared_future<std::shared_ptr<const R>>>;

  /// Returns the entry for `key`, marking it most-recent, or nullptr.
  Entry* lookup_locked(std::uint64_t key);
  void insert_locked(std::uint64_t key, Entry entry);

  /// The shared admission protocol: LRU hit, else join the key's in-flight
  /// compile, else compile OUTSIDE the lock and publish. `slot` maps an Entry
  /// to its R-typed field (for both lookup and insert); `do_compile` runs the
  /// actual compile flow.
  template <typename R, typename SlotFn, typename CompileFn>
  std::shared_ptr<const R> get_or_join(std::uint64_t key,
                                       InflightMap<R>& inflight, SlotFn slot,
                                       CompileFn do_compile);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, Entry> map_;
  /// Keys whose compile is running right now; latecomers join the future.
  InflightMap<CompileResult> inflight_single_;
  InflightMap<ParallelCompileResult> inflight_parallel_;
  CacheStats stats_;
  std::function<void()> compile_hook_;
};

}  // namespace lbnn::runtime
