// Multi-tenant engine registry: the lifecycle layer the server frontend
// drives.
//
// One Tenant owns one isolated prefetching stack — a PrefetchEngine, or
// a ShardedEngine for large tenants — plus the tenant's name and a
// per-tenant mutex that serializes every mutating call.  The
// registry maps client-chosen 16-bit tenant ids to live tenants and owns
// the open/close/restore state machine (docs/server.md, "Tenant
// lifecycle"):
//
//     (absent) --open--> OPEN --close--> (absent)
//        |  open(dup)      |  restore(bad blob)
//        +--> kExists      +--> kBadSnapshot, state UNCHANGED
//
// Lifecycle guarantees, each pinned by tests/server/tenant_registry_test:
//   - duplicate open on a live id is rejected and the live tenant is
//     untouched;
//   - restore() builds a FRESH engine from the tenant's config, restores
//     the blob into it, and only swaps it in on success — a foreign or
//     corrupt blob leaves the learned state exactly as it was;
//   - close() first unlinks the id (new lookups fail), then acquires the
//     tenant mutex, so an in-flight ACCESS_MANY batch drains before the
//     engine is torn down.  shared_ptr keeps the tenant alive for any
//     handler that resolved it before the unlink.
//
// Threading: the registry map is guarded by its own mutex; Tenant
// mutating methods require the tenant mutex (clang -Werror=thread-safety
// enforces both).  stats() is the exception — it reads the lock-free
// observability cells and is safe from any thread, which is what the
// /metrics scrape path uses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "util/thread_annotations.hpp"

namespace pfp::engine {

/// Typed lifecycle outcomes (the wire layer maps these onto its error
/// vocabulary one-to-one).
enum class TenantStatus {
  kOk,
  kExists,        ///< open() on a live id
  kNoSuchTenant,  ///< lookup/close on an absent id
  kBadConfig,     ///< engine::validate rejected the tenant config
  kBadSnapshot,   ///< restore() blob rejected; tenant state unchanged
  kUnsupported,   ///< snapshot/restore on a sharded tenant
};

struct TenantConfig {
  std::string name;  ///< metrics label (Prometheus tenant="...")
  EngineConfig engine;
  /// 0 or 1 = a single PrefetchEngine; >= 2 = ShardedEngine with this
  /// many shards (contiguous stream runs per shard, the
  /// scale-out-replicas shape — see sharded_engine.hpp).
  std::uint32_t shards = 0;
};

/// Resolves a policy kind name ("tree-next-limit", "markov", ...) into
/// `config.engine.policy.kind`.  kBadConfig with *detail naming the junk
/// on an unknown name.  Lives here (not in the server) so the server
/// layer never includes core/ directly.
TenantStatus set_policy_by_name(TenantConfig& config, const std::string& name,
                                std::string* detail);

/// One tenant's isolated engine stack.  Mutating calls are serialized by
/// mu() — the server's frame handler locks it per request, so a tenant
/// driven from several connections still sees one total order.
class Tenant {
 public:
  /// Builds the engine(s); throws std::invalid_argument on a bad config,
  /// including an oracle policy (perfect-selector), which needs the
  /// future and cannot serve online.  The registry turns that into
  /// kBadConfig.
  explicit Tenant(TenantConfig config);

  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }
  [[nodiscard]] const TenantConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool sharded() const noexcept { return sharded_ != nullptr; }

  /// The per-tenant serialization mutex; callers lock it around every
  /// mutating call below (PFP_REQUIRES enforced).
  [[nodiscard]] util::Mutex& mu() noexcept PFP_RETURN_CAPABILITY(mu_) {
    return mu_;
  }

  /// One access through the tenant's state machine.  Sharded tenants
  /// route asynchronously: the result is empty (async() semantics as in
  /// access_many).
  AccessResult access(trace::BlockId block) PFP_REQUIRES(mu_);

  /// A whole batch.  Plain tenants run it synchronously and return exact
  /// per-batch counts; sharded tenants stage/route it and return zeroed
  /// counts (STATS is the source of truth once flushed).
  BatchResult access_many(std::span<const trace::BlockId> blocks)
      PFP_REQUIRES(mu_);

  /// Deterministic metrics; sharded tenants flush and merge (so this
  /// waits for the workers to drain).
  [[nodiscard]] Metrics metrics() PFP_REQUIRES(mu_);

  /// Live observability view; any thread — this is the /metrics scrape
  /// path.  Sharded tenants read the lock-free cells directly; plain
  /// tenants briefly take mu() because restore() can swap the engine
  /// (and its cells) out from under an unlocked reader.
  [[nodiscard]] obs::EngineStats stats() const;

  /// Occupancy fraction of the busiest shard ring in [0, 1]; always 0
  /// for plain tenants.  The server's advisory backpressure flag reads
  /// this (docs/server.md, "Backpressure contract").
  [[nodiscard]] double queue_pressure() const;

  /// Persists durable state (PFEG stream).  kUnsupported for sharded
  /// tenants (per-shard predictor state does not concatenate).
  TenantStatus snapshot(std::ostream& out, std::string* detail)
      PFP_REQUIRES(mu_);

  /// Restores a PFEG blob into a freshly built engine and swaps it in
  /// on success; on ANY failure the previous engine keeps serving and
  /// *detail names the reason.
  TenantStatus restore(std::istream& in, std::string* detail)
      PFP_REQUIRES(mu_);

  /// Sharded tenants: drain rings so metrics()/teardown are exact.
  void flush() PFP_REQUIRES(mu_);

 private:
  TenantConfig config_;
  // mutable so stats() const can guard the engine-pointer read against a
  // concurrent restore() swap.
  mutable util::Mutex mu_;
  // Exactly one of the two is non-null (plain vs sharded tenant).
  std::unique_ptr<PrefetchEngine> engine_ PFP_GUARDED_BY(mu_);
  std::unique_ptr<ShardedEngine> sharded_;
};

/// Id -> tenant map plus the lifecycle rules above.  All methods are
/// safe from any thread.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Opens a tenant under a client-chosen id.  kExists if the id is
  /// live; kBadConfig (with *detail from engine::validate) if the
  /// config is rejected.
  TenantStatus open(std::uint16_t id, TenantConfig config,
                    std::string* detail);

  /// The live tenant for an id, or null.
  [[nodiscard]] std::shared_ptr<Tenant> find(std::uint16_t id) const;

  /// Unlinks the id, then acquires the tenant mutex so any in-flight
  /// batch drains before the engine is destroyed (sharded tenants are
  /// also flushed).  kNoSuchTenant if the id is not live.
  TenantStatus close(std::uint16_t id);

  /// Stable snapshot of the live (id, tenant) pairs, id-ascending — the
  /// /metrics renderer iterates this.
  [[nodiscard]] std::vector<std::pair<std::uint16_t, std::shared_ptr<Tenant>>>
  tenants() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable util::Mutex mu_;
  std::map<std::uint16_t, std::shared_ptr<Tenant>> tenants_
      PFP_GUARDED_BY(mu_);
};

}  // namespace pfp::engine
