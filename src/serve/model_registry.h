// Named-model registry for the serving runtime, with versioned entries
// and an atomic active-version pointer.
//
// A registry entry owns everything one served model needs: the Network
// built from a model-zoo architecture (optionally restored from a
// checkpoint), any deployment transforms its backend requires (BN folding
// + weight clustering for the spike path), and the Backend instance that
// executes batches. Once add() returns, the entry is immutable — serving
// never retrains, requantizes, or reprograms — which is what makes the
// lock-free read path of the batchers sound.
//
// Versioning: names are "base[@version]" ("lenet-mini@v2"; a bare name
// is the unversioned spelling, version ""). Every registered name is a
// distinct immutable entry; re-registering a name throws. Each base has
// one *active* version — the first registered version of a base becomes
// active, later ones register standby — and resolve() maps a bare base
// name to the active entry while an explicit "base@version" pins that
// exact entry. set_active() flips the pointer under the registry lock:
// lookups that already resolved keep their entry (map nodes are stable
// and entries are never removed), so in-flight micro-batch windows
// finish on the version they started on and a flip never drops a
// request. Lifecycle states (serve/rollout.h drives them): kActive
// serves bare-name traffic, kStandby only explicit-version traffic,
// kShadow is a rollout candidate mirroring a slice of live traffic, and
// kQuarantined is a rolled-back version refusing new requests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "nn/network.h"
#include "serve/backend.h"
#include "serve/protocol.h"

namespace qsnc::serve {

enum class BackendKind { kFp32, kQuant, kSnc };

/// Parses "fp32" | "quant" | "snc"; throws std::invalid_argument otherwise.
BackendKind parse_backend_kind(const std::string& name);
const char* backend_kind_name(BackendKind kind);

/// Per-image input shape [C, H, W] of a model-zoo architecture name
/// (lenet[-mini] | alexnet[-mini] | resnet[-mini]); throws on unknown.
nn::Shape architecture_input_shape(const std::string& architecture);

/// Splits "base[@version]" into {base, version} (version "" when bare).
/// Purely lexical: "lenet@v2" -> {"lenet", "v2"}, "lenet" -> {"lenet", ""}.
std::pair<std::string, std::string> split_versioned_name(
    const std::string& name);

/// The base half of a possibly-versioned model name ("lenet@v2" ->
/// "lenet") — what routing hashes and input-shape lookups key on, so a
/// version flip never moves a sticky session.
std::string base_model_name(const std::string& name);

/// Lifecycle state of one registered version (see header comment).
enum class VersionState : uint8_t {
  kActive = 0,
  kStandby = 1,
  kShadow = 2,
  kQuarantined = 3,
};

struct ModelConfig {
  /// Model-zoo architecture: lenet[-mini] | alexnet[-mini] | resnet[-mini].
  std::string architecture = "lenet-mini";
  /// Shard-pool width: the registry builds this many independent
  /// network+backend instances from the same seed/checkpoint, and
  /// ServeCore runs one batcher lane per shard. Shards are bit-identical
  /// by construction, so which lane serves a request is unobservable in
  /// the prediction. Must be >= 1.
  int shards = 1;
  /// Optional nn::save_state checkpoint to restore; empty serves the
  /// deterministic fresh initialization from `init_seed` (useful for load
  /// tests and demos — predictions are still reproducible).
  std::string state_path;
  BackendKind backend = BackendKind::kFp32;
  /// Signal bits (quant, snc) and weight bits (snc).
  int bits = 4;
  uint64_t init_seed = 1;
  /// Replica count of an snc fault-diversity pool
  /// (snc_health.per_replica_seeds);
  /// <= 0 uses the thread pool size. Other snc deployments program one
  /// system.
  int snc_replicas = 0;

  // --- snc device non-idealities + fault recovery ----------------------
  /// Programming-variation / stuck-fault rates injected into every
  /// replica's devices (0 = ideal devices, the historical behavior).
  double snc_variation_sigma = 0.0;
  double snc_stuck_on_rate = 0.0;
  double snc_stuck_off_rate = 0.0;
  /// Closed-loop write-verify programming with differential compensation.
  bool snc_write_verify = false;
  /// Spare columns per crossbar for fault-aware remapping.
  int64_t snc_spare_cols = 0;
  /// Master seed for device draws (per-replica streams when
  /// snc_health.per_replica_seeds is set).
  uint64_t snc_seed = 7;
  /// Replica canary / quarantine / quant-fallback monitoring.
  ReplicaHealthConfig snc_health;
};

class ModelRegistry {
 public:
  ModelRegistry();
  ~ModelRegistry();
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Builds and registers a model under `name` ("base[@version]"). For
  /// kQuant the network gets a signal quantizer; for kSnc it is
  /// BN-folded, weight-clustered to the N-bit grid, and programmed into
  /// SncSystem replicas. The first version registered for a base becomes
  /// its active version; later ones register standby. Throws
  /// std::invalid_argument on duplicate names (versions are immutable
  /// once registered), unknown architectures, or checkpoint/shape
  /// mismatches.
  Backend& add(const std::string& name, const ModelConfig& config);

  /// add() with the checkpoint supplied as an in-memory save_state image
  /// instead of config.state_path (the socket hot-load path). The entry
  /// is fully built — magic/version/CRC validated, every shard restored
  /// and programmed — before anything registers, so a corrupt or
  /// truncated image throws (std::runtime_error with the CRC / version /
  /// decode reason) and leaves the registry untouched; a model is never
  /// half-registered.
  Backend& add_from_bytes(const std::string& name,
                          const ModelConfig& config,
                          const std::vector<uint8_t>& state_bytes);

  /// Maps a request's model name to a registry key: an explicit
  /// "base@version" returns itself when registered, a bare name returns
  /// the base's active version's key. Returns "" when nothing matches —
  /// this is the non-throwing lookup the serving hot path uses.
  std::string resolve(const std::string& name) const;

  /// Flips `base`'s active-version pointer to registered entry `key`
  /// (which must belong to `base` and not be quarantined). The previous
  /// active version demotes to kStandby. Throws std::invalid_argument on
  /// a bad base/key.
  void set_active(const std::string& base, const std::string& key);

  /// Lifecycle state of one registered version (rollout controller
  /// transitions; set_state refuses to create or remove kActive — that
  /// is set_active's job). Throws on unknown keys.
  VersionState state(const std::string& key) const;
  void set_state(const std::string& key, VersionState state);

  /// Active version key for `base` ("" when the base is unknown).
  std::string active_key(const std::string& base) const;

  /// One (base, active version) label per base — the health-ack payload
  /// that tells the router tier which version answers bare-name traffic.
  std::vector<ModelVersionLabel> active_versions() const;

  bool contains(const std::string& name) const;

  /// Accessors resolve through resolve(): bare names hit the active
  /// version, explicit "base@version" names pin that entry. Throw
  /// std::invalid_argument when nothing matches. The one-argument
  /// backend() form is shard 0 (the pre-shard API).
  Backend& backend(const std::string& name) const;
  Backend& backend(const std::string& name, size_t shard) const;
  size_t num_shards(const std::string& name) const;
  const ModelConfig& config(const std::string& name) const;
  const nn::Shape& input_shape(const std::string& name) const;

  /// Registered keys, in map order.
  std::vector<std::string> names() const;

 private:
  struct Entry;
  std::unique_ptr<Entry> build_entry(const std::string& name,
                                     const ModelConfig& config,
                                     const std::vector<uint8_t>* state_bytes);
  Backend& insert_entry(const std::string& name,
                        std::unique_ptr<Entry> entry);
  const Entry& entry(const std::string& name) const;  // callers hold mu_
  std::string resolve_locked(const std::string& name) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::map<std::string, std::string> active_;  // base -> entry key
};

}  // namespace qsnc::serve
