#include "serve/model_registry.h"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/bn_folding.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "nn/rng.h"
#include "nn/serialize.h"

namespace qsnc::serve {

namespace {

struct Architecture {
  nn::Network (*factory)(nn::Rng&);
  nn::Shape input_chw;
};

Architecture resolve_architecture(const std::string& name) {
  if (name == "lenet") return {models::make_lenet, {1, 28, 28}};
  if (name == "lenet-mini") return {models::make_lenet_mini, {1, 28, 28}};
  if (name == "alexnet") return {models::make_alexnet, {3, 32, 32}};
  if (name == "alexnet-mini") {
    return {models::make_alexnet_mini, {3, 32, 32}};
  }
  if (name == "resnet") return {models::make_resnet, {3, 32, 32}};
  if (name == "resnet-mini") return {models::make_resnet_mini, {3, 32, 32}};
  throw std::invalid_argument(
      "ModelRegistry: unknown architecture '" + name +
      "' (lenet[-mini]|alexnet[-mini]|resnet[-mini])");
}

/// Registered names are "base[@version]": non-empty base, at most one
/// '@', non-empty version when the '@' is present.
void validate_name(const std::string& name) {
  const auto [base, version] = split_versioned_name(name);
  if (base.empty()) {
    throw std::invalid_argument("ModelRegistry: empty model name");
  }
  if (name.find('@') != std::string::npos && version.empty()) {
    throw std::invalid_argument("ModelRegistry: name '" + name +
                                "' has an empty version");
  }
  if (version.find('@') != std::string::npos) {
    throw std::invalid_argument("ModelRegistry: name '" + name +
                                "' has more than one '@'");
  }
}

}  // namespace

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "fp32") return BackendKind::kFp32;
  if (name == "quant") return BackendKind::kQuant;
  if (name == "snc") return BackendKind::kSnc;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (fp32|quant|snc)");
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kFp32: return "fp32";
    case BackendKind::kQuant: return "quant";
    case BackendKind::kSnc: return "snc";
  }
  return "?";
}

nn::Shape architecture_input_shape(const std::string& architecture) {
  return resolve_architecture(architecture).input_chw;
}

std::pair<std::string, std::string> split_versioned_name(
    const std::string& name) {
  const size_t at = name.find('@');
  if (at == std::string::npos) return {name, std::string()};
  return {name.substr(0, at), name.substr(at + 1)};
}

std::string base_model_name(const std::string& name) {
  return split_versioned_name(name).first;
}

struct ModelRegistry::Entry {
  ModelConfig config;
  nn::Shape input_chw;
  VersionState state = VersionState::kStandby;
  // One network+backend pair per shard, all built from the same
  // seed/checkpoint (Network caches forward state, so lanes cannot share
  // one instance). nets[i] is the network behind backends[i].
  std::vector<std::unique_ptr<nn::Network>> nets;
  std::vector<std::unique_ptr<Backend>> backends;
};

ModelRegistry::ModelRegistry() = default;
ModelRegistry::~ModelRegistry() = default;

std::unique_ptr<ModelRegistry::Entry> ModelRegistry::build_entry(
    const std::string& name, const ModelConfig& config,
    const std::vector<uint8_t>* state_bytes) {
  if (config.shards < 1) {
    throw std::invalid_argument("ModelRegistry: model '" + name +
                                "' needs shards >= 1");
  }
  const Architecture arch = resolve_architecture(config.architecture);

  auto entry = std::make_unique<Entry>();
  entry->config = config;
  entry->input_chw = arch.input_chw;

  // Every shard rebuilds from the same seed/checkpoint, so the pool is
  // bit-identical by construction: which shard serves a request is
  // unobservable in the prediction.
  for (int shard = 0; shard < config.shards; ++shard) {
    nn::Rng rng(config.init_seed);
    auto net = std::make_unique<nn::Network>(arch.factory(rng));
    if (state_bytes != nullptr) {
      nn::load_state_bytes(*net, *state_bytes,
                           "checkpoint for '" + name + "'");
    } else if (!config.state_path.empty()) {
      nn::load_state(*net, config.state_path);
    }

    std::unique_ptr<Backend> backend;
    switch (config.backend) {
      case BackendKind::kFp32:
        backend = std::make_unique<Fp32Backend>(*net, entry->input_chw);
        break;
      case BackendKind::kQuant:
        backend = std::make_unique<QuantBackend>(*net, entry->input_chw,
                                                 config.bits);
        break;
      case BackendKind::kSnc: {
        // Deployment order (see core/bn_folding.h): fold, cluster, program.
        core::fold_batchnorm(*net);
        core::WeightClusterConfig wc;
        wc.bits = config.bits;
        const auto results = core::apply_weight_clustering(*net, wc);
        snc::SncConfig snc_cfg;
        snc_cfg.signal_bits = config.bits;
        snc_cfg.weight_bits = config.bits;
        snc_cfg.weight_scales.clear();
        for (const auto& r : results) {
          snc_cfg.weight_scales.push_back(r.scale);
        }
        snc_cfg.input_scale = std::min(
            16.0f, static_cast<float>(core::signal_max(config.bits)));
        snc_cfg.seed = config.snc_seed;
        snc_cfg.device.variation_sigma = config.snc_variation_sigma;
        snc_cfg.device.stuck_on_rate = config.snc_stuck_on_rate;
        snc_cfg.device.stuck_off_rate = config.snc_stuck_off_rate;
        snc_cfg.recovery.write_verify = config.snc_write_verify;
        snc_cfg.recovery.spare_cols = config.snc_spare_cols;
        backend = std::make_unique<SncBackend>(
            *net, entry->input_chw, snc_cfg, config.snc_replicas,
            config.snc_health);
        break;
      }
    }
    entry->nets.push_back(std::move(net));
    entry->backends.push_back(std::move(backend));
  }
  return entry;
}

Backend& ModelRegistry::insert_entry(const std::string& name,
                                     std::unique_ptr<Entry> entry) {
  const std::string base = base_model_name(name);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (entries_.count(name) > 0) {
    throw std::invalid_argument("ModelRegistry: duplicate model '" + name +
                                "' (versions are immutable; register a "
                                "new version instead)");
  }
  // The first version of a base answers bare-name traffic; later ones
  // register standby until a rollout promotes them.
  if (active_.count(base) == 0) {
    entry->state = VersionState::kActive;
    active_[base] = name;
  } else {
    entry->state = VersionState::kStandby;
  }
  Backend& backend = *entry->backends.front();
  entries_[name] = std::move(entry);
  return backend;
}

Backend& ModelRegistry::add(const std::string& name,
                            const ModelConfig& config) {
  validate_name(name);
  {
    // Cheap duplicate pre-check before the expensive build; insert_entry
    // re-checks under the same lock that inserts.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (entries_.count(name) > 0) {
      throw std::invalid_argument("ModelRegistry: duplicate model '" +
                                  name + "'");
    }
  }
  return insert_entry(name, build_entry(name, config, nullptr));
}

Backend& ModelRegistry::add_from_bytes(
    const std::string& name, const ModelConfig& config,
    const std::vector<uint8_t>& state_bytes) {
  validate_name(name);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (entries_.count(name) > 0) {
      throw std::invalid_argument("ModelRegistry: duplicate model '" +
                                  name + "'");
    }
  }
  // build_entry validates the checkpoint image (magic/version/CRC, then
  // per-tensor decode) while constructing a free-standing entry: any
  // failure throws here, before the registry is touched.
  return insert_entry(name, build_entry(name, config, &state_bytes));
}

std::string ModelRegistry::resolve_locked(const std::string& name) const {
  if (name.find('@') != std::string::npos) {
    return entries_.count(name) > 0 ? name : std::string();
  }
  const auto it = active_.find(name);
  return it != active_.end() ? it->second : std::string();
}

std::string ModelRegistry::resolve(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return resolve_locked(name);
}

void ModelRegistry::set_active(const std::string& base,
                               const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry: unknown version '" + key +
                                "'");
  }
  if (base_model_name(key) != base) {
    throw std::invalid_argument("ModelRegistry: version '" + key +
                                "' does not belong to base '" + base + "'");
  }
  if (it->second->state == VersionState::kQuarantined) {
    throw std::invalid_argument("ModelRegistry: version '" + key +
                                "' is quarantined");
  }
  const auto active_it = active_.find(base);
  if (active_it != active_.end() && active_it->second != key) {
    entries_.at(active_it->second)->state = VersionState::kStandby;
  }
  it->second->state = VersionState::kActive;
  active_[base] = key;
}

VersionState ModelRegistry::state(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(key).state;
}

void ModelRegistry::set_state(const std::string& key, VersionState state) {
  if (state == VersionState::kActive) {
    throw std::invalid_argument(
        "ModelRegistry: use set_active to promote a version");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry: unknown version '" + key +
                                "'");
  }
  if (it->second->state == VersionState::kActive) {
    throw std::invalid_argument("ModelRegistry: version '" + key +
                                "' is active; promote a replacement first");
  }
  it->second->state = state;
}

std::string ModelRegistry::active_key(const std::string& base) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = active_.find(base);
  return it != active_.end() ? it->second : std::string();
}

std::vector<ModelVersionLabel> ModelRegistry::active_versions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ModelVersionLabel> out;
  out.reserve(active_.size());
  for (const auto& [base, key] : active_) {
    ModelVersionLabel label;
    label.model = base;
    label.version = split_versioned_name(key).second;
    out.push_back(std::move(label));
  }
  return out;
}

bool ModelRegistry::contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return !resolve_locked(name).empty();
}

const ModelRegistry::Entry& ModelRegistry::entry(
    const std::string& name) const {
  const std::string key = resolve_locked(name);
  const auto it = entries_.find(key.empty() ? name : key);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry: unknown model '" + name +
                                "'");
  }
  return *it->second;
}

Backend& ModelRegistry::backend(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return *entry(name).backends.front();
}

Backend& ModelRegistry::backend(const std::string& name,
                                size_t shard) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Entry& e = entry(name);
  if (shard >= e.backends.size()) {
    throw std::invalid_argument("ModelRegistry: model '" + name +
                                "' has no shard " + std::to_string(shard));
  }
  return *e.backends[shard];
}

size_t ModelRegistry::num_shards(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(name).backends.size();
}

const ModelConfig& ModelRegistry::config(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(name).config;
}

const nn::Shape& ModelRegistry::input_shape(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entry(name).input_chw;
}

std::vector<std::string> ModelRegistry::names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    (void)e;
    out.push_back(name);
  }
  return out;
}

}  // namespace qsnc::serve
