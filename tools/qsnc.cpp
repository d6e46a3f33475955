// qsnc — command-line front end to the library.
//
//   qsnc train  --model lenet|alexnet|resnet [--nc --bits M] [--epochs N]
//               [--lr X] [--train-size N] [--out state.bin]
//   qsnc quantize --model M --state in.bin --bits N [--out out.bin]
//               (Weight Clustering onto the N-bit grid)
//   qsnc eval   --model M --state state.bin [--bits M] [--test-size N]
//   qsnc deploy --model M --state state.bin --bits M [--images N]
//               [--batch B] [--stuck-on R] [--stuck-off R] [--variation S]
//               [--write-verify] [--spare-cols K] [--snc-seed S]
//               (spike-level SNC inference; weights must be on the grid;
//               fault flags inject defects and enable closed-loop recovery;
//               --batch B runs B images per SncSystem::infer_batch call,
//               bit-identical to --batch 1)
//   qsnc faultsim --model M [--state f] [--bits M] [--images N] [--batch B]
//               [--rates csv] [--spares csv] [--seeds K]
//               (stuck-on rate x spare budget sweep: passive vs recovered
//               accuracy; trains a small model when --state is omitted)
//   qsnc cost   --model M [--signal-bits M] [--weight-bits N] [--crossbar t]
//   qsnc serve  --model lenet-mini[@v1] [--backend fp32|quant|snc]
//               [--state f]
//               [--bits M] [--shards N] [--max-batch B]
//               [--batch-timeout-us T] [--queue-cap Q]
//               [--listen unix:/tmp/qsnc-serve.sock|tcp:host:port]
//               [--snc-replicas R]
//               [--snc-stuck-on R] [--snc-stuck-off R]
//               [--snc-variation S] [--snc-write-verify] [--snc-spare-cols K]
//               [--health] [--health-canaries N]
//               [--health-min-fraction F] [--health-per-replica-seeds]
//               [--max-concurrency C] [--delay-target-us T]
//               [--delay-window-us W] [--breaker-threshold K]
//               [--breaker-open-ms T]
//               [--read-timeout-ms T] [--write-timeout-ms T]
//               [--idle-timeout-ms T] [--max-connections C]
//               [--journal path.jrnl]
//               (--journal appends every state transition — version
//               loads, promotes, rollbacks, replica quarantines — to a
//               CRC-protected append-only journal, and replays it on
//               startup so a restarted node reconciles to its pre-crash
//               active versions; torn tails are detected and dropped)
//               [--chaos-profile none|torn|backend|queue|soak]
//               [--chaos-seed S]
//               (long-lived inference server; SIGINT drains and exits;
//               --health enables a one-time canary check at the first
//               batch + quarantine + quant fallback; --delay-target-us enables CoDel-style overload
//               shedding, --breaker-threshold the per-backend circuit
//               breaker; --chaos-profile injects deterministic seeded
//               faults for resilience testing, reported at shutdown;
//               --shards N runs N identical batcher+backend lanes;
//               the snc backend programs one system and runs each batch
//               on it, except with --health-per-replica-seeds, which
//               programs --snc-replicas differently seeded replicas and
//               runs batch w whole on healthy replica w mod H)
//               [--shadow-fraction F] [--rollout-observe N]
//               [--max-divergence R] [--rollout-canary-rounds K]
//               [--rollout-canaries N] [--rollout-canary-interval-ms T]
//               [--rollout-manual]
//               (blue/green rollout tuning for hot-loaded versions:
//               shadow F of live traffic, auto-promote after N agreeing
//               comparisons + K clean canary rounds, auto-rollback past
//               divergence R; --rollout-manual observes only and waits
//               for qsnc rollout promote/rollback)
//   qsnc rollout <load|promote|rollback|status> [--connect endpoint]
//               load: --model base@version [--state ckpt.bin]
//                     [--arch A] [--backend fp32|quant|snc] [--bits M]
//                     [--seed S]
//               promote|rollback: [--model name] [--reason text]
//               status: [--model name]
//               (model-lifecycle control of a running qsnc serve: load
//               hot-registers a CRC-checked checkpoint over the socket —
//               no restart — and starts a blue/green shadow rollout
//               against the active version; promote/rollback override
//               the controller's auto decision; exit 0 on ok, 1 with the
//               server's structured reason on refusal)
//   qsnc router --backends ep1,ep2,... [--listen tcp:host:port]
//               [--vnodes V] [--probe-interval-ms T] [--probe-timeout-ms T]
//               [--probe-down-after K] [--forward-timeout-ms T]
//               [--hedge-after-us T] [--breaker-threshold K]
//               [--breaker-open-ms T] [--read-timeout-ms T]
//               [--write-timeout-ms T] [--idle-timeout-ms T]
//               [--max-connections C]
//               [--retry-tokens-per-sec R] [--retry-burst B]
//               (front tier over a fleet of qsnc serve processes:
//               consistent-hash routing on (model, session), health
//               probing, automatic reroute around dead backends, and
//               optional hedged requests for interactive traffic;
//               requests with --deadline-us budgets have the router's
//               elapsed time decremented before forwarding, so hops
//               never stack full budgets; --retry-tokens-per-sec caps
//               how fast reroutes may spend each backend's retry budget
//               — a dry budget sheds instead of amplifying)
//   qsnc supervisor [run] --spec lanes.spec [--listen tcp:host:port]
//               [--quarantine-exits K] [--quarantine-window-ms T]
//               [--healthy-reset-ms T] [--restart-base-ms T]
//               [--restart-max-ms T] [--drain-timeout-ms T]
//   qsnc supervisor status  --connect endpoint
//   qsnc supervisor release --connect endpoint --lane name
//               (process supervisor: spawns the lanes of a spec file —
//               "lane <name> = <argv...>" per line — restarts crashed
//               ones on an exponential-jitter schedule, quarantines
//               crash loops of K exits within the window, and drains
//               children SIGTERM-then-SIGKILL on shutdown; --listen
//               serves the v6 control endpoint the status/release verbs
//               talk to)
//   qsnc loadgen --model lenet-mini[@v2] [--connect endpoint]
//               [--requests N]
//               [--concurrency C] [--no-retry] [--deadline-us D]
//               [--priority interactive|canary|batch|mix]
//               [--sessions K] [--open-loop --rate R]
//               (--sessions K tags request i with session key i%K so a
//               router pins each session to one backend)
//               (load generator against a running server; closed-loop by
//               default with rejected/shedded requests retrying under
//               jittered exponential backoff honoring server hints;
//               --open-loop sends on a fixed deterministic schedule of R
//               requests/s with no retries, the overload-probing mode)
//
// Every command accepts --threads N to size the thread pool (overrides the
// QSNC_THREADS environment variable; default: hardware concurrency).
// Unknown flags are a hard error (exit 2) so a typo like --max-bacth can
// never silently configure a load test.
//
// Models train/evaluate on the built-in synthetic datasets (set
// QSNC_MNIST_DIR / QSNC_CIFAR_DIR for the real ones, as in the benches).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fixed_point.h"
#include "core/metrics.h"
#include "core/neuron_convergence.h"
#include "core/qat_pipeline.h"
#include "core/weight_clustering.h"
#include "data/idx_loader.h"
#include "data/synthetic_cifar.h"
#include "data/synthetic_mnist.h"
#include "models/model_zoo.h"
#include "nn/serialize.h"
#include "report/table.h"
#include "router/router_config.h"
#include "router/router_server.h"
#include "serve/backend.h"
#include "serve/backoff.h"
#include "serve/chaos.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "snc/cost_model.h"
#include "snc/snc_system.h"
#include "supervise/spec.h"
#include "supervise/supervisor.h"
#include "util/flags.h"
#include "util/thread_pool.h"

using namespace qsnc;

namespace {

struct ModelChoice {
  std::string name;
  nn::Network (*factory)(nn::Rng&);
  nn::Network (*full_factory)(nn::Rng&);
  bool is_mnist;
  nn::Shape input;
};

ModelChoice resolve_model(const std::string& name) {
  if (name == "lenet") {
    return {name, models::make_lenet, models::make_lenet, true, {1, 28, 28}};
  }
  if (name == "alexnet") {
    return {name, models::make_alexnet_mini, models::make_alexnet, false,
            {3, 32, 32}};
  }
  if (name == "resnet") {
    return {name, models::make_resnet_mini, models::make_resnet, false,
            {3, 32, 32}};
  }
  throw std::invalid_argument("unknown --model '" + name +
                              "' (lenet|alexnet|resnet)");
}

data::DatasetPtr load_dataset(const ModelChoice& model, int64_t size,
                              uint64_t seed, bool train) {
  if (model.is_mnist) {
    if (const char* dir = std::getenv("QSNC_MNIST_DIR")) {
      if (auto ds = data::try_load_mnist(dir, train)) return *ds;
    }
    data::SyntheticMnistConfig cfg;
    cfg.num_samples = size;
    cfg.seed = seed;
    return data::make_synthetic_mnist(cfg);
  }
  if (const char* dir = std::getenv("QSNC_CIFAR_DIR")) {
    if (auto ds = data::try_load_cifar10(dir, train)) return *ds;
  }
  data::SyntheticCifarConfig cfg;
  cfg.num_samples = size;
  cfg.seed = seed;
  return data::make_synthetic_cifar(cfg);
}

core::TrainConfig base_config(const ModelChoice& model) {
  core::TrainConfig cfg;
  if (model.name == "lenet") {
    cfg.epochs = 14;
    cfg.lr = 5e-4f;
  } else if (model.name == "alexnet") {
    cfg.epochs = 14;
    cfg.lr = 1e-3f;
  } else {
    cfg.epochs = 10;
    cfg.lr = 1e-2f;
  }
  return cfg;
}

// A misspelled flag must never silently fall back to a default (imagine a
// load test running with --max-bacth ignored): unknown flags are fatal.
void check_unused(const util::Flags& flags) {
  const std::vector<std::string> unused = flags.unused();
  if (unused.empty()) return;
  for (const std::string& key : unused) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
  }
  std::exit(2);
}

int cmd_train(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  core::TrainConfig cfg = base_config(model);
  cfg.epochs = static_cast<int>(flags.get_int("epochs", cfg.epochs));
  cfg.lr = static_cast<float>(flags.get_double("lr", cfg.lr));
  cfg.seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  const int64_t train_size = flags.get_int("train-size", 1200);
  const bool use_nc = flags.get_bool("nc", false);
  const int bits = static_cast<int>(flags.get_int("bits", 4));
  const std::string out = flags.get("out", "");
  check_unused(flags);

  auto train_set = load_dataset(model, train_size, 1, true);
  nn::Rng rng(cfg.seed);
  nn::Network net = model.factory(rng);
  const std::string nc_note =
      use_nc ? " with Neuron Convergence @" + std::to_string(bits) + "-bit"
             : "";
  std::printf("training %s (%lld weights) for %d epochs%s...\n",
              model.name.c_str(), static_cast<long long>(net.num_weights()),
              cfg.epochs, nc_note.c_str());
  if (use_nc) {
    cfg.input_scale = std::min(
        cfg.input_scale, static_cast<float>(core::signal_max(bits)));
    core::NeuronConvergenceRegularizer reg(bits, 0.1f);
    core::train(net, *train_set, cfg, &reg, bits,
                std::max(0, cfg.epochs - 2));
  } else {
    core::train(net, *train_set, cfg);
  }
  const double acc = core::evaluate_accuracy(
      net, *load_dataset(model, 400, 999, false), cfg.input_scale);
  std::printf("held-out accuracy: %s\n", report::pct(acc).c_str());
  if (!out.empty()) {
    nn::save_state(net, out);
    std::printf("state written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_quantize(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  const std::string in = flags.get("state", "");
  if (in.empty()) throw std::invalid_argument("quantize needs --state");
  const int bits = static_cast<int>(flags.get_int("bits", 4));
  const std::string out = flags.get("out", in + ".q" + std::to_string(bits));
  check_unused(flags);

  nn::Rng rng(1);
  nn::Network net = model.factory(rng);
  nn::load_state(net, in);
  core::WeightClusterConfig wc;
  wc.bits = bits;
  const auto results = core::apply_weight_clustering(net, wc);
  report::Table t({"tensor", "grid scale", "mse"});
  for (size_t i = 0; i < results.size(); ++i) {
    t.add_row({std::to_string(i), report::fmt(results[i].scale, 4),
               report::fmt(results[i].mse, 6)});
  }
  std::printf("%s", t.to_string().c_str());
  nn::save_state(net, out);
  std::printf("clustered state written to %s\n", out.c_str());
  return 0;
}

int cmd_eval(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  const std::string in = flags.get("state", "");
  if (in.empty()) throw std::invalid_argument("eval needs --state");
  const int bits = static_cast<int>(flags.get_int("bits", 0));
  const int64_t test_size = flags.get_int("test-size", 400);
  check_unused(flags);

  nn::Rng rng(1);
  nn::Network net = model.factory(rng);
  nn::load_state(net, in);
  auto test_set = load_dataset(model, test_size, 999, false);

  const float scale =
      bits > 0 ? std::min(16.0f, static_cast<float>(core::signal_max(bits)))
               : 16.0f;
  std::unique_ptr<core::IntegerSignalQuantizer> q;
  if (bits > 0) {
    q = std::make_unique<core::IntegerSignalQuantizer>(bits);
    net.set_signal_quantizer(q.get());
  }
  const core::EvalResult r =
      core::evaluate_detailed(net, *test_set, scale, bits);
  net.set_signal_quantizer(nullptr);

  const std::string bits_note =
      bits > 0 ? ", " + std::to_string(bits) + "-bit signals" : "";
  std::printf("accuracy: %s (%lld images%s)\n",
              report::pct(r.accuracy).c_str(),
              static_cast<long long>(test_set->size()), bits_note.c_str());
  report::Table t({"class", "recall"});
  for (int64_t c = 0; c < r.num_classes; ++c) {
    t.add_row({std::to_string(c), report::pct(r.recall(c))});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_deploy(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  const std::string in = flags.get("state", "");
  if (in.empty()) throw std::invalid_argument("deploy needs --state");
  const int bits = static_cast<int>(flags.get_int("bits", 4));
  const int64_t images = flags.get_int("images", 50);
  const int64_t batch_size =
      std::max<int64_t>(1, flags.get_int("batch", 8));
  const double stuck_on = flags.get_double("stuck-on", 0.0);
  const double stuck_off = flags.get_double("stuck-off", 0.0);
  const double variation = flags.get_double("variation", 0.0);
  const bool write_verify = flags.get_bool("write-verify", false);
  const int64_t spare_cols = flags.get_int("spare-cols", 0);
  const uint64_t snc_seed =
      static_cast<uint64_t>(flags.get_int("snc-seed", 7));
  check_unused(flags);

  nn::Rng rng(1);
  nn::Network net = model.factory(rng);
  nn::load_state(net, in);

  // Recover the per-layer grid scales by re-clustering (idempotent when the
  // state is already on the grid: the Lloyd assignment reproduces it).
  core::WeightClusterConfig wc;
  wc.bits = bits;
  const auto wcr = core::apply_weight_clustering(net, wc);

  snc::SncConfig cfg;
  cfg.signal_bits = bits;
  cfg.weight_bits = bits;
  cfg.weight_scales.clear();
  for (const auto& r : wcr) cfg.weight_scales.push_back(r.scale);
  cfg.input_scale =
      std::min(16.0f, static_cast<float>(core::signal_max(bits)));
  cfg.seed = snc_seed;
  cfg.device.stuck_on_rate = stuck_on;
  cfg.device.stuck_off_rate = stuck_off;
  cfg.device.variation_sigma = variation;
  cfg.recovery.write_verify = write_verify;
  cfg.recovery.spare_cols = spare_cols;
  snc::SncSystem system(net, model.input, cfg);

  auto test_set = load_dataset(model, std::max<int64_t>(images, 50), 999,
                               false);
  const int64_t chw = nn::shape_numel(model.input);
  int64_t correct = 0;
  snc::SncStats totals;
  // B images share one pass over each stage's panel. Per-image stats fold
  // exactly as a per-image loop would (infer_batch is bit-identical to B
  // sequential infer calls).
  for (int64_t start = 0; start < images; start += batch_size) {
    const int64_t b = std::min(batch_size, images - start);
    nn::Tensor batch({b, model.input[0], model.input[1], model.input[2]});
    std::vector<int64_t> labels(static_cast<size_t>(b));
    for (int64_t j = 0; j < b; ++j) {
      const data::Sample s = test_set->get(start + j);
      std::copy(s.image.data(), s.image.data() + chw,
                batch.data() + j * chw);
      labels[static_cast<size_t>(j)] = s.label;
    }
    std::vector<snc::SncStats> batch_stats;
    const std::vector<int64_t> preds = system.infer_batch(batch,
                                                          &batch_stats);
    for (int64_t j = 0; j < b; ++j) {
      if (preds[static_cast<size_t>(j)] == labels[static_cast<size_t>(j)]) {
        ++correct;
      }
      totals.add(batch_stats[static_cast<size_t>(j)]);
    }
  }
  std::printf("SNC inference (batch %lld): %lld/%lld correct, "
              "window %lld slots, avg %.0f spikes/image\n",
              static_cast<long long>(batch_size),
              static_cast<long long>(correct),
              static_cast<long long>(images),
              static_cast<long long>(totals.window_slots),
              static_cast<double>(totals.total_spikes) /
                  static_cast<double>(images));
  std::printf("%s", serve::snc_activity_tables(totals, images,
                                               system.fault_report(),
                                               "fault recovery")
                        .c_str());
  return 0;
}

/// Parses "0.01,0.02,0.05" into doubles (throws on junk).
std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    out.push_back(std::stod(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty list '" + csv + "'");
  return out;
}

int cmd_faultsim(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  const std::string in = flags.get("state", "");
  const int bits = static_cast<int>(flags.get_int("bits", 4));
  const int64_t images = flags.get_int("images", 60);
  const int64_t batch_size =
      std::max<int64_t>(1, flags.get_int("batch", 8));
  const std::vector<double> rates =
      parse_double_list(flags.get("rates", "0.01,0.02,0.05"));
  const std::vector<double> spares =
      parse_double_list(flags.get("spares", "0,2,4"));
  const int seeds = std::max(1, static_cast<int>(flags.get_int("seeds", 3)));
  const int64_t train_size = flags.get_int("train-size", 800);
  const int epochs = static_cast<int>(flags.get_int("epochs", 4));
  check_unused(flags);

  nn::Rng rng(1);
  nn::Network net = model.factory(rng);
  float input_scale =
      std::min(16.0f, static_cast<float>(core::signal_max(bits)));
  if (!in.empty()) {
    nn::load_state(net, in);
  } else {
    // No checkpoint: train a small quantization-aware model so the sweep
    // has a real accuracy signal to degrade.
    core::TrainConfig tcfg = base_config(model);
    tcfg.epochs = epochs;
    tcfg.input_scale = input_scale;
    std::printf("no --state: training %s for %d epochs on synthetic data\n",
                model.name.c_str(), epochs);
    core::NeuronConvergenceRegularizer reg(bits, 0.1f);
    core::train(net, *load_dataset(model, train_size, 1, true), tcfg, &reg,
                bits, std::max(0, epochs - 2));
    input_scale = tcfg.input_scale;
  }
  core::WeightClusterConfig wc;
  wc.bits = bits;
  const auto wcr = core::apply_weight_clustering(net, wc);

  snc::SncConfig base;
  base.signal_bits = bits;
  base.weight_bits = bits;
  base.weight_scales.clear();
  for (const auto& r : wcr) base.weight_scales.push_back(r.scale);
  base.input_scale = input_scale;

  auto test_set = load_dataset(model, std::max<int64_t>(images, 50), 999,
                               false);
  const auto accuracy = [&](const snc::SncConfig& cfg,
                            snc::FaultReport* fr) {
    double acc = 0.0;
    snc::FaultReport total;
    for (int s = 0; s < seeds; ++s) {
      snc::SncConfig seeded = cfg;
      seeded.seed = 7 + static_cast<uint64_t>(s);
      snc::SncSystem sys(net, model.input, seeded);
      total.add(sys.fault_report());
      int64_t correct = 0;
      const int64_t chw = nn::shape_numel(model.input);
      for (int64_t start = 0; start < images; start += batch_size) {
        const int64_t b = std::min(batch_size, images - start);
        nn::Tensor batch(
            {b, model.input[0], model.input[1], model.input[2]});
        std::vector<int64_t> labels(static_cast<size_t>(b));
        for (int64_t j = 0; j < b; ++j) {
          const data::Sample sample = test_set->get(start + j);
          std::copy(sample.image.data(), sample.image.data() + chw,
                    batch.data() + j * chw);
          labels[static_cast<size_t>(j)] = sample.label;
        }
        const std::vector<int64_t> preds = sys.infer_batch(batch);
        for (int64_t j = 0; j < b; ++j) {
          if (preds[static_cast<size_t>(j)] ==
              labels[static_cast<size_t>(j)]) {
            ++correct;
          }
        }
      }
      acc += static_cast<double>(correct) / static_cast<double>(images);
    }
    if (fr != nullptr) *fr = total;
    return acc / seeds;
  };

  snc::SncConfig clean = base;
  const double fault_free = accuracy(clean, nullptr);
  std::printf("fault-free accuracy: %s (%lld images x %d seeds)\n",
              report::pct(fault_free).c_str(),
              static_cast<long long>(images), seeds);

  report::Table t({"stuck-on", "spares", "passive", "recovered",
                   "reclaimed pp", "residual", "remapped"});
  for (double rate : rates) {
    snc::SncConfig passive_cfg = base;
    passive_cfg.device.stuck_on_rate = rate;
    const double passive = accuracy(passive_cfg, nullptr);
    for (double spare : spares) {
      snc::SncConfig rec_cfg = passive_cfg;
      rec_cfg.recovery.write_verify = true;
      rec_cfg.recovery.spare_cols = static_cast<int64_t>(spare);
      snc::FaultReport fr;
      const double recovered = accuracy(rec_cfg, &fr);
      t.add_row({report::fmt(rate, 3),
                 std::to_string(static_cast<int64_t>(spare)),
                 report::pct(passive), report::pct(recovered),
                 report::fmt((recovered - passive) * 100.0, 1),
                 std::to_string(fr.residual_faults / seeds),
                 std::to_string(fr.remapped_cols / seeds)});
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("passive = defect injection only; recovered = write-verify + "
              "differential compensation + spare-column remap.\n");
  return 0;
}

int cmd_cost(const util::Flags& flags) {
  const ModelChoice model = resolve_model(flags.get("model", "lenet"));
  const int signal_bits = static_cast<int>(flags.get_int("signal-bits", 4));
  const int weight_bits = static_cast<int>(flags.get_int("weight-bits", 4));
  const int64_t crossbar = flags.get_int("crossbar", 32);
  check_unused(flags);

  nn::Rng rng(1);
  nn::Network net = model.full_factory(rng);
  const snc::ModelMapping mapping =
      snc::map_network(net, model.name, model.input, crossbar);
  snc::CostParams params;
  params.crossbar_size = crossbar;
  const snc::SystemCost cost =
      snc::evaluate_cost(mapping, signal_bits, weight_bits, params);
  std::printf("%s @ M=%d N=%d t=%lld: %lld layers, %lld crossbars, "
              "%.2f MHz, %.2f uJ/inf, %.2f mm2\n",
              model.name.c_str(), signal_bits, weight_bits,
              static_cast<long long>(crossbar),
              static_cast<long long>(cost.layers),
              static_cast<long long>(cost.crossbars), cost.speed_mhz,
              cost.energy_uj, cost.area_mm2);
  return 0;
}

serve::ModelConfig serve_model_config(const util::Flags& flags) {
  serve::ModelConfig cfg;
  // --model may be versioned ("lenet-mini@v1"); the architecture is the
  // base, the full spelling becomes the registry key in cmd_serve.
  cfg.architecture =
      serve::base_model_name(flags.get("model", "lenet-mini"));
  cfg.state_path = flags.get("state", "");
  cfg.backend = serve::parse_backend_kind(flags.get("backend", "fp32"));
  cfg.bits = static_cast<int>(flags.get_int("bits", 4));
  cfg.shards = static_cast<int>(flags.get_int("shards", 1));
  cfg.init_seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  cfg.snc_replicas = static_cast<int>(flags.get_int("snc-replicas", 0));
  cfg.snc_variation_sigma = flags.get_double("snc-variation", 0.0);
  cfg.snc_stuck_on_rate = flags.get_double("snc-stuck-on", 0.0);
  cfg.snc_stuck_off_rate = flags.get_double("snc-stuck-off", 0.0);
  cfg.snc_write_verify = flags.get_bool("snc-write-verify", false);
  cfg.snc_spare_cols = flags.get_int("snc-spare-cols", 0);
  cfg.snc_seed = static_cast<uint64_t>(flags.get_int("snc-seed", 7));
  cfg.snc_health.enabled = flags.get_bool("health", false);
  cfg.snc_health.canary_images =
      static_cast<int>(flags.get_int("health-canaries", 2));
  cfg.snc_health.min_healthy_fraction =
      flags.get_double("health-min-fraction", 0.5);
  cfg.snc_health.per_replica_seeds =
      flags.get_bool("health-per-replica-seeds", false);
  return cfg;
}

serve::BatchOptions serve_batch_options(const util::Flags& flags) {
  serve::BatchOptions opts;
  opts.max_batch = static_cast<int>(flags.get_int("max-batch", 8));
  opts.batch_timeout_us = flags.get_int("batch-timeout-us", 2000);
  opts.queue_capacity = static_cast<int>(flags.get_int("queue-cap", 256));
  opts.admission.max_concurrency =
      static_cast<int>(flags.get_int("max-concurrency", 0));
  opts.admission.delay_target_us = flags.get_int("delay-target-us", 0);
  opts.admission.delay_window_us =
      flags.get_int("delay-window-us", opts.admission.delay_window_us);
  opts.admission.breaker_threshold =
      static_cast<int>(flags.get_int("breaker-threshold", 0));
  opts.admission.breaker_open_us =
      flags.get_int("breaker-open-ms",
                    opts.admission.breaker_open_us / 1000) *
      1000;
  return opts;
}

int cmd_serve(const util::Flags& flags) {
  const std::string model_name = flags.get("model", "lenet-mini");
  const serve::ModelConfig cfg = serve_model_config(flags);
  serve::BatchOptions opts = serve_batch_options(flags);
  serve::RolloutOptions rollout;
  rollout.shadow_fraction =
      flags.get_double("shadow-fraction", rollout.shadow_fraction);
  rollout.observe_requests = static_cast<int>(
      flags.get_int("rollout-observe", rollout.observe_requests));
  rollout.max_divergence =
      flags.get_double("max-divergence", rollout.max_divergence);
  rollout.canary_rounds = static_cast<int>(
      flags.get_int("rollout-canary-rounds", rollout.canary_rounds));
  rollout.canary_images = static_cast<int>(
      flags.get_int("rollout-canaries", rollout.canary_images));
  rollout.canary_interval_ms = flags.get_int("rollout-canary-interval-ms",
                                             rollout.canary_interval_ms);
  rollout.auto_decide = !flags.get_bool("rollout-manual", false);
  const std::string socket = flags.get("listen", "/tmp/qsnc-serve.sock");
  const std::string journal_path = flags.get("journal", "");
  const std::string chaos_name = flags.get("chaos-profile", "none");
  const uint64_t chaos_seed =
      static_cast<uint64_t>(flags.get_int("chaos-seed", 42));
  serve::SocketServerOptions sopts;
  sopts.read_timeout_ms =
      flags.get_int("read-timeout-ms", sopts.read_timeout_ms);
  sopts.write_timeout_ms =
      flags.get_int("write-timeout-ms", sopts.write_timeout_ms);
  sopts.idle_timeout_ms =
      flags.get_int("idle-timeout-ms", sopts.idle_timeout_ms);
  sopts.max_connections =
      static_cast<int>(flags.get_int("max-connections",
                                     sopts.max_connections));
  check_unused(flags);

  const serve::ChaosConfig chaos_cfg =
      serve::chaos_profile(chaos_name, chaos_seed);
  std::unique_ptr<serve::ChaosInjector> chaos;
  if (chaos_cfg.any_enabled()) {
    chaos = std::make_unique<serve::ChaosInjector>(chaos_cfg);
    opts.chaos = chaos.get();
    sopts.chaos = chaos.get();
  }

  serve::ModelRegistry registry;
  registry.add(model_name, cfg);
  serve::ServeCore core(registry, opts, rollout);
  if (!journal_path.empty()) {
    // Replay + reconcile before the socket opens, so the first request
    // already sees the pre-crash active versions.
    const serve::JournalReconcileReport reconciled =
        core.attach_journal(journal_path, chaos.get());
    std::printf("%s\n", reconciled.to_string().c_str());
  }
  serve::SocketServer server(core, socket, sopts);
  const std::string state_note = cfg.state_path.empty()
                                     ? ", fresh init"
                                     : ", state " + cfg.state_path;
  std::printf("serving %s (%s backend%s) on %s\n"
              "  max-batch %d, batch-timeout %lld us, queue-cap %d; "
              "Ctrl-C drains and exits\n",
              model_name.c_str(),
              serve::backend_kind_name(cfg.backend), state_note.c_str(),
              server.endpoint().str().c_str(), opts.max_batch,
              static_cast<long long>(opts.batch_timeout_us),
              opts.queue_capacity);
  if (opts.admission.delay_target_us > 0 ||
      opts.admission.max_concurrency > 0 ||
      opts.admission.breaker_threshold > 0) {
    std::printf("  overload: max-concurrency %d, delay target %lld us "
                "(window %lld us), breaker %d failures / %lld ms open\n",
                opts.admission.max_concurrency,
                static_cast<long long>(opts.admission.delay_target_us),
                static_cast<long long>(opts.admission.delay_window_us),
                opts.admission.breaker_threshold,
                static_cast<long long>(opts.admission.breaker_open_us /
                                       1000));
  }
  if (cfg.shards > 1) {
    std::printf("  shards: %d identical batcher+backend lanes\n",
                cfg.shards);
  }
  if (chaos) {
    std::printf("  chaos: profile %s, seed %llu\n", chaos_name.c_str(),
                static_cast<unsigned long long>(chaos_seed));
  }
  server.run_until_signal();
  std::printf("drained; final stats:\n%s", core.stats_report().c_str());
  if (chaos) {
    std::printf("chaos injections (profile %s, seed %llu):\n%s",
                chaos_name.c_str(),
                static_cast<unsigned long long>(chaos_seed),
                chaos->report().c_str());
  }
  std::printf("connections: %llu accepted, %llu reaped, %llu rejected\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.connections_reaped()),
              static_cast<unsigned long long>(
                  server.connections_rejected()));
  return 0;
}

int cmd_router(const util::Flags& flags) {
  const std::string backends_csv = flags.get("backends", "");
  if (backends_csv.empty()) {
    throw std::invalid_argument("router needs --backends ep1,ep2,...");
  }
  router::RouterOptions opts;
  opts.backends = serve::parse_endpoint_list(backends_csv);
  opts.listen =
      serve::parse_endpoint(flags.get("listen", "tcp:127.0.0.1:7600"));
  opts.vnodes = static_cast<int>(flags.get_int("vnodes", opts.vnodes));
  opts.probe_interval_ms =
      flags.get_int("probe-interval-ms", opts.probe_interval_ms);
  opts.probe_timeout_ms =
      flags.get_int("probe-timeout-ms", opts.probe_timeout_ms);
  opts.probe_down_after = static_cast<int>(
      flags.get_int("probe-down-after", opts.probe_down_after));
  opts.forward_timeout_ms =
      flags.get_int("forward-timeout-ms", opts.forward_timeout_ms);
  opts.hedge_after_us = flags.get_int("hedge-after-us", 0);
  opts.breaker_threshold = static_cast<int>(
      flags.get_int("breaker-threshold", opts.breaker_threshold));
  opts.breaker_open_ms =
      flags.get_int("breaker-open-ms", opts.breaker_open_ms);
  opts.retry_tokens_per_sec =
      flags.get_double("retry-tokens-per-sec", opts.retry_tokens_per_sec);
  opts.retry_burst = flags.get_double("retry-burst", opts.retry_burst);
  opts.front.read_timeout_ms =
      flags.get_int("read-timeout-ms", opts.front.read_timeout_ms);
  opts.front.write_timeout_ms =
      flags.get_int("write-timeout-ms", opts.front.write_timeout_ms);
  opts.front.idle_timeout_ms =
      flags.get_int("idle-timeout-ms", opts.front.idle_timeout_ms);
  opts.front.max_connections = static_cast<int>(
      flags.get_int("max-connections", opts.front.max_connections));
  check_unused(flags);

  router::RouterServer server(opts);
  std::printf("routing on %s over %zu backends:\n",
              server.endpoint().str().c_str(), opts.backends.size());
  for (const serve::Endpoint& ep : opts.backends) {
    std::printf("  %s\n", ep.str().c_str());
  }
  const std::string hedge_note =
      opts.hedge_after_us > 0
          ? ", hedge after " + std::to_string(opts.hedge_after_us) + " us"
          : "";
  std::printf("  vnodes %d, probe every %lld ms (down after %d misses), "
              "forward timeout %lld ms%s; Ctrl-C exits\n",
              opts.vnodes, static_cast<long long>(opts.probe_interval_ms),
              opts.probe_down_after,
              static_cast<long long>(opts.forward_timeout_ms),
              hedge_note.c_str());
  server.run_until_signal();
  std::printf("router health table:\n%s",
              server.router().stats_report().c_str());
  return 0;
}

int cmd_loadgen(const util::Flags& flags) {
  const std::string socket = flags.get("connect", "/tmp/qsnc-serve.sock");
  const std::string model = flags.get("model", "lenet-mini");
  const int64_t requests = flags.get_int("requests", 200);
  const int concurrency =
      std::max(1, static_cast<int>(flags.get_int("concurrency", 4)));
  const bool no_retry = flags.get_bool("no-retry", false);
  const bool open_loop = flags.get_bool("open-loop", false);
  const double rate = flags.get_double("rate", 0.0);
  const std::string priority_spec = flags.get("priority", "interactive");
  const int64_t max_retries = flags.get_int("max-retries", 64);
  const uint64_t deadline_us =
      static_cast<uint64_t>(flags.get_int("deadline-us", 0));
  const int64_t sessions = flags.get_int("sessions", 0);
  check_unused(flags);
  if (open_loop && rate <= 0.0) {
    throw std::invalid_argument("--open-loop needs --rate > 0");
  }

  // Request i's priority is a pure function of i, so a given
  // (requests, priority) pair always produces the same workload.
  const bool mix = priority_spec == "mix";
  const serve::Priority fixed_priority =
      mix ? serve::Priority::kInteractive
          : serve::parse_priority(priority_spec);
  const auto priority_of = [&](int64_t i) {
    if (!mix) return fixed_priority;
    const int64_t r = i % 10;  // 6:3:1 interactive:batch:canary
    if (r < 6) return serve::Priority::kInteractive;
    if (r < 9) return serve::Priority::kBatch;
    return serve::Priority::kCanary;
  };

  // A versioned target ("lenet-mini@v2") shapes its images off the base
  // architecture; the versioned spelling travels to the server, which
  // pins that exact registry entry.
  const nn::Shape chw =
      serve::architecture_input_shape(serve::base_model_name(model));

  struct ClassResult {
    int64_t sent = 0, ok = 0, retries = 0, shed = 0, dropped = 0,
            deadline_exceeded = 0, errors = 0;
    std::vector<uint64_t> latencies_us;

    void absorb(const ClassResult& r) {
      sent += r.sent;
      ok += r.ok;
      retries += r.retries;
      shed += r.shed;
      dropped += r.dropped;
      deadline_exceeded += r.deadline_exceeded;
      errors += r.errors;
      latencies_us.insert(latencies_us.end(), r.latencies_us.begin(),
                          r.latencies_us.end());
    }
  };
  struct WorkerResult {
    ClassResult per[serve::kNumPriorities];
  };
  std::vector<WorkerResult> results(static_cast<size_t>(concurrency));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& result = results[static_cast<size_t>(w)];
      try {
        serve::SocketClient client(socket);
        serve::BackoffConfig backoff_cfg;
        backoff_cfg.seed = 1000 + static_cast<uint64_t>(w);
        const serve::Backoff backoff(backoff_cfg);
        nn::Rng rng(1000 + static_cast<uint64_t>(w));
        // Workers take the strided slice i = w, w+C, ... so the open-loop
        // arrival time of every request, t0 + i/rate, is fixed by i alone.
        for (int64_t i = w; i < requests; i += concurrency) {
          const serve::Priority priority = priority_of(i);
          ClassResult& cls =
              result.per[static_cast<size_t>(priority)];
          if (open_loop) {
            std::this_thread::sleep_until(
                t0 + std::chrono::microseconds(static_cast<int64_t>(
                         static_cast<double>(i) * 1e6 / rate)));
          }
          nn::Tensor image(chw);
          for (int64_t j = 0; j < image.numel(); ++j) {
            image[j] = rng.uniform(0.0f, 1.0f);
          }
          ++cls.sent;
          // Session key: request i belongs to session i % K, so a router
          // in the path pins each session to one backend.
          std::string session;
          if (sessions > 0) {
            session = "s";
            session += std::to_string(i % sessions);
          }
          int64_t attempts = 0;
          for (;;) {
            const auto s0 = std::chrono::steady_clock::now();
            const serve::Response r =
                client.infer(model, image, deadline_us, priority, session);
            if (r.status == serve::Status::kOk) {
              const auto s1 = std::chrono::steady_clock::now();
              cls.latencies_us.push_back(static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      s1 - s0)
                      .count()));
              ++cls.ok;
              break;
            }
            if (r.status == serve::Status::kDeadlineExceeded) {
              // Its own outcome class: the budget the *client* set ran
              // out, which is neither a server error nor backpressure.
              ++cls.deadline_exceeded;
              break;
            }
            const bool backpressure =
                r.status == serve::Status::kRejected ||
                r.status == serve::Status::kShedded;
            if (r.status == serve::Status::kShedded) ++cls.shed;
            // Open loop never retries: the point is to measure what the
            // server does at a fixed offered rate, not to adapt to it.
            if (backpressure && !no_retry && !open_loop &&
                attempts < max_retries) {
              ++cls.retries;
              // Exponential backoff with deterministic per-worker jitter,
              // floored by the server's backpressure hint (capped so a
              // wild estimate cannot stall the generator).
              std::this_thread::sleep_for(std::chrono::microseconds(
                  backoff.delay_us(static_cast<int>(attempts),
                                   r.retry_after_us)));
              ++attempts;
              continue;
            }
            if (backpressure) {
              ++cls.dropped;
            } else {
              ++cls.errors;
              std::fprintf(stderr, "request failed (%s): %s\n",
                           serve::status_name(r.status), r.error.c_str());
            }
            break;
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %d: %s\n", w, e.what());
        ++result.per[static_cast<size_t>(serve::Priority::kInteractive)]
              .errors;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ClassResult per[serve::kNumPriorities];
  ClassResult total;
  for (const WorkerResult& r : results) {
    for (int c = 0; c < serve::kNumPriorities; ++c) {
      per[c].absorb(r.per[c]);
      total.absorb(r.per[c]);
    }
  }
  const auto pct = [](std::vector<uint64_t>& v, double p) -> uint64_t {
    if (v.empty()) return 0;
    const size_t idx = static_cast<size_t>(
        p / 100.0 * static_cast<double>(v.size() - 1));
    return v[idx];
  };
  report::Table t({"class", "sent", "ok", "retries", "shed", "dropped",
                   "deadline", "errors", "p50 us", "p95 us", "p99 us"});
  for (int c = serve::kNumPriorities - 1; c >= 0; --c) {
    ClassResult& r = per[c];
    if (r.sent == 0) continue;
    std::sort(r.latencies_us.begin(), r.latencies_us.end());
    t.add_row({serve::priority_name(static_cast<serve::Priority>(c)),
               std::to_string(r.sent), std::to_string(r.ok),
               std::to_string(r.retries), std::to_string(r.shed),
               std::to_string(r.dropped),
               std::to_string(r.deadline_exceeded),
               std::to_string(r.errors),
               std::to_string(pct(r.latencies_us, 50)),
               std::to_string(pct(r.latencies_us, 95)),
               std::to_string(pct(r.latencies_us, 99))});
  }
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  t.add_row({"total", std::to_string(total.sent),
             std::to_string(total.ok), std::to_string(total.retries),
             std::to_string(total.shed), std::to_string(total.dropped),
             std::to_string(total.deadline_exceeded),
             std::to_string(total.errors),
             std::to_string(pct(total.latencies_us, 50)),
             std::to_string(pct(total.latencies_us, 95)),
             std::to_string(pct(total.latencies_us, 99))});
  std::printf("%s", t.to_string().c_str());
  const std::string offered_note =
      open_loop ? ", offered " + report::fmt(rate, 1) + " QPS" : "";
  std::printf("wall %.2fs, goodput %.1f QPS%s\n", wall,
              wall > 0 ? static_cast<double>(total.ok) / wall : 0.0,
              offered_note.c_str());
  try {
    serve::SocketClient client(socket);
    std::printf("server-side stats:\n%s", client.stats().c_str());
  } catch (const std::exception&) {
    // Server may already be gone; client-side numbers stand alone.
  }
  // Shedded/rejected responses in open loop are the server working as
  // intended, not a failure of the run.
  if (total.errors > 0) return 1;
  return !open_loop && total.dropped > 0 ? 1 : 0;
}

std::vector<uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    throw std::runtime_error("read failed on '" + path + "'");
  }
  return bytes;
}

int cmd_rollout(const util::Flags& flags) {
  if (flags.positional().size() < 2) {
    throw std::invalid_argument(
        "rollout needs a verb: load|promote|rollback|status");
  }
  const std::string verb = flags.positional()[1];
  const std::string socket = flags.get("connect", "/tmp/qsnc-serve.sock");
  const std::string model = flags.get("model", "");
  serve::RolloutReply reply;
  if (verb == "load") {
    if (model.empty()) {
      throw std::invalid_argument(
          "rollout load needs --model base@version");
    }
    serve::LoadVersionRequest request;
    request.name = model;
    request.architecture = flags.get("arch", "");
    request.backend_kind = flags.get("backend", "");
    request.bits = static_cast<uint8_t>(flags.get_int("bits", 0));
    request.init_seed = static_cast<uint64_t>(flags.get_int("seed", 1));
    const std::string state_path = flags.get("state", "");
    if (!state_path.empty()) {
      request.state = read_file_bytes(state_path);
    }
    check_unused(flags);
    serve::SocketClient client(socket);
    reply = client.load_version(request);
  } else if (verb == "promote") {
    check_unused(flags);
    serve::SocketClient client(socket);
    reply = client.promote(model);
  } else if (verb == "rollback") {
    const std::string reason = flags.get("reason", "");
    check_unused(flags);
    serve::SocketClient client(socket);
    reply = client.rollback(model, reason);
  } else if (verb == "status") {
    check_unused(flags);
    serve::SocketClient client(socket);
    reply = client.rollout_status(model);
  } else {
    throw std::invalid_argument("unknown rollout verb '" + verb +
                                "' (load|promote|rollback|status)");
  }
  std::printf("%s%s%s", reply.ok ? "" : "refused: ",
              reply.message.c_str(),
              reply.message.empty() || reply.message.back() == '\n' ? ""
                                                                    : "\n");
  return reply.ok ? 0 : 1;
}

int cmd_supervisor(const util::Flags& flags) {
  const std::string verb =
      flags.positional().size() >= 2 ? flags.positional()[1] : "run";
  if (verb == "status" || verb == "release") {
    // Operator verbs against a running supervisor's control endpoint.
    const std::string connect = flags.get("connect", "");
    if (connect.empty()) {
      throw std::invalid_argument("supervisor " + verb +
                                  " needs --connect endpoint");
    }
    const std::string lane = flags.get("lane", "");
    if (verb == "release" && lane.empty()) {
      throw std::invalid_argument("supervisor release needs --lane name");
    }
    check_unused(flags);
    serve::SocketClient client(connect);
    const serve::RolloutReply reply = client.supervise(verb, lane);
    std::printf("%s%s%s", reply.ok ? "" : "refused: ",
                reply.message.c_str(),
                reply.message.empty() || reply.message.back() == '\n'
                    ? ""
                    : "\n");
    return reply.ok ? 0 : 1;
  }
  if (verb != "run") {
    throw std::invalid_argument("unknown supervisor verb '" + verb +
                                "' (run|status|release)");
  }
  const std::string spec_path = flags.get("spec", "");
  if (spec_path.empty()) {
    throw std::invalid_argument("supervisor needs --spec file");
  }
  supervise::SupervisorOptions opts;
  opts.crash_loop.quarantine_exits = static_cast<int>(
      flags.get_int("quarantine-exits", opts.crash_loop.quarantine_exits));
  opts.crash_loop.window_us =
      flags.get_int("quarantine-window-ms",
                    opts.crash_loop.window_us / 1000) *
      1000;
  opts.crash_loop.healthy_reset_us =
      flags.get_int("healthy-reset-ms",
                    opts.crash_loop.healthy_reset_us / 1000) *
      1000;
  opts.crash_loop.backoff.base_us =
      static_cast<uint64_t>(flags.get_int(
          "restart-base-ms",
          static_cast<int64_t>(opts.crash_loop.backoff.base_us / 1000))) *
      1000;
  opts.crash_loop.backoff.max_us =
      static_cast<uint64_t>(flags.get_int(
          "restart-max-ms",
          static_cast<int64_t>(opts.crash_loop.backoff.max_us / 1000))) *
      1000;
  opts.drain_timeout_ms =
      flags.get_int("drain-timeout-ms", opts.drain_timeout_ms);
  const std::string listen = flags.get("listen", "");
  check_unused(flags);

  const supervise::SupervisorSpec spec =
      supervise::load_supervisor_spec(spec_path);
  supervise::Supervisor supervisor(spec, opts);
  supervisor.start();
  std::printf("supervising %zu lane(s) from %s:\n", spec.lanes.size(),
              spec_path.c_str());
  for (const supervise::LaneSpec& lane : spec.lanes) {
    std::string argv_line;
    for (const std::string& a : lane.argv) {
      argv_line += (argv_line.empty() ? "" : " ") + a;
    }
    std::printf("  %s = %s\n", lane.name.c_str(), argv_line.c_str());
  }
  std::printf("  crash loop: quarantine after %d exits / %llds window; "
              "drain %lld ms; Ctrl-C drains children and exits\n",
              opts.crash_loop.quarantine_exits,
              static_cast<long long>(opts.crash_loop.window_us / 1000000),
              static_cast<long long>(opts.drain_timeout_ms));
  supervise::SupervisorFrameHandler handler(supervisor);
  std::unique_ptr<serve::SocketServer> control;
  if (!listen.empty()) {
    control = std::make_unique<serve::SocketServer>(
        handler, serve::parse_endpoint(listen));
    std::printf("  control endpoint on %s\n",
                control->endpoint().str().c_str());
  }
  supervisor.run_until_signal();
  if (control != nullptr) control->stop();
  std::printf("supervisor drained; final lane table:\n%s",
              supervisor.status_report().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Boolean flags must be declared so "--nc lenet" style argv never eats
    // a positional (see util/flags.h).
    const util::Flags flags(
        argc, argv, {"nc", "no-retry", "open-loop", "write-verify",
                     "snc-write-verify", "health",
                     "health-per-replica-seeds", "rollout-manual"});
    const int64_t threads = flags.get_int("threads", 0);
    if (threads > 0) util::set_num_threads(static_cast<int>(threads));
    if (flags.positional().empty()) {
      std::fprintf(
          stderr,
          "usage: qsnc "
          "<train|quantize|eval|deploy|faultsim|cost|serve|router|rollout|"
          "loadgen|supervisor> [flags]\n"
          "see the header of tools/qsnc.cpp for details\n");
      return 2;
    }
    const std::string& cmd = flags.positional()[0];
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "quantize") return cmd_quantize(flags);
    if (cmd == "eval") return cmd_eval(flags);
    if (cmd == "deploy") return cmd_deploy(flags);
    if (cmd == "faultsim") return cmd_faultsim(flags);
    if (cmd == "cost") return cmd_cost(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "router") return cmd_router(flags);
    if (cmd == "rollout") return cmd_rollout(flags);
    if (cmd == "loadgen") return cmd_loadgen(flags);
    if (cmd == "supervisor") return cmd_supervisor(flags);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
