// Extension bench: cost and payoff of the closed-loop fault-tolerance
// layer.
//
// Three views of the same deployed LeNet:
//  1. Programming overhead — wall time and retry counts of write-verify
//     programming vs the open-loop baseline (the price of closing the
//     loop is paid once, at deployment).
//  2. Accuracy recovery — passive defect injection vs write-verify +
//     differential compensation + spare-column remapping across spare
//     budgets, at a fixed stuck-on rate.
//  3. Refresh overhead — the analytic duty cycle a periodic retention
//     refresh would cost at several refresh intervals
//     (snc::evaluate_refresh against the Eq 1 cost model).
#include <chrono>

#include "bench_common.h"
#include "core/neuron_convergence.h"
#include "core/qat_pipeline.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "snc/cost_model.h"
#include "snc/snc_system.h"

using namespace qsnc;

namespace {

double snc_accuracy(snc::SncSystem& sys, const data::InMemoryDataset& test,
                    int64_t n) {
  int64_t correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const data::Sample s = test.get(i);
    if (sys.infer(s.image) == s.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main() {
  std::printf("== Extension: fault-tolerance layer cost and payoff ==\n");
  const bench::Workload mnist = bench::mnist_workload();
  core::TrainConfig cfg = bench::lenet_train_config();
  const int bits = 4;
  const int64_t n = bench::fast_mode() ? 40 : 100;

  nn::Rng rng(cfg.seed);
  nn::Network net = models::make_lenet(rng);
  core::NeuronConvergenceRegularizer reg(bits, 0.1f);
  core::train(net, *mnist.train, cfg, &reg, bits, cfg.epochs - 2);
  core::WeightClusterConfig wc;
  wc.bits = bits;
  const auto wcr = core::apply_weight_clustering(net, wc);

  snc::SncConfig base;
  base.signal_bits = bits;
  base.weight_bits = bits;
  base.weight_scales.clear();
  for (const auto& r : wcr) base.weight_scales.push_back(r.scale);
  base.input_scale = cfg.input_scale;
  base.device.stuck_on_rate = 0.02;

  // 1. Programming overhead.
  {
    report::Table t({"programming mode", "time ms", "retries", "detected",
                     "compensated", "residual"});
    struct Mode {
      const char* name;
      bool verify;
      int64_t spares;
    };
    const Mode modes[] = {
        {"open-loop (passive)", false, 0},
        {"write-verify", true, 0},
        {"write-verify + 2 spares", true, 2},
    };
    for (const Mode& m : modes) {
      snc::SncConfig scfg = base;
      scfg.recovery.write_verify = m.verify;
      scfg.recovery.spare_cols = m.spares;
      const auto t0 = std::chrono::steady_clock::now();
      snc::SncSystem sys(net, {1, 28, 28}, scfg);
      const double ms = seconds_since(t0) * 1e3;
      const snc::FaultReport fr = sys.fault_report();
      t.add_row({m.name, report::fmt(ms, 1),
                 std::to_string(fr.write_retries),
                 std::to_string(fr.faults_detected),
                 std::to_string(fr.faults_compensated),
                 std::to_string(fr.residual_faults)});
    }
    std::printf("programming (stuck-on 2%%):\n%s", t.to_string().c_str());
  }

  // 2. Accuracy recovery across spare budgets.
  {
    snc::SncConfig clean = base;
    clean.device.stuck_on_rate = 0.0;
    snc::SncSystem clean_sys(net, {1, 28, 28}, clean);
    const double fault_free = snc_accuracy(clean_sys, *mnist.test, n);

    report::Table t({"config", "accuracy", "drop vs fault-free pp"});
    t.add_row({"fault-free", report::pct(fault_free), "0.0"});
    struct Case {
      const char* name;
      bool verify;
      int64_t spares;
    };
    const Case cases[] = {
        {"passive @ stuck-on 2%", false, 0},
        {"recovered, 0 spares", true, 0},
        {"recovered, 2 spares", true, 2},
        {"recovered, 4 spares", true, 4},
    };
    for (const Case& c : cases) {
      snc::SncConfig scfg = base;
      scfg.recovery.write_verify = c.verify;
      scfg.recovery.spare_cols = c.spares;
      double acc = 0.0;
      const int seeds = 3;
      for (int s = 0; s < seeds; ++s) {
        scfg.seed = 7 + static_cast<uint64_t>(s);
        snc::SncSystem sys(net, {1, 28, 28}, scfg);
        acc += snc_accuracy(sys, *mnist.test, n);
      }
      acc /= seeds;
      t.add_row({c.name, report::pct(acc),
                 report::fmt((fault_free - acc) * 100.0, 1)});
    }
    std::printf("accuracy (3-seed mean):\n%s", t.to_string().c_str());
  }

  // 3. Refresh duty cycle from the analytic models.
  {
    const snc::ModelMapping mapping =
        snc::map_network(net, "lenet", {1, 28, 28}, 32);
    report::Table t({"refresh every (windows)", "duty", "effective MHz"});
    for (double interval : {1e4, 1e5, 1e6}) {
      const snc::RefreshOverhead ro =
          snc::evaluate_refresh(mapping, bits, bits, interval);
      t.add_row({report::fmt(interval, 0), report::pct(ro.duty, 3),
                 report::fmt(ro.effective_speed_mhz, 2)});
    }
    std::printf("retention refresh overhead:\n%s", t.to_string().c_str());
  }
  return 0;
}
