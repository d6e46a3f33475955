// Extension bench: accuracy of the deployed SNC under memristor
// fabrication defects (stuck-at-off / stuck-at-on cells), following the
// defect model of the paper's reference [16] (C. Liu et al., DAC'17).
// Stuck-on cells are far more damaging: a stuck-off cell merely zeroes one
// synapse, a stuck-on cell injects a full-scale conductance.
//
// The second table turns recovery on (write-verify + differential
// compensation + spare-column remap) and reports the accuracy reclaimed
// over the passive baseline at each rate. Writes BENCH_faults.json
// (override with QSNC_BENCH_OUT).
#include "bench_common.h"
#include "bench_json.h"
#include "core/neuron_convergence.h"
#include "core/qat_pipeline.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "snc/snc_system.h"
#include "util/thread_pool.h"

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

}  // namespace

int main() {
  std::printf("== Extension: SNC accuracy under device defects ==\n");
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

  report::Table t({"defect kind", "rate", "accuracy (3-seed mean)"});
  struct Case {
    const char* kind;
    double off, on;
  };
  const Case cases[] = {
      {"none", 0.0, 0.0},       {"stuck-off", 0.01, 0.0},
      {"stuck-off", 0.05, 0.0}, {"stuck-off", 0.10, 0.0},
      {"stuck-on", 0.0, 0.01},  {"stuck-on", 0.0, 0.02},
      {"stuck-on", 0.0, 0.05},  {"both", 0.05, 0.02},
  };
  for (const Case& c : cases) {
    double acc = 0.0;
    const int seeds = c.off == 0.0 && c.on == 0.0 ? 1 : 3;
    for (int seed = 0; seed < seeds; ++seed) {
      snc::SncConfig scfg = base;
      scfg.device.stuck_off_rate = c.off;
      scfg.device.stuck_on_rate = c.on;
      scfg.seed = 7 + static_cast<uint64_t>(seed);
      snc::SncSystem sys(net, {1, 28, 28}, scfg);
      acc += snc_accuracy(sys, *mnist.test, n);
    }
    t.add_row({c.kind, report::fmt(std::max(c.off, c.on), 2),
               report::pct(acc / seeds)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("stuck-on defects dominate the damage, matching [16]'s "
              "motivation for defect-aware remapping.\n");

  // Closed-loop recovery: same fault draws (static per-cell defect maps,
  // same seeds), write-verify + differential compensation + 2 spare
  // columns per crossbar.
  const double fault_free = [&] {
    snc::SncSystem sys(net, {1, 28, 28}, base);
    return snc_accuracy(sys, *mnist.test, n);
  }();
  struct RecoveryRow {
    double rate, passive, recovered;
  };
  std::vector<RecoveryRow> rows;
  report::Table rt({"stuck-on", "passive", "recovered", "reclaimed pp",
                    "drop vs fault-free pp"});
  for (double rate : {0.01, 0.02, 0.05}) {
    const int seeds = 3;
    double passive = 0.0, recovered = 0.0;
    for (int seed = 0; seed < seeds; ++seed) {
      snc::SncConfig scfg = base;
      scfg.device.stuck_on_rate = rate;
      scfg.seed = 7 + static_cast<uint64_t>(seed);
      snc::SncSystem passive_sys(net, {1, 28, 28}, scfg);
      passive += snc_accuracy(passive_sys, *mnist.test, n);
      scfg.recovery.write_verify = true;
      scfg.recovery.spare_cols = 2;
      snc::SncSystem recovered_sys(net, {1, 28, 28}, scfg);
      recovered += snc_accuracy(recovered_sys, *mnist.test, n);
    }
    passive /= seeds;
    recovered /= seeds;
    rows.push_back({rate, passive, recovered});
    rt.add_row({report::fmt(rate, 2), report::pct(passive),
                report::pct(recovered),
                report::fmt((recovered - passive) * 100.0, 1),
                report::fmt((fault_free - recovered) * 100.0, 1)});
  }
  std::printf("closed-loop recovery (write-verify + 2 spares, 3-seed "
              "mean; fault-free %s):\n%s",
              report::pct(fault_free).c_str(), rt.to_string().c_str());

  std::string path;
  std::FILE* f =
      bench::open_json("BENCH_faults.json", util::num_threads(), &path);
  if (f == nullptr) return 1;
  std::fprintf(f, "  \"fault_free_accuracy\": %.4f,\n  \"rows\": [\n",
               fault_free);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"stuck_on_rate\": %.3f, \"passive_accuracy\": "
                 "%.4f, \"recovered_accuracy\": %.4f, "
                 "\"reclaimed_pp\": %.2f, \"drop_vs_fault_free_pp\": "
                 "%.2f}%s\n",
                 rows[i].rate, rows[i].passive, rows[i].recovered,
                 (rows[i].recovered - rows[i].passive) * 100.0,
                 (fault_free - rows[i].recovered) * 100.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
