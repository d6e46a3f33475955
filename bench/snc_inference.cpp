// SNC inference benchmark: the crossbar-stage runner (SncSystem::infer)
// against the dense reference oracle (SncSystem::infer_reference) on the
// model zoo.
//
// For each model (lenet / alexnet / resnet minis) and each integration
// mode (ideal, online) the same images run through two identically
// programmed SncSystems, one per path. The bench verifies predictions and
// logits match bit-for-bit, then reports images/sec for both plus the
// activity counters that explain the gap: per-image input events vs dense
// row drives (the O(nnz) work reduction, immune to timer noise) and — in
// online mode — the fraction of window slots that actually carried
// spikes, fed into the discrete-event timing simulator to estimate what
// an event-driven slot sequencer buys in hardware.
//
// A second sweep runs the same images through SncSystem::infer_batch at B
// in {1, 2, 4, 8, 16}, verifying predictions stay bit-identical to the
// per-image loop at every B and reporting images/sec plus panel bytes
// streamed per image (dense stages stream each union row once per batch,
// so bytes/image falls as B grows; a conv stage streams its panel once
// per image and 8-position group). Exits 1 on any mismatch.
//
// A third pass times the ideal read per crossbar stage at B=1 and B=8
// (SncSystem::last_call_timing(): drive build, read, epilogue — fused
// into the read on conv stages, so 0 there — the following pool stages,
// skip add, stage wall time) beside each stage's input events and panel
// bytes, averaged over
// many calls (fewer under QSNC_BENCH_FAST=1), and reports the minor page
// faults and wall time per steady-state infer_batch call without stats.
//
// Writes BENCH_snc.json (override with QSNC_BENCH_OUT) under a machine
// header (bench_json.h).
// Flags: --images N (ideal-mode images per model, default 8)
//        --online-images N (online-mode images per model, default 16)
//        --models csv (default lenet,alexnet,resnet)
//        --batch-sizes csv (default 1,2,4,8,16; empty disables the sweep)
//        --batch-images N (ideal-mode sweep images per B, default 16)
//        --batch-online-images N (online-mode sweep images, default 4)
//        --threads N (default 1: single-thread timing)
// Image counts may exceed the test set: indices cycle through it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.h"
#include "bench_json.h"
#include "core/bn_folding.h"
#include "core/fixed_point.h"
#include "core/weight_clustering.h"
#include "models/model_zoo.h"
#include "snc/snc_system.h"
#include "snc/timing_sim.h"
#include "util/flags.h"
#include "util/thread_pool.h"

using namespace qsnc;

namespace {

struct ModelCase {
  std::string name;
  nn::Network net;
  nn::Shape input;
  data::DatasetPtr images;
};

// Image i of a run; counts larger than the test set cycle through it.
data::Sample sample_at(const ModelCase& model, int64_t i) {
  return model.images->get(i % model.images->size());
}

struct PathRun {
  double seconds = 0.0;
  double images_per_sec = 0.0;
  std::vector<int64_t> predictions;
  std::vector<std::vector<double>> logits;
  snc::SncStats totals;  // stage entries summed over images
  int64_t images = 0;
};

struct ModeResult {
  std::string model;
  std::string mode;
  int64_t images = 0;
  PathRun runner;     // infer()
  PathRun reference;  // infer_reference()
  double speedup = 0.0;
  bool predictions_match = false;
  double input_sparsity = 0.0;
  double events_per_image = 0.0;
  double dense_drives_per_image = 0.0;
  double spikes_per_image = 0.0;
  double occupied_slot_fraction = 0.0;  // online mode only
  double timing_speedup = 0.0;          // online mode only
};

PathRun run_path(nn::Network& net, const ModelCase& model,
                 const snc::SncConfig& cfg, int64_t images, bool reference) {
  snc::SncSystem system(net, model.input, cfg);
  PathRun run;
  run.images = images;
  snc::SncStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < images; ++i) {
    const data::Sample s = sample_at(model, i);
    run.predictions.push_back(reference
                                  ? system.infer_reference(s.image, &stats)
                                  : system.infer(s.image, &stats));
    run.logits.push_back(system.last_logits());
    run.totals.add(stats);
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.images_per_sec =
      run.seconds > 0.0 ? static_cast<double>(images) / run.seconds : 0.0;
  return run;
}

// One point of the batch sweep: model x mode x B.
struct BatchPoint {
  std::string model;
  std::string mode;
  int64_t batch = 0;
  int64_t images = 0;
  double images_per_sec = 0.0;
  double panel_bytes_per_image = 0.0;
  bool predictions_match = false;  // vs per-image infer()
};

std::vector<int64_t> parse_int_list(const std::string& csv) {
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    if (end > pos) out.push_back(std::stoll(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

// Runs the batch sweep for one (model, mode): a per-image pass pins the
// expected predictions, then each batch size re-runs the same images
// through infer_batch on a freshly programmed system (construction is
// outside the timer; batch tensors are pre-assembled).
void run_batch_sweep(const ModelCase& model, nn::Network& net,
                     snc::SncConfig cfg, snc::IntegrationMode mode,
                     const std::vector<int64_t>& sizes, int64_t images,
                     std::vector<BatchPoint>& out) {
  cfg.mode = mode;
  const bool online = mode == snc::IntegrationMode::kOnline;
  const int64_t chw = nn::shape_numel(model.input);

  std::vector<int64_t> reference;
  {
    snc::SncSystem system(net, model.input, cfg);
    for (int64_t i = 0; i < images; ++i) {
      reference.push_back(system.infer(sample_at(model, i).image));
    }
  }
  for (const int64_t batch_size : sizes) {
    if (batch_size < 1 || batch_size > images) continue;
    std::vector<nn::Tensor> batches;
    for (int64_t start = 0; start < images; start += batch_size) {
      const int64_t b = std::min(batch_size, images - start);
      nn::Tensor t({b, model.input[0], model.input[1], model.input[2]});
      for (int64_t j = 0; j < b; ++j) {
        const data::Sample s = sample_at(model, start + j);
        std::copy(s.image.data(), s.image.data() + chw, t.data() + j * chw);
      }
      batches.push_back(std::move(t));
    }

    snc::SncSystem system(net, model.input, cfg);
    const int64_t bytes0 = system.panel_bytes_streamed();
    std::vector<int64_t> preds;
    const auto t0 = std::chrono::steady_clock::now();
    for (const nn::Tensor& t : batches) {
      const std::vector<int64_t> p = system.infer_batch(t);
      preds.insert(preds.end(), p.begin(), p.end());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    BatchPoint point;
    point.model = model.name;
    point.mode = online ? "online" : "ideal";
    point.batch = batch_size;
    point.images = images;
    point.images_per_sec =
        seconds > 0.0 ? static_cast<double>(images) / seconds : 0.0;
    point.panel_bytes_per_image =
        static_cast<double>(system.panel_bytes_streamed() - bytes0) /
        static_cast<double>(images);
    point.predictions_match = preds == reference;
    out.push_back(point);
  }
}

// Per-stage host timing of one (model, B), averaged per call.
struct StageTimingRow {
  std::string model;
  int64_t batch = 0;
  int64_t stage = 0;
  int64_t rows = 0, cols = 0, positions = 0;
  double events_per_image = 0.0;
  double panel_bytes_per_call = 0.0;
  snc::SncStageTiming us;  // per-call means (panel_bytes unused)
};

// Steady-state cost of one infer_batch call without stats.
struct CallRow {
  std::string model;
  int64_t batch = 0;
  int64_t calls = 0;
  double us_per_call = 0.0;
  double minor_faults_per_call = 0.0;
};

int64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_minflt);
}

// Times the ideal read of `model` at batch size `batch`: warm-up calls
// first (they size the system's workspace and the thread-local scratch),
// then `calls` calls with stats for the per-stage rows, then `calls` calls
// without stats for the wall time and minor-fault count per call.
void run_stage_timing(const ModelCase& model, nn::Network& net,
                      snc::SncConfig cfg, int64_t batch, int64_t calls,
                      std::vector<StageTimingRow>& rows,
                      std::vector<CallRow>& call_rows) {
  cfg.mode = snc::IntegrationMode::kIdealIntegration;
  const int64_t chw = nn::shape_numel(model.input);
  nn::Tensor t({batch, model.input[0], model.input[1], model.input[2]});
  for (int64_t j = 0; j < batch; ++j) {
    const data::Sample s = sample_at(model, j);
    std::copy(s.image.data(), s.image.data() + chw, t.data() + j * chw);
  }
  snc::SncSystem system(net, model.input, cfg);
  std::vector<snc::SncStats> stats;
  for (int w = 0; w < 3; ++w) system.infer_batch(t, &stats);

  std::vector<snc::SncStageTiming> sum;
  std::vector<int64_t> events;
  for (int64_t c = 0; c < calls; ++c) {
    system.infer_batch(t, &stats);
    const std::vector<snc::SncStageTiming>& timing = system.last_call_timing();
    sum.resize(timing.size());
    events.resize(timing.size());
    for (size_t st = 0; st < timing.size(); ++st) {
      sum[st].panel_bytes += timing[st].panel_bytes;
      sum[st].drive_us += timing[st].drive_us;
      sum[st].read_us += timing[st].read_us;
      sum[st].epilogue_us += timing[st].epilogue_us;
      sum[st].stage_us += timing[st].stage_us;
      sum[st].pool_us += timing[st].pool_us;
      sum[st].skip_us += timing[st].skip_us;
      for (const snc::SncStats& s : stats) {
        events[st] += s.stage[st].input_events;
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(calls);
  for (size_t st = 0; st < sum.size(); ++st) {
    StageTimingRow row;
    row.model = model.name;
    row.batch = batch;
    row.stage = static_cast<int64_t>(st);
    row.rows = stats[0].stage[st].rows;
    row.cols = stats[0].stage[st].cols;
    row.positions = stats[0].stage[st].positions;
    row.events_per_image = static_cast<double>(events[st]) * inv /
                           static_cast<double>(batch);
    row.panel_bytes_per_call = static_cast<double>(sum[st].panel_bytes) * inv;
    row.us.drive_us = sum[st].drive_us * inv;
    row.us.read_us = sum[st].read_us * inv;
    row.us.epilogue_us = sum[st].epilogue_us * inv;
    row.us.stage_us = sum[st].stage_us * inv;
    row.us.pool_us = sum[st].pool_us * inv;
    row.us.skip_us = sum[st].skip_us * inv;
    rows.push_back(row);
  }

  const int64_t faults0 = minor_faults();
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t c = 0; c < calls; ++c) system.infer_batch(t);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  CallRow call;
  call.model = model.name;
  call.batch = batch;
  call.calls = calls;
  call.us_per_call = seconds * 1e6 * inv;
  call.minor_faults_per_call =
      static_cast<double>(minor_faults() - faults0) * inv;
  call_rows.push_back(call);
}

ModeResult run_mode(const ModelCase& model, nn::Network& net,
                    snc::SncConfig cfg, snc::IntegrationMode mode,
                    int64_t images) {
  cfg.mode = mode;
  const bool online = mode == snc::IntegrationMode::kOnline;

  ModeResult result;
  result.model = model.name;
  result.mode = online ? "online" : "ideal";
  result.images = images;

  result.runner = run_path(net, model, cfg, images, false);
  result.reference = run_path(net, model, cfg, images, true);

  // Exact logits too: the runner must reproduce the oracle's arithmetic,
  // not merely its argmax.
  result.predictions_match =
      result.runner.predictions == result.reference.predictions &&
      result.runner.logits == result.reference.logits;
  result.speedup = result.runner.images_per_sec > 0.0 &&
                           result.reference.images_per_sec > 0.0
                       ? result.runner.images_per_sec /
                             result.reference.images_per_sec
                       : 0.0;
  const double inv = 1.0 / static_cast<double>(images);
  result.input_sparsity = result.runner.totals.input_sparsity();
  result.events_per_image =
      static_cast<double>(result.runner.totals.input_events()) * inv;
  result.dense_drives_per_image =
      static_cast<double>(result.runner.totals.dense_row_drives()) * inv;
  result.spikes_per_image =
      static_cast<double>(result.runner.totals.total_spikes) * inv;

  if (online) {
    // Slot occupancy over every (stage, position) window, feeding the
    // timing simulator: an event-driven sequencer only issues slots that
    // carry at least one spike.
    const int64_t T = result.runner.totals.window_slots;
    int64_t occupied = 0;
    int64_t windows = 0;
    for (const snc::SncStageStats& st : result.runner.totals.stage) {
      occupied += st.occupied_slots;
      windows += st.positions;
    }
    result.occupied_slot_fraction =
        windows > 0 ? static_cast<double>(occupied) /
                          static_cast<double>(windows * T)
                    : 0.0;
    const int64_t layers =
        static_cast<int64_t>(result.runner.totals.stage.size());
    const int64_t active = static_cast<int64_t>(
        result.occupied_slot_fraction * static_cast<double>(T) + 0.999);
    const snc::TimingResult dense_t = snc::simulate_window(layers, T);
    const snc::TimingResult event_t =
        snc::simulate_window(layers, T, {}, active);
    result.timing_speedup = dense_t.period_ns / event_t.period_ns;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int64_t ideal_images = flags.get_int("images", 8);
  const int64_t online_images = flags.get_int("online-images", 16);
  const std::vector<int64_t> batch_sizes =
      parse_int_list(flags.get("batch-sizes", "1,2,4,8,16"));
  const int64_t batch_images = flags.get_int("batch-images", 16);
  const int64_t batch_online_images =
      flags.get_int("batch-online-images", 4);
  const std::string models_csv = flags.get("models", "lenet,alexnet,resnet");
  const int threads = static_cast<int>(flags.get_int("threads", 1));
  util::set_num_threads(threads);

  const int bits = 4;
  std::vector<ModelCase> models;
  {
    const bench::Workload mnist = bench::mnist_workload();
    const bench::Workload cifar = bench::cifar_workload();
    if (models_csv.find("lenet") != std::string::npos) {
      nn::Rng rng(9);
      models.push_back(
          {"lenet", models::make_lenet_mini(rng), {1, 28, 28}, mnist.test});
    }
    if (models_csv.find("alexnet") != std::string::npos) {
      nn::Rng rng(9);
      models.push_back({"alexnet", models::make_alexnet_mini(rng),
                        {3, 32, 32}, cifar.test});
    }
    if (models_csv.find("resnet") != std::string::npos) {
      nn::Rng rng(9);
      models.push_back({"resnet", models::make_resnet_mini(rng),
                        {3, 32, 32}, cifar.test});
    }
  }

  std::vector<ModeResult> results;
  std::vector<BatchPoint> batch_points;
  std::vector<StageTimingRow> timing_rows;
  std::vector<CallRow> call_rows;
  const int64_t timing_calls = bench::fast_mode() ? 10 : 200;
  bool all_match = true;
  for (ModelCase& model : models) {
    core::fold_batchnorm(model.net);
    core::WeightClusterConfig wc;
    wc.bits = bits;
    const auto wcr = core::apply_weight_clustering(model.net, wc);

    snc::SncConfig cfg;
    cfg.signal_bits = bits;
    cfg.weight_bits = bits;
    cfg.weight_scales.clear();
    for (const auto& r : wcr) cfg.weight_scales.push_back(r.scale);
    cfg.input_scale = std::min(
        16.0f, static_cast<float>(core::signal_max(bits)));

    for (snc::IntegrationMode mode :
         {snc::IntegrationMode::kIdealIntegration,
          snc::IntegrationMode::kOnline}) {
      const bool online = mode == snc::IntegrationMode::kOnline;
      const int64_t n = online ? online_images : ideal_images;
      std::printf("running %-8s %-6s x%lld ...\n", model.name.c_str(),
                  online ? "online" : "ideal", static_cast<long long>(n));
      std::fflush(stdout);
      results.push_back(run_mode(model, model.net, cfg, mode, n));
      if (!results.back().predictions_match) all_match = false;

      if (!batch_sizes.empty()) {
        const int64_t sweep_images =
            online ? batch_online_images : batch_images;
        std::printf("running %-8s %-6s batch sweep x%lld ...\n",
                    model.name.c_str(), online ? "online" : "ideal",
                    static_cast<long long>(sweep_images));
        std::fflush(stdout);
        run_batch_sweep(model, model.net, cfg, mode, batch_sizes,
                        sweep_images, batch_points);
      }
    }
    std::printf("running %-8s ideal  stage timing x%lld calls ...\n",
                model.name.c_str(), static_cast<long long>(timing_calls));
    std::fflush(stdout);
    for (const int64_t batch : {int64_t{1}, int64_t{8}}) {
      run_stage_timing(model, model.net, cfg, batch, timing_calls,
                       timing_rows, call_rows);
    }
  }
  for (const BatchPoint& p : batch_points) {
    if (!p.predictions_match) all_match = false;
  }

  std::string path;
  std::FILE* f = bench::open_json("BENCH_snc.json", threads, &path);
  if (f == nullptr) return 1;
  std::fprintf(f, "  \"threads\": %d,\n  \"results\": [\n", threads);
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"mode\": \"%s\", \"images\": %lld, "
        "\"images_per_sec_infer\": %.5g, "
        "\"images_per_sec_reference\": %.5g, "
        "\"speedup_vs_reference\": %.4g, \"predictions_match\": %s, "
        "\"input_sparsity\": %.4f, \"events_per_image\": %.1f, "
        "\"dense_row_drives_per_image\": %.1f, \"spikes_per_image\": %.1f, "
        "\"occupied_slot_fraction\": %.4f, \"timing_speedup\": %.4g}%s\n",
        r.model.c_str(), r.mode.c_str(), static_cast<long long>(r.images),
        r.runner.images_per_sec, r.reference.images_per_sec, r.speedup,
        r.predictions_match ? "true" : "false", r.input_sparsity,
        r.events_per_image, r.dense_drives_per_image, r.spikes_per_image,
        r.occupied_slot_fraction, r.timing_speedup,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batch_sweep\": [\n");
  for (size_t i = 0; i < batch_points.size(); ++i) {
    const BatchPoint& p = batch_points[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"mode\": \"%s\", \"batch\": %lld, \"images\": %lld, \"images_per_sec\": %.5g, "
        "\"panel_bytes_per_image\": %.5g, \"predictions_match\": %s}%s\n",
        p.model.c_str(), p.mode.c_str(), static_cast<long long>(p.batch), static_cast<long long>(p.images),
        p.images_per_sec, p.panel_bytes_per_image,
        p.predictions_match ? "true" : "false",
        i + 1 < batch_points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"stage_timing\": [\n");
  for (size_t i = 0; i < timing_rows.size(); ++i) {
    const StageTimingRow& r = timing_rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"batch\": %lld, \"stage\": %lld, "
        "\"rows\": %lld, \"cols\": %lld, \"positions\": %lld, "
        "\"events_per_image\": %.1f, \"panel_bytes_per_call\": %.0f, "
        "\"drive_us\": %.2f, \"read_us\": %.2f, \"epilogue_us\": %.2f, "
        "\"pool_us\": %.2f, \"skip_us\": %.2f, \"stage_us\": %.2f}%s\n",
        r.model.c_str(), static_cast<long long>(r.batch),
        static_cast<long long>(r.stage), static_cast<long long>(r.rows),
        static_cast<long long>(r.cols), static_cast<long long>(r.positions),
        r.events_per_image, r.panel_bytes_per_call, r.us.drive_us,
        r.us.read_us, r.us.epilogue_us, r.us.pool_us, r.us.skip_us,
        r.us.stage_us, i + 1 < timing_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"steady_state_calls\": [\n");
  for (size_t i = 0; i < call_rows.size(); ++i) {
    const CallRow& r = call_rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"batch\": %lld, \"calls\": %lld, "
                 "\"us_per_call\": %.2f, \"minor_faults_per_call\": %.3f}%s\n",
                 r.model.c_str(), static_cast<long long>(r.batch),
                 static_cast<long long>(r.calls), r.us_per_call,
                 r.minor_faults_per_call, i + 1 < call_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("\n== SNC inference: infer() vs infer_reference() "
              "(threads=%d) ==\n",
              threads);
  std::printf("%-8s %-6s %6s %10s %10s %8s %9s %7s %10s\n", "model", "mode",
              "images", "img/s", "ref img/s", "speedup", "sparsity",
              "match", "slot-occ");
  for (const ModeResult& r : results) {
    std::printf("%-8s %-6s %6lld %10.2f %10.2f %7.2fx %8.1f%% %7s %9.1f%%\n",
                r.model.c_str(), r.mode.c_str(),
                static_cast<long long>(r.images), r.runner.images_per_sec,
                r.reference.images_per_sec, r.speedup,
                100.0 * r.input_sparsity,
                r.predictions_match ? "yes" : "NO",
                100.0 * r.occupied_slot_fraction);
  }
  if (!batch_points.empty()) {
    std::printf("\n== infer_batch sweep (panel bytes amortized over the "
                "batch) ==\n");
    std::printf("%-8s %-6s %6s %10s %14s %7s\n", "model", "mode", "batch",
                "img/s", "panel MB/img", "match");
    for (const BatchPoint& p : batch_points) {
      std::printf("%-8s %-6s %6lld %10.2f %14.3f %7s\n", p.model.c_str(),
                  p.mode.c_str(), static_cast<long long>(p.batch),
                  p.images_per_sec,
                  p.panel_bytes_per_image / (1024.0 * 1024.0),
                  p.predictions_match ? "yes" : "NO");
    }
  }
  std::printf("\n== per-stage host time per infer_batch call (ideal read, "
              "us; read/epilogue summed over threads) ==\n");
  std::printf("%-8s %3s %5s %5s %4s %5s %9s %10s %7s %8s %8s %6s %6s %8s\n",
              "model", "B", "stage", "rows", "cols", "pos", "events/im",
              "panel KB", "drive", "read", "epilog", "pool", "skip",
              "stage");
  for (const StageTimingRow& r : timing_rows) {
    std::printf(
        "%-8s %3lld %5lld %5lld %4lld %5lld %9.1f %10.1f %7.2f %8.2f %8.2f "
        "%6.2f %6.2f %8.2f\n",
        r.model.c_str(), static_cast<long long>(r.batch),
        static_cast<long long>(r.stage), static_cast<long long>(r.rows),
        static_cast<long long>(r.cols), static_cast<long long>(r.positions),
        r.events_per_image, r.panel_bytes_per_call / 1024.0, r.us.drive_us,
        r.us.read_us, r.us.epilogue_us, r.us.pool_us, r.us.skip_us,
        r.us.stage_us);
  }
  std::printf("\n== steady-state infer_batch calls without stats ==\n");
  std::printf("%-8s %3s %7s %12s %14s\n", "model", "B", "calls", "us/call",
              "minflt/call");
  for (const CallRow& r : call_rows) {
    std::printf("%-8s %3lld %7lld %12.2f %14.3f\n", r.model.c_str(),
                static_cast<long long>(r.batch),
                static_cast<long long>(r.calls), r.us_per_call,
                r.minor_faults_per_call);
  }
  std::printf("wrote %s\n", path.c_str());
  if (!all_match) {
    std::fprintf(stderr,
                 "snc_inference: infer, infer_batch and infer_reference "
                 "disagree!\n");
    return 1;
  }
  return 0;
}
