// rotate: one NewParallelRenderer renders a continuous 2-degree-per-frame
// orbit of the 256^3 MRI phantom on a ThreadedExecutor of nproc - 1
// workers, closed loop, with the section 4.2 profile cadence. No service,
// network or preparation work is on the measured path.
#include <cstdio>
#include <memory>
#include <thread>

#include "core/renderer.hpp"
#include "core/transfer.hpp"
#include "parallel/animation.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/prepare.hpp"
#include "phantom/phantom.hpp"
#include "workloads.hpp"

namespace swbench {

using namespace psw;

namespace {

constexpr int kSize = 256;
constexpr int kCheckEvery = 25;  // hash every k-th frame against a serial render

struct Scene {
  std::shared_ptr<const EncodedVolume> volume;
  std::unique_ptr<ThreadedExecutor> exec;
  std::unique_ptr<NewParallelRenderer> renderer;
};

// Per-frame record of the traced phase: the renderer's own statistics.
struct StatsRow {
  double client_ms, total_ms, composite_ms, warp_ms, imbalance;
  uint64_t steals;
  bool profiled;
};

// Cold opens with no service: synthesis, preparation and the first frame
// of a never-seen 128^3 volume, on a fixed-interval schedule.
void cold_probe(const Config& cfg, const Scene& scene, const ParallelOptions& popt,
                RunResult* out, Samples* cold_ms, Samples* late_ms) {
  const auto interval = std::chrono::milliseconds(250);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  for (int i = 0; i < cfg.cold_opens; ++i) {
    const Clock::time_point due = t0 + i * interval;
    std::this_thread::sleep_until(due);
    late_ms->add(ms_between(due, Clock::now()));
    const serve::VolumeKey key = volume_key("mri", 128, mix_seed(cfg.seed, 100 + i));
    PrepareOptions prep;
    prep.threads = cfg.workers;
    const EncodedVolume volume =
        prepare_volume(make_mri_brain(key.nx, key.ny, key.nz, key.seed),
                       TransferFunction::mri_preset(), key.classify, prep);
    NewParallelRenderer renderer(popt);
    const Camera camera = Camera::orbit({key.nx, key.ny, key.nz},
                                        (mix_seed(cfg.seed, 200 + i) % 360) * kDeg, 0.35);
    ImageU8 image;
    ParallelRenderStats stats;
    renderer.render(volume, camera, *scene.exec, &image, &stats);
    cold_ms->add(ms_between(due, Clock::now()));
    if (image_hash(image) != reference_frame_hash(volume, camera)) {
      out->fail("rotate cold open " + std::to_string(i) + ": frame differs from serial render");
    }
  }
}

}  // namespace

RunResult run_rotate(const Config& cfg) {
  RunResult out;
  AnimationPath path;
  path.dims = {kSize, kSize, kSize};
  path.start_yaw = (mix_seed(cfg.seed, 2) % 360) * kDeg;
  path.degrees_per_frame = 2.0;
  ParallelOptions popt;
  popt.profile_every = path.profile_interval();
  const uint64_t phantom_seed = mix_seed(cfg.seed, 1) | 1;

  // Set-up: phantom synthesis, preparation, executor and renderer warm-up
  // (two profile intervals), repeated; the last scene is measured.
  Scene scene;
  Samples setup_s(cfg.setups);
  ImageU8 image;
  ParallelRenderStats stats;
  int frame = 0;
  for (int s = 0; s < cfg.setups; ++s) {
    scene = Scene{};
    const Clock::time_point t0 = Clock::now();
    PrepareOptions prep;
    prep.threads = cfg.workers;
    scene.volume = std::make_shared<const EncodedVolume>(
        prepare_volume(make_mri_brain(kSize, kSize, kSize, phantom_seed),
                       TransferFunction::mri_preset(), ClassifyOptions{}, prep));
    scene.exec = std::make_unique<ThreadedExecutor>(cfg.workers);
    scene.renderer = std::make_unique<NewParallelRenderer>(popt);
    for (frame = 0; frame < 2 * popt.profile_every; ++frame) {
      scene.renderer->render(*scene.volume, path.camera(frame), *scene.exec, &image, &stats);
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }

  // One measured phase: closed-loop frames for `seconds` (or `frames`).
  const size_t cap = cfg.frames > 0 ? static_cast<size_t>(cfg.frames)
                                    : static_cast<size_t>(cfg.seconds * 400) + 64;
  std::vector<std::pair<int, uint64_t>> checked;
  checked.reserve(cap / kCheckEvery + 2);
  std::vector<StatsRow> rows;
  auto measure = [&](double seconds, bool traced, Samples* frame_ms) {
    frame_ms->reserve(cap);
    if (traced) rows.reserve(cap);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    int n = 0;
    for (;; ++n, ++frame) {
      if (cfg.frames > 0 ? n >= cfg.frames : Clock::now() >= end) break;
      const Camera camera = path.camera(frame);
      const Clock::time_point t0 = Clock::now();
      scene.renderer->render(*scene.volume, camera, *scene.exec, &image, &stats);
      const Clock::time_point t1 = Clock::now();
      const double ms = ms_between(t0, t1);
      frame_ms->add(ms, ms_between(start, t1) / 1e3);
      if (n % kCheckEvery == 0) checked.emplace_back(frame, image_hash(image));
      if (traced) {
        rows.push_back({ms, stats.total_ms, stats.composite_ms, stats.warp_ms,
                        stats.work_imbalance(), stats.steals, stats.profiled});
      }
    }
    out.attempted += static_cast<uint64_t>(n);
    return median_window_rate(frame_ms->times(),
                              cfg.frames > 0 ? ms_between(start, Clock::now()) / 1e3 : seconds);
  };

  Samples frame_ms, traced_ms;
  const double fps = measure(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false, &frame_ms);
  const double traced_fps = cfg.trace ? measure(cfg.seconds / 2, true, &traced_ms) : 0.0;

  Samples cold_ms(cfg.cold_opens), late_ms(cfg.cold_opens);
  cold_probe(cfg, scene, popt, &out, &cold_ms, &late_ms);
  out.attempted += static_cast<uint64_t>(cfg.cold_opens);

  // Output check: every k-th frame against a direct serial render.
  std::vector<uint64_t> expect(checked.size());
  parallel_for(static_cast<int>(checked.size()), cfg.workers + 1, [&](int i) {
    expect[i] = reference_frame_hash(*scene.volume, path.camera(checked[i].first));
  });
  for (size_t i = 0; i < checked.size(); ++i) {
    if (expect[i] != checked[i].second) {
      out.fail("rotate frame " + std::to_string(checked[i].first) +
               ": pixels differ from serial render");
    }
  }

  std::printf("\nrotate: %dx%dx%d MRI, P=%d, profile every %d frames, %zu frames checked\n",
              kSize, kSize, kSize, cfg.workers, popt.profile_every, checked.size());
  report_end_to_end("frame_ms (render call)", frame_ms, fps, cold_ms, setup_s, &out);
  out.counts["frames_attempted"] = out.attempted;
  out.counts["frames_checked"] = checked.size();

  if (!cfg.trace) return out;

  // Kernel layer: P=1 serial pass over every 2nd view of one full orbit.
  Samples core_composite, core_warp, core_total, core_voxels, core_ns_per_voxel;
  SerialRenderer serial;
  for (int f = 0; f < 180; f += 2) {
    const RenderStats rs = serial.render(*scene.volume, path.camera(f), &image);
    core_composite.add(rs.composite_ms);
    core_warp.add(rs.warp_ms);
    core_total.add(rs.total_ms);
    const double voxels = static_cast<double>(rs.composite.voxels_composited);
    core_voxels.add(voxels);
    core_ns_per_voxel.add(voxels > 0 ? rs.composite_ms * 1e6 / voxels : 0.0);
  }
  out.layer("core.composite_ms", core_composite.median(), "ms");
  out.layer("core.warp_ms", core_warp.median(), "ms");
  out.layer("core.voxels_per_frame", core_voxels.median(), "count");
  out.layer("core.ns_per_voxel", core_ns_per_voxel.median(), "ns");

  Samples composite, warp, other, imbalance;
  double steals = 0.0, profiled = 0.0;
  std::vector<LedgerFrame> ledger;
  ledger.reserve(rows.size());
  for (const StatsRow& r : rows) {
    composite.add(r.composite_ms);
    warp.add(r.warp_ms);
    other.add(r.total_ms - r.composite_ms - r.warp_ms);
    imbalance.add(r.imbalance);
    steals += static_cast<double>(r.steals);
    profiled += r.profiled ? 1.0 : 0.0;
    ledger.push_back({r.client_ms, {r.composite_ms, r.warp_ms,
                                    r.total_ms - r.composite_ms - r.warp_ms}});
  }
  const double n = std::max<double>(1.0, static_cast<double>(rows.size()));
  out.layer("parallel.composite_ms", composite.median(), "ms");
  out.layer("parallel.warp_ms", warp.median(), "ms");
  out.layer("parallel.other_ms", other.median(), "ms");
  out.layer("parallel.imbalance", imbalance.median(), "ratio");
  out.layer("parallel.steals_per_frame", steals / n, "count");
  out.layer("parallel.profiled_frac", profiled / n, "ratio");
  out.layer("parallel.speedup", core_total.median() / frame_ms.median(), "x");
  out.layer("load.late_ms_max", late_ms.max(), "ms");
  out.layer("obs.overhead_frac", 1.0 - traced_fps / fps, "ratio");

  std::printf("  kernels (P=1, %zu views): composite p50 %.3f ms, warp p50 %.3f ms, "
              "%.0f voxels/frame, %.2f ns/voxel; speedup at P=%d %.2fx\n",
              core_total.size(), core_composite.median(), core_warp.median(),
              core_voxels.median(), core_ns_per_voxel.median(), cfg.workers,
              core_total.median() / frame_ms.median());
  std::printf("  traced fps %.2f vs untraced %.2f: obs.overhead_frac %.4f\n", traced_fps, fps,
              1.0 - traced_fps / fps);
  const double unattributed = print_ledger(
      "rotate, one render() call",
      {"composite (stats.composite_ms)", "warp (stats.warp_ms)",
       "partition/steal/sync (total-c-w)"},
      ledger);
  out.layer("ledger.unattributed_frac", unattributed, "ratio");
  return out;
}

}  // namespace swbench
