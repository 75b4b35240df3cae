// Timed direct calls into single layers, and the serial references every
// output check compares against.
#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/renderer.hpp"
#include "core/transfer.hpp"
#include "parallel/prepare.hpp"
#include "phantom/phantom.hpp"
#include "workloads.hpp"

namespace swbench {

using namespace psw;

serve::VolumeKey volume_key(const std::string& kind, int size, uint64_t phantom_seed) {
  serve::VolumeKey key;
  key.kind = kind;
  key.tf_preset = kind == "ct" ? 1 : 0;
  key.nx = key.ny = key.nz = size;
  key.seed = phantom_seed | 1;  // 0 would select the generator's default seed
  return key;
}

static DensityVolume make_phantom(const serve::VolumeKey& key) {
  return key.kind == "ct" ? make_ct_head(key.nx, key.ny, key.nz, key.seed)
                          : make_mri_brain(key.nx, key.ny, key.nz, key.seed);
}

static TransferFunction transfer_for(const serve::VolumeKey& key) {
  return key.tf_preset == 1 ? TransferFunction::ct_preset() : TransferFunction::mri_preset();
}

std::shared_ptr<const EncodedVolume> reference_volume(const serve::VolumeKey& key) {
  return std::make_shared<const EncodedVolume>(
      prepare_volume(make_phantom(key), transfer_for(key), key.classify));
}

uint64_t reference_frame_hash(const EncodedVolume& volume, const Camera& camera) {
  SerialRenderer renderer;
  ImageU8 image;
  renderer.render(volume, camera, &image);
  return image_hash(image);
}

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  const int t = std::max(1, std::min(threads, n));
  for (int i = 0; i < t; ++i) {
    pool.emplace_back([&] {
      for (int j = next.fetch_add(1); j < n; j = next.fetch_add(1)) fn(j);
    });
  }
  for (std::thread& th : pool) th.join();
}

void probe_phantom_prepare(const Config& cfg, RunResult* out) {
  // The coldmix shards prepare cache misses with 2 threads; the probe uses
  // the same setting so its split lines up with the shards' cold builds.
  constexpr int kShardPrepareThreads = 2;
  constexpr int kReps = 3;
  const serve::VolumeKey key = volume_key("mri", 128, mix_seed(cfg.seed, 900));
  Samples make_ms(kReps), classify_ms(kReps), encode_ms(kReps);
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    DensityVolume density = make_phantom(key);
    make_ms.add(ms_between(t0, Clock::now()));
    PrepareOptions prep;
    prep.threads = kShardPrepareThreads;
    PrepareTiming timing;
    const EncodedVolume vol =
        prepare_volume(density, transfer_for(key), key.classify, prep, nullptr, &timing);
    classify_ms.add(timing.classify_ms);
    encode_ms.add(timing.encode_ms);
    if (r == 0 && vol.content_hash() != reference_volume(key)->content_hash()) {
      out->fail("prepare probe: parallel content_hash differs from serial prepare_volume");
    }
  }
  out->layer("phantom.make_ms", make_ms.median(), "ms");
  out->layer("prepare.classify_ms", classify_ms.median(), "ms");
  out->layer("prepare.encode_ms", encode_ms.median(), "ms");
  std::printf("\n  layer probes (128^3 MRI, median of %d): phantom %.2f ms, classify %.2f ms, "
              "encode %.2f ms at %d prepare threads\n",
              kReps, make_ms.median(), classify_ms.median(), encode_ms.median(),
              kShardPrepareThreads);
}

}  // namespace swbench
