// The three workloads and the layer probes they share.
#pragma once

#include <functional>
#include <memory>

#include "common.hpp"
#include "core/rle_volume.hpp"
#include "serve/request.hpp"

namespace swbench {

// rotate: one NewParallelRenderer orbiting the 256^3 MRI phantom.
RunResult run_rotate(const Config& cfg);
// interactive: 3 closed-loop one-shot viewers on a NetServer over loopback.
RunResult run_interactive(const Config& cfg);
// coldmix: router + 2 shards, 2 warm streams and an open-loop cold opener.
RunResult run_coldmix(const Config& cfg);

// phantom.make_ms, prepare.classify_ms, prepare.encode_ms: timed direct
// calls on a seed-derived 128^3 MRI volume at the coldmix shard settings.
void probe_phantom_prepare(const Config& cfg, RunResult* out);

// A 128^3 volume key: kind "mri" or "ct", phantom seed from the run seed.
psw::serve::VolumeKey volume_key(const std::string& kind, int size, uint64_t phantom_seed);

// The volume the service's default builder makes for `key`, prepared
// serially: the reference every delivered frame and cold volume is checked
// against.
std::shared_ptr<const psw::EncodedVolume> reference_volume(const psw::serve::VolumeKey& key);

// Hash of a direct serial render of `volume` from `camera`.
uint64_t reference_frame_hash(const psw::EncodedVolume& volume, const psw::Camera& camera);

// Runs fn(i) for i in [0, n) on up to `threads` threads (verification work
// after a measured phase).
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

constexpr double kDeg = 3.14159265358979323846 / 180.0;

}  // namespace swbench
