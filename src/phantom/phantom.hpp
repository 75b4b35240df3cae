// Procedural stand-ins for the paper's input data (§3.3): an MRI scan of a
// human brain and a CT scan of a human head. We do not have the original
// scans, so these generators synthesize volumes with the *statistics* the
// algorithms care about: 70-95% of voxels transparent after classification,
// spatially coherent opaque structure (long runs), nested tissue layers with
// distinct density bands, and an empty margin around the object.
//
// Both generators are deterministic in (dimensions, seed) and serial. A
// voxel's density is 0 outside the union of the structure ellipsoids, each
// widened by its noise bound (plus a 1e-4 level margin and one voxel). Each
// row is evaluated only between the first and last column inside that
// union; the voxels outside it are never sampled.
// The output bytes are pinned by Phantom.GoldenContentHashes
// (tests/test_phantom.cpp); a change to the generators must keep them.
#pragma once

#include <cstdint>

#include "core/volume.hpp"

namespace psw {

// MRI brain phantom: ellipsoidal cortex with folded-surface perturbation
// (sulci/gyri analogue), interior white-matter body, ventricle cavities and
// a faint skin/scalp shell. Densities: background ~0, CSF ~40, gray matter
// ~110, white matter ~170, skin ~60.
DensityVolume make_mri_brain(int nx, int ny, int nz, uint64_t seed = 0x5eedbeef);

// CT head phantom: high-density skull shell enclosing soft tissue, with
// sinus/airway cavities and mandible-like lower structure. Densities:
// air ~0, soft tissue ~90, bone ~230.
DensityVolume make_ct_head(int nx, int ny, int nz, uint64_t seed = 0xc7c7c7c7);

// Fraction of voxels with density below the given threshold; the paper notes
// that for typical medical volumes 70-95% of voxels are transparent.
double transparent_fraction(const DensityVolume& v, uint8_t threshold);

// Named dataset sizes mirroring §3.3. The paper's "256^3" MRI set is really
// 256x256x167 and the "512^3" set 511x511x333; we keep those aspect ratios.
struct DatasetSpec {
  const char* name;
  int nx, ny, nz;
};

// MRI brain dataset sizes used throughout the evaluation (128/256/512-class
// plus the supplementary 640-class set).
inline constexpr DatasetSpec kMriSpecs[] = {
    {"mri-128", 128, 128, 128},
    {"mri-256", 256, 256, 167},
    {"mri-512", 511, 511, 333},
    {"mri-640", 640, 640, 417},
};

// CT head dataset sizes (§3.3 / Figure 15; the 512-class CT set is 511^3).
inline constexpr DatasetSpec kCtSpecs[] = {
    {"ct-128", 128, 128, 128},
    {"ct-256", 256, 256, 256},
    {"ct-512", 511, 511, 510},
};

}  // namespace psw
