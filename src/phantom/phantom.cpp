#include "phantom/phantom.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "util/rng.hpp"
#include "util/vec.hpp"

namespace psw {

namespace {

using Dims = std::array<int, 3>;

// Tabulates f(axis, p) at the normalized position p = (i + 0.5) / n of each index.
template <typename F>
auto tabulate(const Dims& n, F f) {
  std::array<std::vector<decltype(f(0, 0.0))>, 3> t;
  for (int a = 0; a < 3; ++a) {
    for (int i = 0; i < n[a]; ++i) t[a].push_back(f(a, (i + 0.5) / n[a]));
  }
  return t;
}

// Periodic value-noise lattice: smooth pseudo-random field used to perturb
// tissue boundaries so runs are coherent but not perfectly ellipsoidal,
// sampled at `scale` times the normalized position. The taps per axis (two
// wrapped lattice indices, weights 1-f and f) are tabulated.
class ValueNoise {
 public:
  struct Taps { int i[2]; double w[2]; };
  // The lattice rows [dz][dy] read by one (y, z) row of samples.
  struct Row { const float* lat[2][2]; const Taps *y, *z; };
  ValueNoise(uint64_t seed, int period, double scale, const Dims& n)
      : period_(period), lattice_(period * period * period) {
    SplitMix64 rng(seed);
    for (auto& v : lattice_) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    taps_ = tabulate(n, [&](int, double p) {
      const double c = p * scale, fl = std::floor(c);
      const int i0 = wrap(static_cast<int>(fl));
      const double f = smooth(c - fl);
      return Taps{{i0, wrap(i0 + 1)}, {1 - f, f}};
    });
  }

  Row row(int y, int z) const {
    Row r{{}, &taps_[1][y], &taps_[2][z]};
    for (int k = 0; k < 4; ++k) {  // k = 2*dz + dy
      const size_t lattice_row = static_cast<size_t>(r.z->i[k / 2]) * period_ + r.y->i[k % 2];
      r.lat[k / 2][k % 2] = &lattice_[lattice_row * period_];
    }
    return r;
  }

  // Trilinear sample at column x of row r: w = (wx*wy)*wz, summed dz, dy, dx.
  float sample(const Row& r, int x) const {
    const Taps& t = taps_[0][x];
    double acc = 0.0;
    for (int dz = 0; dz <= 1; ++dz) {
      for (int dy = 0; dy <= 1; ++dy) {
        const float* lat = r.lat[dz][dy];
        for (int dx = 0; dx <= 1; ++dx) acc += t.w[dx] * r.y->w[dy] * r.z->w[dz] * lat[t.i[dx]];
      }
    }
    return static_cast<float>(acc);
  }

 private:
  int wrap(int i) const { return ((i % period_) + period_) % period_; }
  static double smooth(double t) { return t * t * (3.0 - 2.0 * t); }

  int period_;
  std::vector<float> lattice_;
  std::array<std::vector<Taps>, 3> taps_;
};

// Signed normalized distance of an ellipsoid: <1 inside, >1 outside, as
// sqrt((qx + qy) + qz) over tabulated squared offsets per axis. Some density
// predicate can hold only where the level is below `reach`; the 1e-4 margin
// keeps rounding in clip() from narrowing that.
class Level {
 public:
  Level(Vec3 center, Vec3 radius, double reach, const Dims& n)
      : cx_(center.x), rx_(radius.x), reach_(reach + 1e-4), nx_(n[0]) {
    q_ = tabulate(n, [&](int a, double p) {
      const double d = (p - center[a]) / radius[a];
      return d * d;
    });
  }

  double operator()(int x, int y, int z) const { return std::sqrt(q_[0][x] + q_[1][y] + q_[2][z]); }

  // Widens [lo, hi) to cover the columns of row (y, z) where the level can
  // be below reach, plus one voxel on each side.
  void clip(int y, int z, int& lo, int& hi) const {
    const double rem = reach_ * reach_ - (q_[1][y] + q_[2][z]);
    if (rem <= 0.0) return;
    const double h = rx_ * std::sqrt(rem);
    lo = std::min(lo, std::max(0, static_cast<int>(std::floor((cx_ - h) * nx_ - 0.5)) - 1));
    hi = std::max(hi, std::min(nx_, static_cast<int>(std::ceil((cx_ + h) * nx_ - 0.5)) + 2));
  }

 private:
  double cx_, rx_, reach_;
  int nx_;
  std::array<std::vector<double>, 3> q_;
};

// Synthesizes a volume row by row, as voxel(x, y, z, shape noise, texture
// noise) between the first and last column some shape's reach covers;
// every other voxel keeps the 0 it was constructed with.
template <typename Voxel>
DensityVolume synthesize(const Dims& n, std::initializer_list<const Level*> shapes,
                         const ValueNoise& shape, const ValueNoise& texture, Voxel voxel) {
  DensityVolume vol(n[0], n[1], n[2], 0);
  for (int z = 0; z < n[2]; ++z) {
    for (int y = 0; y < n[1]; ++y) {
      int lo = n[0], hi = 0;
      for (const Level* s : shapes) s->clip(y, z, lo, hi);
      if (lo >= hi) continue;
      const ValueNoise::Row sr = shape.row(y, z), tr = texture.row(y, z);
      for (int x = lo; x < hi; ++x) {
        const double density = voxel(x, y, z, shape.sample(sr, x), texture.sample(tr, x));
        vol.at(x, y, z) = static_cast<uint8_t>(std::clamp(density, 0.0, 255.0));
      }
    }
  }
  return vol;
}

}  // namespace

DensityVolume make_mri_brain(int nx, int ny, int nz, uint64_t seed) {
  const Dims n{nx, ny, nz};
  const ValueNoise folds(seed, 16, 10, n);
  const ValueNoise texture(seed ^ 0x9e3779b9ULL, 12, 14, n);

  // Reach is 1 plus the largest level shift the noise adds: |fold| <= 0.05.
  const Level scalp({0.5, 0.5, 0.5}, {0.42, 0.46, 0.40}, 1.0, n);
  const Level cortex({0.5, 0.5, 0.5}, {0.36, 0.40, 0.34}, 1.05, n);
  const Level white({0.5, 0.5, 0.5}, {0.28, 0.32, 0.26}, 1.03, n);
  const Level vent_l({0.42, 0.48, 0.52}, {0.06, 0.12, 0.05}, 1.0, n);
  const Level vent_r({0.58, 0.48, 0.52}, {0.06, 0.12, 0.05}, 1.0, n);
  const Level stem({0.5, 0.78, 0.45}, {0.08, 0.16, 0.08}, 1.0, n);

  return synthesize(n, {&scalp, &cortex, &white, &vent_l, &vent_r, &stem}, folds, texture,
                    [&](int x, int y, int z, float fold_noise, double tex) {
    // Folds shift the cortical boundary in and out: sulci-like grooves, long runs.
    const double fold = 0.05 * fold_noise;
    const double ls = scalp(x, y, z);
    const double lc = cortex(x, y, z);
    double density = 0.0;
    // Thin scalp/skin shell, mostly transparent after classification.
    if (ls < 1.0 && lc + fold > 1.04 && ls > 0.93) density = 60.0 + 6.0 * tex;
    if (lc + fold < 1.0) density = 110.0 + 10.0 * tex;                    // gray matter
    if (white(x, y, z) + 0.6 * fold < 1.0) density = 170.0 + 8.0 * tex;   // white matter
    if (stem(x, y, z) < 1.0) density = 150.0 + 8.0 * tex;                 // brain stem
    if (vent_l(x, y, z) < 1.0 || vent_r(x, y, z) < 1.0) density = 40.0;   // CSF ventricles
    return density;
  });
}

DensityVolume make_ct_head(int nx, int ny, int nz, uint64_t seed) {
  const Dims n{nx, ny, nz};
  const ValueNoise bumps(seed, 16, 9, n);
  const ValueNoise texture(seed ^ 0x7f4a7c15ULL, 12, 13, n);

  // Reach is 1 plus the largest level shift the noise adds: |bump| <= 0.03.
  // skull_in only carves the shell out of skull_out, so it is not clipped.
  const Level skull_out({0.5, 0.5, 0.52}, {0.40, 0.44, 0.38}, 1.03, n);
  const Level skull_in({0.5, 0.5, 0.52}, {0.345, 0.385, 0.325}, 1.03, n);
  const Level sinus({0.5, 0.30, 0.42}, {0.07, 0.10, 0.07}, 1.0, n);
  const Level airway({0.5, 0.38, 0.30}, {0.04, 0.12, 0.10}, 1.0, n);
  const Level jaw({0.5, 0.40, 0.18}, {0.20, 0.16, 0.10}, 1.03, n);

  return synthesize(n, {&skull_out, &sinus, &airway, &jaw}, bumps, texture,
                    [&](int x, int y, int z, float bump_noise, double tex) {
    const double bump = 0.03 * bump_noise;
    const double lo = skull_out(x, y, z) + bump;
    const double li = skull_in(x, y, z) + bump;
    double density = 0.0;
    if (lo < 1.0) density = 90.0 + 8.0 * tex;                         // soft tissue fills the head
    if (lo < 1.0 && li > 1.0) density = 230.0 + 6.0 * tex;             // skull shell (bone)
    if (jaw(x, y, z) + bump < 1.0) density = 225.0 + 6.0 * tex;        // mandible
    if (sinus(x, y, z) < 1.0 || airway(x, y, z) < 1.0) density = 5.0;  // air cavities
    return density;
  });
}

double transparent_fraction(const DensityVolume& v, uint8_t threshold) {
  if (v.empty()) return 1.0;
  const auto transparent =
      std::count_if(v.data(), v.data() + v.size(), [&](uint8_t d) { return d < threshold; });
  return static_cast<double>(transparent) / static_cast<double>(v.size());
}

}  // namespace psw
