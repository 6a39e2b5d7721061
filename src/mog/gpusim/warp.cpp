#include "mog/gpusim/warp.hpp"

#include <cmath>

namespace mog::gpusim {

namespace detail {

// Hosts with an FMA unit run the lane loop as vector vfmadd instructions
// (the "fma" clone, see MOG_TARGET_CLONES). Both clones produce the one
// correctly-rounded IEEE 754 fma result per lane, so the choice is
// invisible to every counter and mask byte.
MOG_TARGET_CLONES("fma")
void fma_lanes(const float* a, const float* b, const float* c, float* r) {
  for (int i = 0; i < kWarpSize; ++i) r[i] = std::fma(a[i], b[i], c[i]);
}

MOG_TARGET_CLONES("fma")
void fma_lanes(const double* a, const double* b, const double* c, double* r) {
  for (int i = 0; i < kWarpSize; ++i) r[i] = std::fma(a[i], b[i], c[i]);
}

}  // namespace detail

WarpCtx::WarpCtx(ExecEnv& env, std::int64_t global_thread_base,
                 int active_lanes)
    : env_(env), global_base_(global_thread_base) {
  MOG_CHECK(active_lanes >= 1 && active_lanes <= kWarpSize,
            "warp must have 1..32 active lanes");
  env_.active_mask = active_lanes == kWarpSize
                         ? 0xffffffffu
                         : ((1u << active_lanes) - 1u);
}

WarpCtx::~WarpCtx() = default;

}  // namespace mog::gpusim
