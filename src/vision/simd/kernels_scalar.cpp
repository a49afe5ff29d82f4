#include "vision/simd/kernels.h"
#include "vision/simd/kernels_ref.h"

namespace adavp::vision::simd {

// The scalar tier IS the reference: every entry is the historical loop.

const SimdOps* scalar_ops() {
  static const SimdOps ops = {
      Isa::kScalar,        ref::filter_row,  ref::filter_col,
      ref::sobel_row,      ref::downsample_row, ref::min_eig_row,
      ref::lk_sample_window, ref::lk_sample_patch, ref::sensor_noise_row,
  };
  return &ops;
}

}  // namespace adavp::vision::simd
