// The reference kernel set: the original triple-loop GEMM variants
// (tensor/linalg.cpp) and the 7-deep direct convolution (nn/layers.cpp
// before the kernel layer), preserved bit-for-bit. The blocked set is
// property-tested against these, and tests and benches select them
// through ExperimentConfig::kernels as the reference.
#include "kernels/ops_internal.h"

namespace collapois::kernels::detail {

void naive_gemm(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n, const float* row_bias) {
  for (std::size_t i = 0; i < m; ++i) {
    const float init = row_bias != nullptr ? row_bias[i] : 0.0f;
    for (std::size_t j = 0; j < n; ++j) c[i * n + j] = init;
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      const float* brow = &b[p * n];
      float* crow = &c[i * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void naive_gemm_a_bt_accum(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n,
                           const float* col_bias, float* a_row_sums) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = &a[i * k];
    float* crow = &c[i * n];
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = &b[j * k];
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] += static_cast<float>(s);
      if (col_bias != nullptr) crow[j] += col_bias[j];
    }
    if (a_row_sums != nullptr) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p];
      a_row_sums[i] += static_cast<float>(s);
    }
  }
}

void naive_gemm_at_b_accum(const float* a, const float* b, float* c,
                           std::size_t k, std::size_t m, std::size_t n,
                           float* a_col_sums) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = &a[p * m];
    const float* brow = &b[p * n];
    for (std::size_t i = 0; i < m; ++i) {
      const float api = arow[i];
      if (a_col_sums != nullptr) a_col_sums[i] += api;
      if (api == 0.0f) continue;
      float* crow = &c[i * n];
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void naive_conv2d_forward(const Conv2dShape& s, const float* in,
                          const float* wts, const float* bias, float* out) {
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t oc = 0; oc < s.cout; ++oc) {
      for (std::size_t oy = 0; oy < s.oh; ++oy) {
        for (std::size_t ox = 0; ox < s.ow; ++ox) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < s.cin; ++ic) {
            for (std::size_t ky = 0; ky < s.k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(s.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h)) continue;
              for (std::size_t kx = 0; kx < s.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(s.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.w)) continue;
                const float v =
                    in[((b * s.cin + ic) * s.h + static_cast<std::size_t>(iy)) *
                           s.w +
                       static_cast<std::size_t>(ix)];
                const float wt =
                    wts[((oc * s.cin + ic) * s.k + ky) * s.k + kx];
                acc += static_cast<double>(v) * wt;
              }
            }
          }
          out[((b * s.cout + oc) * s.oh + oy) * s.ow + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
}

void naive_conv2d_backward(const Conv2dShape& s, const float* in,
                           const float* wts, const float* go, float* gw,
                           float* gb, float* gi) {
  for (std::size_t b = 0; b < s.batch; ++b) {
    for (std::size_t oc = 0; oc < s.cout; ++oc) {
      for (std::size_t oy = 0; oy < s.oh; ++oy) {
        for (std::size_t ox = 0; ox < s.ow; ++ox) {
          const float g = go[((b * s.cout + oc) * s.oh + oy) * s.ow + ox];
          if (g == 0.0f) continue;
          gb[oc] += g;
          for (std::size_t ic = 0; ic < s.cin; ++ic) {
            for (std::size_t ky = 0; ky < s.k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(s.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h)) continue;
              for (std::size_t kx = 0; kx < s.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(s.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.w)) continue;
                const std::size_t in_idx =
                    ((b * s.cin + ic) * s.h + static_cast<std::size_t>(iy)) *
                        s.w +
                    static_cast<std::size_t>(ix);
                const std::size_t w_idx =
                    ((oc * s.cin + ic) * s.k + ky) * s.k + kx;
                gw[w_idx] += g * in[in_idx];
                if (gi != nullptr) gi[in_idx] += g * wts[w_idx];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace collapois::kernels::detail
