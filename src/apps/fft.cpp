#include "apps/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rng.hpp"

namespace apps {

namespace {

[[nodiscard]] bool is_pow2(std::size_t v) { return v && (v & (v - 1)) == 0; }

[[nodiscard]] std::size_t log2_of(std::size_t n) {
  std::size_t k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}

void bit_reverse_permute(std::span<cfloat> data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

std::uint64_t fft1d_flops(std::size_t n, bool inverse) {
  if (n < 2) return 0;
  const std::uint64_t butterflies =
      static_cast<std::uint64_t>(n / 2) * log2_of(n);
  std::uint64_t flops = butterflies * 10;  // cmul (6) + two cadds (4)
  if (inverse) flops += static_cast<std::uint64_t>(n) * 2;  // 1/n scaling
  return flops;
}

void fft1d(std::span<cfloat> data, bool inverse, tshmem::Context* charge_to) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft1d size must be a power of two");
  }
  if (n == 1) return;
  bit_reverse_permute(data);
  const float sign = inverse ? 1.0f : -1.0f;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const float ang =
        sign * 2.0f * std::numbers::pi_v<float> / static_cast<float>(len);
    const cfloat wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cfloat w(1.0f, 0.0f);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cfloat u = data[i + j];
        const cfloat v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (auto& x : data) x *= inv_n;
  }
  if (charge_to != nullptr) {
    charge_to->charge_fp_ops(fft1d_flops(n, inverse));
  }
}

cfloat fft2d_input(std::size_t r, std::size_t c, std::uint64_t seed) {
  tshmem_util::SplitMix64 sm(seed ^ (r * 0x9e3779b97f4a7c15ULL) ^
                             (c * 0xc2b2ae3d27d4eb4fULL));
  const std::uint64_t bits = sm.next();
  // Map to [-1, 1) real/imag.
  const float re =
      static_cast<float>(static_cast<std::uint32_t>(bits)) / 2147483648.0f -
      1.0f;
  const float im = static_cast<float>(static_cast<std::uint32_t>(bits >> 32)) /
                       2147483648.0f -
                   1.0f;
  return cfloat(re, im);
}

void fft2d_reference(std::vector<cfloat>& matrix, std::size_t n,
                     bool inverse) {
  if (matrix.size() != n * n) {
    throw std::invalid_argument("fft2d_reference: matrix size mismatch");
  }
  for (std::size_t r = 0; r < n; ++r) {
    fft1d(std::span<cfloat>(matrix.data() + r * n, n), inverse);
  }
  std::vector<cfloat> t(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) t[c * n + r] = matrix[r * n + c];
  }
  for (std::size_t r = 0; r < n; ++r) {
    fft1d(std::span<cfloat>(t.data() + r * n, n), inverse);
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) matrix[c * n + r] = t[r * n + c];
  }
}

Fft2dResult fft2d_run(tshmem::Context& ctx, std::size_t n,
                      std::uint64_t seed) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft2d size must be a power of two");
  }
  const int npes = ctx.num_pes();
  const int me = ctx.my_pe();
  if (static_cast<std::size_t>(npes) > n) {
    throw std::invalid_argument("fft2d needs n >= num_pes");
  }
  const std::size_t rows_pp = (n + static_cast<std::size_t>(npes) - 1) /
                              static_cast<std::size_t>(npes);
  auto row_range = [&](int pe) {
    const std::size_t r0 =
        std::min(n, static_cast<std::size_t>(pe) * rows_pp);
    const std::size_t r1 = std::min(n, r0 + rows_pp);
    return std::pair<std::size_t, std::size_t>(r0, r1);
  };
  const auto [my_r0, my_r1] = row_range(me);
  const std::size_t my_rows = my_r1 - my_r0;

  // Symmetric row blocks: A holds my rows of the input, B my rows of the
  // transposed intermediate.
  auto* a = ctx.shmalloc_n<cfloat>(rows_pp * n);
  auto* b = ctx.shmalloc_n<cfloat>(rows_pp * n);
  if (a == nullptr || b == nullptr) {
    throw std::runtime_error("fft2d: symmetric heap exhausted");
  }
  for (std::size_t r = 0; r < my_rows; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a[r * n + c] = fft2d_input(my_r0 + r, c, seed);
    }
  }
  ctx.harness_sync_reset();  // synchronized virtual-time origin

  Fft2dTiming timing;
  const auto t0 = ctx.clock().now();

  // Phase 1: 1D FFTs over my rows.
  for (std::size_t r = 0; r < my_rows; ++r) {
    fft1d(std::span<cfloat>(a + r * n, n), false, &ctx);
  }
  ctx.barrier_all();
  const auto t1 = ctx.clock().now();

  // Phase 2: distributed transpose — for every destination PE, build the
  // transposed sub-tile locally, then put it row-segment by row-segment
  // into the destination's B block (all-to-all communication).
  std::vector<cfloat> scratch(rows_pp * rows_pp);
  for (int q = 0; q < npes; ++q) {
    const auto [q_r0, q_r1] = row_range(q);
    const std::size_t q_rows = q_r1 - q_r0;
    if (q_rows == 0 || my_rows == 0) continue;
    for (std::size_t rp = 0; rp < q_rows; ++rp) {
      for (std::size_t c = 0; c < my_rows; ++c) {
        scratch[rp * my_rows + c] = a[c * n + (q_r0 + rp)];
      }
    }
    ctx.charge_mem_ops(2 * q_rows * my_rows);  // gather/scatter traffic
    for (std::size_t rp = 0; rp < q_rows; ++rp) {
      ctx.put(b + rp * n + my_r0, scratch.data() + rp * my_rows,
              my_rows * sizeof(cfloat), q);
    }
  }
  ctx.barrier_all();
  const auto t2 = ctx.clock().now();

  // Phase 3: 1D FFTs over the columns (rows of the transposed matrix).
  for (std::size_t r = 0; r < my_rows; ++r) {
    fft1d(std::span<cfloat>(b + r * n, n), false, &ctx);
  }
  ctx.barrier_all();
  const auto t3 = ctx.clock().now();

  // Phase 4: final transpose, serialized on PE 0 (paper: "Due to
  // computational serialization in the application's final transpose
  // stage, speedup on TILE-Gx begins to level off around 5"). Still
  // element-wise in virtual time — one modeled remote read per element,
  // in row-major order — but each (row, owner) strip is one strided iget:
  // output row r, columns [q_r0, q_r1) are column r of owner q's block.
  Fft2dResult result;
  if (me == 0) {
    result.output.resize(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      for (int q = 0; q < npes; ++q) {
        const auto [q_r0, q_r1] = row_range(q);
        ctx.iget(result.output.data() + r * n + q_r0, b + r, 1,
                 static_cast<std::ptrdiff_t>(n), q_r1 - q_r0, q);
      }
    }
  }
  ctx.barrier_all();
  const auto t4 = ctx.clock().now();

  if (me == 0) {
    timing.row_fft_ps = t1 - t0;
    timing.transpose_ps = t2 - t1;
    timing.col_fft_ps = t3 - t2;
    timing.final_transpose_ps = t4 - t3;
    timing.total_ps = t4 - t0;
    result.timing = timing;
  }
  ctx.shfree(b);
  ctx.shfree(a);
  return result;
}

}  // namespace apps
