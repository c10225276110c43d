// Parallel 2D FFT case study (paper §V-A).
//
// The application distributes the image's rows across PEs, runs 1D FFTs
// locally, performs a distributed transpose (all-to-all block puts), runs
// 1D FFTs over the columns, and finishes with a serialized transpose that
// gathers the result on PE 0 — the stage whose serialization caps TILE-Gx
// speedup around 5 in Fig 13 (its parallelization is the paper's declared
// future work). That gather stays element-wise in virtual time (one
// modeled remote read per element); the host issues it as one strided
// iget per (row, owner) strip.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "tshmem/context.hpp"

namespace apps {

using cfloat = std::complex<float>;

/// In-place iterative radix-2 Cooley–Tukey FFT. `data.size()` must be a
/// power of two. When `charge_to` is non-null the device compute model is
/// charged fft1d_flops(n) floating-point operations.
void fft1d(std::span<cfloat> data, bool inverse = false,
           tshmem::Context* charge_to = nullptr);

/// Modeled flop count of a radix-2 FFT of size n: 10 flops per butterfly,
/// (n/2)·log2(n) butterflies (plus n multiplies for inverse scaling).
[[nodiscard]] std::uint64_t fft1d_flops(std::size_t n, bool inverse = false);

/// Serial reference 2D FFT (row FFTs, transpose, column FFTs, transpose)
/// used by tests to validate the parallel implementation.
void fft2d_reference(std::vector<cfloat>& matrix, std::size_t n,
                     bool inverse = false);

/// Deterministic test pattern: element (r, c) of the n x n input image.
[[nodiscard]] cfloat fft2d_input(std::size_t r, std::size_t c,
                                 std::uint64_t seed);

struct Fft2dTiming {
  tilesim::ps_t total_ps = 0;
  tilesim::ps_t row_fft_ps = 0;
  tilesim::ps_t transpose_ps = 0;
  tilesim::ps_t col_fft_ps = 0;
  tilesim::ps_t final_transpose_ps = 0;
};

struct Fft2dResult {
  Fft2dTiming timing;            ///< measured on PE 0 (job-wide span)
  std::vector<cfloat> output;    ///< full n x n result, only on PE 0
};

/// SPMD body: every PE of the job calls this; n must be a power of two and
/// >= num_pes. Returns the gathered output and timings on PE 0 (empty
/// output elsewhere).
Fft2dResult fft2d_run(tshmem::Context& ctx, std::size_t n,
                      std::uint64_t seed);

}  // namespace apps
