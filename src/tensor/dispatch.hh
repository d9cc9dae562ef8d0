/**
 * @file
 * Runtime-dispatched SIMD kernel table backing the tensor primitives.
 *
 * Every hot inner loop in vector_ops.cc / matrix.cc (and the
 * simulator's functional datapath) routes through one function-pointer
 * table selected exactly once at startup: AVX2 when the CPU supports
 * it (detected via cpuid), NEON on aarch64 builds, scalar otherwise.
 * The selection can be overridden with MANNA_SIMD=scalar|avx2|neon for
 * debugging and determinism triage.
 *
 * Determinism contract: reduction kernels accumulate in a fixed
 * 8-lane-striped order (lane k holds elements with index ≡ k mod 8
 * over the length&~7 prefix; lanes are combined sequentially, then a
 * sequential scalar tail is added). The scalar reference implements
 * the exact same order, and the kernel TUs are compiled with
 * -ffp-contract=off, so scalar and AVX2 paths produce bit-identical
 * results within a build. Elementwise kernels have no cross-element
 * accumulation and are exact by construction.
 */

#ifndef MANNA_TENSOR_DISPATCH_HH
#define MANNA_TENSOR_DISPATCH_HH

#include <cstddef>
#include <optional>
#include <string_view>

namespace manna::tensor::simd
{

/** Instruction-set level a kernel table is implemented with. */
enum class Level
{
    Scalar,
    Avx2,
    Neon,
};

/** Lane width of the canonical striped accumulation order. */
inline constexpr std::size_t kStripe = 8;

/**
 * The kernel table. All pointers are raw and length-explicit so the
 * same entry points serve FVec wrappers, FMat row loops, and the
 * simulator's tile-memory spans. None of the kernels allocate.
 *
 * Aliasing rules match the wrappers in vector_ops.hh: elementwise
 * kernels tolerate out aliasing an input; reduction kernels only read.
 */
struct KernelTable
{
    /** Human-readable name of the selected path ("scalar", "avx2"). */
    const char *name;

    /** out[i] = a[i] + b[i]. Exact. */
    void (*add)(const float *a, const float *b, float *out,
                std::size_t n);

    /** out[i] = a[i] - b[i]. Exact. */
    void (*sub)(const float *a, const float *b, float *out,
                std::size_t n);

    /** out[i] = a[i] * b[i]. Exact. */
    void (*mul)(const float *a, const float *b, float *out,
                std::size_t n);

    /** out[i] = a[i] * s. Exact. */
    void (*scale)(const float *a, float s, float *out, std::size_t n);

    /** y[i] += alpha * x[i]. Exact (mul then add, never contracted). */
    void (*axpy)(float alpha, const float *x, float *y, std::size_t n);

    /** out[i] += a[i] * b[i] elementwise (no cross-element sum).
     * Exact. */
    void (*mac)(const float *a, const float *b, float *out,
                std::size_t n);

    /** Striped-order sum of a[0..n). */
    float (*sum)(const float *a, std::size_t n);

    /** Striped-order dot product. */
    float (*dot)(const float *a, const float *b, std::size_t n);

    /**
     * Fused striped dot-and-norm pass: *dotOut = Σ a[i]*b[i],
     * *nrmOut = Σ a[i]*a[i], both in the canonical striped order.
     * One pass over memory; the row-similarity workhorse.
     */
    void (*dotNorm)(const float *a, const float *b, std::size_t n,
                    float *dotOut, float *nrmOut);

    /**
     * Fused scale-and-max pass: out[i] = a[i] * s, returns the max of
     * the scaled values using maxps semantics (m = m > v ? m : v, so a
     * NaN operand wins) in the canonical striped order. Identity is
     * -inf. The softmax first pass.
     */
    float (*scaleMax)(const float *a, float s, float *out,
                      std::size_t n);

    /**
     * Circular convolution (Eq. 7) into a zero-initialized, non-
     * aliasing out buffer: out[i] = Σ_off shift[off+R] * a[(i-off) mod
     * n], taps = 2R+1. Per-element tap accumulation runs in off =
     * -R..+R order in every implementation, so results are exact
     * across paths.
     */
    void (*circularConvolve)(const float *a, std::size_t n,
                             const float *shift, std::size_t taps,
                             float *out);
};

/** The scalar reference table (canonical semantics). */
const KernelTable &scalarKernels();

#if MANNA_HAVE_AVX2
/** The AVX2 table; only callable when the CPU supports AVX2. */
const KernelTable &avx2Kernels();
#endif

#if MANNA_HAVE_NEON
/** The NEON table (aarch64 builds). */
const KernelTable &neonKernels();
#endif

/**
 * The active table, selected once (thread-safe) on first use:
 * MANNA_SIMD override if valid, else the best level this build + CPU
 * supports. Subsequent env changes have no effect.
 */
const KernelTable &kernels();

/** Level of the active table (for reporting and tests). */
Level activeLevel();

/**
 * Parse a MANNA_SIMD value ("scalar", "avx2", "neon"; case-
 * insensitive). Returns nullopt for anything else. Exposed for tests.
 */
std::optional<Level> parseLevel(std::string_view text);

/** Name of a level ("scalar", "avx2", "neon"). */
const char *levelName(Level level);

/** True if this build + CPU can execute tables at @p level. */
bool levelSupported(Level level);

} // namespace manna::tensor::simd

#endif // MANNA_TENSOR_DISPATCH_HH
