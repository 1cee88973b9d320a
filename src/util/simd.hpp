// Width-agnostic SIMD batched loops for the exact-sampler hot paths
// (docs/samplers.md, "SIMD hot loops").
//
// Everything here is bit-identical to the scalar path *by construction*:
// the batched variants only (a) skip 32-byte blocks that contribute nothing
// (zero-run skipping — the surviving elements are processed in the original
// order by the original scalar expressions), (b) list nonzeros with integer
// arithmetic (exact), or (c) apply the same single float/double operation
// element-wise (no reassociation, no FMA contraction is introduced — each
// lane computes exactly the scalar expression). That is what lets every
// bit-identity test in the repo pass unchanged in a -DCULDA_SIMD=ON build,
// and lets CI gate SIMD-on against SIMD-off output byte-for-byte.
//
// Vectors use the GCC/Clang vector-size extension, so the code is
// width-agnostic: the compiler lowers 32-byte vectors to whatever the
// target ISA provides (SSE2 pairs, AVX2, NEON pairs, or scalar code) —
// no intrinsics, no -march requirement.
//
// Both variants are always compiled; `Enabled()` selects at runtime and
// defaults to the compile-time -DCULDA_SIMD=ON/OFF choice. The runtime
// override exists for the differential tests (SimdMatchesScalar) and for
// bench_sampler_tier, which measures both variants from one binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace culda::simd {

#ifdef CULDA_SIMD_ON
inline constexpr bool kCompiledDefault = true;
#else
inline constexpr bool kCompiledDefault = false;
#endif

namespace detail {
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{kCompiledDefault};
  return flag;
}

typedef uint64_t U64x4 __attribute__((vector_size(32)));
typedef float F32x8 __attribute__((vector_size(32)));
typedef double F64x4 __attribute__((vector_size(32)));

/// Any nonzero bit in a 32-byte block (unaligned).
inline bool AnyNonZero32(const void* p) {
  U64x4 v;
  std::memcpy(&v, p, sizeof(v));
  return (v[0] | v[1] | v[2] | v[3]) != 0;
}
}  // namespace detail

/// Whether the batched variants are dispatched; defaults to the
/// -DCULDA_SIMD compile-time choice.
inline bool Enabled() {
  return detail::EnabledFlag().load(std::memory_order_relaxed);
}
/// Runtime override (tests and benches only — flip before building engines,
/// not concurrently with sampling).
inline void SetEnabled(bool on) {
  detail::EnabledFlag().store(on, std::memory_order_relaxed);
}

// ---- Zero-run skipping ------------------------------------------------------

/// First index >= `from` with p[idx] != 0, else n.
inline size_t NextNonZeroU16Scalar(const uint16_t* p, size_t n, size_t from) {
  for (size_t i = from; i < n; ++i) {
    if (p[i] != 0) return i;
  }
  return n;
}

inline size_t NextNonZeroU16Simd(const uint16_t* p, size_t n, size_t from) {
  constexpr size_t kLanes = 16;  // 16 × u16 = 32 bytes
  size_t i = from;
  while (i + kLanes <= n) {
    if (detail::AnyNonZero32(p + i)) {
      for (size_t j = i; j < i + kLanes; ++j) {
        if (p[j] != 0) return j;
      }
    }
    i += kLanes;
  }
  return NextNonZeroU16Scalar(p, n, i);
}

inline size_t NextNonZeroU16(const uint16_t* p, size_t n, size_t from) {
  return Enabled() ? NextNonZeroU16Simd(p, n, from)
                   : NextNonZeroU16Scalar(p, n, from);
}

/// Writes every i in [0, n) with p[i] != 0 to `out`, ascending, and returns
/// how many there are; `out` must hold n entries. All-zero 32-byte blocks
/// are skipped and the rest compacted without a branch per element, so a
/// mostly-zero array costs no mispredicted branch per nonzero — the φ
/// transposes at the model-file boundary and the engine's word columns scan
/// counts that are a few percent nonzero. Finding nonzero integers is
/// exact, so every build takes this path, whatever Enabled() selects.
inline size_t NonZeroIndicesU16(const uint16_t* p, size_t n, uint32_t* out) {
  constexpr size_t kLanes = 16;  // 16 × u16 = 32 bytes
  size_t count = 0;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    if (!detail::AnyNonZero32(p + i)) continue;
    for (size_t j = i; j < i + kLanes; ++j) {
      out[count] = static_cast<uint32_t>(j);
      count += p[j] != 0;
    }
  }
  for (; i < n; ++i) {
    out[count] = static_cast<uint32_t>(i);
    count += p[i] != 0;
  }
  return count;
}

/// First index >= `from` with p[idx] != 0, else n.
inline size_t NextNonZeroI32Scalar(const int32_t* p, size_t n, size_t from) {
  for (size_t i = from; i < n; ++i) {
    if (p[i] != 0) return i;
  }
  return n;
}

inline size_t NextNonZeroI32Simd(const int32_t* p, size_t n, size_t from) {
  constexpr size_t kLanes = 8;  // 8 × i32 = 32 bytes
  size_t i = from;
  while (i + kLanes <= n) {
    if (detail::AnyNonZero32(p + i)) {
      for (size_t j = i; j < i + kLanes; ++j) {
        if (p[j] != 0) return j;
      }
    }
    i += kLanes;
  }
  return NextNonZeroI32Scalar(p, n, i);
}

inline size_t NextNonZeroI32(const int32_t* p, size_t n, size_t from) {
  return Enabled() ? NextNonZeroI32Simd(p, n, from)
                   : NextNonZeroI32Scalar(p, n, from);
}

// ---- Element-wise float ops (no reassociation) ------------------------------

/// out[i] = s * in[i] — the p2(k) = α·p*(k) batch feeding the index-tree
/// build. One multiply per element in both variants, so bit-identical.
inline void ScaleF32Scalar(const float* in, float s, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = s * in[i];
}

inline void ScaleF32Simd(const float* in, float s, float* out, size_t n) {
  constexpr size_t kLanes = 8;
  const detail::F32x8 sv = {s, s, s, s, s, s, s, s};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    detail::F32x8 v;
    std::memcpy(&v, in + i, sizeof(v));
    v *= sv;
    std::memcpy(out + i, &v, sizeof(v));
  }
  ScaleF32Scalar(in + i, s, out + i, n - i);
}

inline void ScaleF32(const float* in, float s, float* out, size_t n) {
  if (Enabled()) {
    ScaleF32Simd(in, s, out, n);
  } else {
    ScaleF32Scalar(in, s, out, n);
  }
}

/// out[i] = float(s * in[i]) — the smoothing-bucket term batch
/// p*(k) = α·β·inv_denom[k] narrowed to the tree's float leaves. One double
/// multiply + one narrowing per element in both variants.
inline void ScaleF64ToF32Scalar(const double* in, double s, float* out,
                                size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<float>(s * in[i]);
}

inline void ScaleF64ToF32Simd(const double* in, double s, float* out,
                              size_t n) {
  constexpr size_t kLanes = 4;
  const detail::F64x4 sv = {s, s, s, s};
  typedef float F32x4 __attribute__((vector_size(16)));
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    detail::F64x4 v;
    std::memcpy(&v, in + i, sizeof(v));
    v *= sv;
    const F32x4 narrow = __builtin_convertvector(v, F32x4);
    std::memcpy(out + i, &narrow, sizeof(narrow));
  }
  ScaleF64ToF32Scalar(in + i, s, out + i, n - i);
}

inline void ScaleF64ToF32(const double* in, double s, float* out, size_t n) {
  if (Enabled()) {
    ScaleF64ToF32Simd(in, s, out, n);
  } else {
    ScaleF64ToF32Scalar(in, s, out, n);
  }
}

}  // namespace culda::simd
