//! Runtime-dispatched word-level kernels for the CAM hot loops.
//!
//! The two primitives every CAM search spends its time in are
//!
//! * the match-line AND-reduction (`dst &= plane`, 64 entries per word), and
//! * the indicator word-OR that builds enable masks (`dst |= group`),
//!
//! and both are embarrassingly data-parallel across words. This module
//! provides three interchangeable backends for them:
//!
//! * [`KernelBackend::Scalar`] — the plain one-`u64`-at-a-time loop
//!   (the PR 3 kernel, kept as the portable baseline);
//! * [`KernelBackend::U64x4`] — a portable 4×`u64` unrolled loop that
//!   autovectorizes well and has no platform requirements;
//! * [`KernelBackend::Avx2`] — 256-bit `std::arch` intrinsics behind
//!   runtime feature detection (x86_64 only).
//!
//! Dispatch is memchr-style: the CPU is probed once per process and the
//! winning backend is latched into a function table ([`KernelOps`]);
//! every [`crate::Bcam`] constructed afterwards starts from that default.
//! The `CASA_KERNEL` environment variable (`scalar` | `u64x4` | `avx2`)
//! overrides the choice for testing; unknown or unsupported values are
//! surfaced as a typed [`UnknownKernelError`] by [`backend_from_env`] so
//! callers can turn them into their own error types instead of panicking.

use std::fmt;
use std::sync::OnceLock;

use crate::Symbol;

/// Environment variable that overrides the kernel backend selection.
pub const KERNEL_ENV: &str = "CASA_KERNEL";

/// A selectable implementation of the word-level CAM kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// One `u64` word at a time (the PR 3 bit-parallel kernel).
    Scalar,
    /// Portable 4×`u64` unrolled loop; supported everywhere.
    U64x4,
    /// 256-bit AVX2 intrinsics; x86_64 with runtime `avx2` support only.
    Avx2,
}

/// Error returned when a kernel backend name cannot be honoured, either
/// because it is unknown or because the CPU does not support it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownKernelError {
    /// The offending backend name as given.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for UnknownKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown CAM kernel backend {:?}: {} (expected one of: scalar, u64x4, avx2)",
            self.value, self.reason
        )
    }
}

impl std::error::Error for UnknownKernelError {}

impl KernelBackend {
    /// Every backend, supported or not, in preference order.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::U64x4,
        KernelBackend::Avx2,
    ];

    /// The backend's canonical lowercase name (what `CASA_KERNEL` accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::U64x4 => "u64x4",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name. Does not check CPU support; see
    /// [`KernelBackend::ensure_supported`].
    pub fn parse(s: &str) -> Result<KernelBackend, UnknownKernelError> {
        match s {
            "scalar" => Ok(KernelBackend::Scalar),
            "u64x4" => Ok(KernelBackend::U64x4),
            "avx2" => Ok(KernelBackend::Avx2),
            _ => Err(UnknownKernelError {
                value: s.to_owned(),
                reason: "no such backend",
            }),
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar | KernelBackend::U64x4 => true,
            KernelBackend::Avx2 => avx2_supported(),
        }
    }

    /// Returns `self` if the current CPU supports it, a typed error otherwise.
    pub fn ensure_supported(self) -> Result<KernelBackend, UnknownKernelError> {
        if self.is_supported() {
            Ok(self)
        } else {
            Err(UnknownKernelError {
                value: self.as_str().to_owned(),
                reason: "not supported by this CPU",
            })
        }
    }

    /// All backends the current CPU supports, in preference order.
    pub fn supported() -> impl Iterator<Item = KernelBackend> {
        Self::ALL.into_iter().filter(|b| b.is_supported())
    }

    /// The function table for this backend.
    ///
    /// The table for an unsupported backend would execute illegal
    /// instructions, so this falls back to [`detect`] in that case;
    /// layers that must reject unsupported requests instead of silently
    /// degrading (engine construction, the CLI) call
    /// [`KernelBackend::ensure_supported`] first.
    pub fn ops(self) -> &'static KernelOps {
        match self {
            KernelBackend::Scalar => &SCALAR_OPS,
            KernelBackend::U64x4 => &U64X4_OPS,
            KernelBackend::Avx2 => {
                if avx2_supported() {
                    &AVX2_OPS
                } else {
                    detect().ops()
                }
            }
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Function table for the word-level kernels of one backend.
///
/// `and_plane(dst, src)` computes `dst[i] &= src[i]` over `dst.len()`
/// words (the caller guarantees `src.len() >= dst.len()`) and returns the
/// OR of the updated words so callers can detect a dead match line without
/// a second pass. `or_into(dst, src)` computes `dst[i] |= src[i]` over
/// `dst.len()` words under the same length contract.
pub struct KernelOps {
    backend: KernelBackend,
    and_plane: fn(&mut [u64], &[u64]) -> u64,
    or_into: fn(&mut [u64], &[u64]),
    match_cols: MatchColsFn,
}

/// Signature of the fused whole-query column walk (see
/// [`KernelOps::match_cols`] for the contract).
type MatchColsFn =
    fn(ml: &mut [u64], init: &[u64], planes: &[u64], ewords: usize, syms: &[Symbol]) -> u64;

impl KernelOps {
    /// The backend this table belongs to.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// `dst &= src` word-wise; returns the OR of the updated `dst` words.
    #[inline]
    pub fn and_plane(&self, dst: &mut [u64], src: &[u64]) -> u64 {
        (self.and_plane)(dst, src)
    }

    /// `dst |= src` word-wise.
    #[inline]
    pub fn or_into(&self, dst: &mut [u64], src: &[u64]) {
        (self.or_into)(dst, src)
    }

    /// Whole-query match-line evaluation: `ml = init`, then `ml &=
    /// planes[(col * 4 + base) * ewords ..][.. ml.len()]` for each driven
    /// column of `syms` in order (wildcards are skipped), with the same
    /// per-column early exit as chaining [`KernelOps::and_plane`] calls
    /// (the column pass whose OR reaches zero leaves `ml` all zero and
    /// ends the walk). Returns the OR of the final `ml` words. The caller
    /// guarantees `init.len() >= ml.len()` and that `planes` holds a full
    /// `ewords`-word plane for every `(column, base)` pair of `syms`.
    ///
    /// This is the batched hot path: the entire column walk runs inside
    /// one monomorphized function (for AVX2, one `#[target_feature]`
    /// region), so the per-column function-pointer dispatch of the
    /// per-query path disappears, the first driven column fuses the
    /// `init` copy with its AND, and the OR accumulator stays in
    /// registers.
    #[inline]
    pub fn match_cols(
        &self,
        ml: &mut [u64],
        init: &[u64],
        planes: &[u64],
        ewords: usize,
        syms: &[Symbol],
    ) -> u64 {
        (self.match_cols)(ml, init, planes, ewords, syms)
    }
}

impl fmt::Debug for KernelOps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelOps")
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

static SCALAR_OPS: KernelOps = KernelOps {
    backend: KernelBackend::Scalar,
    and_plane: and_plane_scalar,
    or_into: or_into_scalar,
    match_cols: match_cols_scalar,
};

static U64X4_OPS: KernelOps = KernelOps {
    backend: KernelBackend::U64x4,
    and_plane: and_plane_u64x4,
    or_into: or_into_u64x4,
    match_cols: match_cols_u64x4,
};

#[cfg(target_arch = "x86_64")]
static AVX2_OPS: KernelOps = KernelOps {
    backend: KernelBackend::Avx2,
    and_plane: and_plane_avx2,
    or_into: or_into_avx2,
    match_cols: match_cols_avx2,
};

// On non-x86_64 targets the Avx2 backend is never supported, so its table
// is never reachable through `ops()`; alias it to the unrolled backend to
// keep the statics well-formed.
#[cfg(not(target_arch = "x86_64"))]
static AVX2_OPS: KernelOps = KernelOps {
    backend: KernelBackend::Avx2,
    and_plane: and_plane_u64x4,
    or_into: or_into_u64x4,
    match_cols: match_cols_u64x4,
};

/// The best backend the current CPU supports, ignoring `CASA_KERNEL`.
pub fn detect() -> KernelBackend {
    if avx2_supported() {
        KernelBackend::Avx2
    } else {
        KernelBackend::U64x4
    }
}

fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Reads `CASA_KERNEL`: `Ok(None)` if unset or empty, `Ok(Some(b))` for a
/// known, CPU-supported backend, and a typed error otherwise.
pub fn backend_from_env() -> Result<Option<KernelBackend>, UnknownKernelError> {
    match std::env::var(KERNEL_ENV) {
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => KernelBackend::parse(&v)?.ensure_supported().map(Some),
        Err(_) => Ok(None),
    }
}

/// The process-wide default backend: a valid `CASA_KERNEL` override if one
/// is set, otherwise [`detect`]. Probed once and latched (memchr-style);
/// an *invalid* `CASA_KERNEL` value is ignored here — construction paths
/// that must fail loudly call [`backend_from_env`] themselves and convert
/// the error.
pub fn default_backend() -> KernelBackend {
    static DEFAULT: OnceLock<KernelBackend> = OnceLock::new();
    *DEFAULT.get_or_init(|| backend_from_env().ok().flatten().unwrap_or_else(detect))
}

fn and_plane_scalar(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut any = 0u64;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
        any |= *d;
    }
    any
}

fn or_into_scalar(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn and_plane_u64x4(dst: &mut [u64], src: &[u64]) -> u64 {
    let n = dst.len();
    let mut any = [0u64; 4];
    let mut chunks = dst.chunks_exact_mut(4);
    let mut schunks = src[..n].chunks_exact(4);
    for (d, s) in chunks.by_ref().zip(schunks.by_ref()) {
        d[0] &= s[0];
        d[1] &= s[1];
        d[2] &= s[2];
        d[3] &= s[3];
        any[0] |= d[0];
        any[1] |= d[1];
        any[2] |= d[2];
        any[3] |= d[3];
    }
    let mut tail = 0u64;
    for (d, &s) in chunks.into_remainder().iter_mut().zip(schunks.remainder()) {
        *d &= s;
        tail |= *d;
    }
    tail | any[0] | any[1] | any[2] | any[3]
}

/// Index of the first driven column of `syms`, or `None` if every symbol
/// is a wildcard (the match line is then just the candidates).
#[inline]
fn first_driven(syms: &[Symbol]) -> Option<(usize, usize)> {
    syms.iter().enumerate().find_map(|(col, s)| match s {
        Symbol::Base(b) => Some((col, col * 4 + b.code() as usize)),
        Symbol::Any => None,
    })
}

fn match_cols_scalar(
    ml: &mut [u64],
    init: &[u64],
    planes: &[u64],
    ewords: usize,
    syms: &[Symbol],
) -> u64 {
    let n = ml.len();
    let Some((first_col, first_id)) = first_driven(syms) else {
        ml.copy_from_slice(&init[..n]);
        return ml.iter().fold(0, |acc, &w| acc | w);
    };
    // First driven column fused with the init copy: ml = init & plane.
    let plane = &planes[first_id * ewords..][..n];
    let mut any = 0u64;
    for ((d, &a), &p) in ml.iter_mut().zip(init).zip(plane) {
        *d = a & p;
        any |= *d;
    }
    for (col, s) in syms.iter().enumerate().skip(first_col + 1) {
        if any == 0 {
            return 0;
        }
        let Symbol::Base(b) = s else { continue };
        any = and_plane_scalar(ml, &planes[(col * 4 + b.code() as usize) * ewords..][..n]);
    }
    any
}

fn match_cols_u64x4(
    ml: &mut [u64],
    init: &[u64],
    planes: &[u64],
    ewords: usize,
    syms: &[Symbol],
) -> u64 {
    let n = ml.len();
    let Some((first_col, first_id)) = first_driven(syms) else {
        ml.copy_from_slice(&init[..n]);
        return ml.iter().fold(0, |acc, &w| acc | w);
    };
    let plane = &planes[first_id * ewords..][..n];
    let init = &init[..n];
    let mut lanes = [0u64; 4];
    let mut i = 0usize;
    while i + 4 <= n {
        let d0 = init[i] & plane[i];
        let d1 = init[i + 1] & plane[i + 1];
        let d2 = init[i + 2] & plane[i + 2];
        let d3 = init[i + 3] & plane[i + 3];
        ml[i] = d0;
        ml[i + 1] = d1;
        ml[i + 2] = d2;
        ml[i + 3] = d3;
        lanes[0] |= d0;
        lanes[1] |= d1;
        lanes[2] |= d2;
        lanes[3] |= d3;
        i += 4;
    }
    let mut any = lanes[0] | lanes[1] | lanes[2] | lanes[3];
    while i < n {
        ml[i] = init[i] & plane[i];
        any |= ml[i];
        i += 1;
    }
    for (col, s) in syms.iter().enumerate().skip(first_col + 1) {
        if any == 0 {
            return 0;
        }
        let Symbol::Base(b) = s else { continue };
        any = and_plane_u64x4(ml, &planes[(col * 4 + b.code() as usize) * ewords..][..n]);
    }
    any
}

fn or_into_u64x4(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut chunks = dst.chunks_exact_mut(4);
    let mut schunks = src[..n].chunks_exact(4);
    for (d, s) in chunks.by_ref().zip(schunks.by_ref()) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, &s) in chunks.into_remainder().iter_mut().zip(schunks.remainder()) {
        *d |= s;
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn and_plane_avx2(dst: &mut [u64], src: &[u64]) -> u64 {
    // SAFETY: `ops()` hands this out only after AVX2 detection, and callers
    // keep `src.len() >= dst.len()`.
    unsafe { avx2::and_plane(dst, src) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn or_into_avx2(dst: &mut [u64], src: &[u64]) {
    // SAFETY: `ops()` hands this out only after AVX2 detection, and callers
    // keep `src.len() >= dst.len()`.
    unsafe { avx2::or_into(dst, src) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn match_cols_avx2(
    ml: &mut [u64],
    init: &[u64],
    planes: &[u64],
    ewords: usize,
    syms: &[Symbol],
) -> u64 {
    // SAFETY: `ops()` hands this out only after AVX2 detection, and callers
    // keep the `KernelOps::match_cols` length contract.
    unsafe { avx2::match_cols(ml, init, planes, ewords, syms) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! AVX2 bodies. `#[target_feature]` makes these `unsafe fn`s; the safe
    //! wrappers above uphold the only precondition (AVX2 was detected).

    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_or_si256, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm256_testz_si256, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_or_si128,
    };

    use crate::Symbol;

    #[target_feature(enable = "avx2")]
    pub unsafe fn and_plane(dst: &mut [u64], src: &[u64]) -> u64 {
        let n = dst.len();
        let mut any = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            let r = _mm256_and_si256(d, s);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, r);
            any = _mm256_or_si256(any, r);
            i += 4;
        }
        let mut tail = 0u64;
        while i < n {
            dst[i] &= src[i];
            tail |= dst[i];
            i += 1;
        }
        tail | hor(any)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn or_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i) as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_or_si256(d, s),
            );
            i += 4;
        }
        while i < n {
            dst[i] |= src[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn match_cols(
        ml: &mut [u64],
        init: &[u64],
        planes: &[u64],
        ewords: usize,
        syms: &[Symbol],
    ) -> u64 {
        let n = ml.len();
        // Register-resident fast path: for match lines of up to 16 words
        // (1024 entries) the whole line fits in at most four ymm registers,
        // so the entire column walk runs without a single match-line store
        // or horizontal reduction — planes stream in, `vptest` checks for a
        // dead line, and `ml` is written exactly once at the end.
        match n {
            4 => return match_cols_reg::<1>(ml, init, planes, ewords, syms),
            8 => return match_cols_reg::<2>(ml, init, planes, ewords, syms),
            12 => return match_cols_reg::<3>(ml, init, planes, ewords, syms),
            16 => return match_cols_reg::<4>(ml, init, planes, ewords, syms),
            _ => {}
        }
        let Some((first_col, first_id)) = super::first_driven(syms) else {
            ml.copy_from_slice(&init[..n]);
            let mut any = 0u64;
            for &w in ml.iter() {
                any |= w;
            }
            return any;
        };
        // First driven column fused with the init copy: ml = init & plane.
        let plane = &planes[first_id * ewords..];
        let mut anyv = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let a = _mm256_loadu_si256(init.as_ptr().add(i) as *const __m256i);
            let p = _mm256_loadu_si256(plane.as_ptr().add(i) as *const __m256i);
            let r = _mm256_and_si256(a, p);
            _mm256_storeu_si256(ml.as_mut_ptr().add(i) as *mut __m256i, r);
            anyv = _mm256_or_si256(anyv, r);
            i += 4;
        }
        let mut any = hor(anyv);
        while i < n {
            ml[i] = init[i] & plane[i];
            any |= ml[i];
            i += 1;
        }
        for (col, s) in syms.iter().enumerate().skip(first_col + 1) {
            if any == 0 {
                return 0;
            }
            let Symbol::Base(b) = s else { continue };
            any = and_plane(ml, &planes[(col * 4 + b.code() as usize) * ewords..][..n]);
        }
        any
    }

    /// Whole-query column walk with the match line held in `NV` ymm
    /// registers (`ml.len() == 4 * NV`). Identical results to the general
    /// path: same column order, same per-column early exit (the column
    /// whose AND leaves every register zero ends the walk with `ml` all
    /// zero), same return value (OR of the final `ml` words).
    #[target_feature(enable = "avx2")]
    unsafe fn match_cols_reg<const NV: usize>(
        ml: &mut [u64],
        init: &[u64],
        planes: &[u64],
        ewords: usize,
        syms: &[Symbol],
    ) -> u64 {
        let mut m = [_mm256_setzero_si256(); NV];
        for (v, reg) in m.iter_mut().enumerate() {
            *reg = _mm256_loadu_si256(init.as_ptr().add(4 * v) as *const __m256i);
        }
        let mut dead = false;
        for (col, s) in syms.iter().enumerate() {
            let Symbol::Base(b) = s else { continue };
            let plane = planes.as_ptr().add((col * 4 + b.code() as usize) * ewords);
            let mut anyv = _mm256_setzero_si256();
            for (v, reg) in m.iter_mut().enumerate() {
                *reg =
                    _mm256_and_si256(*reg, _mm256_loadu_si256(plane.add(4 * v) as *const __m256i));
                anyv = _mm256_or_si256(anyv, *reg);
            }
            if _mm256_testz_si256(anyv, anyv) != 0 {
                dead = true;
                break;
            }
        }
        // On a dead line the registers are the all-zero post-AND values, so
        // this store also establishes the dead-line contract (ml all zero).
        let mut anyv = m[0];
        for (v, reg) in m.iter().enumerate() {
            _mm256_storeu_si256(ml.as_mut_ptr().add(4 * v) as *mut __m256i, *reg);
            anyv = _mm256_or_si256(anyv, *reg);
        }
        if dead {
            return 0;
        }
        hor(anyv)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hor(v: __m256i) -> u64 {
        let folded = _mm_or_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        (_mm_cvtsi128_si64(folded) as u64) | (_mm_extract_epi64(folded, 1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize, seed: u64) -> Vec<u64> {
        // Small deterministic xorshift fill; no external RNG needed here.
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn parse_roundtrip_and_unknown() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.as_str()), Ok(b));
        }
        let err = KernelBackend::parse("sse9").unwrap_err();
        assert_eq!(err.value, "sse9");
        assert!(err.to_string().contains("sse9"));
    }

    #[test]
    fn scalar_backends_always_supported() {
        assert!(KernelBackend::Scalar.is_supported());
        assert!(KernelBackend::U64x4.is_supported());
        assert!(KernelBackend::supported().count() >= 2);
    }

    #[test]
    fn detect_is_supported_and_latched() {
        assert!(detect().is_supported());
        assert_eq!(default_backend(), default_backend());
        assert!(default_backend().is_supported());
    }

    #[test]
    fn ops_debug_names_backend() {
        let dbg = format!("{:?}", KernelBackend::U64x4.ops());
        assert!(dbg.contains("U64x4"), "{dbg}");
    }

    #[test]
    fn all_backends_agree_with_scalar() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100] {
            let src = words(len + 2, len as u64 + 1);
            for b in KernelBackend::supported() {
                let ops = b.ops();
                let mut expect_and = words(len, 7);
                let expect_any = and_plane_scalar(&mut expect_and, &src);
                let mut got_and = words(len, 7);
                let got_any = ops.and_plane(&mut got_and, &src);
                assert_eq!(got_and, expect_and, "and_plane {b} len {len}");
                assert_eq!(got_any, expect_any, "and_plane any {b} len {len}");

                let mut expect_or = words(len, 11);
                or_into_scalar(&mut expect_or, &src);
                let mut got_or = words(len, 11);
                ops.or_into(&mut got_or, &src);
                assert_eq!(got_or, expect_or, "or_into {b} len {len}");
            }
        }
    }

    #[test]
    fn match_cols_agrees_with_chained_and_plane() {
        use casa_genome::Base;
        // ewords = 16 with n up to 16 exercises every AVX2 register-resident
        // width (1..=4 ymm registers) as well as the general strip-mined path.
        let ewords = 16usize;
        let planes = words(6 * 4 * ewords, 3);
        let x = Symbol::Any;
        let a = Symbol::Base(Base::A);
        let c = Symbol::Base(Base::C);
        let g = Symbol::Base(Base::G);
        let t = Symbol::Base(Base::T);
        let cases: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![x, x],
            vec![c],
            vec![x, a, t, x, g],
            vec![g, c, a, t, a, c],
        ];
        for n in [0usize, 1, 3, 4, 5, 7, 8, 12, 15, 16] {
            let init = words(n, 17);
            for syms in &cases {
                // Reference: init copy + one and_plane per driven column,
                // with the per-query early exit.
                let mut expect = init.clone();
                let mut expect_any = expect.iter().fold(0u64, |acc, &w| acc | w);
                for (col, s) in syms.iter().enumerate() {
                    let Symbol::Base(b) = s else { continue };
                    if expect_any == 0 {
                        break;
                    }
                    expect_any = and_plane_scalar(
                        &mut expect,
                        &planes[(col * 4 + b.code() as usize) * ewords..][..n],
                    );
                }
                for b in KernelBackend::supported() {
                    let mut got = words(n, 99); // stale scratch must not leak
                    let got_any = b.ops().match_cols(&mut got, &init, &planes, ewords, syms);
                    assert_eq!(got, expect, "{b} n={n} syms={syms:?}");
                    assert_eq!(got_any, expect_any, "any {b} n={n} syms={syms:?}");
                }
            }
        }
    }

    #[test]
    fn match_cols_zeroes_dead_lines() {
        use casa_genome::Base;
        // All-zero planes kill the line on the first driven column; the
        // dead-line contract is that every match-line word is zero.
        let ewords = 2usize;
        let planes = vec![0u64; 2 * 4 * ewords];
        let syms = [Symbol::Base(Base::C), Symbol::Base(Base::A)];
        for b in KernelBackend::supported() {
            let mut ml = vec![u64::MAX; 2];
            let any = b
                .ops()
                .match_cols(&mut ml, &[u64::MAX, u64::MAX], &planes, ewords, &syms);
            assert_eq!(any, 0, "{b}");
            assert_eq!(ml, vec![0, 0], "{b}");
        }
    }

    #[test]
    fn and_plane_reports_dead_line() {
        for b in KernelBackend::supported() {
            let mut dst = vec![0b1010u64, 0, 0b1u64 << 63];
            let any = b.ops().and_plane(&mut dst, &[0b0101, u64::MAX, 0]);
            assert_eq!(any, 0, "{b}");
            assert_eq!(dst, vec![0, 0, 0], "{b}");
        }
    }

    #[test]
    fn unsupported_request_is_typed_error() {
        let err = UnknownKernelError {
            value: "avx2".into(),
            reason: "not supported by this CPU",
        };
        assert!(err.to_string().contains("avx2"));
        // ensure_supported never panics, even for Avx2 on any host.
        let _ = KernelBackend::Avx2.ensure_supported();
    }
}
