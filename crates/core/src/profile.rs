//! Per-stage wall-clock accounting for the seeding pipeline.
//!
//! The session pipeline decomposes into eight stages (the taxonomy of
//! DESIGN.md §3c): read packing, rolling k-mer codes, filter lookups,
//! pivot analysis, CAM/RMEM search, SMEM containment/merge, global
//! translation + cross-partition merge, and SAM/seed emission. A
//! [`StageProfile`] is a plain bag of per-stage nanosecond/call counters
//! that rides inside [`SeedingStats`](crate::SeedingStats), so it merges
//! across worker threads, tiles, and batches exactly like every other
//! activity counter.
//!
//! Profiling is **always available** (no feature gate) and near-zero
//! overhead when disabled: every instrumentation site is guarded by a
//! plain `bool` and takes no timestamps unless a caller opted in via
//! [`SeedingSession::set_profiling`](crate::SeedingSession::set_profiling)
//! (or, driving a backend directly, a [`Lane`](crate::Lane) built with
//! profiling on). When enabled, stages are timed as disjoint spans — the sum
//! of all stage times can never exceed the wall time of the run that
//! produced them, which `crates/core/tests/stage_profile.rs` asserts.
//!
//! Timings are wall-clock and therefore nondeterministic; they are *not*
//! part of the bit-identity contract. Runs compared for equality keep
//! profiling off (the default), under which the profile stays all-zero
//! and compares equal.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Number of pipeline stages in the taxonomy.
pub const STAGE_COUNT: usize = 8;

/// One stage of the seeding pipeline (DESIGN.md §3c).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// ASCII → 2-bit [`PackedSeq`](casa_genome::PackedSeq) read packing
    /// (recorded by ingestion-side callers; the engines only see packed
    /// reads).
    ReadPack = 0,
    /// Rolling k-mer code computation over the read.
    KmerCodes = 1,
    /// Pre-seeding filter-table lookups (batched or per-pivot).
    FilterLookup = 2,
    /// Algorithm 1 pivot gating: CRkM and shifted-AND analyses plus loop
    /// bookkeeping.
    PivotAnalysis = 3,
    /// CAM/RMEM searches (including the §4.3 whole-read match attempt).
    CamSearch = 4,
    /// SMEM containment checks and per-partition result recording.
    ContainMerge = 5,
    /// Partition-local → global coordinate translation and the
    /// cross-partition merge.
    TranslateMerge = 6,
    /// SAM/seed record formatting and emission (recorded by output-side
    /// callers).
    Emit = 7,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::ReadPack,
        Stage::KmerCodes,
        Stage::FilterLookup,
        Stage::PivotAnalysis,
        Stage::CamSearch,
        Stage::ContainMerge,
        Stage::TranslateMerge,
        Stage::Emit,
    ];

    /// Stable snake_case label used in reports and BENCH artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::ReadPack => "read_pack",
            Stage::KmerCodes => "kmer_codes",
            Stage::FilterLookup => "filter_lookup",
            Stage::PivotAnalysis => "pivot_analysis",
            Stage::CamSearch => "cam_search",
            Stage::ContainMerge => "contain_merge",
            Stage::TranslateMerge => "translate_merge",
            Stage::Emit => "emit",
        }
    }

    /// The stage's index into the profile arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Accumulated per-stage wall time and span counts.
///
/// A plain `Copy` bag of `u64` counters whose [`merge`](Self::merge) is
/// addition — commutative and associative — so worker-local profiles fold
/// in any completion order, like the rest of
/// [`SeedingStats`](crate::SeedingStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Nanoseconds accumulated per stage, indexed by [`Stage::index`].
    nanos: [u64; STAGE_COUNT],
    /// Timed spans accumulated per stage.
    calls: [u64; STAGE_COUNT],
}

impl StageProfile {
    /// Records one timed span of `nanos` nanoseconds against `stage`.
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        self.add_many(stage, nanos, 1);
    }

    /// Records `calls` spans totalling `nanos` nanoseconds against
    /// `stage`.
    pub fn add_many(&mut self, stage: Stage, nanos: u64, calls: u64) {
        self.nanos[stage.index()] += nanos;
        self.calls[stage.index()] += calls;
    }

    /// Nanoseconds accumulated against `stage`.
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    /// Spans recorded against `stage`.
    pub fn calls(&self, stage: Stage) -> u64 {
        self.calls[stage.index()]
    }

    /// Total nanoseconds across all stages. Spans are disjoint by
    /// construction, so this never exceeds the wall time of the run that
    /// produced the profile.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `stage`'s share of [`total_nanos`](Self::total_nanos), in `[0, 1]`
    /// (0 when nothing was recorded).
    pub fn share(&self, stage: Stage) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            return 0.0;
        }
        self.nanos(stage) as f64 / total as f64
    }

    /// Whether no span was ever recorded (the state of every run with
    /// profiling disabled).
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0) && self.nanos.iter().all(|&n| n == 0)
    }

    /// Adds another profile into this one.
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..STAGE_COUNT {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// A guard-style span timer: started conditionally, charged to a stage on
/// [`stop`](Self::stop). When started disabled it takes no timestamp at
/// all — the near-zero-overhead contract of the profile layer.
#[derive(Debug)]
#[must_use = "a started timer must be stopped to record its span"]
pub struct StageTimer(Option<Instant>);

impl StageTimer {
    /// Starts a timer, taking a timestamp only when `enabled`.
    #[inline]
    pub fn start(enabled: bool) -> StageTimer {
        StageTimer(if enabled { Some(Instant::now()) } else { None })
    }

    /// Stops the timer, charging the elapsed span to `stage` (a no-op for
    /// a disabled timer).
    #[inline]
    pub fn stop(self, profile: &mut StageProfile, stage: Stage) {
        if let Some(start) = self.0 {
            profile.add(stage, start.elapsed().as_nanos() as u64);
        }
    }

    /// Nanoseconds elapsed so far (0 for a disabled timer), without
    /// charging any stage. Used where a stage's time is derived by
    /// subtraction (e.g. pivot analysis = loop wall minus the inner
    /// filter/CAM/merge spans).
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.map_or(0, |start| start.elapsed().as_nanos() as u64)
    }

    /// Whether the timer is actually measuring.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// Times `f`, charging its wall time to `stage`. Convenience for
/// harness-side stages (read packing, SAM emission) that live outside the
/// engines.
pub fn time_stage<T>(profile: &mut StageProfile, stage: Stage, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    profile.add(stage, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_merge_accumulate() {
        let mut a = StageProfile::default();
        assert!(a.is_empty());
        a.add(Stage::FilterLookup, 100);
        a.add(Stage::FilterLookup, 50);
        a.add_many(Stage::CamSearch, 30, 3);
        let mut b = StageProfile::default();
        b.add(Stage::FilterLookup, 1);
        b.add(Stage::Emit, 9);
        a.merge(&b);
        assert_eq!(a.nanos(Stage::FilterLookup), 151);
        assert_eq!(a.calls(Stage::FilterLookup), 3);
        assert_eq!(a.nanos(Stage::CamSearch), 30);
        assert_eq!(a.calls(Stage::CamSearch), 3);
        assert_eq!(a.total_nanos(), 190);
        assert!((a.share(Stage::FilterLookup) - 151.0 / 190.0).abs() < 1e-12);
        assert!(!a.is_empty());
    }

    #[test]
    fn stage_labels_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(seen.insert(stage.as_str()), "duplicate {stage}");
        }
        assert_eq!(seen.len(), STAGE_COUNT);
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let mut p = StageProfile::default();
        let t = StageTimer::start(false);
        assert!(!t.enabled());
        assert_eq!(t.elapsed_nanos(), 0);
        t.stop(&mut p, Stage::KmerCodes);
        assert!(p.is_empty());
        let t = StageTimer::start(true);
        assert!(t.enabled());
        t.stop(&mut p, Stage::KmerCodes);
        assert_eq!(p.calls(Stage::KmerCodes), 1);
    }

    #[test]
    fn time_stage_charges_the_stage() {
        let mut p = StageProfile::default();
        let v = time_stage(&mut p, Stage::Emit, || 7);
        assert_eq!(v, 7);
        assert_eq!(p.calls(Stage::Emit), 1);
    }

    #[test]
    fn pivot_analysis_by_subtraction_never_exceeds_wall() {
        // The engine derives PivotAnalysis as loop wall minus the inner
        // spans; saturating_sub keeps the invariant even when clock
        // granularity makes inner >= wall.
        let mut p = StageProfile::default();
        p.add(Stage::FilterLookup, 70);
        p.add(Stage::CamSearch, 40);
        let wall = 100u64;
        let inner = p.total_nanos();
        p.add(Stage::PivotAnalysis, wall.saturating_sub(inner));
        assert_eq!(p.nanos(Stage::PivotAnalysis), 0);
        assert!(p.total_nanos() >= wall);
    }
}
