//! Deterministic, seeded fault injection for the seeding runtime.
//!
//! CASA is a hardware model, so faults are part of the territory: CAM
//! arrays suffer stuck-at match lines and cell bit flips (BioSEAL and
//! ASMCap budget redundant rows for exactly this), filter SRAM rows flip
//! bits, and a software worker tile can panic or stall. A [`FaultPlan`]
//! injects all of these from one `u64` seed:
//!
//! * **CAM faults** — per-partition [`CamFaultModel`]s applied to the
//!   computing CAM at session construction;
//! * **filter faults** — per-partition [`FilterFaultModel`]s corrupting
//!   data-array indicators;
//! * **scheduler faults** — per-(partition, tile, attempt) panics and
//!   stalls injected into the session's job loop.
//!
//! Every fault site is chosen by hashing `(seed, site coordinates)` with
//! [`casa_genome::mix::site_hash`], never by drawing from a shared RNG, so
//! the injected sites are identical at any worker count and on any retry
//! schedule. The recovery machinery lives in
//! [`SeedingSession`](crate::SeedingSession); see `DESIGN.md` for the
//! retry/quarantine state machine and the golden-fallback correctness
//! argument.

use std::sync::Once;
use std::time::Duration;

use casa_cam::{CamFaultModel, CamFaultReport};
use casa_filter::{FilterFaultModel, FilterFaultReport};
use casa_genome::mix::{coin, site_hash};
use serde::{Deserialize, Serialize};

use crate::error::{ConfigError, Error};

// Site-hash domain tags: one per fault class, so e.g. the panic decision
// for tile (2, 3) is independent of the stall decision for the same tile.
const DOMAIN_TILE_PANIC: u64 = 0x31;
const DOMAIN_TILE_STALL: u64 = 0x32;
const DOMAIN_CROSS_CHECK: u64 = 0x33;
const DOMAIN_PART_CAM: u64 = 0x34;
const DOMAIN_PART_FILTER: u64 = 0x35;
const DOMAIN_RETRY_JITTER: u64 = 0x36;

/// Upper bound on a single retry-backoff sleep.
pub const MAX_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Environment variable that arms a CI-profile fault plan in
/// [`SeedingSession::new`](crate::SeedingSession::new) (value = seed; any
/// other value is a typed config error, see [`FaultPlan::from_env`]).
pub const FAULT_SEED_ENV: &str = "CASA_FAULT_SEED";

/// A seeded description of which faults to inject and how hard the
/// runtime should try to recover from them.
///
/// All decisions are pure functions of `(seed, site)`, so a plan is fully
/// reproducible: the same plan injects the same faults into the same
/// sites regardless of worker count, batch order, or retries.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed all site hashes derive from.
    pub seed: u64,
    /// Probability that a (partition, tile, attempt) job panics before
    /// touching its engine.
    pub tile_panic_rate: f64,
    /// Probability that a job stalls (sleeps briefly) before running —
    /// perturbs scheduling without failing the tile.
    pub tile_stall_rate: f64,
    /// Duration of an injected stall in milliseconds. The 0.2 ms default
    /// perturbs scheduling invisibly; raise it past a session's watchdog
    /// deadline to make stalls *detectable* (and recovered) instead of
    /// merely slow.
    pub tile_stall_ms: f64,
    /// Per-entry stuck-at match-line rate for each partition's CAM.
    pub cam_stuck_rate: f64,
    /// Per-stored-base bit-flip rate for each partition's CAM.
    pub cam_flip_rate: f64,
    /// Per-row indicator bit-flip rate for each partition's filter.
    pub filter_flip_rate: f64,
    /// Fraction of reads cross-checked against the FM-index golden model
    /// per (partition, read); catches *silent* corruption.
    pub cross_check_fraction: f64,
    /// Failed tile attempts to retry before quarantining the partition.
    pub max_retries: usize,
    /// Restrict hardware-fault injection — CAM and filter faults — to one
    /// partition (`None` = all). Tile panics and stalls ignore it: they
    /// fire on every partition at their rates.
    pub only_partition: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            tile_panic_rate: 0.0,
            tile_stall_rate: 0.0,
            tile_stall_ms: 0.2,
            cam_stuck_rate: 0.0,
            cam_flip_rate: 0.0,
            filter_flip_rate: 0.0,
            cross_check_fraction: 0.0,
            max_retries: 3,
            only_partition: None,
        }
    }
}

impl FaultPlan {
    /// Validates the plan: every rate and the cross-check fraction must
    /// lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] naming the offending field.
    pub fn validated(self) -> Result<FaultPlan, Error> {
        let rates = [
            (self.tile_panic_rate, "tile_panic_rate"),
            (self.tile_stall_rate, "tile_stall_rate"),
            (self.cam_stuck_rate, "cam_stuck_rate"),
            (self.cam_flip_rate, "cam_flip_rate"),
            (self.filter_flip_rate, "filter_flip_rate"),
            (self.cross_check_fraction, "cross_check_fraction"),
        ];
        for (value, reason) in rates {
            if !(0.0..=1.0).contains(&value) {
                return Err(Error::Config(ConfigError::BadFaultPlan { reason }));
            }
        }
        if !self.tile_stall_ms.is_finite() || self.tile_stall_ms < 0.0 {
            return Err(Error::Config(ConfigError::BadFaultPlan {
                reason: "tile_stall_ms",
            }));
        }
        Ok(self)
    }

    /// The sleep injected by a stall fault.
    pub fn stall_duration(&self) -> Duration {
        Duration::from_secs_f64(self.tile_stall_ms.max(0.0) / 1e3)
    }

    /// Whether the plan injects nothing and checks nothing — the
    /// fault-free fast path.
    pub fn is_noop(&self) -> bool {
        self.tile_panic_rate == 0.0
            && self.tile_stall_rate == 0.0
            && self.cam_stuck_rate == 0.0
            && self.cam_flip_rate == 0.0
            && self.filter_flip_rate == 0.0
            && self.cross_check_fraction == 0.0
    }

    /// Whether the plan can corrupt *results* (as opposed to only crashing
    /// or stalling tiles). When it can, output is only guaranteed
    /// bit-identical to the fault-free run if `cross_check_fraction == 1.0`
    /// (see `DESIGN.md`).
    pub fn has_silent_faults(&self) -> bool {
        self.cam_stuck_rate > 0.0 || self.cam_flip_rate > 0.0 || self.filter_flip_rate > 0.0
    }

    /// Parses a `--fault-spec` string: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed`, `panic`, `stall`, `stall-ms`, `cam-stuck`, `cam-flip`,
    /// `filter-flip`, `check`, `retries`, `partition`. Unlisted keys keep
    /// their defaults. `partition=N` confines the hardware faults
    /// (`cam-stuck`, `cam-flip`, `filter-flip`) to partition `N`; the
    /// scheduler faults (`panic`, `stall`) still hit every partition.
    ///
    /// ```
    /// use casa_core::faults::FaultPlan;
    /// let plan = FaultPlan::parse("seed=42,panic=0.1,cam-flip=1e-4,check=1.0").unwrap();
    /// assert_eq!(plan.seed, 42);
    /// assert_eq!(plan.tile_panic_rate, 0.1);
    /// assert_eq!(plan.cross_check_fraction, 1.0);
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad key or value.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || format!("fault spec {key}={value:?}: invalid value");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad())?,
                "panic" => plan.tile_panic_rate = value.parse().map_err(|_| bad())?,
                "stall" => plan.tile_stall_rate = value.parse().map_err(|_| bad())?,
                "stall-ms" => plan.tile_stall_ms = value.parse().map_err(|_| bad())?,
                "cam-stuck" => plan.cam_stuck_rate = value.parse().map_err(|_| bad())?,
                "cam-flip" => plan.cam_flip_rate = value.parse().map_err(|_| bad())?,
                "filter-flip" => plan.filter_flip_rate = value.parse().map_err(|_| bad())?,
                "check" => plan.cross_check_fraction = value.parse().map_err(|_| bad())?,
                "retries" => plan.max_retries = value.parse().map_err(|_| bad())?,
                "partition" => plan.only_partition = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("fault spec: unknown key {key:?}")),
            }
        }
        plan.validated().map_err(|e| e.to_string())
    }

    /// The plan armed by [`FAULT_SEED_ENV`], if set: a CI profile that
    /// exercises the recovery paths (panics, stalls, a sampled
    /// cross-check) without silent result corruption, so every fault-free
    /// correctness test still holds bit-identically.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] naming the variable if it is set but
    /// is not a `u64` seed: a typo must fail, not run fault-free.
    pub fn from_env() -> Result<Option<FaultPlan>, ConfigError> {
        let Some(value) = std::env::var_os(FAULT_SEED_ENV) else {
            return Ok(None);
        };
        let bad = ConfigError::BadFaultPlan {
            reason: FAULT_SEED_ENV,
        };
        let seed = value.to_str().and_then(|v| v.parse().ok()).ok_or(bad)?;
        Ok(Some(FaultPlan::ci_plan(seed)))
    }

    /// The CI fault profile for `seed` (see [`FaultPlan::from_env`]).
    ///
    /// Panic rate 0.05 with 6 retries makes retry exhaustion — and thus a
    /// golden fallback that would perturb engine-activity stats — all but
    /// impossible (`0.05^7 ≈ 8e-10` per tile), while still exercising the
    /// catch-unwind/retry path on ~1 tile in 20.
    pub fn ci_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            tile_panic_rate: 0.05,
            tile_stall_rate: 0.02,
            cross_check_fraction: 0.1,
            max_retries: 6,
            ..FaultPlan::default()
        }
    }

    fn hardware_faults_enabled(&self, pi: usize) -> bool {
        self.only_partition.is_none_or(|p| p == pi)
    }

    /// The CAM fault model for partition `pi`.
    pub fn cam_faults_for(&self, pi: usize) -> CamFaultModel {
        if !self.hardware_faults_enabled(pi) {
            return CamFaultModel::default();
        }
        CamFaultModel {
            seed: site_hash(self.seed, &[DOMAIN_PART_CAM, pi as u64]),
            stuck_rate: self.cam_stuck_rate,
            flip_rate: self.cam_flip_rate,
        }
    }

    /// The filter fault model for partition `pi`.
    pub fn filter_faults_for(&self, pi: usize) -> FilterFaultModel {
        if !self.hardware_faults_enabled(pi) {
            return FilterFaultModel::default();
        }
        FilterFaultModel {
            seed: site_hash(self.seed, &[DOMAIN_PART_FILTER, pi as u64]),
            flip_rate: self.filter_flip_rate,
        }
    }

    /// Whether attempt `attempt` of job (`pi`, `ti`) panics.
    pub fn should_panic(&self, pi: usize, ti: usize, attempt: usize) -> bool {
        self.tile_panic_rate > 0.0
            && coin(
                site_hash(
                    self.seed,
                    &[DOMAIN_TILE_PANIC, pi as u64, ti as u64, attempt as u64],
                ),
                self.tile_panic_rate,
            )
    }

    /// Whether attempt `attempt` of job (`pi`, `ti`) stalls first.
    pub fn should_stall(&self, pi: usize, ti: usize, attempt: usize) -> bool {
        self.tile_stall_rate > 0.0
            && coin(
                site_hash(
                    self.seed,
                    &[DOMAIN_TILE_STALL, pi as u64, ti as u64, attempt as u64],
                ),
                self.tile_stall_rate,
            )
    }

    /// The backoff slept before retrying attempt `attempt + 1` of job
    /// (`pi`, `ti`): capped exponential with *equal jitter* — half the
    /// exponential base is kept, the other half is scaled by a site hash
    /// of `(seed, partition, tile, attempt)`. When a burst of faults hits
    /// every partition in the same scheduling round (one injected seed
    /// fires across tiles, or a real transient brownout), unjittered
    /// retries would wake simultaneously and collide again
    /// (thundering-herd retry storms); the per-site hash desynchronizes
    /// them while staying a pure function of the coordinates, so retry
    /// *timing* is reproducible and seeding output stays bit-identical
    /// (the backoff only decides when a retry runs, never what it
    /// computes).
    pub fn retry_backoff(&self, pi: usize, ti: usize, attempt: usize) -> Duration {
        let base = Duration::from_micros(50u64 << attempt.min(6)).min(MAX_RETRY_BACKOFF);
        let half = base / 2;
        let hash = site_hash(
            self.seed,
            &[DOMAIN_RETRY_JITTER, pi as u64, ti as u64, attempt as u64],
        );
        half + Duration::from_nanos(hash % (half.as_nanos() as u64 + 1))
    }

    /// Whether read `read_index` of the batch is cross-checked against the
    /// golden model on partition `pi`. Independent of tile geometry and
    /// attempt, so the checked set is stable across worker counts.
    pub fn should_check(&self, pi: usize, read_index: usize) -> bool {
        self.cross_check_fraction > 0.0
            && coin(
                site_hash(
                    self.seed,
                    &[DOMAIN_CROSS_CHECK, pi as u64, read_index as u64],
                ),
                self.cross_check_fraction,
            )
    }
}

/// The concrete hardware fault sites a [`FaultPlan`] injected into a
/// session, one report per partition. Two sessions built from the same
/// plan and reference produce equal `FaultSites` — the determinism
/// property the seed-matrix test pins down.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSites {
    /// Per-partition computing-CAM fault sites.
    pub cam: Vec<CamFaultReport>,
    /// Per-partition filter fault sites.
    pub filter: Vec<FilterFaultReport>,
}

impl FaultSites {
    /// Total injected hardware fault sites across all partitions.
    pub fn total(&self) -> usize {
        self.cam.iter().map(CamFaultReport::sites).sum::<usize>()
            + self
                .filter
                .iter()
                .map(FilterFaultReport::sites)
                .sum::<usize>()
    }
}

/// Panic payload of an injected tile panic. Carried through
/// `panic_any` so the silencing hook — and tests — can tell injected
/// panics from genuine bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Partition index of the panicking job.
    pub partition: usize,
    /// Tile index of the panicking job.
    pub tile: usize,
    /// Which attempt panicked (0 = first try).
    pub attempt: usize,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault: partition {} tile {} attempt {}",
            self.partition, self.tile, self.attempt
        )
    }
}

/// Installs (once per process) a panic hook that swallows the default
/// "thread panicked" stderr message for [`InjectedFault`] payloads and
/// delegates everything else to the previous hook. Injected panics are
/// expected and recovered; their backtraces would only bury real ones.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.has_silent_faults());
        assert!(plan.validated().is_ok());
        assert!(!plan.should_panic(0, 0, 0));
        assert!(!plan.should_stall(0, 0, 0));
        assert!(!plan.should_check(0, 0));
    }

    #[test]
    fn validation_rejects_out_of_range_rates() {
        for bad in [
            FaultPlan {
                tile_panic_rate: 1.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                cam_flip_rate: -0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                cross_check_fraction: 2.0,
                ..FaultPlan::default()
            },
            FaultPlan {
                tile_stall_ms: -1.0,
                ..FaultPlan::default()
            },
            FaultPlan {
                tile_stall_ms: f64::NAN,
                ..FaultPlan::default()
            },
        ] {
            assert!(matches!(
                bad.validated(),
                Err(Error::Config(ConfigError::BadFaultPlan { .. }))
            ));
        }
    }

    #[test]
    fn parse_round_trips_all_keys() {
        let plan = FaultPlan::parse(
            "seed=7, panic=0.25, stall=0.125, stall-ms=25, cam-stuck=1e-3, cam-flip=2e-3, \
             filter-flip=5e-4, check=0.5, retries=9, partition=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.tile_panic_rate, 0.25);
        assert_eq!(plan.tile_stall_rate, 0.125);
        assert_eq!(plan.tile_stall_ms, 25.0);
        assert_eq!(plan.stall_duration(), Duration::from_millis(25));
        assert_eq!(plan.cam_stuck_rate, 1e-3);
        assert_eq!(plan.cam_flip_rate, 2e-3);
        assert_eq!(plan.filter_flip_rate, 5e-4);
        assert_eq!(plan.cross_check_fraction, 0.5);
        assert_eq!(plan.max_retries, 9);
        assert_eq!(plan.only_partition, Some(3));
        assert!(plan.has_silent_faults());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=high").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("panic=1.5").is_err()); // fails validation
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn site_predicates_are_deterministic_and_rate_like() {
        let plan = FaultPlan {
            seed: 42,
            tile_panic_rate: 0.2,
            ..FaultPlan::default()
        };
        let fired: Vec<bool> = (0..1000).map(|ti| plan.should_panic(0, ti, 0)).collect();
        assert_eq!(
            fired,
            (0..1000)
                .map(|ti| plan.should_panic(0, ti, 0))
                .collect::<Vec<_>>()
        );
        let count = fired.iter().filter(|&&b| b).count();
        assert!((120..280).contains(&count), "panic count {count}");
        // Attempts re-roll: a tile that panics on attempt 0 usually
        // survives a later attempt.
        let survivors = (0..1000)
            .filter(|&ti| plan.should_panic(0, ti, 0) && !plan.should_panic(0, ti, 1))
            .count();
        assert!(survivors > 0);
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_desynchronized() {
        let plan = FaultPlan {
            seed: 42,
            ..FaultPlan::default()
        };
        for attempt in 0..10 {
            for pi in 0..4 {
                let backoff = plan.retry_backoff(pi, 3, attempt);
                assert_eq!(backoff, plan.retry_backoff(pi, 3, attempt));
                let base = Duration::from_micros(50u64 << attempt.min(6)).min(MAX_RETRY_BACKOFF);
                assert!(backoff >= base / 2, "attempt {attempt} below jitter floor");
                assert!(backoff <= base, "attempt {attempt} above exponential cap");
                assert!(backoff <= MAX_RETRY_BACKOFF);
            }
        }
        // Simultaneous retries of different partitions sleep different
        // amounts — the anti-thundering-herd property.
        let sleeps: std::collections::HashSet<Duration> =
            (0..8).map(|pi| plan.retry_backoff(pi, 0, 4)).collect();
        assert!(sleeps.len() > 1, "all partitions woke in lockstep");
    }

    #[test]
    fn only_partition_gates_hardware_faults() {
        let plan = FaultPlan {
            seed: 1,
            cam_flip_rate: 0.5,
            filter_flip_rate: 0.5,
            only_partition: Some(2),
            ..FaultPlan::default()
        };
        assert_eq!(plan.cam_faults_for(0), CamFaultModel::default());
        assert_eq!(plan.filter_faults_for(1), FilterFaultModel::default());
        assert!(plan.cam_faults_for(2).flip_rate > 0.0);
        // Different partitions derive different sub-seeds.
        let open = FaultPlan {
            only_partition: None,
            ..plan
        };
        assert_ne!(open.cam_faults_for(0).seed, open.cam_faults_for(1).seed);
    }

    #[test]
    fn only_partition_leaves_tile_panics_and_stalls_on_every_partition() {
        // `partition=` gates hardware faults only: every (partition, tile,
        // attempt) panic and stall decision is the unrestricted plan's.
        let open = FaultPlan {
            seed: 13,
            tile_panic_rate: 0.5,
            tile_stall_rate: 0.5,
            ..FaultPlan::default()
        };
        let confined = FaultPlan {
            only_partition: Some(0),
            ..open
        };
        let (mut panics, mut stalls) = (0, 0);
        for pi in 0..6 {
            for ti in 0..4 {
                for attempt in 0..3 {
                    let (p, s) = (
                        confined.should_panic(pi, ti, attempt),
                        confined.should_stall(pi, ti, attempt),
                    );
                    assert_eq!(p, open.should_panic(pi, ti, attempt), "{pi} {ti} {attempt}");
                    assert_eq!(s, open.should_stall(pi, ti, attempt), "{pi} {ti} {attempt}");
                    panics += usize::from(p && pi > 0);
                    stalls += usize::from(s && pi > 0);
                }
            }
        }
        assert!(
            panics > 0 && stalls > 0,
            "partitions other than 0 must panic and stall too"
        );
    }

    #[test]
    fn ci_plan_has_no_silent_faults() {
        let plan = FaultPlan::ci_plan(42);
        assert!(!plan.has_silent_faults());
        assert!(plan.tile_panic_rate > 0.0);
        assert!(plan.max_retries >= 6);
        assert!(plan.validated().is_ok());
    }
}
