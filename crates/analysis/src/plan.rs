//! The run plan and its executor: the one place that decides how a
//! `(scheme, geometry, warm-up)` cell replays a trace.
//!
//! Every experiment of the paper is one cell of the same matrix: a scheme,
//! a geometry and a warm-up split replayed over a trace. A [`RunPlan`]
//! names the cell plus the optional accelerations a caller *offers* — a
//! set-sharded partition, a strided set sample, a warm snapshot — and
//! [`execute`] routes it. Each offer is gated by one bit of the scheme's
//! [`Caps`]; a declined offer runs the plain cold exact replay instead, so
//! an offer can change how long a cell takes, never its numbers (except
//! sampling, which is an estimate by design and refuses loudly instead).
//!
//! | Plan field | Caps bit | Taken when | Declined |
//! |---|---|---|---|
//! | `fidelity: Sampled` | `set_sampling` | target is `Llc` | [`RunError::Ineligible`] |
//! | `start: Restore`/`RestoreSystem` | `snapshot` | exact fidelity | cold replay |
//! | `shards: Some(plan)` | `set_sharding` | exact, `Llc`, cold, > 1 shard | serial replay |
//!
//! A restore offer outranks a sharding offer: the restored run skips the
//! warm prefix, while sharding only splits the same work.

use std::fmt;

use stem_hierarchy::{System, SystemConfig, SystemMetrics, SystemSnapshot};
use stem_sim_core::{
    CacheGeometry, CacheModel, CacheStats, DecodedTrace, SampledTrace, ShardedTrace, Snapshot,
    SnapshotError, TraceShard,
};

use crate::scheme::{build_cache, replay_warmed, Scheme};

/// The optional replay strategies a scheme opts into, read from the
/// scheme's own cache so the boundary lives with each scheme's state
/// declaration (DESIGN.md §13–§15 tabulate it, §17 routes on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Per-set state only: set-sharded replay is bit-identical to serial.
    pub set_sharding: bool,
    /// A strided set sample is a sound estimator of the whole cache.
    pub set_sampling: bool,
    /// The complete replay state checkpoints and restores exactly.
    pub snapshot: bool,
}

impl Caps {
    fn of(cache: &dyn CacheModel) -> Caps {
        Caps {
            set_sharding: cache.supports_set_sharding(),
            set_sampling: cache.supports_set_sampling(),
            snapshot: cache.supports_snapshot(),
        }
    }
}

/// The capabilities of `scheme` as built for `geom`.
pub fn caps(scheme: Scheme, geom: CacheGeometry) -> Caps {
    Caps::of(build_cache(scheme, geom).as_ref())
}

/// How much of the cache a plan replays.
#[derive(Debug, Clone, Copy)]
pub enum Fidelity<'a> {
    /// Every set, every access.
    Exact,
    /// Only the sets of this strided sample of the plan's trace
    /// ([`SampledTrace::select`]); counts scale up by its
    /// [`scale_factor`](SampledTrace::scale_factor). The sample is chosen
    /// once by the caller so every scheme measured on it shares one
    /// selection.
    Sampled(&'a SampledTrace),
}

/// Where the measured replay starts from.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// Replay the warm prefix, reset the counters, then measure.
    Cold,
    /// Restore this bare-LLC checkpoint (taken at the plan's warm boundary
    /// with zeroed counters, e.g. by
    /// [`warm_scheme_snapshot`](crate::warm_scheme_snapshot)) and measure
    /// the suffix. For [`Target::Llc`] plans.
    Restore(&'a Snapshot),
    /// The whole-hierarchy twin of [`Start::Restore`], for
    /// [`Target::System`] plans.
    RestoreSystem(&'a SystemSnapshot),
}

/// What the trace replays through.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// The bare LLC, as in the Fig. 3 / Fig. 10 sweeps.
    Llc,
    /// The full core + L1 + LLC system of Fig. 7–9.
    System(SystemConfig),
}

/// One experiment cell and the accelerations its caller offers.
///
/// Build with [`RunPlan::new`] and struct-update syntax:
///
/// ```
/// use stem_analysis::{execute, warm_split, RunPlan, Scheme, Target};
/// use stem_hierarchy::SystemConfig;
/// use stem_sim_core::{CacheGeometry, DecodedTrace};
/// use stem_workloads::BenchmarkProfile;
///
/// let geom = CacheGeometry::new(64, 4, 64).unwrap();
/// let raw = BenchmarkProfile::by_name("gromacs").unwrap().trace(geom, 20_000);
/// let trace = DecodedTrace::decode(&raw, geom);
/// let plan = RunPlan {
///     target: Target::System(SystemConfig::micro2010()),
///     ..RunPlan::new(Scheme::Stem, geom, warm_split(trace.len(), 0.2))
/// };
/// let report = execute(&plan, &trace).unwrap();
/// assert_eq!(report.mpki.to_bits(), report.system.unwrap().mpki.to_bits());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunPlan<'a> {
    /// The LLC scheme.
    pub scheme: Scheme,
    /// The LLC geometry. The trace's set count and line size may differ
    /// (decoded streams fall back to line addresses).
    pub geom: CacheGeometry,
    /// Accesses replayed unmeasured before the counters reset
    /// ([`warm_split`](crate::warm_split) computes the paper's split).
    pub warm_len: usize,
    /// Exact replay, or a sampled estimate.
    pub fidelity: Fidelity<'a>,
    /// A set-sharded partition of the plan's trace to replay instead of
    /// the serial stream.
    pub shards: Option<&'a ShardedTrace>,
    /// Worker threads the shards fan out over (1 replays them inline).
    pub threads: usize,
    /// Cold, or restored from a warm checkpoint.
    pub start: Start<'a>,
    /// Bare LLC or full system.
    pub target: Target,
}

impl<'a> RunPlan<'a> {
    /// A cold, exact, serial bare-LLC plan.
    pub fn new(scheme: Scheme, geom: CacheGeometry, warm_len: usize) -> Self {
        RunPlan {
            scheme,
            geom,
            warm_len,
            fidelity: Fidelity::Exact,
            shards: None,
            threads: 1,
            start: Start::Cold,
            target: Target::Llc,
        }
    }
}

/// Which path [`execute`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Warm prefix then measured suffix, one stream, one cache.
    Serial,
    /// Per-shard caches over the offered partition, stats summed.
    Sharded,
    /// The offered sample, counts scaled up.
    Sampled,
    /// The offered checkpoint restored, suffix measured.
    Restored,
}

/// What one executed plan measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The path taken.
    pub route: Route,
    /// The LLC's measured counters (raw sample counts on the sampled
    /// route; multiply by `scale` for whole-cache estimates).
    pub stats: CacheStats,
    /// LLC misses per thousand instructions of the source trace's
    /// measured range, scaled to the whole cache.
    pub mpki: f64,
    /// The sampled route's extrapolation factor (1.0 on every other route).
    pub scale: f64,
    /// End-to-end metrics of a [`Target::System`] plan.
    pub system: Option<SystemMetrics>,
}

/// Why a plan could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A sampled plan for a scheme or target that cannot be sampled.
    Ineligible {
        /// The scheme that was asked for.
        scheme: Scheme,
        /// What rules it out.
        reason: &'static str,
    },
    /// A capable scheme could not restore the offered checkpoint (taken
    /// from another scheme, geometry or system configuration, or a
    /// bare-LLC checkpoint offered to a system target and vice versa).
    Snapshot(SnapshotError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Ineligible { scheme, reason } => {
                write!(f, "scheme {scheme} cannot run sampled: {reason}")
            }
            RunError::Snapshot(e) => write!(f, "warm snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SnapshotError> for RunError {
    fn from(e: SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

/// Runs `plan` over `trace` and reports what it measured. The routing
/// table is in the module documentation.
///
/// # Errors
///
/// [`RunError::Ineligible`] for a sampled plan whose scheme declines set
/// sampling or whose target is a system; [`RunError::Snapshot`] when a
/// snapshot-capable scheme cannot restore the offered checkpoint.
///
/// # Panics
///
/// Panics if `warm_len` exceeds the trace, or if an offered sample or
/// partition was not taken from `trace`.
pub fn execute(plan: &RunPlan<'_>, trace: &DecodedTrace) -> Result<RunReport, RunError> {
    let warm_len = plan.warm_len;
    assert!(warm_len <= trace.len(), "warm-up exceeds the trace");
    let mut cache = build_cache(plan.scheme, plan.geom);
    let caps = Caps::of(cache.as_ref());
    let mut scale = 1.0;
    let mut system = None;
    let (route, stats) = match (plan.fidelity, plan.target, plan.start) {
        (Fidelity::Sampled(_), Target::System(_), _) => {
            return Err(RunError::Ineligible {
                scheme: plan.scheme,
                reason: "the system's prefetcher crosses set boundaries",
            })
        }
        (Fidelity::Sampled(_), ..) if !caps.set_sampling => {
            return Err(RunError::Ineligible {
                scheme: plan.scheme,
                reason: "it holds cross-set state",
            })
        }
        (Fidelity::Sampled(sample), ..) => {
            assert!(
                sample.source_len() == trace.len() && sample.trace().geometry() == trace.geometry(),
                "sample of another trace"
            );
            scale = sample.scale_factor();
            let local_warm = sample.split_before(warm_len);
            let stats = replay_warmed(cache.as_mut(), sample.trace(), local_warm);
            (Route::Sampled, stats)
        }
        (_, Target::Llc, Start::RestoreSystem(_)) | (_, Target::System(_), Start::Restore(_)) => {
            return Err(SnapshotError::ConfigMismatch.into())
        }
        (_, Target::System(cfg), start) => {
            let mut sys = System::new(cfg, cache);
            let (route, metrics) = match start {
                Start::RestoreSystem(snap) if caps.snapshot => {
                    sys.restore(snap)?;
                    let m = sys.run_decoded_range(trace, warm_len..trace.len());
                    (Route::Restored, m)
                }
                _ => (Route::Serial, sys.warm_then_run_decoded(trace, warm_len)),
            };
            let stats = metrics.l2;
            system = Some(metrics);
            (route, stats)
        }
        (_, Target::Llc, Start::Restore(snap)) if caps.snapshot => {
            cache.restore(snap)?;
            cache.replay_decoded(trace, warm_len..trace.len());
            (Route::Restored, *cache.stats())
        }
        (_, Target::Llc, _) => match plan.shards {
            Some(partition) if partition.shard_count() > 1 && caps.set_sharding => {
                assert!(
                    partition.source_len() == trace.len()
                        && partition.geometry() == trace.geometry(),
                    "partition of another trace"
                );
                (Route::Sharded, replay_sharded(plan, partition))
            }
            _ => (
                Route::Serial,
                replay_warmed(cache.as_mut(), trace, warm_len),
            ),
        },
    };
    let instructions = trace.instructions_in(warm_len..trace.len()).max(1);
    Ok(RunReport {
        route,
        stats,
        mpki: stats.mpki(instructions) * scale,
        scale,
        system,
    })
}

/// Replays every shard of `partition` through its own fresh
/// full-geometry cache (untouched sets stay cold and count nothing), each
/// with the plan's warm boundary translated onto the shard, and sums the
/// stats. Shards fan out over up to `plan.threads` scoped workers; the
/// sum is exact integer addition, so the result is independent of the
/// thread count.
fn replay_sharded(plan: &RunPlan<'_>, partition: &ShardedTrace) -> CacheStats {
    let (scheme, geom, warm_len) = (plan.scheme, plan.geom, plan.warm_len);
    let replay_group = move |group: &[TraceShard]| {
        group
            .iter()
            .map(|shard| {
                let mut cache = build_cache(scheme, geom);
                replay_warmed(cache.as_mut(), shard.trace(), shard.split_before(warm_len))
            })
            .fold(CacheStats::default(), |acc, s| acc + s)
    };
    let shards = partition.shards();
    let per_worker = shards.len().div_ceil(plan.threads.clamp(1, shards.len()));
    if per_worker >= shards.len() {
        return replay_group(shards);
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = shards
            .chunks(per_worker)
            .map(|group| scope.spawn(move || replay_group(group)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .fold(CacheStats::default(), |acc, s| acc + s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{warm_scheme_snapshot, warm_split};
    use stem_sim_core::{Access, Address, Trace};
    use stem_workloads::BenchmarkProfile;

    fn small() -> CacheGeometry {
        CacheGeometry::new(64, 4, 64).unwrap()
    }

    fn omnetpp(geom: CacheGeometry, n: usize) -> (Trace, DecodedTrace) {
        let trace = BenchmarkProfile::by_name("omnetpp").unwrap().trace(geom, n);
        let decoded = DecodedTrace::decode(&trace, geom);
        (trace, decoded)
    }

    fn run(plan: &RunPlan<'_>, trace: &DecodedTrace) -> RunReport {
        execute(plan, trace).unwrap_or_else(|e| panic!("{}: {e}", plan.scheme))
    }

    fn ways(geom: CacheGeometry, ways: usize) -> CacheGeometry {
        CacheGeometry::new(geom.sets(), ways, geom.line_bytes()).unwrap()
    }

    #[test]
    fn execute_returns_mpki() {
        let geom = small();
        // Streaming trace: every access misses → MPKI == 1000 (gap 1).
        let trace: Trace = (0..1000u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        let report = run(
            &RunPlan::new(Scheme::Lru, geom, 0),
            &DecodedTrace::decode(&trace, geom),
        );
        assert_eq!(report.route, Route::Serial);
        assert!((report.mpki - 1000.0).abs() < 1e-9);
        assert_eq!(report.stats.misses(), 1000);
        assert!(report.system.is_none());
    }

    /// The byte-address reference: one cache, the warm boundary applied
    /// access by access.
    fn access_path_mpki(scheme: Scheme, geom: CacheGeometry, trace: &Trace, warm: usize) -> f64 {
        let mut cache = build_cache(scheme, geom);
        let mut instructions = 0u64;
        for (i, a) in trace.iter().enumerate() {
            if i == warm {
                cache.reset_stats();
            }
            if i >= warm {
                instructions += u64::from(a.inst_gap);
            }
            cache.access(a.addr, a.kind);
        }
        cache.stats().mpki(instructions.max(1))
    }

    #[test]
    fn decoded_execution_matches_the_access_path_exactly() {
        let geom = small();
        let (trace, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(trace.len(), 0.2);
        for scheme in Scheme::PAPER {
            // One decode serves every point of an associativity sweep.
            for point in [geom, ways(geom, 2), ways(geom, 8)] {
                let reference = access_path_mpki(scheme, point, &trace, warm);
                let fast = run(&RunPlan::new(scheme, point, warm), &decoded).mpki;
                assert_eq!(
                    reference.to_bits(),
                    fast.to_bits(),
                    "{scheme} bare-LLC MPKI diverged at {} ways",
                    point.ways()
                );
            }
            let cfg = SystemConfig::micro2010();
            let head: Trace = trace.iter().take(warm).copied().collect();
            let tail: Trace = trace.iter().skip(warm).copied().collect();
            let reference = System::new(cfg, build_cache(scheme, geom)).warm_then_run(&head, &tail);
            let plan = RunPlan {
                target: Target::System(cfg),
                ..RunPlan::new(scheme, geom, warm)
            };
            let report = run(&plan, &decoded);
            let fast = report.system.expect("system target reports metrics");
            assert_eq!(reference.accesses, fast.accesses, "{scheme} accesses");
            assert_eq!(reference.l2, fast.l2, "{scheme} L2 stats diverged");
            assert_eq!(reference.cpi.to_bits(), fast.cpi.to_bits(), "{scheme} CPI");
            assert_eq!(
                reference.mpki.to_bits(),
                fast.mpki.to_bits(),
                "{scheme} MPKI"
            );
            assert_eq!(
                report.mpki.to_bits(),
                fast.mpki.to_bits(),
                "{scheme} report MPKI"
            );
        }
    }

    #[test]
    fn sharding_capability_surface_is_exactly_the_per_set_schemes() {
        for scheme in Scheme::ALL {
            let expected = matches!(
                scheme,
                Scheme::Lru | Scheme::Srrip | Scheme::Plru | Scheme::SbcStatic
            );
            assert_eq!(
                caps(scheme, small()).set_sharding,
                expected,
                "{scheme}: sharding capability drifted from the documented boundary \
                 (DESIGN.md §13) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn sharded_route_matches_serial_at_any_shard_and_thread_count() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(decoded.len(), 0.2);
        for shards in [1, 2, 4, 7] {
            let partition = ShardedTrace::partition(&decoded, shards);
            for scheme in Scheme::ALL {
                for point in [geom, ways(geom, 2), ways(geom, 8)] {
                    let serial = run(&RunPlan::new(scheme, point, warm), &decoded);
                    for threads in [1, 2, 7] {
                        let plan = RunPlan {
                            shards: Some(&partition),
                            threads,
                            ..RunPlan::new(scheme, point, warm)
                        };
                        let sharded = run(&plan, &decoded);
                        let expect_route = if shards > 1 && caps(scheme, point).set_sharding {
                            Route::Sharded
                        } else {
                            Route::Serial
                        };
                        assert_eq!(sharded.route, expect_route, "{scheme} at {shards} shards");
                        assert_eq!(
                            serial.mpki.to_bits(),
                            sharded.mpki.to_bits(),
                            "{scheme} diverged at {shards} shards, {threads} threads, {} ways",
                            point.ways()
                        );
                        assert_eq!(serial.stats, sharded.stats, "{scheme} counters");
                    }
                }
            }
        }
    }

    #[test]
    fn sampling_capability_surface_is_sharding_plus_dip() {
        for scheme in Scheme::ALL {
            let expected = matches!(
                scheme,
                Scheme::Lru | Scheme::Srrip | Scheme::Plru | Scheme::SbcStatic | Scheme::Dip
            );
            assert_eq!(
                caps(scheme, small()).set_sampling,
                expected,
                "{scheme}: sampling capability drifted from the documented boundary \
                 (DESIGN.md §14) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn full_rate_sample_reproduces_exact_replay_bit_for_bit() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(decoded.len(), 0.2);
        let sample = SampledTrace::select(&decoded, 1, 99);
        for scheme in Scheme::ALL {
            if !caps(scheme, geom).set_sampling {
                continue;
            }
            let exact = run(&RunPlan::new(scheme, geom, warm), &decoded);
            let plan = RunPlan {
                fidelity: Fidelity::Sampled(&sample),
                ..RunPlan::new(scheme, geom, warm)
            };
            let sampled = run(&plan, &decoded);
            assert_eq!(sampled.route, Route::Sampled);
            assert_eq!(sampled.scale.to_bits(), 1.0f64.to_bits());
            assert_eq!(
                exact.mpki.to_bits(),
                sampled.mpki.to_bits(),
                "{scheme} full-rate sample diverged from exact replay"
            );
        }
    }

    #[test]
    fn sampled_estimates_are_deterministic_and_in_the_right_ballpark() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 40_000);
        let warm = warm_split(decoded.len(), 0.2);
        let sample = SampledTrace::select(&decoded, 8, 1);
        for scheme in Scheme::ALL {
            if !caps(scheme, geom).set_sampling {
                continue;
            }
            let exact = run(&RunPlan::new(scheme, geom, warm), &decoded).mpki;
            let plan = RunPlan {
                fidelity: Fidelity::Sampled(&sample),
                ..RunPlan::new(scheme, geom, warm)
            };
            let a = run(&plan, &decoded);
            let b = run(&plan, &decoded);
            assert_eq!(
                a.mpki.to_bits(),
                b.mpki.to_bits(),
                "{scheme} sampled MPKI not pure"
            );
            assert_eq!(a.scale, sample.scale_factor());
            assert!(
                a.mpki.is_finite() && a.mpki >= 0.0,
                "{scheme} sampled MPKI = {}",
                a.mpki
            );
            // Not a tight bound — just that the estimator isn't nonsense.
            if exact > 1.0 {
                let rel = (a.mpki - exact).abs() / exact;
                assert!(
                    rel < 1.0,
                    "{scheme} sampled MPKI {} is off exact {exact}",
                    a.mpki
                );
            }
        }
    }

    #[test]
    fn ineligible_sampled_plans_are_typed_errors_naming_the_scheme() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 5_000);
        let sample = SampledTrace::select(&decoded, 4, 0);
        for scheme in Scheme::ALL {
            let plan = RunPlan {
                fidelity: Fidelity::Sampled(&sample),
                ..RunPlan::new(scheme, geom, 1_000)
            };
            if caps(scheme, geom).set_sampling {
                // The system target is never sampleable.
                let system = RunPlan {
                    target: Target::System(SystemConfig::micro2010()),
                    ..plan
                };
                let err = execute(&system, &decoded).unwrap_err();
                assert!(matches!(err, RunError::Ineligible { scheme: s, .. } if s == scheme));
                continue;
            }
            let err = execute(&plan, &decoded).unwrap_err();
            assert!(
                matches!(err, RunError::Ineligible { scheme: s, .. } if s == scheme),
                "{scheme}: {err:?}"
            );
            assert!(err.to_string().contains(scheme.label()), "{err}");
        }
    }

    #[test]
    fn snapshot_capability_surface_is_all_but_the_entangled_schemes() {
        for scheme in Scheme::ALL {
            let expected = !matches!(scheme, Scheme::VWay | Scheme::Sbc | Scheme::Stem);
            assert_eq!(
                caps(scheme, small()).snapshot,
                expected,
                "{scheme}: snapshot capability drifted from the documented boundary \
                 (DESIGN.md §15) — if intentional, update the table and this test"
            );
        }
    }

    #[test]
    fn restored_route_matches_cold_and_declined_offers_run_cold() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(decoded.len(), 0.2);
        let donor = warm_scheme_snapshot(Scheme::Lru, geom, &decoded, warm).unwrap();
        for scheme in Scheme::ALL {
            let cold = run(&RunPlan::new(scheme, geom, warm), &decoded);
            let snap = warm_scheme_snapshot(scheme, geom, &decoded, warm);
            assert_eq!(snap.is_some(), caps(scheme, geom).snapshot, "{scheme}");
            let Some(snap) = snap else {
                // A refusing scheme declines even a valid donor and runs cold.
                let plan = RunPlan {
                    start: Start::Restore(&donor),
                    ..RunPlan::new(scheme, geom, warm)
                };
                let declined = run(&plan, &decoded);
                assert_eq!(declined.route, Route::Serial, "{scheme}");
                assert_eq!(cold.mpki.to_bits(), declined.mpki.to_bits(), "{scheme}");
                continue;
            };
            let plan = RunPlan {
                start: Start::Restore(&snap),
                ..RunPlan::new(scheme, geom, warm)
            };
            // The snapshot is reusable: a second restore must agree too.
            for _ in 0..2 {
                let restored = run(&plan, &decoded);
                assert_eq!(restored.route, Route::Restored, "{scheme}");
                assert_eq!(
                    cold.mpki.to_bits(),
                    restored.mpki.to_bits(),
                    "{scheme} restored MPKI diverged from cold"
                );
                assert_eq!(cold.stats, restored.stats, "{scheme} counters");
            }
        }
    }

    #[test]
    fn restore_outranks_a_sharding_offer() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(decoded.len(), 0.2);
        let partition = ShardedTrace::partition(&decoded, 4);
        let snap = warm_scheme_snapshot(Scheme::Lru, geom, &decoded, warm).unwrap();
        let plan = RunPlan {
            shards: Some(&partition),
            start: Start::Restore(&snap),
            ..RunPlan::new(Scheme::Lru, geom, warm)
        };
        let report = run(&plan, &decoded);
        assert_eq!(report.route, Route::Restored);
        let cold = run(&RunPlan::new(Scheme::Lru, geom, warm), &decoded);
        assert_eq!(cold.mpki.to_bits(), report.mpki.to_bits());
    }

    #[test]
    fn snapshot_restore_rejects_the_wrong_target() {
        let geom = small();
        let (_, decoded) = omnetpp(geom, 5_000);
        let warm = warm_split(decoded.len(), 0.2);
        let snap = warm_scheme_snapshot(Scheme::Lru, geom, &decoded, warm).unwrap();
        let restore = |scheme, geom| RunPlan {
            start: Start::Restore(&snap),
            ..RunPlan::new(scheme, geom, warm)
        };
        assert!(matches!(
            execute(&restore(Scheme::Dip, geom), &decoded),
            Err(RunError::Snapshot(SnapshotError::SchemeMismatch { .. }))
        ));
        assert!(matches!(
            execute(&restore(Scheme::Lru, ways(geom, 8)), &decoded),
            Err(RunError::Snapshot(SnapshotError::GeometryMismatch { .. }))
        ));
        let system = RunPlan {
            target: Target::System(SystemConfig::micro2010()),
            ..restore(Scheme::Lru, geom)
        };
        assert!(matches!(
            execute(&system, &decoded),
            Err(RunError::Snapshot(SnapshotError::ConfigMismatch))
        ));
    }

    #[test]
    fn restored_system_matches_the_cold_system() {
        let geom = small();
        let cfg = SystemConfig::micro2010();
        let (_, decoded) = omnetpp(geom, 20_000);
        let warm = warm_split(decoded.len(), 0.2);
        for scheme in Scheme::PAPER {
            let plan = RunPlan {
                target: Target::System(cfg),
                ..RunPlan::new(scheme, geom, warm)
            };
            let cold = run(&plan, &decoded).system.unwrap();
            let mut warmed = System::new(cfg, build_cache(scheme, geom));
            warmed.warm_decoded(&decoded, warm);
            warmed.reset_stats();
            let Some(snap) = warmed.snapshot() else {
                assert!(!caps(scheme, geom).snapshot, "{scheme}");
                continue;
            };
            let restored = run(
                &RunPlan {
                    start: Start::RestoreSystem(&snap),
                    ..plan
                },
                &decoded,
            );
            assert_eq!(restored.route, Route::Restored, "{scheme}");
            let m = restored.system.unwrap();
            assert_eq!(cold.l2, m.l2, "{scheme} L2 stats");
            assert_eq!(cold.cpi.to_bits(), m.cpi.to_bits(), "{scheme} CPI");
            assert_eq!(cold.mpki.to_bits(), m.mpki.to_bits(), "{scheme} MPKI");
        }
    }
}
