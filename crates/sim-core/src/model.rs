//! The trait every LLC scheme implements, and the four access outcomes the
//! paper prices differently.

use std::fmt;
use std::ops::Range;

use crate::{
    AccessKind, Address, CacheGeometry, CacheStats, DecodedTrace, Snapshot, SnapshotError, Trace,
};

/// The outcome of one cache access, at the granularity the paper's timing
/// model distinguishes (§5.1).
///
/// Conventional schemes (LRU, DIP, PeLIFO, V-Way) only produce
/// [`HitLocal`](AccessResult::HitLocal) and
/// [`MissLocal`](AccessResult::MissLocal); SBC and STEM may additionally
/// probe a cooperative set, producing the two `Cooperative` variants with
/// their extra tag-store access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessResult {
    /// Hit in the block's home set (one tag + one data access).
    HitLocal,
    /// Hit in the coupled/cooperative set (two tag + one data access).
    HitCooperative,
    /// Miss after probing only the home set (one tag access).
    MissLocal,
    /// Miss after probing the home set and the cooperative set (two tag
    /// accesses).
    MissCooperative,
}

impl AccessResult {
    /// Whether the access hit anywhere on chip.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::HitLocal | AccessResult::HitCooperative)
    }

    /// Whether the access missed the LLC entirely.
    #[inline]
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// Whether a second (cooperative) set was probed.
    #[inline]
    pub fn probed_cooperative(self) -> bool {
        matches!(
            self,
            AccessResult::HitCooperative | AccessResult::MissCooperative
        )
    }
}

impl fmt::Display for AccessResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessResult::HitLocal => "local hit",
            AccessResult::HitCooperative => "cooperative hit",
            AccessResult::MissLocal => "miss",
            AccessResult::MissCooperative => "miss after cooperative probe",
        };
        f.write_str(s)
    }
}

/// The optional replay strategies a scheme opts into, declared by each
/// scheme's [`CacheModel::capabilities`] next to the state that decides
/// them. Every bit defaults to `false`: a declined strategy falls back to
/// serial cold replay, which is always correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Caps {
    /// Set-sharded replay is bit-identical to serial replay.
    ///
    /// Asserts: for **any** partition of the set space into disjoint
    /// groups that keeps each set's partner `s ^ (sets/2)` in the same
    /// group (see [`ShardedTrace`](crate::ShardedTrace)), replaying each
    /// group's accesses in source order against a *fresh* instance yields,
    /// per access, exactly the serial outcome, and the per-instance
    /// [`CacheStats`] sum to the serial totals. That holds precisely when
    /// every piece of mutable state the access path touches is local to
    /// one set or one partner pair: no global PSEL or election counters,
    /// no shared victim buffer or data store, no RNG consumed on a
    /// data-dependent subset of accesses.
    pub set_sharding: bool,
    /// A strided set sample is a sound estimator of the whole cache.
    ///
    /// Asserts: replaying only the accesses of a pair-preserving subset of
    /// the set space (see [`SampledTrace`](crate::SampledTrace)) against a
    /// fresh instance reproduces, for every *selected* set, the serial
    /// per-access outcomes — or, for a scheme with global state that opts
    /// in anyway (DIP), a documented approximation whose error is measured
    /// and bounded in the bench artifacts.
    pub set_sampling: bool,
    /// The complete replay state checkpoints and restores exactly.
    ///
    /// Asserts: [`CacheModel::snapshot`] returns a capture of **every**
    /// piece of mutable state the access path reads or writes (tag store,
    /// replacement metadata, statistics, global counters, RNG), and
    /// [`CacheModel::restore`] of it into a fresh instance of the same
    /// scheme and geometry makes that instance produce exactly the
    /// [`AccessResult`] stream and [`CacheStats`] the captured instance
    /// would have produced. Restore is exact or refused.
    pub snapshot: bool,
}

/// A last-level cache scheme under trace-driven simulation.
///
/// The trait is object-safe so experiments can hold heterogeneous scheme
/// collections as `Box<dyn CacheModel>` ([C-OBJECT]).
///
/// # Examples
///
/// Run a trace through any scheme and read its statistics:
///
/// ```no_run
/// use stem_sim_core::{Access, Address, CacheModel, Trace};
///
/// fn mpki(cache: &mut dyn CacheModel, trace: &Trace) -> f64 {
///     cache.run(trace);
///     cache.stats().mpki(trace.instructions())
/// }
/// ```
///
/// [C-OBJECT]: https://rust-lang.github.io/api-guidelines/flexibility.html
pub trait CacheModel {
    /// Processes one access and reports its outcome.
    fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult;

    /// Aggregate statistics since construction (or the last
    /// [`reset_stats`](CacheModel::reset_stats)).
    fn stats(&self) -> &CacheStats;

    /// Mutable access to the statistics, so non-demand traffic (prefetch
    /// fills, diagnostics) can snapshot and restore the counters around an
    /// access instead of polluting the demand view. See
    /// [`access_non_demand`](CacheModel::access_non_demand).
    fn stats_mut(&mut self) -> &mut CacheStats;

    /// Clears the statistics without disturbing cache contents — used to
    /// exclude warm-up from measurement, mirroring the paper's
    /// cache-warming phase (§5.1).
    fn reset_stats(&mut self) {
        *self.stats_mut() = CacheStats::default();
    }

    /// Processes one access *without* perturbing the statistics: the cache
    /// contents update normally (fills, evictions, replacement state) but
    /// every counter is restored to its pre-access value. This is the
    /// insertion path for prefetches and other non-demand traffic, which
    /// the paper's MPKI/AMAT metrics must exclude.
    fn access_non_demand(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let before = *self.stats();
        let result = self.access(addr, kind);
        *self.stats_mut() = before;
        result
    }

    /// The data-store geometry of this cache.
    fn geometry(&self) -> CacheGeometry;

    /// A short scheme name for reports (e.g. `"LRU"`, `"STEM"`).
    fn name(&self) -> &str;

    /// Processes every access of a trace in order.
    fn run(&mut self, trace: &Trace) {
        for a in trace {
            self.access(a.addr, a.kind);
        }
    }

    /// Replays the decoded accesses in `range`, in order, through
    /// [`access`](CacheModel::access). Each access is rebuilt as a
    /// line-aligned byte address at the *trace's* line granularity, so the
    /// stream of line addresses the cache observes is exactly what the
    /// original `Trace` would have produced at any cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for `trace`.
    fn replay_decoded(&mut self, trace: &DecodedTrace, range: Range<usize>) {
        let line_bytes = trace.geometry().line_bytes();
        for a in trace.iter_range(range) {
            self.access(a.address(line_bytes), a.kind());
        }
    }

    /// The optional replay strategies this cache opts into (see [`Caps`]
    /// for what each bit asserts). The default declines all three: serial
    /// cold replay is always correct, so a scheme opts in explicitly and
    /// documents here why it refuses whatever it refuses.
    fn capabilities(&self) -> Caps {
        Caps::default()
    }

    /// Shorthand for `self.capabilities().snapshot`.
    fn supports_snapshot(&self) -> bool {
        self.capabilities().snapshot
    }

    /// Checkpoints the complete replay state, or `None` when the scheme
    /// declines ([`Caps::snapshot`] is `false`).
    ///
    /// The capture is deep: the snapshot stays valid however the live
    /// cache is mutated afterwards.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Replaces this cache's complete replay state with `snapshot`'s.
    ///
    /// Implementations verify the target first
    /// ([`Snapshot::verify_target`]): a snapshot of another scheme or
    /// geometry is an error, never a silent partial restore. On any error
    /// the cache is left unmodified.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] (the default — the scheme declines
    /// the capability), or the scheme/geometry/state mismatches named in
    /// [`SnapshotError`].
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(crate::snapshot::unsupported(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;

    #[test]
    fn result_predicates() {
        assert!(AccessResult::HitLocal.is_hit());
        assert!(AccessResult::HitCooperative.is_hit());
        assert!(AccessResult::MissLocal.is_miss());
        assert!(AccessResult::MissCooperative.is_miss());
        assert!(!AccessResult::HitLocal.probed_cooperative());
        assert!(AccessResult::HitCooperative.probed_cooperative());
        assert!(!AccessResult::MissLocal.probed_cooperative());
        assert!(AccessResult::MissCooperative.probed_cooperative());
    }

    #[test]
    fn result_display() {
        assert_eq!(AccessResult::HitLocal.to_string(), "local hit");
        assert_eq!(
            AccessResult::MissCooperative.to_string(),
            "miss after cooperative probe"
        );
    }

    /// A trivial always-miss cache to exercise the trait's default methods.
    struct NullCache {
        stats: CacheStats,
        geom: CacheGeometry,
    }

    impl CacheModel for NullCache {
        fn access(&mut self, _addr: Address, _kind: AccessKind) -> AccessResult {
            self.stats.record_local_miss();
            AccessResult::MissLocal
        }
        fn stats(&self) -> &CacheStats {
            &self.stats
        }
        fn stats_mut(&mut self) -> &mut CacheStats {
            &mut self.stats
        }
        fn geometry(&self) -> CacheGeometry {
            self.geom
        }
        fn name(&self) -> &str {
            "null"
        }
    }

    #[test]
    fn run_processes_whole_trace_and_is_object_safe() {
        let mut cache: Box<dyn CacheModel> = Box::new(NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::micro2010_l2(),
        });
        let trace: Trace = (0..10u64)
            .map(|i| Access::read(Address::new(i * 64)))
            .collect();
        cache.run(&trace);
        assert_eq!(cache.stats().accesses(), 10);
        cache.reset_stats();
        assert_eq!(cache.stats().accesses(), 0);
        let r = cache.access(Address::new(0), AccessKind::Write);
        assert!(r.is_miss());
    }

    #[test]
    fn decoded_defaults_replay_through_access_path() {
        let geom = CacheGeometry::micro2010_l2();
        let trace: Trace = (0..100u64)
            .map(|i| Access::read(Address::new(i * 64 + i % 64))) // unaligned
            .collect();
        let decoded = crate::DecodedTrace::decode(&trace, geom);

        let mut cache: Box<dyn CacheModel> = Box::new(NullCache {
            stats: CacheStats::default(),
            geom,
        });
        cache.replay_decoded(&decoded, 0..decoded.len());
        assert_eq!(cache.stats().accesses(), 100);

        cache.reset_stats();
        cache.replay_decoded(&decoded, 10..30);
        assert_eq!(cache.stats().accesses(), 20);

        // The same loop serves a cache of another geometry.
        let mut small = NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::new(64, 4, 64).unwrap(),
        };
        assert!(!decoded.compatible_with(small.geom));
        small.replay_decoded(&decoded, 0..decoded.len());
        assert_eq!(small.stats.accesses(), 100);
    }

    #[test]
    fn capabilities_default_to_declining_everything() {
        let cache = NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::micro2010_l2(),
        };
        assert_eq!(cache.capabilities(), Caps::default());
        assert!(!cache.supports_snapshot());
        assert!(cache.snapshot().is_none());
    }

    #[test]
    fn non_demand_access_leaves_stats_untouched() {
        let mut cache = NullCache {
            stats: CacheStats::default(),
            geom: CacheGeometry::micro2010_l2(),
        };
        cache.access(Address::new(0), AccessKind::Read);
        let before = *cache.stats();
        let r = cache.access_non_demand(Address::new(64), AccessKind::Read);
        assert!(r.is_miss());
        assert_eq!(*cache.stats(), before, "non-demand traffic must not count");
    }
}
