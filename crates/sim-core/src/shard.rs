//! Set-sharded views of a [`DecodedTrace`] for intra-trace parallel replay.
//!
//! STEM's premise — LLC sets are (mostly) independent capacity domains — is
//! also a parallelization theorem: for a scheme whose entire mutable state is
//! per-set, the outcome of access `i` depends only on the earlier accesses
//! that map to the *same set*. Partitioning the sets into disjoint groups and
//! replaying each group's accesses (in original order) against its own cache
//! instance therefore reproduces the serial per-access outcomes exactly, and
//! the per-shard [`CacheStats`](crate::CacheStats) sum to the serial totals.
//!
//! The partition used here folds sets into **pair domains**: with `sets = 2h`
//! the domain of set `s` is `s & (h - 1)`, so each domain is the pair
//! `{d, d + h}` — exactly the partner pair `(s, s ^ h)` of the static
//! spill-based scheme. Purely per-set schemes are indifferent to how sets are
//! grouped, so folding costs them nothing; keeping partners co-resident makes
//! the same partition valid for pair-coupled schemes too. One plan serves
//! every scheme that reports [`Caps::set_sharding`].
//!
//! Schemes with *cross-set* state (a global PSEL, election counters, a shared
//! victim buffer or data store, a global RNG consumed on some accesses) are
//! order-sensitive under this interleaving and must keep the serial path;
//! that boundary is declared per scheme via
//! [`CacheModel::capabilities`](crate::CacheModel::capabilities).
//!
//! Bucketing is a stable one-pass scatter: each shard's compacted
//! `DecodedTrace` preserves the source order of its accesses, and the
//! ascending original-index column ([`TraceShard::orig_indices`]) lets
//! consumers translate global positions — a warmup boundary, a profiling
//! period — back onto each shard via [`TraceShard::split_before`].
//!
//! [`Caps::set_sharding`]: crate::Caps::set_sharding

use std::ops::Range;

use crate::{CacheGeometry, DecodedTrace};

/// A [`DecodedTrace`] partitioned into disjoint set-domain shards.
///
/// # Examples
///
/// ```
/// use stem_sim_core::{Access, Address, CacheGeometry, DecodedTrace, ShardedTrace, Trace};
///
/// let geom = CacheGeometry::new(8, 4, 64).unwrap();
/// let trace: Trace = (0..100u64).map(|i| Access::read(Address::new(i * 64))).collect();
/// let decoded = DecodedTrace::decode(&trace, geom);
/// let plan = ShardedTrace::partition(&decoded, 4);
/// assert_eq!(plan.shard_count(), 4);
/// let total: usize = plan.shards().iter().map(|s| s.len()).sum();
/// assert_eq!(total, decoded.len());
/// ```
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    shards: Vec<TraceShard>,
    source_len: usize,
    domains: usize,
    geom: CacheGeometry,
}

/// One shard of a [`ShardedTrace`]: a compacted `DecodedTrace` holding (in
/// source order) exactly the accesses whose pair domain falls in this shard's
/// contiguous domain range, plus the ascending original indices of those
/// accesses in the source trace.
#[derive(Debug, Clone)]
pub struct TraceShard {
    trace: DecodedTrace,
    orig: Vec<u32>,
    domains: Range<usize>,
}

/// The pair-domain count of `geom`: `max(sets / 2, 1)`.
#[inline]
fn domain_count(geom: CacheGeometry) -> usize {
    (geom.sets() / 2).max(1)
}

/// The pair domain of `set`: `set & (sets/2 - 1)` (set counts are powers of
/// two), folding partner pairs `(s, s ^ sets/2)` onto one domain.
#[inline]
fn domain_of(set: u32, domains: usize) -> usize {
    (set as usize) & (domains - 1)
}

impl ShardedTrace {
    /// Partitions `trace` into `shards` contiguous pair-domain ranges with a
    /// stable one-pass bucketing of the access stream. `shards` is clamped to
    /// at least 1; asking for more shards than there are domains yields
    /// surplus shards with empty domain ranges (and therefore no accesses).
    ///
    /// # Panics
    ///
    /// Panics if `trace` has more than `u32::MAX` accesses (original indices
    /// are stored as `u32`; every trace in this workspace is far smaller).
    pub fn partition(trace: &DecodedTrace, shards: usize) -> Self {
        let n = trace.len();
        assert!(
            n as u64 <= u64::from(u32::MAX),
            "shard original indices are stored as u32"
        );
        let geom = trace.geometry();
        let domains = domain_count(geom);
        let shards = shards.max(1);

        // Contiguous domain ranges; domain d belongs to shard d*shards/domains
        // rounded per the standard balanced split below.
        let bounds: Vec<usize> = (0..=shards).map(|k| k * domains / shards).collect();
        let mut domain_to_shard = vec![0u32; domains];
        for k in 0..shards {
            for slot in &mut domain_to_shard[bounds[k]..bounds[k + 1]] {
                *slot = k as u32;
            }
        }

        // Size each shard exactly, then scatter in one stable pass.
        let mut counts = vec![0usize; shards];
        for &s in trace.set_indices() {
            counts[domain_to_shard[domain_of(s, domains)] as usize] += 1;
        }
        struct Builder {
            sets: Vec<u32>,
            lines: Vec<u64>,
            write_words: Vec<u64>,
            inst_gaps: Vec<u32>,
            orig: Vec<u32>,
        }
        let mut builders: Vec<Builder> = counts
            .iter()
            .map(|&c| Builder {
                sets: Vec::with_capacity(c),
                lines: Vec::with_capacity(c),
                write_words: vec![0u64; c.div_ceil(64)],
                inst_gaps: Vec::with_capacity(c),
                orig: Vec::with_capacity(c),
            })
            .collect();
        let sets = trace.set_indices();
        let lines = trace.line_addrs();
        let gaps = trace.inst_gaps();
        for i in 0..n {
            let k = domain_to_shard[domain_of(sets[i], domains)] as usize;
            let b = &mut builders[k];
            let local = b.sets.len();
            if trace.is_write(i) {
                b.write_words[local >> 6] |= 1u64 << (local & 63);
            }
            b.sets.push(sets[i]);
            b.lines.push(lines[i]);
            b.inst_gaps.push(gaps[i]);
            b.orig.push(i as u32);
        }
        let shards_vec = builders
            .into_iter()
            .enumerate()
            .map(|(k, b)| TraceShard {
                trace: DecodedTrace::from_parts(geom, b.sets, b.lines, b.write_words, b.inst_gaps),
                orig: b.orig,
                domains: bounds[k]..bounds[k + 1],
            })
            .collect();
        ShardedTrace {
            shards: shards_vec,
            source_len: n,
            domains,
            geom,
        }
    }

    /// The shards, in domain order. Every source access appears in exactly
    /// one shard; concatenating the shards' [`orig_indices`]
    /// (each ascending) and sorting yields `0..source_len`.
    ///
    /// [`orig_indices`]: TraceShard::orig_indices
    #[inline]
    pub fn shards(&self) -> &[TraceShard] {
        &self.shards
    }

    /// Number of shards (as clamped at partition time).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Length of the source trace this plan was built from.
    #[inline]
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Number of pair domains (`max(sets / 2, 1)`); the effective
    /// parallelism ceiling of the partition.
    #[inline]
    pub fn domain_count(&self) -> usize {
        self.domains
    }

    /// The geometry of the source trace (shared by every shard).
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }
}

impl TraceShard {
    /// The compacted per-shard access stream (full source geometry; only the
    /// shard's sets ever appear, so untouched sets of a fresh cache instance
    /// stay cold and contribute nothing to the stats).
    #[inline]
    pub fn trace(&self) -> &DecodedTrace {
        &self.trace
    }

    /// Ascending original indices: `orig_indices()[j]` is the position in
    /// the source trace of this shard's access `j`.
    #[inline]
    pub fn orig_indices(&self) -> &[u32] {
        &self.orig
    }

    /// The contiguous pair-domain range this shard owns. Set `s` belongs to
    /// this shard iff `s & (sets/2 - 1)` falls in the range; empty for
    /// surplus shards when `shards > domains`.
    #[inline]
    pub fn domain_range(&self) -> Range<usize> {
        self.domains.clone()
    }

    /// Iterates over the set indices this shard owns (each domain `d`
    /// contributes `d` and its partner `d + sets/2` when `sets >= 2`).
    pub fn owned_sets(&self) -> impl Iterator<Item = usize> + '_ {
        let sets = self.trace.geometry().sets();
        let half = sets / 2;
        self.domains.clone().flat_map(move |d| {
            [d, d + half]
                .into_iter()
                .take(if half == 0 { 1 } else { 2 })
        })
    }

    /// Number of accesses in this shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the shard holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// How many of this shard's accesses have original index `< global_idx`:
    /// the local position where a global boundary (e.g. the warmup split)
    /// falls in this shard. Binary search over the ascending `orig` column.
    pub fn split_before(&self, global_idx: usize) -> usize {
        self.orig.partition_point(|&o| (o as usize) < global_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, Address, SplitMix64, Trace};

    fn mixed_decoded(n: usize, sets: usize) -> DecodedTrace {
        let geom = CacheGeometry::new(sets, 4, 64).unwrap();
        let mut rng = SplitMix64::new(11);
        let mut t = Trace::with_capacity(n);
        for i in 0..n {
            let addr = Address::new(rng.next_u64() % (1 << 22));
            let a = if i % 3 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            t.push(a.with_inst_gap((i % 7 + 1) as u32));
        }
        DecodedTrace::decode(&t, geom)
    }

    #[test]
    fn partition_covers_every_access_exactly_once() {
        let d = mixed_decoded(500, 64);
        for shards in [1, 2, 4, 7, 32] {
            let plan = ShardedTrace::partition(&d, shards);
            assert_eq!(plan.shard_count(), shards);
            assert_eq!(plan.source_len(), 500);
            let mut seen: Vec<u32> = plan
                .shards()
                .iter()
                .flat_map(|s| s.orig_indices().iter().copied())
                .collect();
            assert_eq!(seen.len(), 500);
            for s in plan.shards() {
                assert!(s.orig_indices().windows(2).all(|w| w[0] < w[1]));
            }
            seen.sort_unstable();
            assert!(seen.iter().enumerate().all(|(i, &o)| o as usize == i));
        }
    }

    #[test]
    fn shard_columns_match_source_including_write_flags() {
        // 200 accesses with writes at i % 3 == 0 exercises flags on both
        // sides of the 64-access write_words boundaries (63/64, 127/128).
        let d = mixed_decoded(200, 64);
        let plan = ShardedTrace::partition(&d, 4);
        for shard in plan.shards() {
            for (j, &o) in shard.orig_indices().iter().enumerate() {
                let o = o as usize;
                assert_eq!(shard.trace().set_indices()[j], d.set_indices()[o]);
                assert_eq!(shard.trace().line_addrs()[j], d.line_addrs()[o]);
                assert_eq!(shard.trace().inst_gaps()[j], d.inst_gaps()[o]);
                assert_eq!(shard.trace().is_write(j), d.is_write(o));
            }
        }
    }

    #[test]
    fn pair_domains_keep_partners_together() {
        let d = mixed_decoded(400, 64);
        let half = 32u32;
        for shards in [2, 3, 4, 7] {
            let plan = ShardedTrace::partition(&d, shards);
            assert_eq!(plan.domain_count(), 32);
            for shard in plan.shards() {
                for &s in shard.trace().set_indices() {
                    let partner = s ^ half;
                    let r = shard.domain_range();
                    assert!(r.contains(&domain_of(s, 32)));
                    assert!(r.contains(&domain_of(partner, 32)));
                }
            }
        }
    }

    #[test]
    fn surplus_shards_are_empty() {
        let d = mixed_decoded(300, 8); // 4 pair domains
        let plan = ShardedTrace::partition(&d, 16);
        assert_eq!(plan.shard_count(), 16);
        assert_eq!(plan.domain_count(), 4);
        let nonempty = plan.shards().iter().filter(|s| !s.is_empty()).count();
        assert!(nonempty <= 4);
        let total: usize = plan.shards().iter().map(|s| s.len()).sum();
        assert_eq!(total, 300);
        for s in plan.shards() {
            if s.domain_range().is_empty() {
                assert!(s.is_empty());
            }
        }
    }

    #[test]
    fn single_set_geometry_collapses_to_one_domain() {
        let d = mixed_decoded(100, 1);
        let plan = ShardedTrace::partition(&d, 4);
        assert_eq!(plan.domain_count(), 1);
        let nonempty: Vec<&TraceShard> = plan.shards().iter().filter(|s| !s.is_empty()).collect();
        assert_eq!(nonempty.len(), 1);
        assert_eq!(nonempty[0].len(), 100);
        assert_eq!(nonempty[0].owned_sets().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn owned_sets_partition_the_set_space() {
        let d = mixed_decoded(10, 64);
        for shards in [1, 3, 4, 7] {
            let plan = ShardedTrace::partition(&d, shards);
            let mut owned: Vec<usize> = plan.shards().iter().flat_map(|s| s.owned_sets()).collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn split_before_matches_linear_scan() {
        let d = mixed_decoded(350, 64);
        let plan = ShardedTrace::partition(&d, 7);
        for boundary in [0, 1, 70, 349, 350] {
            for shard in plan.shards() {
                let linear = shard
                    .orig_indices()
                    .iter()
                    .filter(|&&o| (o as usize) < boundary)
                    .count();
                assert_eq!(shard.split_before(boundary), linear);
            }
            let total: usize = plan.shards().iter().map(|s| s.split_before(boundary)).sum();
            assert_eq!(total, boundary);
        }
    }

    #[test]
    fn shard_instructions_sum_to_source() {
        let d = mixed_decoded(300, 64);
        let plan = ShardedTrace::partition(&d, 4);
        let sum: u64 = plan.shards().iter().map(|s| s.trace().instructions()).sum();
        assert_eq!(sum, d.instructions());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let d = mixed_decoded(50, 8);
        let plan = ShardedTrace::partition(&d, 0);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.shards()[0].len(), 50);
    }
}
