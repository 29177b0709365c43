//! The host-speed reference.
//!
//! The benchmark shares a few cores of a host with other guests, whose load
//! changes the speed of this one's CPUs by tens of percent between runs a
//! few minutes apart — more than any bound worth keeping. The simulator
//! workloads therefore time, between their jobs, a fixed kernel that lives
//! in this file and in no crate of the repository: a 2048-set, 16-way LRU
//! tag store replaying a fixed stream of line addresses, the same kind of
//! work the simulator does. Its speed follows the host's, and a change to
//! the program cannot move it: the program is not in it, and each timed
//! chunk is warmed first, so it does not depend on how much memory the
//! job before it touched. Timings are reported scaled by
//! `NOMINAL_NS / measured`, that is as they would read on a host where the
//! reference takes [`NOMINAL_NS`] per access; the raw figures go into the
//! report as well.

use std::cell::RefCell;
use std::hint::black_box;

use crate::{cpu_secs, median};

/// The reference's speed the scaled figures are quoted at, in CPU ns per
/// reference access (about what it measures on an idle 2-vCPU Xeon guest).
pub const NOMINAL_NS: f64 = 31.0;

const SETS: usize = 2048;
const WAYS: usize = 16;
/// Accesses per timed chunk.
const CHUNK: usize = 100_000;
/// Untimed accesses before each chunk: they bring the tag store back into
/// the CPU's caches after the job before it evicted it, so that the timed
/// part does not depend on how much memory the program's jobs touch.
const WARM: usize = 50_000;

struct Reference {
    /// xorshift64* state, seeded with a constant: the stream never changes.
    x: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// CPU ns per access of every chunk timed so far.
    samples: Vec<f64>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            x: 0x9E37_79B9_7F4A_7C15,
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            clock: 0,
            samples: Vec::new(),
        }
    }

    /// Replays `n` accesses through the tag store; returns the misses.
    fn run(&mut self, n: usize) -> u64 {
        let mut misses = 0;
        for _ in 0..n {
            self.x ^= self.x >> 12;
            self.x ^= self.x << 25;
            self.x ^= self.x >> 27;
            let r = self.x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Three in four accesses reuse a hot region the size of the tag
            // store; the rest range over 128 times as much.
            let lines = if r & 3 != 0 {
                SETS * WAYS
            } else {
                SETS * WAYS * 128
            };
            let line = (r >> 8) % lines as u64;
            self.clock += 1;
            let set = line as usize % SETS;
            let tag = line / SETS as u64;
            let ways = set * WAYS..(set + 1) * WAYS;
            let tags = &mut self.tags[ways.clone()];
            let stamps = &mut self.stamps[ways];
            match tags.iter().position(|&t| t == tag) {
                Some(w) => stamps[w] = self.clock,
                None => {
                    misses += 1;
                    let victim = (0..WAYS)
                        .min_by_key(|&w| stamps[w])
                        .expect("a set has ways");
                    tags[victim] = tag;
                    stamps[victim] = self.clock;
                }
            }
        }
        misses
    }

    /// Warms the reference, then times one chunk of it and keeps its CPU
    /// ns per access.
    fn chunk(&mut self) {
        black_box(self.run(WARM));
        let t0 = cpu_secs();
        black_box(self.run(CHUNK));
        self.samples.push((cpu_secs() - t0) * 1e9 / CHUNK as f64);
    }

    /// Median CPU ns per reference access over every chunk timed.
    fn ns_per_access(&self) -> f64 {
        median(&self.samples)
    }
}

thread_local! {
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// Times one chunk of this thread's reference (built on first use).
pub fn tick() {
    REFERENCE.with(|r| r.borrow_mut().get_or_insert_with(Reference::new).chunk());
}

/// This thread's reference speed so far, in CPU ns per access (NaN before
/// the first [`tick`]).
pub fn ns_per_access() -> f64 {
    REFERENCE.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(f64::NAN, Reference::ns_per_access)
    })
}

/// How much slower this host ran the reference than the nominal host
/// (measured / [`NOMINAL_NS`]).
pub fn slowdown() -> f64 {
    ns_per_access() / NOMINAL_NS
}

/// Scales end-to-end figures measured on a host `slowdown` times slower
/// than the nominal one: times divide by it, rates multiply by it, and
/// memory is left as measured.
pub fn to_nominal(raw: &[(&'static str, f64)], slowdown: f64) -> Vec<(&'static str, f64)> {
    raw.iter()
        .map(|&(name, v)| {
            let unit = crate::END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u);
            let v = match unit {
                "ms" | "s" => v / slowdown,
                "Macc/s" | "1/s" => v * slowdown,
                _ => v,
            };
            (name, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_shrink_and_rates_grow_on_a_slow_host() {
        let raw = [
            ("sim_maccess_per_s", 4.0),
            ("req_p50_ms", 60.0),
            ("setup_s", 0.75),
            ("peak_rss_mb", 100.0),
        ];
        let scaled = to_nominal(&raw, 1.5);
        assert_eq!(
            scaled,
            vec![
                ("sim_maccess_per_s", 6.0),
                ("req_p50_ms", 40.0),
                ("setup_s", 0.5),
                ("peak_rss_mb", 100.0),
            ]
        );
    }

    #[test]
    fn reference_times_every_chunk() {
        let mut r = Reference::new();
        r.chunk();
        r.chunk();
        assert_eq!(r.samples.len(), 2);
        assert!(r.ns_per_access() > 0.0);
    }
}
