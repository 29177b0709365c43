//! Layer probes for the traced run.
//!
//! Every workload's traced run must publish every per-layer metric, but
//! each workload's timed passes exercise only some layers (that is why the
//! workloads differ). After the traced passes, [`simulator_layers`] runs
//! each simulator layer that the passes did not reach, on the workload's
//! own benchmarks at probe length, under the same span names the passes
//! use. A layer the passes did reach is not probed again, so its metric
//! comes from the workload's real work. The hierarchy split (System minus
//! the LLC share of it) and the cooperative-hit shares always come from
//! the probe, so they are defined the same way on every workload.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use stem_analysis::{
    build_cache, replay_warmed, run_mix_decoded, warm_scheme_snapshot, warm_split, Scheme,
};
use stem_hierarchy::{System, SystemConfig};
use stem_replacement::{Fifo, SetAssocCache};
use stem_sim_core::{CacheGeometry, CacheModel, CacheStats, DecodedTrace, Trace};
use stem_workloads::{offset_trace_into_region, BenchmarkProfile};

use crate::tracer::Tracer;
use crate::Outcome;

pub const WARMUP: f64 = 0.2;
pub const WIDE_WAYS: [usize; 2] = [32, 64];

/// What the probe measures directly rather than through spans.
#[derive(Debug, Clone, Copy)]
pub struct ProbeOut {
    /// System time minus the LLC's share of it, per core access.
    pub l1_ns: f64,
    /// Fraction of core accesses that reach the LLC.
    pub l2_share: f64,
    /// STEM cooperative lookups that hit, over all cooperative lookups.
    pub stem_coop: f64,
    /// The same for SBC.
    pub sbc_coop: f64,
}

/// Span name of a bare-LLC replay of `label` at `ways`.
pub fn llc_span(label: &str, ways: usize) -> String {
    format!("llc.{label}.{ways}")
}

/// Bare LLC of `scheme`, or the FIFO tag-store floor when `None`.
fn bare_cache(scheme: Option<Scheme>, geom: CacheGeometry) -> Box<dyn CacheModel> {
    match scheme {
        Some(s) => build_cache(s, geom),
        None => Box::new(SetAssocCache::new(geom, Box::new(Fifo::new(geom)))),
    }
}

/// Builds a bare LLC (see [`bare_cache`]) and replays `trace` through it
/// with the standard warm-up; returns the measured statistics.
pub fn bare_replay(
    scheme: Option<Scheme>,
    geom: CacheGeometry,
    trace: &DecodedTrace,
) -> CacheStats {
    let mut cache = bare_cache(scheme, geom);
    replay_warmed(cache.as_mut(), trace, warm_split(trace.len(), WARMUP))
}

fn coop_share(s: &CacheStats) -> f64 {
    let attempts = s.coop_hits() + s.coop_misses();
    if attempts == 0 {
        0.0
    } else {
        s.coop_hits() as f64 / attempts as f64
    }
}

/// Writes `trace` as a STEMTRC file.
pub fn write_trace(path: &std::path::Path, trace: &Trace) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    stem_trace_io::write_binary(&mut out, trace)?;
    out.flush()
}

/// Runs every simulator layer the traced passes did not reach; see the
/// module documentation.
pub fn simulator_layers(
    tr: &Tracer,
    out: &mut Outcome,
    benches: &[&str],
    n: usize,
    geom: CacheGeometry,
) -> ProbeOut {
    let present: BTreeSet<String> = tr.aggregate().into_keys().collect();
    let has_prefix = |p: &str| present.iter().any(|k| k.starts_with(p));
    let span = |name: &str, work: u64, f: &mut dyn FnMut()| {
        if present.contains(name) {
            f();
        } else {
            tr.span(name, work, f);
        }
    };
    let w = n as u64;

    let mut raws = Vec::new();
    for b in benches {
        let profile = BenchmarkProfile::by_name(b).expect("probe benchmarks are suite members");
        let mut raw = None;
        span("workloads.trace", w, &mut || {
            raw = Some(profile.trace(geom, n))
        });
        raws.push(raw.expect("generated"));
    }
    let mut decs = Vec::new();
    for raw in &raws {
        let mut dec = None;
        span("sim-core.decode", w, &mut || {
            dec = Some(DecodedTrace::decode(raw, geom))
        });
        decs.push(dec.expect("decoded"));
    }

    if !present.contains("trace-io.load_decoded") {
        let path = crate::work_dir().join(format!("probe-{}.trc", std::process::id()));
        let written =
            std::fs::create_dir_all(crate::work_dir()).and_then(|()| write_trace(&path, &raws[0]));
        match written {
            Ok(()) => {
                let loaded = tr.span("trace-io.load_decoded", w, || {
                    stem_trace_io::load_decoded(&path, geom)
                });
                match loaded {
                    Ok(d) if d.len() == n => {}
                    Ok(d) => out.fail(format!("probe load returned {} of {n} accesses", d.len())),
                    Err(e) => out.fail(format!("probe load failed: {e}")),
                }
            }
            Err(e) => out.fail(format!("probe could not write its trace file: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    // Bare LLC at the base geometry, the FIFO floor, and the System each
    // scheme sits in. The System/bare pairing gives the hierarchy split.
    let mut sys_ns = 0.0;
    let mut llc_part_ns = 0.0;
    let mut core_accesses = 0u64;
    let mut l2_accesses = 0u64;
    let (mut stem_stats, mut sbc_stats) = (CacheStats::default(), CacheStats::default());
    let schemes: Vec<Option<Scheme>> = std::iter::once(None)
        .chain(Scheme::PAPER.map(Some))
        .collect();
    for scheme in schemes {
        let label = scheme.map_or("FIFO", |s| s.label());
        for dec in &decs {
            let warm = warm_split(dec.len(), WARMUP);
            // The hierarchy split times replays only: building a 2 MB tag
            // store costs as much as replaying a few thousand accesses.
            let mut stats = CacheStats::default();
            let mut bare_ns = 0.0;
            span(&llc_span(label, geom.ways()), w, &mut || {
                let mut cache = bare_cache(scheme, geom);
                let t0 = Instant::now();
                stats = replay_warmed(cache.as_mut(), dec, warm);
                bare_ns = t0.elapsed().as_nanos() as f64;
            });
            match scheme {
                Some(Scheme::Stem) => stem_stats += stats,
                Some(Scheme::Sbc) => sbc_stats += stats,
                _ => {}
            }
            let Some(s) = scheme else { continue };
            let mut sys = System::new(SystemConfig::micro2010(), build_cache(s, geom));
            let t0 = Instant::now();
            let m = sys.warm_then_run_decoded(dec, warm);
            let ns = t0.elapsed().as_nanos() as f64;
            let share = m.l1_miss_rate;
            sys_ns += ns;
            llc_part_ns += share * bare_ns;
            core_accesses += dec.len() as u64;
            l2_accesses += (share * dec.len() as f64).round() as u64;
        }
    }

    for (scheme, label) in [(Scheme::Lru, "LRU"), (Scheme::Stem, "STEM")] {
        for ways in WIDE_WAYS {
            let name = llc_span(label, ways);
            if !present.contains(&name) {
                let g = CacheGeometry::new(geom.sets(), ways, geom.line_bytes())
                    .expect("wide geometry is valid");
                tr.span(name, w, || {
                    black_box(bare_replay(Some(scheme), g, &decs[0]))
                });
            }
        }
    }

    if !has_prefix("analysis.restore.") {
        let dec = &decs[0];
        let warm = warm_split(dec.len(), WARMUP);
        let snap = tr.span("analysis.snapshot.LRU", warm as u64, || {
            warm_scheme_snapshot(Scheme::Lru, geom, dec, warm)
        });
        match snap {
            Some(snap) => tr.span("analysis.restore.LRU", (dec.len() - warm) as u64, || {
                let mut cache = build_cache(Scheme::Lru, geom);
                match cache.restore(&snap) {
                    Ok(()) => cache.replay_decoded(dec, warm..dec.len()),
                    Err(e) => out.fail(format!("probe restore failed: {e}")),
                }
            }),
            None => out.fail("LRU declined to snapshot in the probe".into()),
        }
    }

    if !has_prefix("hierarchy.mix.") && raws.len() >= 2 {
        let streams: Vec<DecodedTrace> = raws[..2]
            .iter()
            .enumerate()
            .map(|(core, raw)| {
                DecodedTrace::decode(&offset_trace_into_region(raw.clone(), core), geom)
            })
            .collect();
        let work = 2 * streams.iter().map(|s| s.len() as u64).sum::<u64>();
        for s in Scheme::PAPER {
            tr.span(format!("hierarchy.mix.{}", s.label()), work, || {
                black_box(run_mix_decoded(
                    s,
                    geom,
                    SystemConfig::micro2010(),
                    &streams,
                    &[1.0, 1.0],
                    0,
                    WARMUP,
                ))
            });
        }
    }

    ProbeOut {
        l1_ns: (sys_ns - llc_part_ns) / core_accesses.max(1) as f64,
        l2_share: l2_accesses as f64 / core_accesses.max(1) as f64,
        stem_coop: coop_share(&stem_stats),
        sbc_coop: coop_share(&sbc_stats),
    }
}

/// The simulator part of the per-layer metric set, from recorded spans
/// plus the probe's direct measurements.
pub fn simulator_metrics(tr: &Tracer, p: &ProbeOut) -> Vec<(&'static str, f64)> {
    let agg = tr.aggregate();
    let ns = |names: &[String]| {
        let (self_ns, work) = names
            .iter()
            .filter_map(|n| agg.get(n))
            .fold((0u64, 0u64), |(s, w), a| (s + a.self_ns, w + a.work));
        if work == 0 {
            f64::NAN
        } else {
            self_ns as f64 / work as f64
        }
    };
    let prefixed =
        |p: &str| -> Vec<String> { agg.keys().filter(|k| k.starts_with(p)).cloned().collect() };
    let base = |label: &str| vec![llc_span(label, crate::sim::base_geom().ways())];
    let wide = |label: &str| {
        WIDE_WAYS
            .iter()
            .map(|&w| llc_span(label, w))
            .collect::<Vec<_>>()
    };
    vec![
        (
            "workloads.gen_ns_per_access",
            ns(&["workloads.trace".into()]),
        ),
        (
            "sim-core.decode_ns_per_access",
            ns(&["sim-core.decode".into()]),
        ),
        (
            "trace-io.load_ns_per_access",
            ns(&["trace-io.load_decoded".into()]),
        ),
        ("replacement.fifo_floor_ns_per_access", ns(&base("FIFO"))),
        ("replacement.lru_ns_per_access", ns(&base("LRU"))),
        ("replacement.dip_ns_per_access", ns(&base("DIP"))),
        ("replacement.pelifo_ns_per_access", ns(&base("PELIFO"))),
        ("spatial.vway_ns_per_access", ns(&base("VWAY"))),
        ("spatial.sbc_ns_per_access", ns(&base("SBC"))),
        ("stem-llc.stem_ns_per_access", ns(&base("STEM"))),
        ("replacement.lru_wide_ns_per_access", ns(&wide("LRU"))),
        ("stem-llc.stem_wide_ns_per_access", ns(&wide("STEM"))),
        ("hierarchy.l1_ns_per_access", p.l1_ns),
        ("hierarchy.l2_access_share", p.l2_share),
        (
            "hierarchy.mix_ns_per_access",
            ns(&prefixed("hierarchy.mix.")),
        ),
        (
            "analysis.restore_ns_per_access",
            ns(&prefixed("analysis.restore.")),
        ),
        ("stem-llc.coop_hit_share", p.stem_coop),
        ("spatial.sbc_coop_hit_share", p.sbc_coop),
    ]
}
