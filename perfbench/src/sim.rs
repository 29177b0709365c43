//! The simulator workloads: `suite-exact` and `trace-sweep`.
//!
//! Both run whole passes until `--seconds` have elapsed and report medians
//! over passes. A *job* is one call that replays a trace through a cache
//! model: a cold job warms and measures from scratch (a miss in the
//! warm-state sense), a restored job measures from a snapshot of the warm
//! state (a hit). Every job's outcome is checked: against the committed
//! digest (for seed-independent results, and for every result at the
//! default seed), against the first pass (determinism), and restored
//! against cold.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stem_analysis::{build_cache, run_mix_decoded, warm_scheme_snapshot, warm_split, Scheme};
use stem_hierarchy::{System, SystemConfig};
use stem_sim_core::{CacheGeometry, DecodedTrace, SplitMix64, Trace};
use stem_workloads::{offset_trace_into_region, BenchmarkProfile};

use crate::calib;
use crate::probe::{self, bare_replay, llc_span, write_trace, WARMUP, WIDE_WAYS};
use crate::tracer::Tracer;
use crate::{cpu_secs, median, percentile, Opts, Outcome, Scale, DEFAULT_SEED};

/// The Fig. 7–9 benchmarks of `suite-exact`: high MPKI, STEM's class-I
/// best case, low MPKI, streaming.
const SUITE: [&str; 4] = ["mcf", "omnetpp", "ammp", "art"];
/// The two traces `trace-sweep` ingests, sweeps and mixes.
const SWEEP: [&str; 2] = ["mcf", "ammp"];
const SETS: usize = 2048;
const WAYS: usize = 16;
/// `suite-exact` set-up takes milliseconds, so it is repeated more often
/// than `trace-sweep`'s before taking the median.
const SUITE_SETUP_REPS: usize = 25;
const SWEEP_SETUP_REPS: usize = 3;

/// Trace lengths per scale: (suite-exact, trace-sweep, probe).
fn lengths(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (1_000_000, 500_000, 200_000),
        Scale::Tiny => (20_000, 20_000, 5_000),
    }
}

pub fn probe_len(scale: Scale) -> usize {
    lengths(scale).2
}

pub fn base_geom() -> CacheGeometry {
    CacheGeometry::new(SETS, WAYS, 64).expect("2048x16x64 is a valid geometry")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Restored,
}

/// One simulated outcome: LLC misses and MPKI.
type Result1 = (u64, f64);

/// One pass. Passes and jobs are timed in process CPU seconds
/// ([`cpu_secs`]): they are single-threaded and never wait on I/O, so
/// this is their wall time less the host's steal, which swings by tens of
/// percent between runs minutes apart.
#[derive(Default)]
struct Pass {
    /// CPU seconds the pass took.
    secs: f64,
    /// Wall seconds the pass took (reported, not used by a metric).
    wall_secs: f64,
    replayed: u64,
    /// (class, job key, CPU ms) of every job.
    jobs: Vec<(Class, String, f64)>,
    results: BTreeMap<String, Result1>,
}

impl Pass {
    /// Times `f` as the job `key` of `class` replaying `replayed` accesses.
    fn job<R>(&mut self, class: Class, key: String, replayed: u64, f: impl FnOnce() -> R) -> R {
        calib::tick();
        let t0 = cpu_secs();
        let r = f();
        self.jobs.push((class, key, (cpu_secs() - t0) * 1e3));
        self.replayed += replayed;
        r
    }
}

/// A seeded permutation of `0..n` (the job order a seed selects).
pub fn order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn profile(name: &str) -> BenchmarkProfile {
    BenchmarkProfile::by_name(name).expect("benchmark is a suite member")
}

/// Runs passes until `seconds` have passed. A traced run alternates
/// untraced and traced passes, so that host speed drift hits both alike.
/// Returns (untraced passes, traced passes).
fn run_passes(
    opts: &Opts,
    tr: &Tracer,
    mut pass: impl FnMut(&Tracer, &mut Outcome, &mut SplitMix64) -> Pass,
    out: &mut Outcome,
) -> (Vec<Pass>, Vec<Pass>) {
    let mut rng = SplitMix64::new(opts.seed);
    let off = Tracer::new(false, Instant::now());
    let start = Instant::now();
    let ticks = crate::cpu_ticks();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        untraced.push(pass(&off, out, &mut rng));
        if opts.trace {
            traced.push(pass(tr, out, &mut rng));
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            out.notes.push(crate::steal_note(ticks));
            return (untraced, traced);
        }
    }
}

/// Checks every pass's results: each against the first pass, and the
/// first against the digest. Counts one attempted operation per job.
fn check(opts: &Opts, out: &mut Outcome, passes: &[&Pass], seed_dependent: impl Fn(&str) -> bool) {
    let Some(first) = passes.first() else { return };
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.jobs.len() as u64;
        if i == 0 {
            continue;
        }
        for (key, r) in &p.results {
            if first.results.get(key) != Some(r) {
                out.fail(format!("pass {i} {key} = {r:?} differs from pass 0"));
            }
        }
    }
    if let Some(path) = &opts.write_digest {
        if let Err(e) = append_digest(path, opts, &first.results, &seed_dependent) {
            out.fail(format!("cannot write digest {}: {e}", path.display()));
        }
        return;
    }
    let expected = match load_digest(&opts.digest) {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("digest unreadable: {e}"));
            return;
        }
    };
    let prefix = format!("{} {} ", opts.scale.name(), opts.workload.name());
    let checked = |key: &str| opts.seed == DEFAULT_SEED || !seed_dependent(key);
    for (key, (misses, mpki)) in &first.results {
        if !checked(key) {
            continue;
        }
        match expected.get(&format!("{prefix}{key}")) {
            None => out.fail(format!("{key}: no digest entry")),
            Some((m, k)) if *m != *misses || *k != mpki.to_string() => out.fail(format!(
                "{key}: misses {misses} mpki {mpki}, digest says misses {m} mpki {k}"
            )),
            Some(_) => {}
        }
    }
    for full in expected.keys() {
        if let Some(key) = full.strip_prefix(&prefix) {
            if checked(key) && !first.results.contains_key(key) {
                out.fail(format!("{key}: digest entry was never produced"));
            }
        }
    }
}

/// Reads `<scale> <workload> <key> <misses> <mpki>` lines.
fn load_digest(path: &Path) -> Result<BTreeMap<String, (u64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [scale, workload, key, misses, mpki] = f[..] else {
            return Err(format!("line {}: expected 5 fields", i + 1));
        };
        let misses = misses
            .parse()
            .map_err(|_| format!("line {}: bad miss count", i + 1))?;
        map.insert(
            format!("{scale} {workload} {key}"),
            (misses, mpki.to_owned()),
        );
    }
    Ok(map)
}

fn append_digest(
    path: &Path,
    opts: &Opts,
    results: &BTreeMap<String, Result1>,
    seed_dependent: &dyn Fn(&str) -> bool,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for (key, (misses, mpki)) in results {
        if opts.seed == DEFAULT_SEED || !seed_dependent(key) {
            writeln!(
                f,
                "{} {} {key} {misses} {mpki}",
                opts.scale.name(),
                opts.workload.name()
            )?;
        }
    }
    Ok(())
}

/// The end-to-end metrics of the simulator workloads from their passes.
fn e2e(passes: &[Pass], setup: &[f64]) -> Vec<(&'static str, f64)> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // A pass replays a fixed set of jobs whose costs differ by benchmark
    // and scheme, so medians are taken over jobs, each at its median over
    // passes: over raw samples, a median would jump between two
    // neighbouring jobs' costs from run to run, and p99 (the slowest one
    // or two jobs) between single samples of them.
    let lat = |class: Option<Class>| -> Vec<f64> {
        let mut by_job: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (c, key, ms) in passes.iter().flat_map(|p| p.jobs.iter()) {
            if class.is_none_or(|k| k == *c) {
                by_job.entry(key).or_default().push(*ms);
            }
        }
        by_job.values().map(|v| median(v)).collect()
    };
    let all = lat(None);
    vec![
        (
            "sim_maccess_per_s",
            per_pass(&|p| p.replayed as f64 / p.secs / 1e6),
        ),
        ("req_per_s", per_pass(&|p| p.jobs.len() as f64 / p.secs)),
        ("req_p50_ms", median(&all)),
        ("req_p99_ms", percentile(&all, 0.99)),
        ("hit_p50_ms", median(&lat(Some(Class::Restored)))),
        ("miss_p50_ms", median(&lat(Some(Class::Cold)))),
        (
            "peak_rss_mb",
            crate::peak_rss_mb("self").unwrap_or(f64::NAN),
        ),
        ("setup_s", median(setup)),
    ]
}

/// Sets the end-to-end metrics, scaled to the nominal host (see
/// `calib.rs`), and reports the unscaled figures next to them.
fn finish_e2e(out: &mut Outcome, untraced: &[Pass], setup: &[f64]) {
    let raw = e2e(untraced, setup);
    out.notes.push(format!(
        "reference {:.4} CPU ns/access, {:.4}x the nominal {} ns; unscaled: {}",
        calib::ns_per_access(),
        calib::slowdown(),
        calib::NOMINAL_NS,
        raw.iter()
            .map(|(n, v)| format!("{n}={v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.e2e = calib::to_nominal(&raw, calib::slowdown());
}

/// Tracing overhead in %: the median over neighbouring (untraced, traced)
/// pass pairs of the traced pass's extra time.
fn overhead_pct(untraced: &[Pass], traced: &[Pass]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| (t.secs / u.secs - 1.0) * 100.0)
        .collect();
    median(&ratios)
}

/// Fills the per-layer metrics of a simulator workload's traced run.
fn layers(
    opts: &Opts,
    tr: &Tracer,
    out: &mut Outcome,
    benches: &[&str],
    untraced: &[Pass],
    traced: &[Pass],
) -> Result<(), String> {
    let (_, _, probe_n) = lengths(opts.scale);
    let p = probe::simulator_layers(tr, out, benches, probe_n, base_geom());
    let mut layers = probe::simulator_metrics(tr, &p);
    layers.extend(crate::serve::probe(tr, out, benches[0])?);
    layers.push(("trace_overhead_pct", overhead_pct(untraced, traced)));
    out.layers = layers;
    Ok(())
}

fn pass_notes(out: &mut Outcome, untraced: &[Pass], traced: &[Pass]) {
    let secs = |ps: &[Pass]| {
        ps.iter()
            .map(|p| format!("{:.3}/{:.3}", p.secs, p.wall_secs))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.settings
        .push(("passes", (untraced.len() + traced.len()).to_string()));
    out.settings.push(("sim_clock", "process CPU time".into()));
    out.notes.push(format!(
        "pass seconds cpu/wall (untraced): {}",
        secs(untraced)
    ));
    if !traced.is_empty() {
        out.notes
            .push(format!("pass seconds cpu/wall (traced): {}", secs(traced)));
    }
}

/// When a pass started: (wall, CPU seconds).
fn start_pass() -> (Instant, f64) {
    (Instant::now(), cpu_secs())
}

fn finish_pass(mut p: Pass, (wall, cpu): (Instant, f64)) -> Pass {
    p.wall_secs = wall.elapsed().as_secs_f64();
    p.secs = cpu_secs() - cpu;
    p
}

/// `suite-exact`: generate, decode once, then replay the six paper schemes
/// through the full System at 2048×16 with 20% warm-up (the run_all
/// Fig. 7–9 path). Schemes that can snapshot their warm state also run a
/// restored job, which must equal the cold one.
pub fn suite_exact(opts: &Opts, tr: &Tracer) -> Result<Outcome, String> {
    let (n, _, _) = lengths(opts.scale);
    let geom = base_geom();
    let cfg = SystemConfig::micro2010();
    let mut out = Outcome {
        settings: vec![
            ("benchmarks", SUITE.join(",")),
            ("accesses_per_trace", n.to_string()),
            ("llc", format!("{SETS}x{WAYS}x64B")),
            ("warmup_fraction", WARMUP.to_string()),
            ("schemes", Scheme::PAPER.map(|s| s.label()).join(",")),
        ],
        ..Outcome::default()
    };

    // Set-up: this workload generates its traces in-run and each job builds
    // its own hierarchy, so nothing is prepared for the passes. `setup_s`
    // times a stand-in: resolving the four profiles and building the 24
    // (benchmark, scheme) hierarchies a pass replays through, which are
    // then dropped.
    let mut setup = Vec::new();
    for _ in 0..SUITE_SETUP_REPS {
        let t0 = cpu_secs();
        let systems: Vec<(BenchmarkProfile, System)> = SUITE
            .iter()
            .flat_map(|b| {
                Scheme::PAPER.map(|s| (profile(b), System::new(cfg, build_cache(s, geom))))
            })
            .collect();
        setup.push(cpu_secs() - t0);
        black_box(systems);
    }

    let pass = |tr: &Tracer, out: &mut Outcome, rng: &mut SplitMix64| {
        let t0 = start_pass();
        let mut p = Pass::default();
        let decoded: Vec<DecodedTrace> = SUITE
            .iter()
            .map(|b| {
                let raw = tr.span("workloads.trace", n as u64, || profile(b).trace(geom, n));
                tr.span("sim-core.decode", n as u64, || {
                    DecodedTrace::decode(&raw, geom)
                })
            })
            .collect();
        let cells = SUITE.len() * Scheme::PAPER.len();
        for cell in order(cells, rng) {
            let (bi, scheme) = (
                cell / Scheme::PAPER.len(),
                Scheme::PAPER[cell % Scheme::PAPER.len()],
            );
            let dec = &decoded[bi];
            let warm = warm_split(dec.len(), WARMUP);
            let label = scheme.label();
            let key = format!("{}/{label}/{WAYS}", SUITE[bi]);
            let cold = p.job(Class::Cold, key.clone(), n as u64, || {
                System::new(cfg, build_cache(scheme, geom)).warm_then_run_decoded(dec, warm)
            });
            p.results.insert(key.clone(), (cold.l2.misses(), cold.mpki));
            if !build_cache(scheme, geom).supports_snapshot() {
                continue;
            }
            p.replayed += warm as u64;
            let snap = tr.span(format!("analysis.snapshot.{label}"), warm as u64, || {
                let mut sys = System::new(cfg, build_cache(scheme, geom));
                sys.warm_decoded(dec, warm);
                sys.reset_stats();
                sys.snapshot()
            });
            let Some(snap) = snap else {
                out.fail(format!("{key}: advertised snapshots but produced none"));
                continue;
            };
            let restored = p.job(
                Class::Restored,
                format!("{key}/restored"),
                (n - warm) as u64,
                || {
                    tr.span(
                        format!("analysis.restore.{label}"),
                        (n - warm) as u64,
                        || {
                            let mut sys = System::new(cfg, build_cache(scheme, geom));
                            sys.restore(&snap)
                                .map(|()| sys.run_decoded_range(dec, warm..n))
                        },
                    )
                },
            );
            match restored {
                Ok(m) if m == cold => {}
                Ok(m) => out.fail(format!(
                    "{key}: restored run (misses {}, mpki {}) differs from cold (misses {}, mpki {})",
                    m.l2.misses(),
                    m.mpki,
                    cold.l2.misses(),
                    cold.mpki
                )),
                Err(e) => out.fail(format!("{key}: restore failed: {e}")),
            }
        }
        finish_pass(p, t0)
    };
    let (untraced, traced) = run_passes(opts, tr, pass, &mut out);
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    check(opts, &mut out, &all, |_| false);
    pass_notes(&mut out, &untraced, &traced);
    finish_e2e(&mut out, &untraced, &setup);
    if opts.trace {
        layers(opts, tr, &mut out, &SUITE, &untraced, &traced)?;
    }
    Ok(out)
}

/// A directory under the work dir, removed with its contents on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: String) -> Result<ScratchDir, String> {
        let dir = crate::work_dir().join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The STEMTRC files `trace-sweep` writes in set-up and ingests per pass:
/// each sweep trace as generated, and each again folded into its core's
/// private region for the 2-core mix.
fn sweep_files(dir: &Path) -> Vec<(PathBuf, &'static str, Option<usize>)> {
    let mut files: Vec<_> = SWEEP
        .iter()
        .map(|b| (dir.join(format!("{b}.trc")), *b, None))
        .collect();
    files.extend(
        SWEEP
            .iter()
            .enumerate()
            .map(|(core, b)| (dir.join(format!("{b}.core{core}.trc")), *b, Some(core))),
    );
    files
}

/// `trace-sweep`: set-up generates the traces and writes STEMTRC files;
/// each pass ingests them with `load_decoded`, sweeps the bare LLC past 16
/// ways (every paper scheme at 16, LRU and STEM at 32 and 64 — the wide
/// `RecencyStack` path), restores the snapshottable 16-way points from
/// warm snapshots, and runs the 2-core shared-LLC mix under all six
/// schemes with the seed's interleave.
pub fn trace_sweep(opts: &Opts, tr: &Tracer) -> Result<Outcome, String> {
    let (_, n, _) = lengths(opts.scale);
    let geom = base_geom();
    let mix_seed = opts.seed;
    let mut out = Outcome {
        settings: vec![
            ("benchmarks", SWEEP.join(",")),
            ("accesses_per_trace", n.to_string()),
            ("llc", format!("{SETS}x{WAYS}x64B")),
            ("wide_ways", format!("{WIDE_WAYS:?}")),
            ("warmup_fraction", WARMUP.to_string()),
            ("mix_seed", mix_seed.to_string()),
        ],
        ..Outcome::default()
    };
    let dir = ScratchDir::new(format!("trace-sweep-{}", std::process::id()))?;
    let files = sweep_files(&dir.0);

    let mut setup = Vec::new();
    for _ in 0..SWEEP_SETUP_REPS {
        let t0 = cpu_secs();
        let raws: Vec<Trace> = SWEEP
            .iter()
            .map(|b| tr.span("workloads.trace", n as u64, || profile(b).trace(geom, n)))
            .collect();
        for (path, bench, core) in &files {
            let raw = raws[SWEEP.iter().position(|b| b == bench).expect("sweep member")].clone();
            let raw = match core {
                Some(c) => offset_trace_into_region(raw, *c),
                None => raw,
            };
            write_trace(path, &raw).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        setup.push(cpu_secs() - t0);
    }

    let mut points: Vec<(usize, Scheme, usize)> = Vec::new();
    for t in 0..SWEEP.len() {
        points.extend(Scheme::PAPER.map(|s| (t, s, WAYS)));
        for ways in WIDE_WAYS {
            points.extend([(t, Scheme::Lru, ways), (t, Scheme::Stem, ways)]);
        }
    }

    let pass = |tr: &Tracer, out: &mut Outcome, rng: &mut SplitMix64| {
        let t0 = start_pass();
        let mut p = Pass::default();
        let mut loaded = Vec::new();
        for (path, _, _) in &files {
            match tr.span("trace-io.load_decoded", n as u64, || {
                stem_trace_io::load_decoded(path, geom)
            }) {
                Ok(d) => loaded.push(d),
                Err(e) => {
                    out.fail(format!("load {}: {e}", path.display()));
                    return finish_pass(p, t0);
                }
            }
        }
        let (plain, mixed) = loaded.split_at(SWEEP.len());
        for i in order(points.len(), rng) {
            let (t, scheme, ways) = points[i];
            let dec = &plain[t];
            let label = scheme.label();
            let key = format!("{}/{label}/{ways}", SWEEP[t]);
            let g = CacheGeometry::new(SETS, ways, 64).expect("sweep geometry is valid");
            let warm = warm_split(n, WARMUP);
            let cold = p.job(Class::Cold, key.clone(), n as u64, || {
                tr.span(llc_span(label, ways), n as u64, || {
                    bare_replay(Some(scheme), g, dec)
                })
            });
            p.results.insert(
                key.clone(),
                (
                    cold.misses(),
                    cold.mpki(dec.instructions_in(warm..n).max(1)),
                ),
            );
            if ways != WAYS || !build_cache(scheme, g).supports_snapshot() {
                continue;
            }
            p.replayed += warm as u64;
            let snap = tr.span(format!("analysis.snapshot.{label}"), warm as u64, || {
                warm_scheme_snapshot(scheme, g, dec, warm)
            });
            let Some(snap) = snap else {
                out.fail(format!("{key}: advertised snapshots but produced none"));
                continue;
            };
            let restored = p.job(
                Class::Restored,
                format!("{key}/restored"),
                (n - warm) as u64,
                || {
                    tr.span(
                        format!("analysis.restore.{label}"),
                        (n - warm) as u64,
                        || {
                            let mut cache = build_cache(scheme, g);
                            cache.restore(&snap).map(|()| {
                                cache.replay_decoded(dec, warm..n);
                                *cache.stats()
                            })
                        },
                    )
                },
            );
            match restored {
                Ok(s) if s == cold => {}
                Ok(s) => out.fail(format!(
                    "{key}: restored stats {s:?} differ from cold {cold:?}"
                )),
                Err(e) => out.fail(format!("{key}: restore failed: {e}")),
            }
        }
        let work = 2 * mixed.iter().map(|s| s.len() as u64).sum::<u64>();
        for i in order(Scheme::PAPER.len(), rng) {
            let scheme = Scheme::PAPER[i];
            let label = scheme.label();
            let o = p.job(Class::Cold, format!("mix/{label}"), work, || {
                tr.span(format!("hierarchy.mix.{label}"), work, || {
                    run_mix_decoded(
                        scheme,
                        geom,
                        SystemConfig::micro2010(),
                        mixed,
                        &[1.0, 1.0],
                        mix_seed,
                        WARMUP,
                    )
                })
            });
            p.results.insert(
                format!("mix/{label}/{WAYS}"),
                (o.mix.combined.l2.misses(), o.mix.combined.mpki),
            );
        }
        finish_pass(p, t0)
    };
    let (untraced, traced) = run_passes(opts, tr, pass, &mut out);
    drop(dir);
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    check(opts, &mut out, &all, |key| key.starts_with("mix/"));
    pass_notes(&mut out, &untraced, &traced);
    finish_e2e(&mut out, &untraced, &setup);
    if opts.trace {
        layers(opts, tr, &mut out, &SWEEP, &untraced, &traced)?;
    }
    Ok(out)
}
