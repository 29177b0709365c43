//! Simulation-throughput bench: every LLC scheme replays a fixed
//! omnetpp-analog trace slice at the paper's L2 geometry, so the numbers
//! compare the *cost of the management machinery* (shadow sets, heaps,
//! pointer chasing), not the workload.
//!
//! A plain `harness = false` binary timed with `std::time` — the
//! workspace builds offline with no benchmarking dependency. Run with
//! `cargo bench -p stem-bench --bench scheme_throughput`.
//!
//! `STEM_BENCH_ACCESSES` scales the trace length (default 100 000; CI's
//! smoke mode uses a fraction of that), and when `STEM_CSV_DIR` is set the
//! per-scheme Melem/s land in `$STEM_CSV_DIR/BENCH_throughput.json` next to
//! the correctness artifacts, so every PR records its accesses/second.

use std::time::Duration;

use stem_analysis::{build_cache, geomean, Scheme};
use stem_bench::config::Config;
use stem_bench::timing::{best_of, throughput_line};
use stem_sim_core::{CacheGeometry, Json};
use stem_workloads::BenchmarkProfile;

/// Writes the machine-readable summary to
/// `$STEM_CSV_DIR/BENCH_throughput.json` when the variable is set.
fn maybe_json(
    csv_dir: Option<&std::path::Path>,
    accesses: u64,
    reps: usize,
    results: &[(&str, Duration)],
    geomean_melems: f64,
) {
    let Some(dir) = csv_dir else {
        return;
    };
    let schemes = results
        .iter()
        .map(|(label, d)| {
            let melems = accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6;
            Json::Obj(vec![
                ("scheme".into(), Json::str(*label)),
                ("best_secs".into(), Json::float_rounded(d.as_secs_f64(), 6)),
                ("melem_per_s".into(), Json::float_rounded(melems, 4)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("accesses_per_iteration".into(), Json::Int(accesses as i64)),
        ("best_of".into(), Json::Int(reps as i64)),
        (
            "geomean_melem_per_s".into(),
            Json::float_rounded(geomean_melems, 4),
        ),
        ("schemes".into(), Json::Arr(schemes)),
    ]);
    let path = dir.join("BENCH_throughput.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc.pretty())) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    const REPS: usize = 5;
    let cfg = Config::from_env_or_panic();
    let geom = CacheGeometry::micro2010_l2();
    let trace = BenchmarkProfile::by_name("omnetpp")
        .expect("suite benchmark")
        .trace(geom, cfg.bench_accesses.unwrap_or(100_000));

    let mut results: Vec<(&str, Duration)> = Vec::new();
    for scheme in Scheme::PAPER {
        let d = best_of(REPS, || {
            let mut cache = build_cache(scheme, geom);
            cache.run(&trace);
            cache.stats().misses()
        });
        results.push((scheme.label(), d));
    }

    println!(
        "# scheme_access ({} accesses/iteration, best of {REPS})",
        trace.len()
    );
    for (label, d) in &results {
        println!("{}", throughput_line(label, trace.len() as u64, *d));
    }
    let melems: Vec<f64> = results
        .iter()
        .map(|(_, d)| trace.len() as f64 / d.as_secs_f64().max(1e-12) / 1e6)
        .collect();
    let gm = geomean(&melems);
    println!("geomean: {gm:.2} Melem/s");
    maybe_json(
        cfg.csv_dir.as_deref(),
        trace.len() as u64,
        REPS,
        &results,
        gm,
    );

    let bench = BenchmarkProfile::by_name("mcf").expect("suite benchmark");
    let d = best_of(REPS, || bench.trace(geom, 50_000).len());
    println!("\n# workload");
    println!("{}", throughput_line("generate_mcf_50k", 50_000, d));
}
