//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <suite-exact|trace-sweep|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny] [--digest <path>]
//!           [--write-digest <path>]
//! ```
//!
//! Runs one workload against the release build, checks its outputs, prints
//! a report (provenance, every metric with its unit, failures) and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! set; with `--trace 1` they are the per-layer set from a traced run (see
//! `README.md` in this directory for every name, unit and layer).

mod calib;
mod probe;
mod serve;
mod sim;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use tracer::Tracer;

/// The seed the committed digest was recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, printed with `--trace 0` (untraced).
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_maccess_per_s", "Macc/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1` (traced run).
pub const PER_LAYER: [(&str, &str); 26] = [
    ("workloads.gen_ns_per_access", "ns"),
    ("sim-core.decode_ns_per_access", "ns"),
    ("trace-io.load_ns_per_access", "ns"),
    ("replacement.fifo_floor_ns_per_access", "ns"),
    ("replacement.lru_ns_per_access", "ns"),
    ("replacement.dip_ns_per_access", "ns"),
    ("replacement.pelifo_ns_per_access", "ns"),
    ("spatial.vway_ns_per_access", "ns"),
    ("spatial.sbc_ns_per_access", "ns"),
    ("stem-llc.stem_ns_per_access", "ns"),
    ("replacement.lru_wide_ns_per_access", "ns"),
    ("stem-llc.stem_wide_ns_per_access", "ns"),
    ("hierarchy.l1_ns_per_access", "ns"),
    ("hierarchy.l2_access_share", "ratio"),
    ("hierarchy.mix_ns_per_access", "ns"),
    ("analysis.restore_ns_per_access", "ns"),
    ("stem-llc.coop_hit_share", "ratio"),
    ("spatial.sbc_coop_hit_share", "ratio"),
    ("serve.healthz_p50_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.execute_ms", "ms"),
    ("serve.snapshot_hit_ratio", "ratio"),
    ("serve.retried_total", "count"),
    ("trace_overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteExact,
    TraceSweep,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "suite-exact" => Some(Workload::SuiteExact),
            "trace-sweep" => Some(Workload::TraceSweep),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteExact => "suite-exact",
            Workload::TraceSweep => "trace-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Input size. `tiny` exists for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub digest: PathBuf,
    pub write_digest: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut digest = Path::new(env!("CARGO_MANIFEST_DIR")).join("digest.txt");
    let mut write_digest = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("unknown scale {value}")),
                }
            }
            "--digest" => digest = PathBuf::from(value),
            "--write-digest" => write_digest = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        scale,
        digest,
        write_digest,
    })
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values (from the untraced passes in a traced run).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer values (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Scale settings and other facts for the provenance block.
    pub settings: Vec<(&'static str, String)>,
    /// Human-readable report lines (failures, reconciliations).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }
}

/// The directory the benchmark keeps scratch files and spans in: the cargo
/// target directory, which the repository already ignores.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target"));
    let target = if target.is_absolute() {
        target
    } else {
        std::env::current_dir()
            .expect("current directory is readable")
            .join(target)
    };
    target.join("perfbench")
}

/// The repository checkout this benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Peak resident set size of a process, in MB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// C `struct timespec` on 64-bit Linux (`time_t` and `long` are 64 bits).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has run so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the host hands this guest's CPUs to other guests (steal) and the time
/// the process waits for a CPU, which drift from minute to minute on a
/// shared host.
pub fn cpu_secs() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer; `ts` has that layout and lives, writable, for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Steal and total CPU time of this guest so far, in clock ticks, from
/// the first line of `/proc/stat`: (steal, total).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of this guest's CPU time the host took for other guests
/// between two [`cpu_ticks`] readings, in percent: tail latencies follow it.
pub fn steal_note(before: Option<(u64, u64)>) -> String {
    match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host steal during the timed window: {:.1}% of CPU time",
            (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
        ),
        _ => "host steal during the timed window: unknown".into(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile (`p` in `0..=1`) of `values`, interpolating linearly between
/// the two nearest ranks; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn provenance(opts: &Opts, outcome: &Outcome) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let root = repo_root();
    let rev = command_line(
        "git",
        &[
            "-C",
            &root.to_string_lossy(),
            "rev-parse",
            "--short=12",
            "HEAD",
        ],
    )
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let mut fields = vec![
        ("host", host),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("git_rev", rev),
        ("profile", "release".into()),
        ("workload", opts.workload.name().into()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("scale", opts.scale.name().into()),
    ];
    fields.extend(outcome.settings.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn metrics_json(values: &[(&'static str, f64)], names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            // JSON has no NaN; an unmeasured metric already failed the run.
            let v = if v.is_finite() { v } else { -1.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn print_metrics(title: &str, values: &[(&'static str, f64)], names: &[(&str, &str)]) {
    println!("{title}");
    for (name, unit) in names {
        match values.iter().find(|(n, _)| n == name) {
            Some((_, v)) => println!("  {name:<40} {v:>14.4} {unit}"),
            None => println!("  {name:<40} {:>14} {unit}", "missing"),
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload needs the serve binary (serve-mixed runs it, traced
    // runs probe it); building it first keeps the build out of set-up.
    if let Err(e) = serve::serve_binary() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new(opts.trace, Instant::now());
    let result = match opts.workload {
        Workload::SuiteExact => sim::suite_exact(&opts, &tracer),
        Workload::TraceSweep => sim::trace_sweep(&opts, &tracer),
        Workload::ServeMixed => serve::serve_mixed(&opts, &tracer),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if outcome.attempted == 0 {
        outcome.attempted = 1;
        outcome.fail("the workload attempted nothing".into());
    }
    let (values, names) = if opts.trace {
        (&outcome.layers, &PER_LAYER[..])
    } else {
        (&outcome.e2e, &END_TO_END[..])
    };
    let unmeasured: Vec<&str> = names
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !values.iter().any(|(n, v)| n == name && v.is_finite()))
        .collect();
    for name in unmeasured {
        outcome.fail(format!("metric {name} was not measured"));
    }

    println!("provenance {}", provenance(&opts, &outcome));
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "operations attempted {}, failed {}, fail_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    let title = if opts.trace {
        "end-to-end (untraced passes of this traced run):"
    } else {
        "end-to-end:"
    };
    print_metrics(title, &outcome.e2e, &END_TO_END);
    if opts.trace {
        print_metrics(
            "per-layer (traced passes and probes):",
            &outcome.layers,
            &PER_LAYER,
        );
        let spans = work_dir().join(format!(
            "spans-{}-seed{}-{}.jsonl",
            opts.workload.name(),
            opts.seed,
            std::process::id()
        ));
        match tracer.write_jsonl(&spans) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let metrics = if opts.trace {
        metrics_json(&outcome.layers, &PER_LAYER)
    } else {
        metrics_json(&outcome.e2e, &END_TO_END)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
    );
    ExitCode::SUCCESS
}
