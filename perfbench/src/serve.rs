//! The `serve-mixed` workload and the serve probe.
//!
//! The release `serve` binary runs as a child process on loopback with one
//! executor thread. The traffic is the request sequence of the repository's
//! serve smoke in `ci.sh`, the one in-repo caller that sends a mix of
//! request kinds: a plain exact run, its `profile: true` twin, a
//! `fidelity: sampled` run, a two-benchmark mix and a trace-file mix, each
//! sent twice in a row, so the first send misses the result cache and the
//! repeat hits it. The request sizes are the smoke's too (64×4 sets×ways
//! and 5000 accesses for single runs, 64×8 and 8000 for mixes).
//!
//! A *round* is that sequence of ten requests. Rounds differ only in the
//! benchmark and scheme their experiments use, drawn from a seeded cycle
//! of more distinct experiments than the result cache holds, so a round's
//! first sends always miss. Two closed-loop clients (each sends its next
//! request when the previous reply arrives, as `serve_client` and CI do)
//! take rounds from the shared cycle.
//!
//! `/metrics` is scraped around the timed window; client latency is
//! reconciled against the server's own request histogram and the
//! `/healthz` round trip, and the cache counters must show exactly the
//! designed hits and misses. Outside the timed window every distinct
//! response body is compared with the canonical echo plus an in-process
//! `run_simulation` of the same request.

use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use stem_serve::exec::TRACE_DIR_ENV;
use stem_serve::http::{self, HttpResponse};
use stem_serve::{run_simulation, BackoffPolicy, RunRequest};
use stem_sim_core::{Json, SplitMix64};

use crate::tracer::Tracer;
use crate::{median, percentile, Opts, Outcome};

/// Result-cache entries: fewer than the 35 experiments the other rounds of
/// the cycle insert before a round comes back, so first sends always miss.
const RESULT_CACHE: usize = 16;
/// Snapshot-cache entries: room for both clients' latest warm prefixes
/// (a profile twin restores the snapshot its plain run stored), fewer
/// than the 7 other prefixes the cycle stores before a round comes back.
const SNAPSHOT_SLOTS: usize = 4;
const CLIENTS: usize = 2;
const HEALTHZ_ROUND_TRIPS: usize = 40;
/// Set-up includes one accept-poll wait of up to 25 ms, so its median
/// needs many repetitions.
const SETUP_REPS: usize = 15;
/// Benchmarks the rounds vary over; gromacs is the smoke's fixed mix
/// partner and so is not one of them.
const BENCHES: [&str; 4] = ["mcf", "omnetpp", "ammp", "art"];
/// Schemes the rounds vary over: the smoke's `lru`, and `dip`, the one
/// other paper scheme every request kind accepts (snapshots and sampling).
const SCHEMES: [&str; 2] = ["lru", "dip"];
/// The committed trace the smoke's trace-file mix ingests, under
/// `fixtures/`.
const TRACE_FILE: &str = "sample_mix.trace";
/// The smoke's sampled-tier rate.
const SAMPLE_RATE: u32 = 4;
/// Rounds each client runs in one slice of a traced run.
const SLICE_ROUNDS: usize = 2;

/// The directory trace-file mix components resolve against.
fn fixtures() -> PathBuf {
    crate::repo_root().join("fixtures")
}

/// Points this process's in-process `run_simulation` at the fixtures, as
/// the server's is. Called before any client thread starts.
fn use_fixture_trace_dir() {
    std::env::set_var(TRACE_DIR_ENV, fixtures());
}

/// Builds the release `serve` binary (a no-op when it is up to date) and
/// returns its path.
pub fn serve_binary() -> Result<PathBuf, String> {
    static BIN: OnceLock<Result<PathBuf, String>> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = crate::repo_root();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--quiet",
                "-p",
                "stem-serve",
                "--bin",
                "serve",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the serve binary failed: {status}"));
        }
        let bin = crate::work_dir()
            .parent()
            .expect("work dir is inside the target dir")
            .join("release/serve");
        if bin.exists() {
            Ok(bin)
        } else {
            Err(format!("{} missing after the build", bin.display()))
        }
    })
    .clone()
}

/// A `serve` child process. Dropping it kills and reaps the child.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        static STARTS: AtomicUsize = AtomicUsize::new(0);
        let dir = crate::work_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join(format!(
            "serve-addr-{}-{}",
            std::process::id(),
            STARTS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(bin);
        // Only the settings below reach the server, whatever the caller's
        // environment holds (a stray STEM_SERVE_CHAOS_SEED would inject
        // faults).
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("STEM_") {
                cmd.env_remove(key);
            }
        }
        let child = cmd
            .env("STEM_SERVE_ADDR", "127.0.0.1:0")
            .env("STEM_SERVE_ADDR_FILE", &addr_file)
            .env("STEM_SERVE_CACHE", RESULT_CACHE.to_string())
            .env("STEM_SERVE_SNAPSHOT_SLOTS", SNAPSHOT_SLOTS.to_string())
            .env("STEM_SERVE_QUEUE", "8")
            .env("STEM_THREADS", "1")
            .env(TRACE_DIR_ENV, fixtures())
            // One malloc arena: with glibc's default of one per thread, the
            // thread-per-connection server's peak RSS depends on which
            // arena each connection thread happens to get (20–33 MB across
            // identical runs), which would hide any real change.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_owned();
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("serve did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_file(&addr_file);
        match exchange(&server.addr, "GET", "/healthz", b"") {
            Ok(r) if r.status == 200 => Ok(server),
            other => Err(format!("serve unhealthy after start-up: {other:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = exchange(&self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("serve did not drain within 30 s".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP exchange on a fresh connection.
fn exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
    let _ = s.set_write_timeout(Some(Duration::from_secs(30)));
    http::write_request(&mut s, method, path, body).map_err(|e| format!("write: {e}"))?;
    http::read_response(&mut s).map_err(|e| format!("read: {e}"))
}

/// A `/run` exchange with `serve_client`'s retry loop around it: connect
/// failures, 429 and 503 back off under the default [`BackoffPolicy`]
/// (honouring `Retry-After`) and retry. Returns (status, body, retries);
/// status 0 when no answer came.
fn post_run(addr: &str, body: &[u8], rng: &mut SplitMix64) -> (u16, Vec<u8>, u64) {
    let policy = BackoffPolicy::default();
    let mut attempt = 0u32;
    loop {
        let answer = exchange(addr, "POST", "/run", body);
        let retry = match &answer {
            Ok(r) => matches!(r.status, 429 | 503),
            Err(_) => true,
        };
        if !retry || attempt >= policy.retries {
            return match answer {
                Ok(r) => (r.status, r.body, u64::from(attempt)),
                Err(e) => (0, e.into_bytes(), u64::from(attempt)),
            };
        }
        let retry_after = answer
            .as_ref()
            .ok()
            .and_then(HttpResponse::retry_after_secs);
        std::thread::sleep(policy.delay(attempt, retry_after, rng));
        attempt += 1;
    }
}

/// The server's `/metrics` page as `series -> value`.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let r = exchange(addr, "GET", "/metrics", b"")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Ok(String::from_utf8_lossy(&r.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect())
}

const CACHE_HITS: &str = "stem_serve_cache_hits_total";
const CACHE_MISSES: &str = "stem_serve_cache_misses_total";
const SNAPSHOT_HITS: &str = "stem_serve_snapshot_hits_total";
const SNAPSHOT_MISSES: &str = "stem_serve_snapshot_misses_total";

/// Counter movement between two scrapes.
struct Deltas(BTreeMap<String, f64>);

impl Deltas {
    fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Deltas {
        Deltas(
            after
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.get(hits), self.get(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    fn server_mean_ms(&self) -> f64 {
        let count = self.get("stem_serve_request_seconds_count");
        if count == 0.0 {
            f64::NAN
        } else {
            self.get("stem_serve_request_seconds_sum") / count * 1e3
        }
    }

    fn describe(&self) -> String {
        let shown = [
            ("cache_hits", CACHE_HITS),
            ("cache_misses", CACHE_MISSES),
            ("snapshot_hits", SNAPSHOT_HITS),
            ("snapshot_misses", SNAPSHOT_MISSES),
            ("sim_executions", "stem_serve_sim_executions_total"),
            ("sampled", "stem_serve_sampled_requests_total"),
            ("mix", "stem_serve_mix_requests_total"),
            ("rejected", "stem_serve_rejected_total"),
            ("deadline_shed", "stem_serve_deadline_shed_total"),
            (
                "run_429",
                "stem_serve_requests_total{route=\"run\",status=\"429\"}",
            ),
            (
                "run_503",
                "stem_serve_requests_total{route=\"run\",status=\"503\"}",
            ),
        ];
        shown
            .iter()
            .map(|(label, series)| format!("{label}={}", self.get(series)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// The repeat of the request just answered: a result-cache hit.
    Hit,
    /// First send of the plain exact run: executes the full `System`.
    Miss,
    /// First send of the `profile: true` twin: restores the snapshot the
    /// plain run stored.
    Twin,
    /// First send of the sampled run.
    Sampled,
    /// First send of either mix.
    Mix,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::Hit,
        Class::Miss,
        Class::Twin,
        Class::Sampled,
        Class::Mix,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Twin => "twin",
            Class::Sampled => "sampled",
            Class::Mix => "mix",
        }
    }
}

/// One request of a round: its first-send class, body and requested
/// accesses.
type Req = (Class, String, usize);

/// The smoke's five experiments for `bench` under `scheme`, in its order.
fn round(bench: &str, scheme: &str, sample_seed: u64) -> [Req; 5] {
    let solo = format!(
        "\"benchmark\":\"{bench}\",\"scheme\":\"{scheme}\",\"sets\":64,\"ways\":4,\"accesses\":5000"
    );
    let mix = |first: String, second: &str| {
        format!(
            "{{\"mix\":[{first},{{\"benchmark\":\"{second}\"}}],\"scheme\":\"{scheme}\",\"sets\":64,\"ways\":8,\"accesses\":8000}}"
        )
    };
    [
        (Class::Miss, format!("{{{solo}}}"), 5000),
        (Class::Twin, format!("{{{solo},\"profile\":true}}"), 5000),
        (
            Class::Sampled,
            format!(
                "{{{solo},\"fidelity\":\"sampled\",\"sample_rate\":{SAMPLE_RATE},\"sample_seed\":{sample_seed}}}"
            ),
            5000,
        ),
        (
            Class::Mix,
            mix(format!("{{\"benchmark\":\"{bench}\"}}"), "gromacs"),
            8000,
        ),
        (
            Class::Mix,
            mix(format!("{{\"trace\":\"{TRACE_FILE}\"}}"), bench),
            8000,
        ),
    ]
}

/// The seeded cycle of rounds: every (benchmark, scheme) once, in an order
/// and with sample seeds drawn from the workload seed.
fn rounds(seed: u64) -> Vec<[Req; 5]> {
    let mut rng = SplitMix64::new(seed ^ 0x5E7E_0000);
    let pairs: Vec<(&str, &str)> = BENCHES
        .iter()
        .flat_map(|b| SCHEMES.map(|s| (*b, s)))
        .collect();
    crate::sim::order(pairs.len(), &mut rng)
        .into_iter()
        .map(|i| round(pairs[i].0, pairs[i].1, rng.next_u64() >> 12))
        .collect()
}

/// One completed request.
struct Rec {
    class: Class,
    ms: f64,
    req: String,
    accesses: usize,
}

/// What one client saw: latencies, retries, and every distinct
/// (request, status, body) with its count.
#[derive(Default)]
struct Log {
    recs: Vec<Rec>,
    retries: u64,
    answers: HashMap<(String, u16, Vec<u8>), u64>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.recs.extend(other.recs);
        self.retries += other.retries;
        for (k, v) in other.answers {
            *self.answers.entry(k).or_default() += v;
        }
    }

    /// Sends `req` as a first send of `class`, then again as a repeat.
    fn send_twice(&mut self, addr: &str, (class, req, n): &Req, tr: &Tracer, rng: &mut SplitMix64) {
        for class in [*class, Class::Hit] {
            let t0 = Instant::now();
            let (status, body, retries) =
                tr.span(format!("serve.http.run.{}", class.name()), 1, || {
                    post_run(addr, req.as_bytes(), rng)
                });
            self.recs.push(Rec {
                class,
                ms: t0.elapsed().as_secs_f64() * 1e3,
                req: req.clone(),
                accesses: *n,
            });
            self.retries += retries;
            *self.answers.entry((req.clone(), status, body)).or_default() += 1;
        }
    }

    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| class.is_none_or(|c| c == r.class))
            .map(|r| r.ms)
            .collect()
    }

    fn count(&self, class: Class) -> f64 {
        self.recs.iter().filter(|r| r.class == class).count() as f64
    }
}

/// When a client stops taking rounds.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    Rounds(usize),
}

/// One closed-loop client taking rounds from the shared cycle until
/// `stop`. `seed` drives only its retry jitter.
fn client(
    addr: &str,
    cycle: &[[Req; 5]],
    next: &AtomicUsize,
    stop: Stop,
    seed: u64,
    tr: &Tracer,
) -> Log {
    let mut rng = SplitMix64::new(seed);
    let mut log = Log::default();
    for done in 0.. {
        let finished = match stop {
            Stop::At(t) => Instant::now() >= t,
            Stop::Rounds(n) => done == n,
        };
        if finished {
            break;
        }
        let r = &cycle[next.fetch_add(1, Ordering::Relaxed) % cycle.len()];
        for req in r {
            log.send_twice(addr, req, tr, &mut rng);
        }
    }
    log
}

/// Runs the clients until `stop`; returns their merged log and the wall
/// time. Each client's retry seed depends only on the workload seed.
fn phase(
    addr: &str,
    cycle: &[[Req; 5]],
    next: &AtomicUsize,
    stop: Stop,
    seed: u64,
    tr: &Tracer,
) -> (Log, f64) {
    let t0 = Instant::now();
    let logs: Vec<(Log, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (on, epoch) = (tr.on(), tr.epoch());
                let seed = seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                s.spawn(move || {
                    let local = Tracer::new(on, epoch);
                    let log = client(addr, cycle, next, stop, seed, &local);
                    (log, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut merged = Log::default();
    for (log, local) in logs {
        merged.merge(log);
        tr.absorb(local);
    }
    (merged, wall)
}

/// `/healthz` round trips, sequential; returns latencies in ms.
fn healthz(addr: &str, tr: &Tracer, out: &mut Outcome) -> Vec<f64> {
    (0..HEALTHZ_ROUND_TRIPS)
        .map(|_| {
            let t0 = Instant::now();
            let r = tr.span("serve.http.healthz", 1, || {
                exchange(addr, "GET", "/healthz", b"")
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            if !matches!(&r, Ok(resp) if resp.status == 200) {
                out.fail(format!("/healthz answered {r:?}"));
            }
            ms
        })
        .collect()
}

/// The body the service must return for `req`: canonical echo, key, and
/// the in-process result.
fn expected_body(req: &RunRequest, tr: &Tracer) -> Result<Vec<u8>, String> {
    let result = tr
        .span("serve.run_simulation", 1, || run_simulation(req))
        .map_err(|e| e.to_string())?;
    Ok(Json::Obj(vec![
        ("request".to_owned(), req.canonical()),
        (
            "key".to_owned(),
            Json::str(format!("{:016x}", req.cache_key())),
        ),
        ("result".to_owned(), result),
    ])
    .pretty()
    .into_bytes())
}

/// Checks every distinct answer against its expected body, outside any
/// timed window. Returns the median in-process parse time in µs and the
/// mean in-process execute time in ms over the requests of `log` that the
/// server had to execute (every first send).
fn verify(log: &Log, tr: &Tracer, out: &mut Outcome) -> (f64, f64) {
    const PARSES: u32 = 200;
    let mut expected: HashMap<&str, Result<Vec<u8>, String>> = HashMap::new();
    let mut parse_ns = Vec::new();
    let mut exec_ms: HashMap<&str, f64> = HashMap::new();
    for (req, _, _) in log.answers.keys() {
        let req = req.as_str();
        if expected.contains_key(req) {
            continue;
        }
        // One span over all the repetitions, so span bookkeeping stays out
        // of a microsecond-scale measurement.
        let t0 = Instant::now();
        let parsed = tr.span("serve.parse", u64::from(PARSES), || {
            (1..PARSES).fold(RunRequest::parse(req.as_bytes()), |_, _| {
                RunRequest::parse(req.as_bytes())
            })
        });
        parse_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(PARSES));
        let t0 = Instant::now();
        let body = parsed
            .map_err(|e| format!("does not parse: {e}"))
            .and_then(|r| expected_body(&r, tr));
        exec_ms.insert(req, t0.elapsed().as_secs_f64() * 1e3);
        expected.insert(req, body);
    }
    for ((req, status, body), &count) in &log.answers {
        let why = match &expected[req.as_str()] {
            Ok(b) if *status == 200 && b == body => continue,
            Ok(_) => format!("answered {status} with a body other than the expected one"),
            Err(e) => format!("no expected body: {e}"),
        };
        out.fail(format!("{req}: {count} answer(s) {why}"));
        out.failed += count - 1;
    }
    let executed: Vec<f64> = log
        .recs
        .iter()
        .filter(|r| r.class != Class::Hit)
        .filter_map(|r| exec_ms.get(r.req.as_str()).copied())
        .collect();
    (
        median(&parse_ns) / 1e3,
        executed.iter().sum::<f64>() / executed.len().max(1) as f64,
    )
}

/// The cache counters must show the designed traffic: every repeat a
/// result-cache hit, every first send a miss, every plain run a cold
/// snapshot-cache miss and every profile twin a snapshot-cache hit.
fn check_counters(out: &mut Outcome, label: &str, log: &Log, d: &Deltas) {
    let first_sends = log.recs.len() as f64 - log.count(Class::Hit);
    for (series, want) in [
        (CACHE_HITS, log.count(Class::Hit)),
        (CACHE_MISSES, first_sends),
        (SNAPSHOT_MISSES, log.count(Class::Miss)),
        (SNAPSHOT_HITS, log.count(Class::Twin)),
    ] {
        let got = d.get(series);
        if got != want {
            out.fail(format!(
                "{label}: {series} moved by {got}, the traffic implies {want}"
            ));
        }
    }
}

/// The serve part of the per-layer metric set.
fn serve_layers(
    health_ms: &[f64],
    client_ms: &[f64],
    d: &Deltas,
    parse_us: f64,
    execute_ms: f64,
    retries: u64,
) -> Vec<(&'static str, f64)> {
    let client_mean = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
    vec![
        ("serve.healthz_p50_ms", median(health_ms)),
        ("serve.unattributed_ms", client_mean - d.server_mean_ms()),
        ("serve.parse_us", parse_us),
        (
            "serve.result_cache_hit_ratio",
            d.ratio(CACHE_HITS, CACHE_MISSES),
        ),
        ("serve.execute_ms", execute_ms),
        (
            "serve.snapshot_hit_ratio",
            d.ratio(SNAPSHOT_HITS, SNAPSHOT_MISSES),
        ),
        ("serve.retried_total", retries as f64),
    ]
}

fn reconcile(out: &mut Outcome, label: &str, client_ms: &[f64], health_ms: &[f64], d: &Deltas) {
    let client_mean = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
    let server = d.server_mean_ms();
    out.notes
        .push(format!("{label} /metrics deltas: {}", d.describe()));
    out.notes.push(format!(
        "{label} reconciliation: client mean {client_mean:.3} ms = server mean {server:.3} ms + unattributed {:.3} ms; /healthz p50 {:.3} ms",
        client_mean - server,
        median(health_ms)
    ));
}

/// The end-to-end metrics from the requests of `log` over `wall` seconds.
fn e2e(log: &Log, wall: f64, rss: f64, setup: &[f64]) -> Vec<(&'static str, f64)> {
    let all = log.latencies(None);
    let executed: usize = log
        .recs
        .iter()
        .filter(|r| r.class != Class::Hit)
        .map(|r| r.accesses)
        .sum();
    vec![
        ("sim_maccess_per_s", executed as f64 / wall / 1e6),
        ("req_per_s", all.len() as f64 / wall),
        ("req_p50_ms", percentile(&all, 0.5)),
        ("req_p99_ms", percentile(&all, 0.99)),
        (
            "hit_p50_ms",
            percentile(&log.latencies(Some(Class::Hit)), 0.5),
        ),
        (
            "miss_p50_ms",
            percentile(&log.latencies(Some(Class::Miss)), 0.5),
        ),
        ("peak_rss_mb", rss),
        ("setup_s", median(setup)),
    ]
}

/// `serve-mixed`; see the module documentation.
pub fn serve_mixed(opts: &Opts, tr: &Tracer) -> Result<Outcome, String> {
    use_fixture_trace_dir();
    let bin = serve_binary()?;
    let cycle = rounds(opts.seed);
    let mut out = Outcome {
        settings: vec![
            (
                "traffic",
                "the ci.sh serve smoke sequence, each request sent twice".into(),
            ),
            (
                "accesses_per_request",
                "5000 (64x4 LLC), mixes 8000 (64x8)".into(),
            ),
            ("clients", format!("{CLIENTS} closed-loop")),
            ("executor_threads", "1".into()),
            ("result_cache", RESULT_CACHE.to_string()),
            ("snapshot_slots", SNAPSHOT_SLOTS.to_string()),
            (
                "cycle",
                format!(
                    "{} rounds ({} benchmarks x {} schemes)",
                    cycle.len(),
                    BENCHES.len(),
                    SCHEMES.len()
                ),
            ),
        ],
        ..Outcome::default()
    };

    // Set-up: start the server and wait until it answers, several times.
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Server::start(&bin)?;
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();

    let off = Tracer::new(false, Instant::now());
    let next = AtomicUsize::new(0);
    let health_ms = healthz(&addr, if opts.trace { tr } else { &off }, &mut out);
    let before = scrape(&addr)?;
    let ticks = crate::cpu_ticks();
    // A traced run alternates untraced and traced slices of the same
    // length in rounds, swapping their order every pair so that host drift
    // hits both alike; the overhead is the median over pairs.
    let (mut untraced, mut untraced_wall) = (Log::default(), 0.0);
    let mut traced = Log::default();
    let mut overheads = Vec::new();
    if opts.trace {
        let start = Instant::now();
        while overheads.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
            let mut walls = [0.0; 2];
            let order = if overheads.len() % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for on in order {
                let slice_tr = if on { tr } else { &off };
                let stop = Stop::Rounds(SLICE_ROUNDS);
                let (log, wall) = phase(&addr, &cycle, &next, stop, opts.seed, slice_tr);
                walls[usize::from(on)] = wall;
                if on {
                    traced.merge(log);
                } else {
                    untraced.merge(log);
                    untraced_wall += wall;
                }
            }
            overheads.push((walls[1] / walls[0] - 1.0) * 100.0);
        }
    } else {
        let stop = Stop::At(Instant::now() + Duration::from_secs_f64(opts.seconds));
        (untraced, untraced_wall) = phase(&addr, &cycle, &next, stop, opts.seed, &off);
    }
    out.notes.push(crate::steal_note(ticks));
    let d = Deltas::between(&before, &scrape(&addr)?);
    let rss = crate::peak_rss_mb(&server.pid()).unwrap_or(f64::NAN);
    server.shutdown()?;

    out.e2e = e2e(&untraced, untraced_wall, rss, &setup);
    let mut everything = untraced;
    everything.merge(traced);
    out.attempted += everything.recs.len() as u64;
    out.settings
        .push(("requests", everything.recs.len().to_string()));
    for class in Class::ALL {
        let l = everything.latencies(Some(class));
        out.notes.push(format!(
            "class {:<8} n={:<5} p50 {:.3} ms p99 {:.3} ms",
            class.name(),
            l.len(),
            percentile(&l, 0.5),
            percentile(&l, 0.99)
        ));
    }
    let client_ms = everything.latencies(None);
    out.notes.push(format!(
        "all requests n={} p90 {:.3} ms p95 {:.3} ms p99 {:.3} ms p99.5 {:.3} ms max {:.3} ms",
        client_ms.len(),
        percentile(&client_ms, 0.9),
        percentile(&client_ms, 0.95),
        percentile(&client_ms, 0.99),
        percentile(&client_ms, 0.995),
        percentile(&client_ms, 1.0)
    ));
    reconcile(&mut out, "timed window", &client_ms, &health_ms, &d);
    check_counters(&mut out, "timed window", &everything, &d);
    let (parse_us, execute_ms) = verify(&everything, tr, &mut out);
    if opts.trace {
        let p = crate::probe::simulator_layers(
            tr,
            &mut out,
            &BENCHES,
            crate::sim::probe_len(opts.scale),
            crate::sim::base_geom(),
        );
        let mut layers = crate::probe::simulator_metrics(tr, &p);
        layers.extend(serve_layers(
            &health_ms,
            &client_ms,
            &d,
            parse_us,
            execute_ms,
            everything.retries,
        ));
        layers.push(("trace_overhead_pct", median(&overheads)));
        out.layers = layers;
    }
    Ok(out)
}

/// The serve layers for a workload whose timed passes never touch the
/// service: one round of the smoke sequence with a fresh server, on the
/// workload's first benchmark under `lru`, as ci.sh sends it.
pub fn probe(
    tr: &Tracer,
    out: &mut Outcome,
    bench: &str,
) -> Result<Vec<(&'static str, f64)>, String> {
    use_fixture_trace_dir();
    let bin = serve_binary()?;
    let server = Server::start(&bin)?;
    let health_ms = healthz(&server.addr, tr, out);
    let before = scrape(&server.addr)?;
    let mut log = Log::default();
    let mut rng = SplitMix64::new(0);
    for req in &round(bench, "lru", 0) {
        log.send_twice(&server.addr, req, tr, &mut rng);
    }
    let d = Deltas::between(&before, &scrape(&server.addr)?);
    server.shutdown()?;
    out.attempted += log.recs.len() as u64;
    let client_ms = log.latencies(None);
    reconcile(out, "serve probe", &client_ms, &health_ms, &d);
    check_counters(out, "serve probe", &log, &d);
    let (parse_us, execute_ms) = verify(&log, tr, out);
    Ok(serve_layers(
        &health_ms,
        &client_ms,
        &d,
        parse_us,
        execute_ms,
        log.retries,
    ))
}
