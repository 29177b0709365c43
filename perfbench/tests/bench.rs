//! The benchmark's own tests: every workload at tiny scale prints every
//! metric `BENCHMARK.json` declares, with its unit, and a corrupted digest
//! is reported as a failure rather than passed.

use std::path::{Path, PathBuf};
use std::process::Command;

use stem_sim_core::Json;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at tiny scale; returns (stdout, parsed last line).
fn run(workload: &str, trace: &str, extra: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}: {stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_owned();
    (stdout, Json::parse(&last).expect("last line is JSON"))
}

fn check_metrics(workload: &str, trace: &str, section: &str) {
    let (stdout, result) = run(workload, trace, &[]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let names = declared(section);
    assert_eq!(
        metrics.len(),
        names.len(),
        "{workload}: exactly the declared {section} metrics"
    );
    for (name, unit) in names {
        let m = result.get("metrics").and_then(|m| m.get(&name));
        let m = m.unwrap_or_else(|| panic!("{workload}: {name} missing from {stdout}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(&name) && l.trim_end().ends_with(&unit)),
            "{workload}: report line for {name} [{unit}] missing"
        );
    }
}

#[test]
fn suite_exact_prints_every_metric() {
    check_metrics("suite-exact", "0", "end_to_end");
    check_metrics("suite-exact", "1", "per_layer");
}

#[test]
fn trace_sweep_prints_every_metric() {
    check_metrics("trace-sweep", "0", "end_to_end");
    check_metrics("trace-sweep", "1", "per_layer");
}

#[test]
fn serve_mixed_prints_every_metric() {
    check_metrics("serve-mixed", "0", "end_to_end");
    check_metrics("serve-mixed", "1", "per_layer");
}

#[test]
fn corrupted_digest_is_reported_not_passed() {
    let good = std::fs::read_to_string(manifest_dir().join("digest.txt")).expect("digest");
    let mut corrupted = 0;
    let text: Vec<String> = good
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if corrupted == 0 && f.len() == 5 && f[0] == "tiny" && f[1] == "suite-exact" {
                corrupted += 1;
                let misses: u64 = f[3].parse().expect("miss count");
                format!("{} {} {} {} {}", f[0], f[1], f[2], misses + 1, f[4])
            } else {
                line.to_owned()
            }
        })
        .collect();
    assert_eq!(corrupted, 1, "the digest has tiny suite-exact entries");
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("digest.txt");
    std::fs::write(&path, text.join("\n")).expect("write corrupted digest");

    let (stdout, result) = run(
        "suite-exact",
        "0",
        &["--digest", path.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{stdout}");
    assert!(
        result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{stdout}"
    );
    assert!(
        stdout.contains("digest says"),
        "the mismatch is named: {stdout}"
    );
}
