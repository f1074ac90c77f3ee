//! `servebench` — the end-to-end and per-layer benchmark of `cots-serve`.
//!
//! ```text
//! servebench --server PATH --work DIR --workload NAME --seed N
//!            --seconds S --trace 0|1 [--smoke]
//! servebench --server PATH --work DIR --self-test
//! ```
//!
//! A run starts the real `cots-serve` binary as its own process, drives
//! it from one ingest and one query connection, checks every answer
//! against exact truth, and prints its metrics: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `run.sh` next to
//! this package builds both programs and passes `--server` and `--work`.

mod check;
mod conn;
mod drive;
mod gen;
mod layers;
mod run;
mod server;
mod stat;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;

use cots_core::json::{from_str, Json};

use crate::run::{run, Outcome, RunOpts, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: servebench --server PATH --work DIR (--workload NAME --seed N --seconds S \
         --trace 0|1 [--smoke] | --self-test)"
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        usage()
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None::<String>, None, None, None);
    let (mut server, mut work) = (None::<PathBuf>, None::<PathBuf>);
    let (mut smoke, mut self_test) = (false, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = Some(value("--workload", args.next())),
            "--seed" => seed = Some(value::<u64>("--seed", args.next())),
            "--seconds" => seconds = Some(value::<f64>("--seconds", args.next())),
            "--trace" => trace = Some(value::<u8>("--trace", args.next())),
            "--server" => server = Some(value("--server", args.next())),
            "--work" => work = Some(value("--work", args.next())),
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            _ => usage(),
        }
    }
    let (Some(server), Some(work)) = (server, work) else {
        usage()
    };
    if !server.is_file() {
        eprintln!("servebench: no cots-serve binary at {}", server.display());
        std::process::exit(2);
    }
    if self_test {
        std::process::exit(self_test_main(&server, &work, Path::new("BENCHMARK.json")));
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        eprintln!("servebench: unknown workload `{name}`");
        std::process::exit(2);
    };
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let opts = RunOpts {
        seed,
        seconds,
        trace: trace == 1,
        smoke,
        server,
        work,
    };
    match run(w, &opts) {
        Ok(mut outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            for m in &mut outcome.metrics {
                if !m.value.is_finite() {
                    println!("INVALID: {} is not a finite number", m.name);
                    m.value = 0.0;
                    outcome.correct = false;
                }
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&outcome));
        }
        Err(e) => {
            eprintln!("servebench: {} run failed: {e}", w.name);
            std::process::exit(1);
        }
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Run every workload at smoke scale, traced and untraced, and check
/// that each run passed its checks and printed exactly the metrics
/// `BENCHMARK.json` declares, with their units. Returns the exit code.
fn self_test_main(server: &Path, work: &Path, manifest: &Path) -> i32 {
    let manifest: Json = match std::fs::read_to_string(manifest)
        .map_err(|e| e.to_string())
        .and_then(|t| from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("self-test: cannot read {}: {e}", manifest.display());
            return 1;
        }
    };
    let mut failures = 0;
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if names != ours {
        eprintln!("self-test: BENCHMARK.json workloads {names:?} differ from {ours:?}");
        failures += 1;
    }
    let exe = std::env::current_exe().expect("own executable path");
    for w in &ours {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", "7", "--seconds", "1", "--smoke"])
                .args(["--trace", &trace.to_string()])
                .arg("--server")
                .arg(server)
                .arg("--work")
                .arg(work)
                .output();
            let problem = match out {
                Err(e) => Some(format!("cannot run: {e}")),
                Ok(o) if !o.status.success() => Some(format!(
                    "exit {:?}: {}",
                    o.status.code(),
                    String::from_utf8_lossy(&o.stderr)
                )),
                Ok(o) => {
                    let text = String::from_utf8_lossy(&o.stdout);
                    check_result(
                        text.lines().last().unwrap_or(""),
                        &declared(&manifest, list),
                    )
                }
            };
            match problem {
                None => println!("self-test {w} trace={trace}: PASS"),
                Some(p) => {
                    println!("self-test {w} trace={trace}: FAIL: {p}");
                    failures += 1;
                }
            }
        }
    }
    i32::from(failures > 0)
}

/// Problems with one result line, or `None` when it is complete and
/// correct.
fn check_result(line: &str, declared: &[(String, String)]) -> Option<String> {
    let result: Json = match from_str(line) {
        Ok(j) => j,
        Err(e) => return Some(format!("last line is not JSON ({e}): {line}")),
    };
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Some(format!("result keys {keys:?}"));
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Some("a check failed (correct is not true)".into());
    }
    if result.get("failed").and_then(Json::as_u64) != Some(0) {
        return Some("failed is not 0".into());
    }
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("?");
            (k.clone(), unit.to_string())
        })
        .collect();
    if printed != declared {
        return Some(format!(
            "metrics {printed:?} differ from the declared {declared:?}"
        ));
    }
    if metrics
        .iter()
        .any(|(_, v)| v.get("value").and_then(Json::as_f64).is_none())
    {
        return Some("a metric value is not a number".into());
    }
    None
}
