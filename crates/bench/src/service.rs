//! What the service bench gates share: in-process nodes over loopback,
//! their scratch directories, best-of-R repeats and the BENCH file at the
//! repo root.
//!
//! `serve-bench`, `cluster-bench`, `repl-bench`, `recovery-bench` and
//! `perf-gate` each keep their own gates and BENCH schema; everything a
//! gate measures *with* lives here. Flags go through
//! [`cots_serve::cli`], exact truth through [`cots_datagen::EnvelopeCheck`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use cots_core::json::Json;
use cots_core::CotsError;
use cots_serve::loadgen::CheckReport;
use cots_serve::{Client, LoadReport, Role, Server, Service};

/// The repo root: two levels above this crate's manifest.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

/// Write `report` to `name` at the repo root and print where; exit 1 if
/// the file cannot be written.
pub fn write_bench(name: &str, report: &Json) {
    let path = repo_root().join(name);
    if let Err(e) = fs::write(&path, report.pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// The value of `result`, or exit 1 after printing `context: error`.
pub fn or_exit<T>(result: Result<T, String>, context: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{context}: {e}");
        std::process::exit(1);
    })
}

/// A per-process directory under the system temp dir, removed with
/// everything in it when dropped — on an error path or a panic too. Node
/// data directories live in one.
pub struct Scratch(PathBuf);

impl Scratch {
    /// `$TMPDIR/<bench>-<pid>`.
    pub fn new(bench: &str) -> Self {
        Self(std::env::temp_dir().join(format!("{bench}-{}", std::process::id())))
    }

    /// An empty directory `tag` inside the scratch directory.
    pub fn fresh(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(tag);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The address a node binds: an ephemeral loopback port.
pub const LOOPBACK: &str = "127.0.0.1:0";

/// A [`Server`] — a member service or a coordinator — running on its own
/// thread.
///
/// [`Node::stop`] sends `SHUTDOWN`, joins the thread and surfaces the
/// server's own error. A node dropped without `stop` (an early `?` in a
/// pass) is stopped the same way, its errors ignored, so no error path
/// leaves a server running.
pub struct Node<R: Role = Service> {
    /// The bound address.
    pub addr: String,
    /// The role behind the server.
    pub service: Arc<R>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl<R: Role> Node<R> {
    /// Run a freshly bound server, e.g.
    /// `Node::start(Server::bind_with(LOOPBACK, config, io))`.
    pub fn start(bound: io::Result<Server<R>>) -> Result<Self, String> {
        let server = bound.map_err(|e| format!("bind: {e}"))?;
        Ok(Self {
            addr: server.local_addr().to_string(),
            service: server.service().clone(),
            thread: Some(std::thread::spawn(move || server.run())),
        })
    }

    /// Shut the node down; the first error among the server's own exit
    /// status and the `SHUTDOWN` request is returned.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let stopped = Client::connect(&self.addr)
            .map_err(CotsError::from)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("node {} shutdown: {e}", self.addr));
        // A thread that is still running after a failed SHUTDOWN cannot
        // be joined; it is left detached and the failure reported.
        let exited = if stopped.is_ok() || thread.is_finished() {
            match thread.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("node {}: {e}", self.addr)),
                Err(_) => Err(format!("node {}: thread panicked", self.addr)),
            }
        } else {
            Ok(())
        };
        exited.and(stopped)
    }
}

impl<R: Role> Drop for Node<R> {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Stop every node, even after one fails; return the first error.
pub fn stop_all<R: Role>(nodes: Vec<Node<R>>) -> Result<(), String> {
    nodes.into_iter().map(Node::stop).fold(Ok(()), Result::and)
}

/// Run `pass` `repeats` times and keep the fastest report by throughput:
/// scheduler noise only ever slows a run down, so the fastest repeat is
/// the cleanest estimate.
///
/// `pass` is told whether it is the last repeat, so a caller can pay for
/// the exact-truth check once. Every check that ran must pass: the
/// returned report carries the last check, marked failed if any check
/// failed.
pub fn best_of(
    repeats: usize,
    label: &str,
    mut pass: impl FnMut(bool) -> Result<LoadReport, String>,
) -> Result<LoadReport, String> {
    let mut best: Option<LoadReport> = None;
    let mut last_check: Option<CheckReport> = None;
    let mut all_passed = true;
    for rep in 0..repeats {
        let mut report = pass(rep + 1 == repeats)?;
        println!(
            "  {label} repeat {}/{repeats}: {:.3} M items/s ({:.2}s, {} retries, {} queries)",
            rep + 1,
            report.meps,
            report.elapsed_secs,
            report.overload_retries,
            report.queries_issued
        );
        if let Some(c) = report.check.take() {
            if !c.passed {
                println!(
                    "  {label} CHECK FAILED: {} truly frequent, {} reported, {} missed, \
                     {} bound violations",
                    c.truly_frequent, c.reported, c.missed, c.bound_violations
                );
            }
            all_passed &= c.passed;
            last_check = Some(c);
        }
        if best.as_ref().is_none_or(|b| report.meps > b.meps) {
            best = Some(report);
        }
    }
    let mut best = best.ok_or_else(|| String::from("repeats must be positive"))?;
    best.check = last_check.map(|c| CheckReport {
        passed: all_passed,
        ..c
    });
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(meps: f64, check: Option<bool>) -> LoadReport {
        LoadReport {
            items: 100,
            elapsed_secs: 1.0,
            meps,
            overload_retries: 0,
            queries_issued: 0,
            latency: None,
            wire: None,
            check: check.map(|passed| CheckReport {
                phi: 0.01,
                threshold: 1,
                truly_frequent: 3,
                reported: 4,
                missed: usize::from(!passed),
                bound_violations: 0,
                passed,
            }),
        }
    }

    /// Feed `runs` to `best_of` in order, recording the `last` flags.
    fn run(runs: Vec<LoadReport>) -> (Result<LoadReport, String>, Vec<bool>) {
        let n = runs.len();
        let mut runs = runs.into_iter();
        let mut lasts = Vec::new();
        let best = best_of(n, "t", |last| {
            lasts.push(last);
            Ok(runs.next().expect("one report per repeat"))
        });
        (best, lasts)
    }

    #[test]
    fn picks_the_fastest_repeat() {
        let (best, lasts) = run(vec![
            report(2.0, None),
            report(5.0, None),
            report(3.0, Some(true)),
        ]);
        let best = best.unwrap();
        assert_eq!(best.meps, 5.0);
        assert_eq!(lasts, [false, false, true]);
        assert!(best.check.is_some_and(|c| c.passed));
    }

    #[test]
    fn any_failed_check_fails_the_result() {
        // The failing repeat is the slowest, not the one kept.
        let (best, _) = run(vec![report(1.0, Some(false)), report(4.0, Some(true))]);
        let best = best.unwrap();
        assert_eq!(best.meps, 4.0);
        assert!(best.check.is_some_and(|c| !c.passed));
    }

    #[test]
    fn keeps_the_last_check() {
        let mut first = report(9.0, Some(true));
        first.check.as_mut().unwrap().reported = 99;
        let (best, _) = run(vec![first, report(1.0, Some(true))]);
        let best = best.unwrap();
        assert_eq!(best.meps, 9.0);
        assert_eq!(best.check.map(|c| c.reported), Some(4));
    }

    #[test]
    fn stopped_and_dropped_nodes_shut_down_and_scratch_cleans_up() {
        let scratch = Scratch::new("cots-service-test");
        let node = |tag: &str| {
            let dir = scratch.fresh(tag).unwrap();
            let config = cots_serve::ServiceConfig {
                shards: 1,
                capacity: 10,
                persist: Some(cots_serve::PersistOptions::new(dir)),
                ..Default::default()
            };
            Node::start(Server::bind(LOOPBACK, config)).unwrap()
        };
        let (a, b) = (node("a"), node("b"));
        let addrs = [a.addr.clone(), b.addr.clone()];
        stop_all(vec![a]).unwrap();
        drop(b);
        for addr in addrs {
            assert!(Client::connect(&addr).is_err(), "{addr} still serves");
        }
        let root = scratch.0.clone();
        assert!(root.join("a").exists() && root.join("b").exists());
        drop(scratch);
        assert!(!root.exists());
    }

    #[test]
    fn pass_errors_propagate() {
        let best = best_of(3, "t", |_| Err("boom".to_string()));
        assert_eq!(best.unwrap_err(), "boom");
    }
}
