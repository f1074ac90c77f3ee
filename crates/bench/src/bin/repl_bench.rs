//! `repl-bench` — replication cost and failover benchmark for
//! `cots-repl`.
//!
//! Measures what a replica pair costs and what it buys: ingest
//! throughput through a primary that is simultaneously shipping its
//! WAL to a live standby, versus an identical unreplicated server at
//! the same fsync policy; and the failover recovery time from "primary
//! gone" to the *first correct answer* out of the promoted standby.
//! Writes `BENCH_repl.json` at the repo root.
//!
//! ```text
//! repl-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] [--seed S]
//!            [--capacity C] [--connections K] [--shards S] [--queue-batches Q]
//!            [--fsync always|grouped|off] [--repeats R]
//!            [--parity-floor 0.7] [--rto-secs 2.0]
//! ```
//!
//! Three gates, all fatal:
//! * **parity** — pair ingest ≥ `--parity-floor` (default 0.7×) of the
//!   unreplicated baseline. Shipping rides the already-committed WAL,
//!   so its cost is one tailer read plus one socket write per batch —
//!   it must not halve the primary.
//! * **RTO** — after the primary is gone, `REPL_PROMOTE` to first
//!   *correct* answer (all shipped mass applied, staleness 0, answers
//!   inside the envelope) within `--rto-secs` (default 2 s).
//! * **accuracy** — the promoted standby's answers sit inside
//!   `count ≥ true ≥ count − error` against exact ground truth over
//!   the acked stream, and every sufficiently heavy exact hitter is
//!   monitored.

use std::time::{Duration, Instant};

use cots_bench::service::{best_of, or_exit, write_bench, Node, Scratch, LOOPBACK};
use cots_core::json::{Json, ToJson};
use cots_core::Threshold;
use cots_datagen::{EnvelopeCheck, ExactCounter, StreamSpec};
use cots_persist::FsyncPolicy;
use cots_repl::{spawn as spawn_shipper, ShipperConfig};
use cots_serve::cli::Args;
use cots_serve::loadgen::{self, LoadConfig};
use cots_serve::persistence::PersistOptions;
use cots_serve::protocol::QueryReq;
use cots_serve::{Client, LoadReport, Request, Response, Server, ServiceConfig};

struct BenchArgs {
    items: u64,
    batch: usize,
    alphabet: usize,
    alpha: f64,
    seed: u64,
    capacity: usize,
    connections: usize,
    shards: usize,
    queue_batches: usize,
    fsync: FsyncPolicy,
    repeats: usize,
    parity_floor: f64,
    rto_secs: f64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            items: 800_000,
            batch: 4_096,
            alphabet: 50_000,
            alpha: 1.5,
            seed: 42,
            capacity: 1_000,
            connections: 4,
            shards: 1,
            queue_batches: 2,
            fsync: FsyncPolicy::Always,
            repeats: 3,
            parity_floor: 0.7,
            rto_secs: 2.0,
        }
    }
}

const USAGE: &str =
    "usage: repl-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] [--seed S] \
     [--capacity C] [--connections K] [--shards S] [--queue-batches Q] \
     [--fsync always|grouped|off] [--repeats R] [--parity-floor F] [--rto-secs S]";

fn bench_args() -> BenchArgs {
    let mut a = BenchArgs::default();
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--items" => a.items = args.value(&arg),
            "--batch" => a.batch = args.value(&arg),
            "--alphabet" => a.alphabet = args.value(&arg),
            "--alpha" => a.alpha = args.value(&arg),
            "--seed" => a.seed = args.value(&arg),
            "--capacity" => a.capacity = args.value(&arg),
            "--connections" => a.connections = args.value(&arg),
            "--shards" => a.shards = args.value(&arg),
            "--queue-batches" => a.queue_batches = args.value(&arg),
            "--fsync" => a.fsync = args.value(&arg),
            "--repeats" => a.repeats = args.value(&arg),
            "--parity-floor" => a.parity_floor = args.value(&arg),
            "--rto-secs" => a.rto_secs = args.value(&arg),
            other => args.unknown(other),
        }
    }
    if a.items == 0 || a.batch == 0 || a.capacity == 0 || a.connections == 0 || a.repeats == 0 {
        args.fail("--items, --batch, --capacity, --connections and --repeats must be positive");
    }
    if a.shards == 0 || a.queue_batches == 0 {
        args.fail("--shards and --queue-batches must be positive");
    }
    a
}

/// Start one durable node in `scratch/tag`.
fn start_node(
    a: &BenchArgs,
    scratch: &Scratch,
    tag: &str,
    standby: bool,
    peer: Option<String>,
) -> Result<Node, String> {
    let mut persist = PersistOptions::new(scratch.fresh(tag)?);
    persist.fsync = a.fsync;
    // Keep checkpoints out of the measured window.
    persist.checkpoint_every = Duration::from_secs(120);
    Node::start(Server::bind(
        LOOPBACK,
        ServiceConfig {
            shards: a.shards,
            capacity: a.capacity,
            refresh: Duration::from_millis(5),
            queue_batches: a.queue_batches,
            persist: Some(persist),
            standby,
            repl_peer: peer,
            ..Default::default()
        },
    ))
}

fn drive(a: &BenchArgs, addr: &str, check: bool) -> Result<LoadReport, String> {
    loadgen::run(&LoadConfig {
        addr: addr.to_string(),
        items: a.items,
        alphabet: a.alphabet,
        alpha: a.alpha,
        seed: a.seed,
        batch: a.batch,
        connections: a.connections,
        qps: 0,
        check,
        ..LoadConfig::default()
    })
    .map_err(|e| format!("load: {e}"))
}

/// The unreplicated baseline: one durable server, no shipping.
fn direct_pass(a: &BenchArgs, check: bool) -> Result<LoadReport, String> {
    let scratch = Scratch::new("cots-repl-bench");
    let node = start_node(a, &scratch, "direct", false, None)?;
    let report = drive(a, &node.addr, check)?;
    node.stop()?;
    Ok(report)
}

/// Failover measurement: primary is gone, `REPL_PROMOTE` fires, and
/// the clock runs until the promoted standby's answer is *correct* —
/// all `expected` items applied, staleness 0.
fn measure_rto(standby_addr: &str, expected: u64, deadline: Duration) -> Result<f64, String> {
    let mut client = Client::connect(standby_addr).map_err(|e| format!("connect standby: {e}"))?;
    let t0 = Instant::now();
    match client
        .call(&Request::ReplPromote)
        .map_err(|e| format!("promote: {e}"))?
    {
        Response::ReplAck { .. } => {}
        other => return Err(format!("promote refused: {other:?}")),
    }
    loop {
        let (_, total, stamp) = client
            .query(QueryReq::TopK { k: 1 })
            .map_err(|e| format!("standby query: {e}"))?;
        if total == expected && stamp.staleness == 0 {
            return Ok(t0.elapsed().as_secs_f64());
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "promoted standby never served a correct answer: total {total}/{expected}, \
                 staleness {}",
                stamp.staleness
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Envelope + coverage check of the promoted standby against exact
/// ground truth over the acked stream.
fn check_accuracy(a: &BenchArgs, standby_addr: &str) -> Result<(), String> {
    let stream = StreamSpec::zipf(a.items as usize, a.alphabet, a.alpha, a.seed).generate();
    let exact = ExactCounter::from_stream(&stream);
    let mut client = Client::connect(standby_addr).map_err(|e| format!("connect standby: {e}"))?;
    let (mut entries, total, _) = client
        .query(QueryReq::TopK { k: 50 })
        .map_err(|e| format!("standby query: {e}"))?;
    if total != a.items {
        return Err(format!("standby total {total} != streamed {}", a.items));
    }
    // Every exact hitter above 1% of the mass must be monitored and
    // inside the envelope (the summary holds `capacity` counters; a
    // 1%-heavy key cannot have been evicted).
    let threshold = Threshold::Fraction(0.01).resolve(a.items);
    let hitters = exact.frequent(Threshold::Count(threshold));
    if hitters.is_empty() {
        return Err("no exact hitter crossed 1% — accuracy check checked nothing".into());
    }
    for (key, _) in hitters {
        let (point, _, _) = client
            .query(QueryReq::Point { key })
            .map_err(|e| format!("standby point: {e}"))?;
        entries.extend(point.first().copied());
    }
    let envelope = EnvelopeCheck::of(&entries, &exact, threshold);
    if !envelope.passed() {
        return Err(format!(
            "{} of {} heavy keys not monitored, {} answers outside the envelope",
            envelope.missed, envelope.truly_frequent, envelope.bound_violations
        ));
    }
    Ok(())
}

/// What the failover repeat measured.
struct Failover {
    rto_secs: f64,
    accuracy_ok: bool,
}

/// One pair pass: standby + primary + live WAL shipper, one measured
/// load run; on the failover repeat the primary is then torn down and
/// the promotion clock runs.
fn pair_pass(a: &BenchArgs, failover: bool) -> Result<(LoadReport, Option<Failover>), String> {
    let scratch = Scratch::new("cots-repl-bench");
    let standby = start_node(a, &scratch, "standby", true, None)?;
    let primary = start_node(a, &scratch, "primary", false, Some(standby.addr.clone()))?;
    let service = primary.service.clone();
    let mut cfg = ShipperConfig::new(standby.addr.clone());
    cfg.poll_interval = Duration::from_millis(2);
    let shipper = spawn_shipper(service.clone(), cfg).map_err(|e| format!("shipper: {e}"))?;

    let result = drive(a, &primary.addr, failover);

    // Let the shipper drain so the standby holds the full stream; the
    // drain window is honest replication lag, but the RTO measured
    // below starts at "primary gone", not "stream sent".
    let drained = (|| -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let stats = service.stats();
            if stats
                .repl
                .as_ref()
                .is_some_and(|r| r.connected && r.unacked_batches == 0)
                && stats.applied_keys() == a.items
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!("shipper never drained: {:?}", stats.repl));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    })();

    shipper.stop();
    let report = result?;
    drained?;

    // Failover: the primary goes away first, then the standby is
    // promoted and must serve a correct, accurate answer.
    primary.stop()?;
    let failover = if failover {
        let rto_secs = measure_rto(
            &standby.addr,
            a.items,
            Duration::from_secs_f64(a.rto_secs.max(1.0) * 10.0),
        )?;
        println!("  failover RTO {rto_secs:.3}s");
        let accuracy_ok = match check_accuracy(a, &standby.addr) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("repl-bench: accuracy check failed: {e}");
                false
            }
        };
        Some(Failover {
            rto_secs,
            accuracy_ok,
        })
    } else {
        None
    };
    standby.stop()?;
    Ok((report, failover))
}

fn main() {
    let a = bench_args();
    println!(
        "repl-bench: items={} batch={} alphabet={} alpha={} capacity={} connections={} \
         fsync={:?} repeats={}",
        a.items, a.batch, a.alphabet, a.alpha, a.capacity, a.connections, a.fsync, a.repeats
    );

    println!("unreplicated baseline:");
    let mut direct = or_exit(
        best_of(a.repeats, "direct", |check| direct_pass(&a, check)),
        "repl-bench: baseline failed",
    );

    println!("replicated pair (primary shipping to a live standby):");
    let mut failover = None;
    let mut pair = or_exit(
        best_of(a.repeats, "pair", |last| {
            let (report, f) = pair_pass(&a, last)?;
            failover = failover.take().or(f);
            Ok(report)
        }),
        "repl-bench: pair pass failed",
    );
    let Failover {
        rto_secs: rto,
        accuracy_ok: accuracy,
    } = failover.expect("the last repeat fails over");
    let checks_passed = direct.check_passed() && pair.check_passed();
    // BENCH_repl records the answer checks only as the gate's `checks_passed`.
    (direct.check, pair.check) = (None, None);

    let parity_ratio = if direct.meps > 0.0 {
        pair.meps / direct.meps
    } else {
        0.0
    };
    let parity_ok = parity_ratio >= a.parity_floor;
    let rto_ok = rto <= a.rto_secs;
    let passed = parity_ok && rto_ok && accuracy && checks_passed;

    let fsync_name = match a.fsync {
        FsyncPolicy::Always => "always",
        FsyncPolicy::Grouped => "grouped",
        FsyncPolicy::Off => "off",
    };
    let report = Json::obj(vec![
        ("items", a.items.to_json()),
        ("batch", a.batch.to_json()),
        ("alphabet", a.alphabet.to_json()),
        ("alpha", a.alpha.to_json()),
        ("seed", a.seed.to_json()),
        ("capacity", a.capacity.to_json()),
        ("connections", a.connections.to_json()),
        ("shards", a.shards.to_json()),
        ("queue_batches", a.queue_batches.to_json()),
        ("fsync", fsync_name.to_json()),
        ("repeats", a.repeats.to_json()),
        ("direct", direct.to_json()),
        ("pair", pair.to_json()),
        (
            "gate",
            Json::obj(vec![
                ("parity_ratio", parity_ratio.to_json()),
                ("parity_floor", a.parity_floor.to_json()),
                ("rto_secs", rto.to_json()),
                ("rto_bound_secs", a.rto_secs.to_json()),
                ("accuracy_ok", accuracy.to_json()),
                ("checks_passed", checks_passed.to_json()),
                ("passed", passed.to_json()),
            ]),
        ),
    ]);
    write_bench("BENCH_repl.json", &report);
    println!(
        "direct {:.3} M items/s | pair {:.3} | parity {parity_ratio:.3} (floor {}) {} | \
         RTO {rto:.3}s (bound {}s) {} | accuracy {} => {}",
        direct.meps,
        pair.meps,
        a.parity_floor,
        if parity_ok { "OK" } else { "FAIL" },
        a.rto_secs,
        if rto_ok { "OK" } else { "FAIL" },
        if accuracy { "PASS" } else { "FAIL" },
        if passed { "PASS" } else { "FAIL" }
    );
    if !passed {
        eprintln!("repl-bench: gate failed");
        std::process::exit(1);
    }
}
