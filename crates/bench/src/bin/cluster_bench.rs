//! `cluster-bench` — federation scaling benchmark for `cots-cluster`.
//!
//! Measures end-to-end ingest throughput (first frame to *all items
//! applied on every member*) through one in-process `cots-coord`
//! coordinator fronting 1, 2, and 4 in-process members over loopback,
//! and writes `BENCH_cluster.json` at the repo root.
//!
//! ```text
//! cluster-bench [--items N] [--batch B] [--alphabet A] [--alpha Z]
//!               [--capacity C] [--connections K] [--shards S] [--queue-batches Q]
//!               [--coalesce K] [--repeats R] [--scaling-floor F] [--parity-floor F]
//! ```
//!
//! Every member runs with a durable WAL at `--fsync always`, which is
//! the deployment the cluster exists for: each member's worker blocks
//! on an fsync per drain group, and those stalls overlap *across*
//! members while a single member must eat them serially. That overlap
//! is measurable even on a single-core host — the paper's thesis
//! (parallelism hides per-partition stalls) applied to durability
//! instead of CPU.
//!
//! Two gates, both fatal:
//! * **scaling** — 2-member throughput ≥ `--scaling-floor` (default
//!   1.5×) the 1-member coordinator throughput;
//! * **parity** — the coordinator fronting a single member must reach
//!   `--parity-floor` (default 0.7×) of a *direct* single server with
//!   identical durability, and the final federated answer check
//!   against exact ground truth must pass at every point.
//!
//! The 4-member point is recorded but not gating: on small hosts the
//! extra wire hops eventually outweigh additional overlap, which is
//! honest data worth keeping, not a regression.

use std::path::PathBuf;
use std::time::Duration;

use cots_bench::service::{best_of, or_exit, stop_all, write_bench, Node, Scratch, LOOPBACK};
use cots_cluster::{CoordConfig, Coordinator};
use cots_core::json::{Json, ToJson};
use cots_persist::FsyncPolicy;
use cots_serve::cli::Args;
use cots_serve::loadgen::{self, LoadConfig};
use cots_serve::persistence::PersistOptions;
use cots_serve::{LoadReport, Server, ServiceConfig};

/// Member counts visited, in order. 1 doubles as the scaling baseline.
const MEMBER_POINTS: [usize; 3] = [1, 2, 4];

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
    coalesce: usize,
    repeats: usize,
    scaling_floor: f64,
    parity_floor: f64,
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
            coalesce: 8_192,
            repeats: 3,
            scaling_floor: 1.5,
            parity_floor: 0.7,
        }
    }
}

const USAGE: &str = "usage: cluster-bench [--items N] [--batch B] [--alphabet A] [--alpha Z] \
     [--seed S] [--capacity C] [--connections K] [--shards S] [--queue-batches Q] \
     [--coalesce K] [--repeats R] [--scaling-floor F] [--parity-floor F]";

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
            "--coalesce" => a.coalesce = args.value(&arg),
            "--repeats" => a.repeats = args.value(&arg),
            "--scaling-floor" => a.scaling_floor = args.value(&arg),
            "--parity-floor" => a.parity_floor = args.value(&arg),
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

/// Start one durable member on an ephemeral loopback port.
fn start_member(a: &BenchArgs, dir: PathBuf) -> Result<Node, String> {
    let mut persist = PersistOptions::new(dir);
    persist.fsync = FsyncPolicy::Always;
    // Keep checkpoints out of the measured window; the WAL alone
    // carries durability for a run this short.
    persist.checkpoint_every = Duration::from_secs(120);
    Node::start(Server::bind(
        LOOPBACK,
        ServiceConfig {
            shards: a.shards,
            capacity: a.capacity,
            refresh: Duration::from_millis(10),
            queue_batches: a.queue_batches,
            persist: Some(persist),
            ..Default::default()
        },
    ))
}

/// Drive one load run against `addr` and return the report.
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

/// One coordinator pass at `n` members: fresh members, fresh
/// coordinator, one measured load run, teardown.
fn coord_pass(a: &BenchArgs, n: usize, check: bool) -> Result<LoadReport, String> {
    let scratch = Scratch::new("cots-cluster-bench");
    let members = (0..n)
        .map(|i| start_member(a, scratch.fresh(&format!("m{i}"))?))
        .collect::<Result<Vec<_>, _>>()?;
    let coord = Node::start(Coordinator::bind(
        LOOPBACK,
        CoordConfig {
            members: members.iter().map(|m| m.addr.clone()).collect(),
            capacity: a.capacity,
            pull_interval: Duration::from_millis(20),
            coalesce_keys: a.coalesce,
            ..Default::default()
        },
    ))?;
    let report = drive(a, &coord.addr, check)?;
    coord.stop()?;
    stop_all(members)?;
    Ok(report)
}

/// The no-coordinator baseline: the same durable member driven directly.
fn direct_pass(a: &BenchArgs, check: bool) -> Result<LoadReport, String> {
    let scratch = Scratch::new("cots-cluster-bench");
    let member = start_member(a, scratch.fresh("direct")?)?;
    let report = drive(a, &member.addr, check)?;
    member.stop()?;
    Ok(report)
}

fn main() {
    let a = bench_args();
    println!(
        "cluster-bench: items={} batch={} alphabet={} alpha={} capacity={} connections={} \
         queue-batches={} repeats={} (members at --fsync always)",
        a.items, a.batch, a.alphabet, a.alpha, a.capacity, a.connections, a.queue_batches, a.repeats
    );

    println!("direct baseline (no coordinator):");
    let direct = or_exit(
        best_of(a.repeats, "direct", |check| direct_pass(&a, check)),
        "cluster-bench: direct baseline failed",
    );

    let mut points = Vec::new();
    let mut by_members = std::collections::BTreeMap::new();
    let mut checks_passed = direct.check_passed();
    for n in MEMBER_POINTS {
        println!("coordinator fronting {n} member(s):");
        let report = or_exit(
            best_of(a.repeats, &format!("{n}m"), |check| {
                coord_pass(&a, n, check)
            }),
            &format!("cluster-bench: {n}-member pass failed"),
        );
        checks_passed &= report.check_passed();
        by_members.insert(n, report.meps);
        points.push(Json::obj(vec![
            ("members", n.to_json()),
            ("report", report.to_json()),
        ]));
    }

    let one = by_members.get(&1).copied().unwrap_or(0.0);
    let two = by_members.get(&2).copied().unwrap_or(0.0);
    let scaling_ratio = if one > 0.0 { two / one } else { 0.0 };
    let parity_ratio = if direct.meps > 0.0 {
        one / direct.meps
    } else {
        0.0
    };
    let scaling_ok = scaling_ratio >= a.scaling_floor;
    let parity_ok = parity_ratio >= a.parity_floor;
    let passed = scaling_ok && parity_ok && checks_passed;

    let report = Json::obj(vec![
        ("items", a.items.to_json()),
        ("batch", a.batch.to_json()),
        ("alphabet", a.alphabet.to_json()),
        ("alpha", a.alpha.to_json()),
        ("seed", a.seed.to_json()),
        ("capacity", a.capacity.to_json()),
        ("connections", a.connections.to_json()),
        ("shards", a.shards.to_json()),
        ("coalesce", a.coalesce.to_json()),
        ("queue_batches", a.queue_batches.to_json()),
        ("repeats", a.repeats.to_json()),
        ("fsync", "always".to_json()),
        ("direct", direct.to_json()),
        ("points", Json::Arr(points)),
        (
            "gate",
            Json::obj(vec![
                ("scaling_ratio", scaling_ratio.to_json()),
                ("scaling_floor", a.scaling_floor.to_json()),
                ("parity_ratio", parity_ratio.to_json()),
                ("parity_floor", a.parity_floor.to_json()),
                ("checks_passed", checks_passed.to_json()),
                ("passed", passed.to_json()),
            ]),
        ),
    ]);
    write_bench("BENCH_cluster.json", &report);
    println!(
        "direct {:.3} M items/s | 1m {:.3} | 2m {:.3} | 4m {:.3}",
        direct.meps,
        one,
        two,
        by_members.get(&4).copied().unwrap_or(0.0)
    );
    println!(
        "gates: scaling {scaling_ratio:.3} (floor {}) {} | parity {parity_ratio:.3} (floor {}) {} \
         | checks {} => {}",
        a.scaling_floor,
        if scaling_ok { "OK" } else { "FAIL" },
        a.parity_floor,
        if parity_ok { "OK" } else { "FAIL" },
        if checks_passed { "PASS" } else { "FAIL" },
        if passed { "PASS" } else { "FAIL" }
    );
    if !passed {
        eprintln!("cluster-bench: gate failed");
        std::process::exit(1);
    }
}
