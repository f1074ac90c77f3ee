//! One workload run: start the server, drive both phases, check every
//! answer, restart, and turn the observations into metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use cots_core::json::Json;
use cots_serve::{QueryReq, Request, Response};

use crate::check::{check_frequent, check_live, check_top_k, LiveAnswer};
use crate::conn::Conn;
use crate::drive::{
    closed_loop, open_loop, query_loop, IngestResult, QueryKind, QueryPlan, QueryResult, Shared,
    PHI, TOP_K,
};
use crate::gen::{KeyStream, Truth, FRAME_KEYS};
use crate::layers;
use crate::server::{
    await_quiescence, copy_dir, field, stats, stats_delta, ServerProc, ServerSpec,
};
use crate::stat::{beyond_p99, median, percentile, windowed};
use crate::trace::{self_times, spans_json, Tracer};

/// One traffic mix against `cots-serve --shards 2 --capacity 1000`.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Zipf skew of the key stream.
    pub alpha: f64,
    /// Distinct keys the stream draws from.
    pub alphabet: usize,
    /// Frames of the closed-loop phase.
    pub closed_frames: u64,
    /// Open-loop key rate, keys/s (about a third of the closed-loop rate).
    pub open_rate: f64,
    /// Query schedule, in both phases.
    pub queries: QueryPlan,
    /// Run with `--data-dir`, `--fsync always`, `--checkpoint-ms 0`.
    pub durable: bool,
    /// `CHECKPOINT` after every this many keys (0 = never).
    pub checkpoint_every: u64,
}

const FREQUENT: &[QueryKind] = &[QueryKind::Frequent];
const MIXED: &[QueryKind] = &[QueryKind::Frequent, QueryKind::TopK, QueryKind::Point];

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "zipf-mem",
        alpha: 1.5,
        alphabet: 100_000,
        closed_frames: 3_660,
        open_rate: 3_000_000.0,
        queries: QueryPlan {
            qps: 100.0,
            mix: FREQUENT,
        },
        durable: false,
        checkpoint_every: 0,
    },
    Workload {
        name: "zipf-durable",
        alpha: 1.5,
        alphabet: 100_000,
        closed_frames: 2_196,
        open_rate: 2_200_000.0,
        queries: QueryPlan {
            qps: 100.0,
            mix: FREQUENT,
        },
        durable: true,
        checkpoint_every: 256 * FRAME_KEYS as u64,
    },
    Workload {
        name: "churn-query",
        alpha: 1.1,
        alphabet: 1_000_000,
        closed_frames: 1_098,
        open_rate: 500_000.0,
        queries: QueryPlan {
            qps: 1000.0,
            mix: MIXED,
        },
        durable: false,
        checkpoint_every: 0,
    },
];

/// Share of `--seconds` the open loop runs for; the closed loop takes
/// about the rest.
const OPEN_SHARE: f64 = 0.7;
/// A run whose generator p99 lateness exceeds this many ms is invalid.
const GEN_LATE_BOUND_MS: f64 = 10.0;
/// Rounds of closed loop then open loop; `ingest_mips` is the median
/// of the rounds' closed-loop rates.
const ROUNDS: u64 = 6;
/// Consecutive samples per latency window: each window's p99 rests on
/// 10 samples beyond it.
const WINDOW: usize = 1000;
/// Frames each in-process layer pass replays (about 2 M keys).
const LAYER_FRAMES: usize = 256;
/// Keys the standalone engine pass is fed, at most.
const ENGINE_KEYS: usize = 8 << 20;

/// How to run.
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny scale, for the self-test.
    pub smoke: bool,
    /// The `cots-serve` executable.
    pub server: PathBuf,
    /// Scratch directory for data directories and trace output.
    pub work: PathBuf,
}

/// A named measurement.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Frames, queries and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Every check passed.
    pub correct: bool,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

fn err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Run both phases on one connection pair; the query loop runs on a
/// second thread next to `ingest`.
#[allow(clippy::too_many_arguments)]
fn phase(
    conn: &mut Conn,
    qconn: &mut Conn,
    w: &Workload,
    stream: &KeyStream,
    seed: u64,
    shared: &Shared,
    open: bool,
    epoch: Instant,
    tracer: &mut Tracer,
    ingest: impl FnOnce(&mut Conn, &mut Tracer) -> io::Result<IngestResult>,
) -> io::Result<(IngestResult, QueryResult)> {
    shared.ingest_done.store(false, Ordering::Release);
    let qtracer = tracer.fork();
    std::thread::scope(|s| {
        let h = s.spawn(move || {
            let mut qtracer = qtracer;
            let r = query_loop(
                qconn,
                &w.queries,
                stream,
                seed,
                shared,
                open,
                epoch,
                &mut qtracer,
            );
            (r, qtracer)
        });
        let ing = ingest(conn, tracer);
        shared.ingest_done.store(true, Ordering::Release);
        let (q, qtracer) = h.join().expect("query thread panicked");
        tracer.absorb(qtracer);
        Ok((ing?, q?))
    })
}

/// Where each round's frames sit in the stream: round `r` sends
/// `closed_per_round` closed-loop frames, then `open_per_round`
/// open-loop frames, so the stream is sent in index order.
pub struct Layout {
    closed_per_round: u64,
    open_per_round: u64,
    rounds: u64,
}

impl Layout {
    fn new(closed_frames: u64, open_frames: u64, rounds: u64) -> Self {
        Self {
            closed_per_round: closed_frames.div_ceil(rounds),
            open_per_round: open_frames.div_ceil(rounds),
            rounds,
        }
    }

    fn round_start(&self, r: u64) -> u64 {
        r * (self.closed_per_round + self.open_per_round)
    }

    /// Closed-loop frame indices of round `r`.
    fn closed(&self, r: u64) -> std::ops::Range<u64> {
        let s = self.round_start(r);
        s..s + self.closed_per_round
    }

    /// Open-loop frame indices of round `r`.
    fn open(&self, r: u64) -> std::ops::Range<u64> {
        let s = self.round_start(r) + self.closed_per_round;
        s..s + self.open_per_round
    }

    /// Frames in the whole run.
    fn total(&self) -> u64 {
        self.round_start(self.rounds)
    }
}

/// Add one phase's `STATS` delta into a running sum, keeping field order.
fn add_delta(sum: &mut Vec<(String, f64)>, delta: Vec<(String, f64)>) {
    for (k, v) in delta {
        match sum.iter_mut().find(|(name, _)| *name == k) {
            Some((_, total)) => *total += v,
            None => sum.push((k, v)),
        }
    }
}

fn fresh_dir(path: PathBuf) -> io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(&path)?;
    }
    Ok(path)
}

/// Quiescent checks of the full answer set: `frequent(φ)`, plus
/// `top-k` when the workload queries it. `expect` is the stream mass the
/// server must hold.
fn quiescent_checks(
    conn: &mut Conn,
    w: &Workload,
    truth: &Truth,
    stream: &KeyStream,
    index: &std::collections::HashMap<u64, u32>,
    label: &str,
    report: &mut Vec<String>,
) -> io::Result<(u64, u64)> {
    let mut queries = vec![QueryReq::Frequent { phi: PHI }];
    if w.queries.mix.iter().any(|k| matches!(k, QueryKind::TopK)) {
        queries.push(QueryReq::TopK { k: TOP_K });
    }
    let mut failed = 0;
    for q in &queries {
        let Response::Answer {
            entries,
            total,
            stamp,
        } = conn.call(&Request::Query(q.clone()))?
        else {
            return Err(err("quiescent query was not answered"));
        };
        let (passed, detail) = if total != truth.total || stamp.staleness != 0 {
            (
                false,
                format!(
                    "total {total} of {}, staleness {}",
                    truth.total, stamp.staleness
                ),
            )
        } else if truth.total == 0 {
            (
                entries.is_empty(),
                format!("{} entries on an empty server", entries.len()),
            )
        } else {
            let c = match q {
                QueryReq::TopK { .. } => check_top_k(&entries, truth, stream, index),
                _ => check_frequent(&entries, PHI, truth, stream, index),
            };
            (
                c.passed(),
                format!(
                    "{} reported, {} truly frequent, {} missed, {} bound violations",
                    entries.len(),
                    c.truly_frequent,
                    c.missed,
                    c.bound_violations
                ),
            )
        };
        report.push(format!(
            "check {label} {q:?}: {detail} => {}",
            if passed { "PASS" } else { "FAIL" }
        ));
        failed += u64::from(!passed);
    }
    Ok((queries.len() as u64, failed))
}

/// For each ack, the time until the first answer whose captured total
/// covers every key acked by then, ms. Both sequences are in time order
/// and non-decreasing in keys.
fn freshness(acks: &[(u64, u64)], answers: &[(u64, u64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(acks.len());
    let mut j = 0;
    for &(t, keys) in acks {
        while j < answers.len() && (answers[j].0 < t || answers[j].1 < keys) {
            j += 1;
        }
        let Some(&(ta, _)) = answers.get(j) else {
            break;
        };
        out.push((ta - t) as f64 / 1e6);
    }
    out
}

/// The closed-loop segments alone on a fresh server, untraced: the
/// reference for `trace.overhead_ratio`.
fn reference_ingest_mips(
    w: &Workload,
    opts: &RunOpts,
    stream: &KeyStream,
    closed: &[u64],
    layout: &Layout,
    epoch: Instant,
) -> io::Result<f64> {
    let dir = match w.durable {
        true => Some(fresh_dir(
            opts.work.join(format!("data-{}-reference", w.name)),
        )?),
        false => None,
    };
    let spec = ServerSpec {
        binary: opts.server.clone(),
        data_dir: dir.clone(),
    };
    let (proc, mut conn, _) = spec.spawn()?;
    let mut qconn = Conn::connect(&proc.addr)?;
    let shared = Shared::default();
    let mut off = Tracer::new(epoch, false);
    let ckpt = (w.checkpoint_every > 0).then_some(w.checkpoint_every);
    let per_round = layout.closed_per_round as usize * FRAME_KEYS;
    let mut mips = Vec::new();
    for (r, keys) in closed.chunks(per_round).enumerate() {
        // Only closed-loop frames go to this server, so they are sent as
        // one contiguous prefix.
        let first = r as u64 * layout.closed_per_round;
        let (ir, _) = phase(
            &mut conn,
            &mut qconn,
            w,
            stream,
            opts.seed,
            &shared,
            false,
            epoch,
            &mut off,
            |c, t| closed_loop(c, keys, first, ckpt, &shared, t),
        )?;
        mips.push(keys.len() as f64 / ir.elapsed_s / 1e6);
    }
    proc.kill()?;
    if let Some(d) = dir {
        std::fs::remove_dir_all(d)?;
    }
    Ok(median(&mut mips))
}

/// Restart the server on `spec`'s data directory and time how long
/// until an answer covers `truth.total` keys with zero staleness.
fn restart(spec: &ServerSpec, truth: &Truth) -> io::Result<(f64, ServerProc, Conn)> {
    let start = Instant::now();
    let (proc, mut conn, _) = spec.spawn()?;
    let deadline = start + Duration::from_secs(60);
    loop {
        if let Response::Answer { total, stamp, .. } =
            conn.call(&Request::Query(QueryReq::Frequent { phi: PHI }))?
        {
            if total == truth.total && stamp.staleness == 0 {
                return Ok((start.elapsed().as_secs_f64(), proc, conn));
            }
        }
        if Instant::now() > deadline {
            return Err(err("restarted server never covered the stream"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run one workload.
pub fn run(w: &Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, opts.trace);
    let mut report = Vec::new();
    std::fs::create_dir_all(&opts.work)?;

    let (closed_frames, rounds, open_frames, open_rate, setups, restarts) = if opts.smoke {
        (6, 2, 12, 100_000.0, 2, 1)
    } else {
        let open = (w.open_rate * opts.seconds * OPEN_SHARE / FRAME_KEYS as f64).ceil() as u64;
        let restarts = if opts.trace { 1 } else { 7 };
        (w.closed_frames, ROUNDS, open, w.open_rate, 7, restarts)
    };
    let layout = Layout::new(closed_frames, open_frames, rounds);
    let checkpoint_every = match (w.checkpoint_every, opts.smoke) {
        (0, _) => None,
        (_, true) => Some(4 * FRAME_KEYS as u64),
        (c, false) => Some(c),
    };
    let stream = KeyStream::new(w.alphabet, w.alpha, opts.seed);
    let index = stream.rank_index();
    let closed_indices: Vec<u64> = (0..rounds).flat_map(|r| layout.closed(r)).collect();
    let closed = stream.materialize(&closed_indices);

    let reference_mips = match opts.trace {
        true => Some(reference_ingest_mips(
            w, opts, &stream, &closed, &layout, epoch,
        )?),
        false => None,
    };

    // Set-up: spawn the server several times and keep the last one.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        let dir = match w.durable {
            true => Some(fresh_dir(opts.work.join(format!("data-{}-{i}", w.name)))?),
            false => None,
        };
        let spec = ServerSpec {
            binary: opts.server.clone(),
            data_dir: dir.clone(),
        };
        let t = Instant::now();
        let (proc, conn, s) = spec.spawn()?;
        tracer.record("server.setup", t, Instant::now(), None, i);
        setup_s.push(s);
        if i + 1 < setups {
            proc.kill()?;
            if let Some(d) = dir {
                std::fs::remove_dir_all(d)?;
            }
        } else {
            kept = Some((spec, proc, conn));
        }
    }
    let (spec, proc, mut conn) = kept.expect("at least one set-up");
    let mut qconn = Conn::connect(&proc.addr)?;
    let shared = Shared::default();

    // Rounds of one closed-loop segment and one open-loop window each,
    // so that a burst of noise on the machine lands in one round and the
    // medians over rounds pass it by.
    let stats0 = stats(&mut conn)?;
    let (mut closed_r, mut closed_q) = (IngestResult::default(), QueryResult::default());
    let (mut open_r, mut open_q) = (IngestResult::default(), QueryResult::default());
    let (mut closed_delta, mut open_delta) = (Vec::new(), Vec::new());
    let mut segment_mips = Vec::new();
    let per_round = layout.closed_per_round as usize * FRAME_KEYS;
    for r in 0..rounds {
        let keys = &closed[r as usize * per_round..(r as usize + 1) * per_round];
        let first = layout.closed(r).start;
        let before = stats(&mut conn)?;
        let (ir, qr) = phase(
            &mut conn,
            &mut qconn,
            w,
            &stream,
            opts.seed,
            &shared,
            false,
            epoch,
            &mut tracer,
            |c, t| closed_loop(c, keys, first, checkpoint_every, &shared, t),
        )?;
        segment_mips.push(keys.len() as f64 / ir.elapsed_s / 1e6);
        closed_r.absorb(ir);
        closed_q.absorb(qr);
        let middle = stats(&mut conn)?;
        let open = layout.open(r);
        let (ir, qr) = phase(
            &mut conn,
            &mut qconn,
            w,
            &stream,
            opts.seed,
            &shared,
            true,
            epoch,
            &mut tracer,
            |c, t| {
                open_loop(
                    c,
                    &stream,
                    open.start,
                    open.end - open.start,
                    open_rate,
                    checkpoint_every,
                    &shared,
                    epoch,
                    t,
                )
            },
        )?;
        open_r.absorb(ir);
        open_q.absorb(qr);
        await_quiescence(&mut conn, open.end * FRAME_KEYS as u64)?;
        let after = stats(&mut conn)?;
        add_delta(&mut closed_delta, stats_delta(&before, &middle));
        add_delta(&mut open_delta, stats_delta(&middle, &after));
    }
    let total_frames = layout.total();
    let stats2 = stats(&mut conn)?;
    drop(qconn);

    // Exact truth: every live answer, then the quiescent answer set.
    let mut live: Vec<LiveAnswer> = closed_q.live;
    live.extend(open_q.live);
    let live_answers = live.len() as u64;
    let (open_bad, closed_bad, truth) = check_live(&stream, &index, total_frames, &mut live);
    drop(live);
    report.push(format!(
        "check live answers: {live_answers} checked, {open_bad} open-loop and {closed_bad} \
         closed-loop outside the envelope => {}",
        if open_bad + closed_bad == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    let mut attempted = closed_r.frames + open_r.frames + closed_q.attempted + open_q.attempted;
    let open_failed = open_r.errors + open_q.errors + open_bad;
    let mut failed = closed_r.errors + closed_q.errors + closed_bad + open_failed;
    let (a, f) = quiescent_checks(
        &mut conn,
        w,
        &truth,
        &stream,
        &index,
        "quiescent",
        &mut report,
    )?;
    attempted += a;
    failed += f;
    let rss_peak_mb = proc.peak_rss_mib()?;

    let sample_len = closed.len().min(LAYER_FRAMES * FRAME_KEYS);
    let wire = match opts.trace {
        true => Some(layers::wire(
            &proc.addr,
            &closed[..sample_len],
            &mut tracer,
        )?),
        false => None,
    };
    drop(conn);
    proc.kill()?;

    let recovered = match (opts.trace, &spec.data_dir) {
        (true, Some(dir)) => {
            let copy = fresh_dir(opts.work.join(format!("data-{}-copy", w.name)))?;
            copy_dir(dir, &copy)?;
            let r = layers::recover(&copy, &mut tracer)?;
            std::fs::remove_dir_all(&copy)?;
            Some(r)
        }
        _ => None,
    };

    // SIGKILL and restart: the durable server must come back with every
    // key (it was quiescent and fsynced); the in-memory one with none.
    let expect = match w.durable {
        true => truth.clone(),
        false => Truth::new(w.alphabet),
    };
    let mut recover_s = Vec::new();
    for i in 0..restarts {
        let (s, proc, mut conn) = restart(&spec, &expect)?;
        recover_s.push(s);
        let (a, f) = quiescent_checks(
            &mut conn,
            w,
            &expect,
            &stream,
            &index,
            &format!("restart {i}"),
            &mut report,
        )?;
        attempted += a;
        failed += f;
        drop(conn);
        proc.kill()?;
    }
    if let Some(dir) = &spec.data_dir {
        std::fs::remove_dir_all(dir)?;
    }

    // End-to-end figures.
    let ingest_mips = median(&mut segment_mips);
    let ack = &open_r.ack_us;
    let query = &open_q.lat_us;
    let fresh = freshness(&open_r.acks, &open_q.answers);
    let mut late: Vec<f64> = open_r
        .late_ms
        .iter()
        .chain(&open_q.late_ms)
        .copied()
        .collect();
    let gen_late_p99_ms = percentile(&mut late, 99.0);
    let open_attempted = open_r.frames + open_q.attempted;
    let failed_ratio = open_failed as f64 / open_attempted.max(1) as f64;
    let ack_p50 = windowed(ack, WINDOW, 50.0);
    report.push(format!(
        "closed loop: {} keys in {:.3}s, {} OVERLOADED; open loop: {} frames at {:.2} M keys/s \
         in {:.3}s, {} OVERLOADED, {} queries",
        closed.len(),
        closed_r.elapsed_s,
        closed_r.overloaded,
        open_r.frames,
        open_rate / 1e6,
        open_r.elapsed_s,
        open_r.overloaded,
        open_q.attempted
    ));
    report.push(format!(
        "samples: ack {} ({} beyond p99), query {} ({}), fresh {} ({})",
        ack.len(),
        beyond_p99(ack.len()),
        query.len(),
        beyond_p99(query.len()),
        fresh.len(),
        beyond_p99(fresh.len())
    ));
    report.push(format!(
        "failed_ratio = {failed_ratio} ({open_failed} of {open_attempted} open-loop frames and queries)"
    ));
    report.push(format!(
        "gen_late_p99_ms = {gen_late_p99_ms:.4} ms (bound {GEN_LATE_BOUND_MS} ms)"
    ));
    // An invalid run is reported, not failed: it says the machine could
    // not hold the schedule, not that the server answered wrongly.
    if gen_late_p99_ms > GEN_LATE_BOUND_MS {
        report.push(format!(
            "INVALID: the generator ran {gen_late_p99_ms:.3} ms late at p99 (bound {GEN_LATE_BOUND_MS} ms)"
        ));
    }
    if !opts.smoke {
        for (name, n) in [
            ("ack", ack.len()),
            ("query", query.len()),
            ("fresh", fresh.len()),
        ] {
            if beyond_p99(n) < 10 {
                report.push(format!(
                    "INVALID: {name} p99 rests on fewer than 10 samples ({n} total)"
                ));
            }
        }
    }
    // Printed by every run, but in the JSON result of the traced run
    // only: too unsteady between runs to carry a bound.
    let unbounded = [
        ("ack_p50_us", ack_p50, "us"),
        ("ack_p99_us", windowed(ack, WINDOW, 99.0), "us"),
        ("query_p50_us", windowed(query, WINDOW, 50.0), "us"),
        ("query_p99_us", windowed(query, WINDOW, 99.0), "us"),
        ("fresh_p99_ms", windowed(&fresh, WINDOW, 99.0), "ms"),
        ("rss_peak_mb", rss_peak_mb, "MiB"),
    ];

    let mut metrics = Vec::new();
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    if !opts.trace {
        for (name, value, unit) in unbounded {
            report.push(format!("{name} = {value} {unit}"));
        }
        m("ingest_mips", ingest_mips, "Mkeys/s");
        m("fresh_p50_ms", windowed(&fresh, WINDOW, 50.0), "ms");
        m("setup_s", median(&mut setup_s), "s");
        m("recover_s", median(&mut recover_s), "s");
    } else {
        let elapsed = closed_r.elapsed_s + open_r.elapsed_s;
        let d = |path: &str| field(&stats2, path) - field(&stats0, path);
        let shard_keys: Vec<f64> = (0..layers::SHARDS)
            .map(|i| d(&format!("shards.{i}.keys")))
            .collect();
        let mean_keys = shard_keys.iter().sum::<f64>() / shard_keys.len() as f64;
        let max_depth = (0..layers::SHARDS)
            .map(|i| field(&stats2, &format!("shards.{i}.max_queue_depth")))
            .fold(0.0, f64::max);
        let idle_parks: f64 = (0..layers::SHARDS)
            .map(|i| d(&format!("shards.{i}.idle_parks")))
            .sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let wal_syncs = d("persist.wal_syncs");
        let keys_per_sync = ratio(d("persist.wal_keys"), wal_syncs);
        let batches_per_sync = ratio(d("persist.wal_records"), wal_syncs);
        let mut staleness: Vec<f64> = open_q.staleness.iter().map(|&s| s as f64).collect();
        let mut ckpt: Vec<f64> = closed_r
            .checkpoint_ms
            .iter()
            .chain(&open_r.checkpoint_ms)
            .copied()
            .collect();

        let (wire, payloads) = wire.expect("traced runs measure the wire path");
        let sample = &closed[..sample_len];
        let point_key = stream.id_of_rank(1);
        let svc = layers::service(
            &payloads,
            &[
                QueryReq::Frequent { phi: PHI },
                QueryReq::TopK { k: TOP_K },
                QueryReq::Point { key: point_key },
            ],
            if opts.smoke { 20 } else { 500 },
            &mut tracer,
        )?;
        drop(payloads);
        let engine_keys = &closed[..closed.len().min(ENGINE_KEYS)];
        let eng = layers::engine(engine_keys, if opts.smoke { 3 } else { 30 }, &mut tracer)?;
        let wal = match w.durable {
            true => Some(layers::wal(
                &opts.work.join(format!("wal-probe-{}", w.name)),
                sample,
                batches_per_sync.round().clamp(1.0, 32.0) as usize,
                &mut tracer,
            )?),
            false => None,
        };
        let work = &eng.work;
        let per_key = |x: u64| ratio(x as f64, work.elements as f64);

        m("serve.bin1.encode_ns_per_key", wire.encode_ns_per_key, "ns");
        m("serve.bin1.decode_ns_per_key", wire.decode_ns_per_key, "ns");
        m(
            "serve.frame.assemble_ns_per_frame",
            wire.assemble_ns_per_frame,
            "ns",
        );
        let key_ns = |us: f64| us * 1e3 / FRAME_KEYS as f64;
        let self_ns = key_ns(svc.serve_frame_p50_us - svc.send_p50_us);
        m("serve.service.serve_frame_self_ns_per_key", self_ns, "ns");
        m(
            "serve.service.overloaded_per_frame",
            ratio(d("rejected_frames"), d("ingest_frames")),
            "1/frame",
        );
        m("serve.shard.send_ns_per_key", key_ns(svc.send_p50_us), "ns");
        m("serve.shard.max_queue_depth", max_depth, "batches");
        m("serve.shard.idle_parks_per_s", idle_parks / elapsed, "1/s");
        m(
            "serve.shard.key_skew",
            ratio(shard_keys.iter().copied().fold(0.0, f64::max), mean_keys),
            "ratio",
        );
        m(
            "serve.reactor.rtt_overhead_us",
            ack_p50 - svc.serve_frame_p50_us,
            "us",
        );
        m("cots.engine.apply_ns_per_key", eng.apply_ns_per_key, "ns");
        m(
            "cots.engine.crossings_per_key",
            work.crossings_per_element(),
            "1/key",
        );
        m(
            "cots.engine.combining_factor",
            work.combining_factor(),
            "ratio",
        );
        m(
            "cots.engine.overwrites_per_key",
            per_key(work.overwrites),
            "1/key",
        );
        m(
            "cots.engine.read_restarts_per_key",
            per_key(work.read_restarts),
            "1/key",
        );
        m(
            "cots.engine.contention_ratio",
            ratio(work.lock_contentions as f64, work.lock_acquisitions as f64),
            "ratio",
        );
        m("cots.publish.capture_us", eng.capture_us, "us");
        m(
            "cots.publish.epochs_per_s",
            d("snapshot_epoch") / elapsed,
            "1/s",
        );
        m(
            "cots.publish.staleness_keys_p99",
            percentile(&mut staleness, 99.0),
            "keys",
        );
        m("serve.service.query_frequent_us", svc.query_us[0], "us");
        m("serve.service.query_topk_us", svc.query_us[1], "us");
        m("serve.service.query_point_us", svc.query_us[2], "us");
        let wal_or = |f: fn(&layers::WalLayers) -> f64| wal.as_ref().map_or(0.0, f);
        m(
            "persist.wal.append_ns_per_key",
            wal_or(|x| x.append_ns_per_key),
            "ns",
        );
        m("persist.wal.commit_us", wal_or(|x| x.commit_us), "us");
        m("persist.wal.keys_per_sync", keys_per_sync, "keys");
        m(
            "persist.wal.bytes_per_key",
            ratio(d("persist.wal_bytes"), d("persist.wal_keys")),
            "B",
        );
        m(
            "persist.device_fsync_us",
            wal_or(|x| x.device_fsync_us),
            "us",
        );
        m("persist.checkpoint.write_ms", median(&mut ckpt), "ms");
        m(
            "persist.recover.scan_s",
            recovered.as_ref().map_or(0.0, |r| r.scan_s),
            "s",
        );
        m(
            "persist.recover.replay_mips",
            recovered.as_ref().map_or(0.0, |r| r.replay_mips),
            "Mkeys/s",
        );
        let reference = reference_mips.expect("traced runs measure the reference");
        m("trace.overhead_ratio", ingest_mips / reference, "ratio");
        // Per-key costs along the ingest path against the closed loop's
        // wall time per key. The shards apply in parallel, so the engine
        // contributes its busy time divided by the shard count.
        let mut path_ns = wire.encode_ns_per_key
            + wire.assemble_ns_per_frame / FRAME_KEYS as f64
            + wire.decode_ns_per_key
            + key_ns(svc.serve_frame_p50_us)
            + eng.apply_ns_per_key / layers::SHARDS as f64;
        if let Some(x) = &wal {
            path_ns += x.append_ns_per_key + ratio(x.commit_us * 1e3, keys_per_sync);
        }
        m("trace.coverage", path_ns / (1e3 / ingest_mips), "ratio");
        for (name, value, unit) in unbounded {
            m(name, value, unit);
        }
        m("gen_late_p99_ms", gen_late_p99_ms, "ms");
        m("failed_ratio", failed_ratio, "ratio");

        if let Some(r) = &recovered {
            report.push(format!(
                "recovery copy: {} keys replayed from the WAL tail",
                r.replayed_keys
            ));
        }
        report.push(format!(
            "reference (untraced) ingest_mips = {reference:.4}, traced = {ingest_mips:.4}"
        ));
        write_trace(
            w,
            opts,
            &tracer,
            closed_delta,
            open_delta,
            &metrics,
            &mut report,
        )?;
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0,
        report,
    })
}

/// Write the spans, the per-layer self-time table, the `STATS` deltas
/// of both phases (summed over rounds) and the metrics to `<work>/trace-<workload>-<seed>.json`,
/// and add the table and deltas to the report.
#[allow(clippy::too_many_arguments)]
fn write_trace(
    w: &Workload,
    opts: &RunOpts,
    tracer: &Tracer,
    closed_delta: Vec<(String, f64)>,
    open_delta: Vec<(String, f64)>,
    metrics: &[Metric],
    report: &mut Vec<String>,
) -> io::Result<()> {
    let rows = self_times(tracer.spans());
    report.push(format!(
        "{:<36} {:>9} {:>12} {:>12}",
        "layer span", "count", "total ms", "self ms"
    ));
    let mut table = Vec::new();
    for (name, row) in &rows {
        report.push(format!(
            "{:<36} {:>9} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
        table.push(Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("count", Json::UInt(row.count)),
            ("total_ms", Json::Float(row.total_ns as f64 / 1e6)),
            ("self_ms", Json::Float(row.self_ns as f64 / 1e6)),
        ]));
    }
    let delta = |d: Vec<(String, f64)>, label: &str, report: &mut Vec<String>| {
        for (k, v) in &d {
            report.push(format!("stats delta {label} {k} = {v}"));
        }
        Json::Obj(d.into_iter().map(|(k, v)| (k, Json::Float(v))).collect())
    };
    let closed = delta(closed_delta, "closed", report);
    let open = delta(open_delta, "open", report);
    let doc = Json::obj(vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::UInt(opts.seed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::Float(m.value)))
                    .collect(),
            ),
        ),
        ("self_time", Json::Arr(table)),
        (
            "stats_delta",
            Json::obj(vec![("closed", closed), ("open", open)]),
        ),
        ("spans", spans_json(tracer.spans())),
    ]);
    let path: &Path = &opts
        .work
        .join(format!("trace-{}-{}.json", w.name, opts.seed));
    std::fs::write(path, doc.dump())?;
    report.push(format!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}
