//! `recovery-bench` — durability-path benchmark for `cots-persist`.
//!
//! Measures the three costs a persistent `cots-serve` deployment pays and
//! the one guarantee it buys, then writes `BENCH_recovery.json` at the
//! repo root:
//!
//! 1. **Checkpoint codec** — write and load latency of a full-capacity
//!    checkpoint (atomic rename + CRC framing included).
//! 2. **WAL append throughput** — group-committed batch logging under
//!    each [`FsyncPolicy`] (`off`, `grouped`, `always`), in M items/s.
//! 3. **Recovery time vs WAL length** — scan + engine-replay wall clock
//!    as the un-checkpointed tail grows.
//! 4. **Correctness gate** — a checkpoint of the first half of a Zipf
//!    stream merged with a WAL replay of the second half must sit inside
//!    the Space-Saving envelope of exact truth over the *whole* stream,
//!    with full recall of the truly frequent set. Exit is non-zero on
//!    any violation.
//!
//! ```text
//! recovery-bench [--items N] [--alphabet A] [--capacity C] [--seed S]
//!                [--batch B] [--repeats R]
//! ```

use std::path::Path;
use std::time::Instant;

use cots::CotsEngine;
use cots_bench::service::{write_bench, Scratch};
use cots_core::json::{Json, ToJson};
use cots_core::merge::merge_snapshots;
use cots_core::{CotsConfig, QueryableSummary, Snapshot, SummaryConfig, Threshold};
use cots_datagen::{EnvelopeCheck, ExactCounter, StreamSpec};
use cots_persist::{
    load_checkpoint, recover, write_checkpoint, Checkpoint, FsyncPolicy, WalWriter,
    DEFAULT_SEGMENT_BYTES,
};
use cots_sequential::SpaceSaving;
use cots_serve::cli::Args;

struct BenchArgs {
    items: usize,
    alphabet: usize,
    capacity: usize,
    seed: u64,
    batch: usize,
    repeats: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            items: 2_000_000,
            alphabet: 50_000,
            capacity: 1_000,
            seed: 42,
            batch: 8_192,
            repeats: 3,
        }
    }
}

const ALPHA: f64 = 1.5;
const PHI: f64 = 0.01;

const USAGE: &str = "usage: recovery-bench [--items N] [--alphabet A] [--capacity C] \
     [--seed S] [--batch B] [--repeats R]";

fn bench_args() -> BenchArgs {
    let mut a = BenchArgs::default();
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--items" => a.items = args.value(&arg),
            "--alphabet" => a.alphabet = args.value(&arg),
            "--capacity" => a.capacity = args.value(&arg),
            "--seed" => a.seed = args.value(&arg),
            "--batch" => a.batch = args.value(&arg),
            "--repeats" => a.repeats = args.value(&arg),
            other => args.unknown(other),
        }
    }
    if a.items == 0 || a.capacity == 0 || a.batch == 0 || a.repeats == 0 {
        args.fail("--items, --capacity, --batch and --repeats must be positive");
    }
    a
}

/// Sequential Space-Saving summary of `stream` at `capacity`.
fn summarize(stream: &[u64], capacity: usize) -> Snapshot<u64> {
    let mut ss = SpaceSaving::<u64>::new(SummaryConfig::with_capacity(capacity).unwrap());
    ss.process_slice(stream);
    use cots_core::FrequencyCounter;
    QueryableSummary::snapshot(&ss)
}

/// Write `stream` into a fresh WAL under `dir`, batches sequenced from
/// `first_seq`. Returns `(batches, secs, bytes, syncs)`.
fn fill_wal(
    dir: &Path,
    stream: &[u64],
    first_seq: u64,
    batch: usize,
    policy: FsyncPolicy,
) -> (u64, f64, u64, u64) {
    let mut writer = WalWriter::open(dir, first_seq, policy, DEFAULT_SEGMENT_BYTES).unwrap();
    let mut seq = first_seq;
    let mut bytes = 0u64;
    let mut syncs = 0u64;
    let start = Instant::now();
    for chunk in stream.chunks(batch) {
        writer.append(seq, chunk);
        seq += 1;
        let stats = writer.commit().unwrap();
        bytes += stats.bytes;
        syncs += u64::from(stats.synced);
    }
    writer.sync().unwrap();
    (seq - first_seq, start.elapsed().as_secs_f64(), bytes, syncs)
}

/// Recover `dir` and replay the WAL tail into a fresh engine; returns
/// `(recovered_items, scan_secs, replay_secs, base)`.
fn recover_and_replay(
    dir: &Path,
    capacity: usize,
) -> (u64, f64, f64, Option<Checkpoint>, Snapshot<u64>) {
    let scan_start = Instant::now();
    let rec = recover(dir).unwrap();
    let scan_secs = scan_start.elapsed().as_secs_f64();
    let replay_start = Instant::now();
    let engine = CotsEngine::<u64>::new(CotsConfig::for_capacity(capacity).unwrap()).unwrap();
    for b in &rec.batches {
        engine.delegate_batch(&b.keys);
    }
    engine.finalize();
    let live = QueryableSummary::snapshot(&engine);
    let replay_secs = replay_start.elapsed().as_secs_f64();
    (rec.report.recovered_items, scan_secs, replay_secs, rec.base, live)
}

fn main() {
    let a = bench_args();
    println!(
        "recovery-bench: items={} alphabet={} capacity={} seed={} batch={} repeats={}",
        a.items, a.alphabet, a.capacity, a.seed, a.batch, a.repeats
    );
    let stream = StreamSpec::zipf(a.items, a.alphabet, ALPHA, a.seed).generate();
    let scratch = Scratch::new("cots-recovery-bench");

    // ---- 1. Checkpoint codec: write/load latency at full capacity. ----
    let full_summary = summarize(&stream, a.capacity);
    let nbatches = stream.len().div_ceil(a.batch) as u64;
    let ckpt = Checkpoint::from_snapshot(nbatches, 1, a.capacity, &full_summary);
    let dir = scratch.fresh("ckpt").expect("create bench work dir");
    let mut ckpt_bytes = 0u64;
    let mut write_secs = f64::INFINITY;
    let mut load_secs = f64::INFINITY;
    for _ in 0..a.repeats {
        let start = Instant::now();
        let (path, bytes) = write_checkpoint(&dir, &ckpt).unwrap();
        write_secs = write_secs.min(start.elapsed().as_secs_f64());
        ckpt_bytes = bytes;
        let start = Instant::now();
        let loaded = load_checkpoint(&path).unwrap();
        load_secs = load_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(loaded, ckpt, "checkpoint round trip must be lossless");
    }
    println!(
        "checkpoint: {} entries, {ckpt_bytes} bytes, write {:.3} ms, load {:.3} ms",
        ckpt.entries.len(),
        write_secs * 1e3,
        load_secs * 1e3
    );

    // ---- 2. WAL append throughput per fsync policy. ----
    let mut wal_rows = Vec::new();
    for policy in [FsyncPolicy::Off, FsyncPolicy::Grouped, FsyncPolicy::Always] {
        let mut best_secs = f64::INFINITY;
        let mut bytes = 0u64;
        let mut syncs = 0u64;
        for _ in 0..a.repeats {
            let dir = scratch.fresh("wal").expect("create bench work dir");
            let (_, secs, b, s) = fill_wal(&dir, &stream, 0, a.batch, policy);
            best_secs = best_secs.min(secs);
            bytes = b;
            syncs = s;
        }
        let meps = a.items as f64 / best_secs.max(1e-9) / 1e6;
        println!("wal append [{policy}]: {meps:.2} M items/s ({bytes} bytes, {syncs} syncs)");
        wal_rows.push(Json::obj(vec![
            ("policy", policy.to_string().to_json()),
            ("secs", best_secs.to_json()),
            ("meps", meps.to_json()),
            ("bytes", bytes.to_json()),
            ("syncs", syncs.to_json()),
        ]));
    }

    // ---- 3. Recovery time vs WAL length. ----
    let mut recovery_rows = Vec::new();
    for pct in [25usize, 50, 100] {
        let take = a.items * pct / 100;
        let dir = scratch.fresh("recovery").expect("create bench work dir");
        fill_wal(&dir, &stream[..take], 0, a.batch, FsyncPolicy::Off);
        let (recovered, scan_secs, replay_secs, base, _) = recover_and_replay(&dir, a.capacity);
        assert!(base.is_none(), "no checkpoint was written for this row");
        assert_eq!(recovered, take as u64, "WAL-only recovery is lossless");
        let total = scan_secs + replay_secs;
        let meps = take as f64 / total.max(1e-9) / 1e6;
        println!(
            "recovery at {pct:>3}% wal ({take} items): scan {:.3} ms + replay {:.3} ms = {:.2} M items/s",
            scan_secs * 1e3,
            replay_secs * 1e3,
            meps
        );
        recovery_rows.push(Json::obj(vec![
            ("wal_fraction", (pct as f64 / 100.0).to_json()),
            ("items", take.to_json()),
            ("scan_secs", scan_secs.to_json()),
            ("replay_secs", replay_secs.to_json()),
            ("meps", meps.to_json()),
        ]));
    }

    // ---- 4. Correctness gate: checkpoint ∪ WAL vs exact truth. ----
    let half = a.items / 2;
    let half_batches = half.div_ceil(a.batch) as u64;
    let dir = scratch.fresh("gate").expect("create bench work dir");
    let base_ckpt = Checkpoint::from_snapshot(half_batches, 1, a.capacity, &summarize(&stream[..half], a.capacity));
    write_checkpoint(&dir, &base_ckpt).unwrap();
    fill_wal(&dir, &stream[half..], half_batches, a.batch, FsyncPolicy::Off);
    let (recovered, _, _, base, live) = recover_and_replay(&dir, a.capacity);
    drop(scratch);
    assert_eq!(recovered, a.items as u64, "clean directory recovers everything");
    let merged = merge_snapshots(&[base.expect("checkpoint present").snapshot(), live], a.capacity);

    let truth = ExactCounter::from_stream(&stream);
    let threshold = Threshold::Fraction(PHI).resolve(a.items as u64);
    let reported = merged.frequent(Threshold::Count(threshold)).len();
    let envelope = EnvelopeCheck::of(merged.entries(), &truth, threshold);
    let passed = envelope.passed() && merged.total() == a.items as u64;
    println!(
        "correctness: threshold={threshold} truly_frequent={} reported={reported} missed={} \
         bound_violations={} => {}",
        envelope.truly_frequent,
        envelope.missed,
        envelope.bound_violations,
        if passed { "PASS" } else { "FAIL" }
    );

    let report = Json::obj(vec![
        (
            "config",
            Json::obj(vec![
                ("items", a.items.to_json()),
                ("alphabet", a.alphabet.to_json()),
                ("alpha", ALPHA.to_json()),
                ("capacity", a.capacity.to_json()),
                ("seed", a.seed.to_json()),
                ("batch", a.batch.to_json()),
                ("repeats", a.repeats.to_json()),
            ]),
        ),
        (
            "checkpoint",
            Json::obj(vec![
                ("entries", ckpt.entries.len().to_json()),
                ("bytes", ckpt_bytes.to_json()),
                ("write_secs", write_secs.to_json()),
                ("load_secs", load_secs.to_json()),
            ]),
        ),
        ("wal_append", Json::Arr(wal_rows)),
        ("recovery", Json::Arr(recovery_rows)),
        (
            "correctness",
            Json::obj(vec![
                ("threshold", threshold.to_json()),
                ("truly_frequent", envelope.truly_frequent.to_json()),
                ("reported", reported.to_json()),
                ("missed", envelope.missed.to_json()),
                ("bound_violations", envelope.bound_violations.to_json()),
                ("passed", passed.to_json()),
            ]),
        ),
    ]);
    write_bench("BENCH_recovery.json", &report);
    if !passed {
        eprintln!("recovery-bench: recovered answers violated the Space Saving guarantee");
        std::process::exit(1);
    }
}
