//! `cots-serve` — the CoTS frequency-counting service.
//!
//! ```text
//! cots-serve [--addr 127.0.0.1:4040] [--shards 4] [--capacity 1000]
//!            [--window W] [--refresh-ms 20] [--queue-batches 64]
//!            [--io-model reactor|threads] [--reactor-threads R]
//!            [--data-dir DIR] [--fsync always|grouped|off]
//!            [--checkpoint-ms 5000] [--wal-segment-mb 8] [--standby]
//! ```
//!
//! `--io-model` selects the connection front-end: `reactor` (default) —
//! a fixed pool of readiness-polling threads (epoll on Linux) that
//! scales to tens of thousands of connections — or `threads`, the
//! blocking thread-per-connection model kept for differential testing.
//! `--reactor-threads` sizes the reactor pool (default:
//! `min(4, cores)`).
//!
//! With `--data-dir`, startup recovers the newest valid checkpoint plus
//! the WAL tail *before* binding the listener, prints a one-line recovery
//! summary, then logs every ingested batch and checkpoints on the
//! `--checkpoint-ms` cadence (0 disables the background checkpointer; the
//! `CHECKPOINT` wire op always works). A worker's multi-batch ring drain
//! is logged as one run record; recovery also reads the older
//! one-record-per-batch form.
//!
//! `--standby` (requires `--data-dir`) starts the node as a replication
//! standby: it refuses ordinary `INGEST` and instead applies
//! `REPL_BATCH` / `REPL_SNAPSHOT` streams from a primary's WAL shipper
//! (see `docs/replication.md`), staying warm until `REPL_PROMOTE` flips
//! it to primary in place. The shipper itself rides the *primary*
//! process (`cots-member --peer`, or embed `cots_repl::spawn`).
//!
//! Prints `listening on <addr>` once ready (scripts wait for this line),
//! serves until a `SHUTDOWN` request arrives, drains (taking a final
//! checkpoint when persistent), and exits 0.

use std::time::Duration;

use cots_serve::cli::Args;
use cots_serve::persistence::PersistOptions;
use cots_serve::{IoConfig, Server, ServiceConfig};

const USAGE: &str = "usage: cots-serve [--addr HOST:PORT] [--shards N] [--capacity M] \
     [--window W] [--refresh-ms MS] [--queue-batches Q] \
     [--io-model reactor|threads] [--reactor-threads R] \
     [--data-dir DIR] [--fsync always|grouped|off] [--checkpoint-ms MS] \
     [--wal-segment-mb MB] [--standby]";

fn main() {
    let mut addr = "127.0.0.1:4040".to_string();
    let mut config = ServiceConfig::default();
    let mut io = IoConfig::default();
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = cots_persist::FsyncPolicy::default();
    let mut checkpoint_ms: u64 = 5_000;
    let mut wal_segment_mb: u64 = 8;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--shards" => config.shards = args.value(&arg),
            "--capacity" => config.capacity = args.value(&arg),
            "--window" => config.window = Some(args.value(&arg)),
            "--refresh-ms" => config.refresh = Duration::from_millis(args.value(&arg)),
            "--queue-batches" => config.queue_batches = args.value(&arg),
            "--io-model" => io.model = args.value(&arg),
            "--reactor-threads" => io.reactor_threads = args.value(&arg),
            "--data-dir" => data_dir = Some(args.value(&arg)),
            "--fsync" => fsync = args.value(&arg),
            "--checkpoint-ms" => checkpoint_ms = args.value(&arg),
            "--wal-segment-mb" => wal_segment_mb = args.value(&arg),
            "--standby" => config.standby = true,
            other => args.unknown(other),
        }
    }
    if config.shards == 0 || config.capacity == 0 || config.queue_batches == 0 {
        args.fail("--shards, --capacity and --queue-batches must be positive");
    }
    if config.standby && data_dir.is_none() {
        args.fail("--standby needs --data-dir (replication ships the WAL)");
    }
    if let Some(dir) = data_dir {
        let mut opts = PersistOptions::new(dir);
        opts.fsync = fsync;
        opts.checkpoint_every = Duration::from_millis(checkpoint_ms);
        opts.segment_bytes = wal_segment_mb.saturating_mul(1024 * 1024).max(1);
        config.persist = Some(opts);
    }
    if io.reactor_threads == 0 {
        args.fail("--reactor-threads must be positive");
    }
    let server = match Server::bind_with(&addr, config, io) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cots-serve: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    match io.model {
        cots_serve::IoModel::Reactor => {
            println!("io-model reactor ({} reactor threads)", io.reactor_threads)
        }
        cots_serve::IoModel::Threads => println!("io-model threads (one thread per connection)"),
    }
    if let Some(rec) = server.service().recovery_report() {
        println!(
            "recovered {} items (checkpoint {:?}, {} wal batches over {} segments, \
             {} torn frames, {} bytes dropped) in {:.3}s",
            rec.recovered_items,
            rec.checkpoint_watermark,
            rec.replayed_batches,
            rec.segments_scanned,
            rec.torn_frames,
            rec.dropped_bytes,
            rec.elapsed_secs
        );
    }
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("cots-serve: {e}");
        std::process::exit(1);
    }
}
