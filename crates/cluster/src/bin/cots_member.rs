//! `cots-member` — a cluster member node.
//!
//! A member *is* a `cots-serve` instance (same wire protocol, same
//! engine, same durability); this binary exists so cluster tooling and
//! tests ship a member under the cluster crate's own name. It accepts
//! the core `cots-serve` flags:
//!
//! ```text
//! cots-member [--addr 127.0.0.1:4040] [--shards 4] [--capacity 1000]
//!             [--refresh-ms 20] [--queue-batches 64]
//!             [--io-model reactor|threads] [--reactor-threads R]
//!             [--data-dir DIR] [--fsync always|grouped|off]
//!             [--checkpoint-ms 5000] [--wal-segment-mb 8]
//!             [--standby] [--peer HOST:PORT]
//! ```
//!
//! With `--data-dir`, startup recovers checkpoint + WAL tail before the
//! listener opens — which is exactly what lets a crashed member rejoin
//! its coordinator with its acknowledged state intact. Prints
//! `listening on <addr>` once ready.
//!
//! Replication (both flags need `--data-dir`): `--standby` starts the
//! node refusing `INGEST` and applying `REPL_*` frames until it is
//! promoted; `--peer` starts a WAL shipper streaming this node's
//! committed log to the peer standby. A rejoining ex-primary runs with
//! *both*: it parks as a standby and its shipper stays idle unless it
//! is promoted again.

use std::time::Duration;

use cots_serve::cli::Args;
use cots_serve::persistence::PersistOptions;
use cots_serve::{IoConfig, Server, ServiceConfig};

const USAGE: &str = "usage: cots-member [--addr HOST:PORT] [--shards N] [--capacity M] \
     [--refresh-ms MS] [--queue-batches Q] [--io-model reactor|threads] \
     [--reactor-threads R] [--data-dir DIR] [--fsync always|grouped|off] \
     [--checkpoint-ms MS] [--wal-segment-mb MB] [--standby] [--peer HOST:PORT]";

fn main() {
    let mut addr = "127.0.0.1:4040".to_string();
    let mut config = ServiceConfig::default();
    let mut io = IoConfig::default();
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = cots_persist::FsyncPolicy::default();
    let mut checkpoint_ms: u64 = 5_000;
    let mut wal_segment_mb: u64 = 8;
    let mut peer: Option<String> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--shards" => config.shards = args.value(&arg),
            "--capacity" => config.capacity = args.value(&arg),
            "--refresh-ms" => config.refresh = Duration::from_millis(args.value(&arg)),
            "--queue-batches" => config.queue_batches = args.value(&arg),
            "--io-model" => io.model = args.value(&arg),
            "--reactor-threads" => io.reactor_threads = args.value(&arg),
            "--data-dir" => data_dir = Some(args.value(&arg)),
            "--fsync" => fsync = args.value(&arg),
            "--checkpoint-ms" => checkpoint_ms = args.value(&arg),
            "--wal-segment-mb" => wal_segment_mb = args.value(&arg),
            "--standby" => config.standby = true,
            "--peer" => peer = Some(args.value(&arg)),
            other => args.unknown(other),
        }
    }
    if config.shards == 0 || config.capacity == 0 || config.queue_batches == 0 {
        args.fail("--shards, --capacity and --queue-batches must be positive");
    }
    if io.reactor_threads == 0 {
        args.fail("--reactor-threads must be positive");
    }
    if let Some(dir) = data_dir {
        let mut opts = PersistOptions::new(dir);
        opts.fsync = fsync;
        opts.checkpoint_every = Duration::from_millis(checkpoint_ms);
        opts.segment_bytes = wal_segment_mb.saturating_mul(1024 * 1024).max(1);
        config.persist = Some(opts);
    }
    if (config.standby || peer.is_some()) && config.persist.is_none() {
        args.fail("--standby and --peer need --data-dir (replication ships the WAL)");
    }
    config.repl_peer = peer.clone();
    let server = match Server::bind_with(&addr, config, io) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cots-member: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
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
    // The shipper parks while this node is a standby, so a rejoining
    // ex-primary can carry `--standby --peer OLD_SELF` and the pair
    // stays symmetric across promotions.
    let _shipper = peer.map(|p| {
        cots_repl::spawn(server.service().clone(), cots_repl::ShipperConfig::new(p))
            .unwrap_or_else(|e| {
                eprintln!("cots-member: cannot start WAL shipper: {e}");
                std::process::exit(1);
            })
    });
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("cots-member: {e}");
        std::process::exit(1);
    }
}
