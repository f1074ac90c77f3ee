//! `cots-coord` — the CoTS cluster coordinator.
//!
//! ```text
//! cots-coord --members MEMBER,MEMBER[,...]
//!            [--addr 127.0.0.1:4060] [--capacity 1000]
//!            [--pull-ms 50] [--timeout-ms 2000] [--forward-deadline-ms 10000]
//!            [--coalesce-keys 0]
//! ```
//!
//! Each `MEMBER` is an address (`host:port`) or a replica pair
//! (`PRIMARY/STANDBY`, e.g. `127.0.0.1:7001/127.0.0.1:8001` — the
//! standby runs `cots-member --standby`, the primary ships its WAL to
//! it with `--peer`). The legacy colon pair spelling
//! (`127.0.0.1:7001:127.0.0.1:8001`) still parses for IPv4/hostname
//! addresses; IPv6 members (`[::1]:7001`) require the slash form for
//! pairs.
//!
//! Key-routes `INGEST` batches across the members, pulls their
//! summaries as streamed `SNAPSHOT_PAGE` deltas, merges them into one
//! federated snapshot, and answers `QUERY`/`STATS`/`CLUSTER_STATS` with
//! a cluster-wide staleness + error envelope. Members that die keep
//! contributing their last good snapshot (degraded mode, widened
//! bound); members that restart are re-pulled automatically. A dead
//! primary with a standby is failed over: the coordinator sends
//! `REPL_PROMOTE` and flips the slot's routing to the standby.
//!
//! Prints `listening on <addr>` once ready (scripts wait for this
//! line), serves until a `SHUTDOWN` request arrives, and exits 0.

use std::time::Duration;

use cots_cluster::{CoordConfig, Coordinator};
use cots_serve::cli::Args;

const USAGE: &str = "usage: cots-coord --members MEMBER[,MEMBER...] [--addr HOST:PORT] \
     [--capacity M] [--pull-ms MS] [--timeout-ms MS] [--forward-deadline-ms MS] \
     [--coalesce-keys K]\n\
     MEMBER = HOST:PORT | PRIMARY/STANDBY (replica pair, coordinator \
     promotes the standby on primary death)";

fn main() {
    let mut addr = "127.0.0.1:4060".to_string();
    let mut config = CoordConfig::default();
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--members" => {
                let raw: String = args.value(&arg);
                config.members = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--capacity" => config.capacity = args.value(&arg),
            "--pull-ms" => config.pull_interval = Duration::from_millis(args.value(&arg)),
            "--timeout-ms" => config.io_timeout = Duration::from_millis(args.value(&arg)),
            "--forward-deadline-ms" => {
                config.forward_deadline = Duration::from_millis(args.value(&arg))
            }
            "--coalesce-keys" => config.coalesce_keys = args.value(&arg),
            other => args.unknown(other),
        }
    }
    if config.members.is_empty() {
        args.fail("--members is required (comma-separated ADDR or PRIMARY/STANDBY list)");
    }
    if config.capacity == 0 {
        args.fail("--capacity must be positive");
    }
    let server = match Coordinator::bind(&addr, config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cots-coord: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "coordinating {} members: {}",
        config.members.len(),
        config.members.join(", ")
    );
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("cots-coord: {e}");
        std::process::exit(1);
    }
}
