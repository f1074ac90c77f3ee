//! The coordinator's role behind `cots-serve`'s connection front-end.
//!
//! A coordinator speaks the same framed protocol, with the same
//! mandatory `HELLO` handshake, BIN1 admission and `SNAPSHOT_PAGE` pin,
//! as a member: all of that is [`cots_serve::role`], run by
//! [`cots_serve::Server`]. Every client — `cots-load`,
//! [`cots_serve::Client`], the load generator — works against a
//! coordinator unchanged. What this module adds is the dispatch that
//! differs from a member:
//! * `INGEST` key-routes to members (with spillover) instead of
//!   enqueuing locally;
//! * `QUERY`/`SNAPSHOT`/`SNAPSHOT_PAGE` serve the *federated* snapshot
//!   with cluster-wide staleness;
//! * `CLUSTER_STATS` reports the per-member breakdown;
//! * `CHECKPOINT` and the `REPL_*` ops are refused — durable state and
//!   replication live on members.
//!
//! Each connection owns a [`Router`], flushed before every request
//! that observes the stream (the page pin included) and when the
//! connection ends. The coordinator therefore runs on
//! [`IoModel::Threads`]: a reactor thread shares one sink across its
//! connections, and forwarding blocks on member sockets.

use std::io;
use std::sync::Arc;

use cots::publish::StampedSnapshot;
use cots_serve::role::{self, Role};
use cots_serve::{IoConfig, IoModel, QueryStamp, Request, Response, Server};

use crate::coord::{CoordConfig, Coordinator, Router};

/// A coordinator behind its listener.
pub type CoordServer = Server<Coordinator>;

impl Coordinator {
    /// Start the coordinator (pullers and all) and bind its front-end.
    pub fn bind(addr: &str, config: CoordConfig) -> io::Result<CoordServer> {
        let coord = Coordinator::start(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let io = IoConfig {
            model: IoModel::Threads,
            ..IoConfig::default()
        };
        Server::with_role(addr, coord, io)
    }
}

impl Role for Coordinator {
    type Sink = Router;

    const FEATURES: &'static [&'static str] = &["cluster", "snapshot-page", "bin"];

    fn sink(&self) -> Router {
        self.router()
    }

    /// Deliver whatever the router still buffers: a client that drops
    /// its socket after a final `INGEST` ack must not strand keys.
    fn retire(&self, mut router: Router) {
        let _ = self.flush(&mut router);
    }

    fn pin(&self, router: &mut Router) -> Arc<StampedSnapshot<u64>> {
        let _ = self.flush(router);
        self.current().0
    }

    fn stamp(&self, snap: &StampedSnapshot<u64>) -> QueryStamp {
        self.stamp_for(snap.epoch, snap.captured_total)
    }

    fn dispatch(&self, request: Request, router: &mut Router) -> Response {
        if !matches!(request, Request::Ingest { .. }) {
            // Read barrier: anything that is not an INGEST observes (or
            // ends) the stream, so deliver this connection's buffered
            // keys first. A failure is absorbed — those keys stay inside
            // the staleness bound the answer is stamped with.
            let _ = self.flush(router);
        }
        match request {
            Request::Hello { .. } | Request::SnapshotPage { .. } => role::front_end_only(),
            Request::Ingest { keys } => self.forward(router, &keys),
            Request::Query(q) => self.answer(q),
            Request::Stats => Response::Stats(Box::new(self.stats())),
            Request::ClusterStats => Response::ClusterStats(self.cluster_report()),
            Request::Snapshot => {
                let (current, stamp) = self.current();
                Response::Snapshot {
                    snapshot: current.snapshot.clone(),
                    stamp,
                }
            }
            Request::Checkpoint => Response::Error {
                message: "coordinator holds no durable state; checkpoint members directly".into(),
            },
            Request::ReplSubscribe { .. }
            | Request::ReplBatch { .. }
            | Request::ReplSnapshot { .. }
            | Request::ReplPromote => Response::Error {
                message: "coordinator is not a replica; REPL ops go to members \
                          (the coordinator promotes standbys itself)"
                    .into(),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
        }
    }

    fn shutdown_requested(&self) -> bool {
        Coordinator::shutdown_requested(self)
    }

    fn begin_shutdown(&self) {
        Coordinator::begin_shutdown(self)
    }

    /// Join the pullers.
    fn drain(self: Arc<Self>) {
        Coordinator::drain(&self)
    }
}
