//! The coordinator's TCP front-end.
//!
//! Speaks the same framed protocol (and the same mandatory `HELLO`
//! handshake) as `cots-serve`, so every existing client — `cots-load`,
//! [`cots_serve::Client`], the load generator — works against a
//! coordinator unchanged. Blocking thread-per-connection is deliberate:
//! a coordinator fronts a handful of ingest pipes and dashboards, not
//! the ten-thousand-connection fan-in the member reactor exists for.
//!
//! Differences from a member, all answered here:
//! * `INGEST` key-routes to members (with spillover) instead of
//!   enqueuing locally;
//! * `QUERY`/`SNAPSHOT`/`SNAPSHOT_PAGE` serve the *federated* snapshot
//!   with cluster-wide staleness;
//! * `CLUSTER_STATS` reports the per-member breakdown;
//! * `CHECKPOINT` is refused — durable state lives on members.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cots::publish::StampedSnapshot;
use cots_serve::frame::{is_timeout, read_frame, write_frame, write_payload, Payload};
use cots_serve::protocol::{decode, encode, snapshot_page_response};
use cots_serve::{bin1, Request, Response, MAX_FRAME, MIN_PROTO_VERSION, PROTO_VERSION};

use crate::coord::{CoordConfig, Coordinator, Router};

/// Read-poll interval for shutdown checks.
const POLL: Duration = Duration::from_millis(25);
/// Accept-poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Feature flags the coordinator advertises in `HELLO_ACK`.
const COORD_FEATURES: &[&str] = &["cluster", "snapshot-page", "bin"];

/// A bound coordinator server.
pub struct CoordServer {
    listener: TcpListener,
    coord: Arc<Coordinator>,
    addr: SocketAddr,
}

impl CoordServer {
    /// Start the coordinator (pullers and all) and bind the listener.
    pub fn bind(addr: &str, config: CoordConfig) -> io::Result<Self> {
        let coord = Coordinator::start(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            coord,
            addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator, e.g. for in-process inspection in tests.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coord
    }

    /// Accept and serve until a `SHUTDOWN` request arrives, then join
    /// the pullers and return.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut connections = Vec::new();
        while !self.coord.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let coord = self.coord.clone();
                    connections.push(
                        std::thread::Builder::new()
                            .name("cots-coord-conn".into())
                            .spawn(move || serve_conn(stream, &coord))?,
                    );
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.coord.drain();
                    return Err(e);
                }
            }
        }
        drop(self.listener);
        for c in connections {
            let _ = c.join();
        }
        self.coord.drain();
        Ok(())
    }
}

/// Per-connection protocol state.
struct Conn {
    greeted: bool,
    /// The client's `HELLO` advertised `"bin"`: BIN1 bulk frames are
    /// admitted and answered in kind.
    bin: bool,
    /// Federated snapshot pinned by an in-progress paged transfer.
    pinned: Option<Arc<StampedSnapshot<u64>>>,
}

/// Serve one client connection until EOF, violation, or shutdown,
/// then deliver whatever the router still has buffered — a client that
/// drops its socket after a final `INGEST` ack must not strand keys.
fn serve_conn(stream: TcpStream, coord: &Arc<Coordinator>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = match stream.try_clone() {
        Ok(s) => io::BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = io::BufWriter::new(stream);
    let mut router = coord.router();
    conn_loop(coord, &mut reader, &mut writer, &mut router);
    let _ = coord.flush(&mut router);
}

/// The request/response loop for one connection.
fn conn_loop(
    coord: &Arc<Coordinator>,
    reader: &mut io::BufReader<TcpStream>,
    writer: &mut io::BufWriter<TcpStream>,
    router: &mut Router,
) {
    let mut conn = Conn {
        greeted: false,
        bin: false,
        pinned: None,
    };
    loop {
        let payload = match read_frame(reader) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) if is_timeout(&e) => {
                if coord.shutdown_requested() {
                    return;
                }
                continue;
            }
            Err(_) => {
                let resp = Response::Error {
                    message: "malformed frame".into(),
                };
                let _ = write_frame(writer, &encode(&resp));
                return;
            }
        };
        // Same admission rule as a member: BIN1 frames are only decoded
        // on connections whose `HELLO` negotiated the `bin` feature, and
        // the response mirrors the request's encoding (errors stay JSON —
        // clients of either mode decode both).
        let ((response, close), bin) = match &payload {
            Payload::Json(text) => (
                match decode::<Request>(text) {
                    Ok(request) => handle(coord, router, &mut conn, request),
                    Err(e) => (
                        Response::Error {
                            message: e.to_string(),
                        },
                        false,
                    ),
                },
                false,
            ),
            Payload::Bin(bytes) => {
                if !conn.bin {
                    (
                        (
                            Response::Error {
                                message: "BIN1 frame on a connection that did not \
                                          negotiate the `bin` feature in HELLO"
                                    .into(),
                            },
                            true,
                        ),
                        false,
                    )
                } else {
                    match bin1::decode_request(bytes) {
                        Ok(request) => (handle(coord, router, &mut conn, request), true),
                        Err(e) => (
                            (
                                Response::Error {
                                    message: e.to_string(),
                                },
                                false,
                            ),
                            false,
                        ),
                    }
                }
            }
        };
        let encoded = if bin {
            match bin1::encode_response(&response) {
                Some(bytes) => Payload::Bin(bytes),
                None => Payload::Json(encode(&response)),
            }
        } else {
            Payload::Json(encode(&response))
        };
        if encoded.len() > MAX_FRAME {
            // Only the one-shot federated snapshot can get here.
            let fallback = Response::Error {
                message: format!(
                    "response would be {} bytes, over the {MAX_FRAME}-byte frame \
                     cap; page it with SNAPSHOT_PAGE",
                    encoded.len()
                ),
            };
            if write_frame(writer, &encode(&fallback)).is_err() {
                return;
            }
            continue;
        }
        if write_payload(writer, &encoded).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

/// Dispatch one request; returns the response and whether to close.
fn handle(
    coord: &Arc<Coordinator>,
    router: &mut Router,
    conn: &mut Conn,
    request: Request,
) -> (Response, bool) {
    if conn.greeted && !matches!(request, Request::Ingest { .. }) {
        // Read barrier: anything that is not an INGEST observes (or
        // ends) the stream, so deliver this connection's buffered keys
        // first. A failure is absorbed — those keys stay inside the
        // staleness bound the answer is stamped with.
        let _ = coord.flush(router);
    }
    match request {
        Request::Hello {
            proto_version,
            ref features,
        } => {
            if (MIN_PROTO_VERSION..=PROTO_VERSION).contains(&proto_version) {
                conn.greeted = true;
                conn.bin = features.iter().any(|f| f == "bin");
                (
                    Response::HelloAck {
                        proto_version: PROTO_VERSION,
                        features: COORD_FEATURES.iter().map(|f| f.to_string()).collect(),
                    },
                    false,
                )
            } else {
                (
                    Response::UnsupportedVersion {
                        supported: PROTO_VERSION,
                        requested: proto_version,
                    },
                    true,
                )
            }
        }
        _ if !conn.greeted => (
            Response::UnsupportedVersion {
                supported: PROTO_VERSION,
                requested: 0,
            },
            true,
        ),
        Request::Ingest { keys } => (coord.forward(router, &keys), false),
        Request::Query(q) => (coord.answer(q), false),
        Request::Stats => (Response::Stats(Box::new(coord.stats())), false),
        Request::ClusterStats => (Response::ClusterStats(coord.cluster_report()), false),
        Request::Snapshot => {
            let (current, stamp) = coord.current();
            (
                Response::Snapshot {
                    snapshot: current.snapshot.clone(),
                    stamp,
                },
                false,
            )
        }
        Request::SnapshotPage {
            since_epoch,
            offset,
            limit,
        } => {
            if offset == 0 || conn.pinned.is_none() {
                let (current, _) = coord.current();
                conn.pinned = Some(current);
            }
            match &conn.pinned {
                Some(pinned) => {
                    let stamp = coord.stamp_for(pinned.epoch, pinned.captured_total);
                    (
                        snapshot_page_response(&pinned.snapshot, stamp, since_epoch, offset, limit),
                        false,
                    )
                }
                None => (
                    Response::Error {
                        message: "no federated snapshot yet".into(),
                    },
                    false,
                ),
            }
        }
        Request::Checkpoint => (
            Response::Error {
                message: "coordinator holds no durable state; checkpoint members directly".into(),
            },
            false,
        ),
        Request::ReplSubscribe { .. }
        | Request::ReplBatch { .. }
        | Request::ReplSnapshot { .. }
        | Request::ReplPromote => (
            Response::Error {
                message: "coordinator is not a replica; REPL ops go to members \
                          (the coordinator promotes standbys itself)"
                    .into(),
            },
            false,
        ),
        Request::Shutdown => {
            coord.begin_shutdown();
            (Response::ShuttingDown, true)
        }
    }
}
