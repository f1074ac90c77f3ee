//! The connection protocol, written once for every server role.
//!
//! Two roles answer the wire protocol: a member [`Service`](crate::Service)
//! and the cluster coordinator (`cots-cluster`). A [`Role`] supplies
//! only what differs between them — its `HELLO_ACK` features, a
//! per-connection ingest sink, the snapshot a paged transfer pins, and
//! the answer to every other request. Everything else lives here:
//! decoding, BIN1 admission, the `HELLO` handshake, the `SNAPSHOT_PAGE`
//! pin, encoding in kind and the `MAX_FRAME` fallback.
//! [`crate::server`] runs it under either I/O model.
//!
//! AUDIT: locks — the request path must never block behind I/O holding a
//! lock; enforced by `cargo xtask audit` (lint-locks).

use std::sync::Arc;

use cots::StampedSnapshot;

use crate::frame::{Payload, MAX_FRAME};
use crate::protocol::{
    decode, encode, snapshot_page_response, QueryStamp, Request, Response, MIN_PROTO_VERSION,
    PROTO_VERSION,
};

/// What a server answers as: a member [`Service`](crate::Service) or a
/// coordinator. [`serve`] and [`serve_frame`] do the protocol work and
/// call back into the role for the rest.
pub trait Role: Send + Sync + 'static {
    /// Where one connection's ingest goes. The blocking model opens one
    /// per connection; the reactor opens one per reactor thread.
    type Sink;

    /// Feature flags advertised in `HELLO_ACK`.
    const FEATURES: &'static [&'static str];

    /// Open a sink for a new connection or reactor thread.
    fn sink(&self) -> Self::Sink;

    /// Retire a sink whose connection (or reactor thread) has ended.
    fn retire(&self, sink: Self::Sink);

    /// The snapshot a paged transfer pins at offset 0.
    fn pin(&self, sink: &mut Self::Sink) -> Arc<StampedSnapshot<u64>>;

    /// The provenance stamp of an answer read from `snap`.
    fn stamp(&self, snap: &StampedSnapshot<u64>) -> QueryStamp;

    /// Answer one request on a greeted connection. `HELLO` and
    /// `SNAPSHOT_PAGE` are answered by [`serve`] and never get here
    /// (see [`front_end_only`]).
    fn dispatch(&self, request: Request, sink: &mut Self::Sink) -> Response;

    /// Whether graceful shutdown has been requested.
    fn shutdown_requested(&self) -> bool;

    /// Request graceful shutdown (idempotent).
    fn begin_shutdown(&self);

    /// Stop for good; every connection and sink is already gone.
    fn drain(self: Arc<Self>);
}

/// The answer [`Role::dispatch`] gives the two requests [`serve`]
/// answers itself, should one ever reach it.
pub fn front_end_only() -> Response {
    Response::Error {
        message: "HELLO and SNAPSHOT_PAGE are answered by the connection front-end".into(),
    }
}

/// Per-connection protocol state: handshake progress, whether the peer
/// negotiated the BIN1 encoding, plus the snapshot pinned by an
/// in-progress paged transfer. Owned by the connection (a blocking
/// thread or a reactor slab slot), never shared.
#[derive(Default)]
pub struct ConnState {
    greeted: bool,
    /// The peer listed `"bin"` in its `HELLO` features: BIN1 frames are
    /// admitted on this connection (and answered in kind).
    bin: bool,
    pinned: Option<Arc<StampedSnapshot<u64>>>,
}

impl ConnState {
    /// Fresh state for a newly accepted connection: the first frame must
    /// be `HELLO`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A state that skips the handshake — for in-process callers and
    /// tests that drive [`serve`] without a socket.
    pub fn pre_greeted() -> Self {
        Self {
            greeted: true,
            ..Self::default()
        }
    }

    /// Whether the handshake has completed on this connection.
    pub fn is_greeted(&self) -> bool {
        self.greeted
    }

    /// Whether the peer negotiated the BIN1 encoding at `HELLO` time.
    pub fn is_bin(&self) -> bool {
        self.bin
    }
}

/// What a connection should do with one request's outcome.
pub struct Reply {
    /// The response to write.
    pub response: Response,
    /// Close the connection after flushing the response (handshake
    /// rejection, graceful shutdown).
    pub close: bool,
}

impl Reply {
    /// A response that keeps the connection open.
    pub fn open(response: Response) -> Self {
        Self {
            response,
            close: false,
        }
    }

    /// A response after which the connection closes.
    pub fn closing(response: Response) -> Self {
        Self {
            response,
            close: true,
        }
    }
}

/// Serve one request on behalf of a connection: enforce the `HELLO`
/// handshake, keep paged snapshot transfers pinned to one snapshot,
/// dispatch everything else to the role, and say whether the
/// connection should close afterwards.
///
/// The first frame on every connection must be `HELLO` with a
/// supported version; anything else is answered with
/// `UNSUPPORTED_VERSION` (requested = 0 when no `HELLO` was sent at
/// all) and the connection closes.
pub fn serve<R: Role>(
    role: &R,
    request: Request,
    conn: &mut ConnState,
    sink: &mut R::Sink,
) -> Reply {
    match request {
        Request::Hello {
            proto_version,
            features,
        } => {
            if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&proto_version) {
                return Reply::closing(Response::UnsupportedVersion {
                    supported: PROTO_VERSION,
                    requested: proto_version,
                });
            }
            conn.greeted = true;
            // BIN1 admission is per connection: only a peer that
            // announced the feature may send binary frames.
            conn.bin = features.iter().any(|f| f == "bin");
            Reply::open(Response::HelloAck {
                proto_version: PROTO_VERSION,
                features: R::FEATURES.iter().map(|f| f.to_string()).collect(),
            })
        }
        _ if !conn.greeted => Reply::closing(Response::UnsupportedVersion {
            supported: PROTO_VERSION,
            requested: 0,
        }),
        Request::SnapshotPage {
            since_epoch,
            offset,
            limit,
        } => {
            // Offset 0 (re)pins the role's current snapshot; later pages
            // keep reading the pinned one, so a multi-frame transfer
            // never sees a torn summary.
            let snap = match conn.pinned.take() {
                Some(snap) if offset != 0 => snap,
                _ => role.pin(sink),
            };
            let stamp = role.stamp(&snap);
            let page = snapshot_page_response(&snap.snapshot, stamp, since_epoch, offset, limit);
            conn.pinned = Some(snap);
            Reply::open(page)
        }
        request => {
            let response = role.dispatch(request, sink);
            let close = matches!(response, Response::ShuttingDown);
            Reply { response, close }
        }
    }
}

/// Serve one raw frame payload: decode (JSON always; BIN1 only on a
/// connection that negotiated the `"bin"` feature), answer through
/// [`serve`], and encode the response *in kind* — a BIN1 request gets a
/// BIN1 response when the response op has a binary form, and JSON
/// otherwise (errors are always JSON). A response over [`MAX_FRAME`] is
/// replaced by an error that points to `SNAPSHOT_PAGE`, and the
/// connection stays open. Returns the encoded response payload and
/// whether the connection must close.
///
/// Both I/O models (blocking threads and the reactor) funnel through
/// here, so every role accepts the same language on either.
pub fn serve_frame<R: Role>(
    role: &R,
    payload: &Payload,
    conn: &mut ConnState,
    sink: &mut R::Sink,
) -> (Payload, bool) {
    let (reply, bin) = match payload {
        Payload::Json(text) => match decode::<Request>(text) {
            Ok(request) => (serve(role, request, conn, sink), false),
            Err(e) => (
                Reply::open(Response::Error {
                    message: e.to_string(),
                }),
                false,
            ),
        },
        // Sending BIN1 without negotiating it is a protocol violation,
        // handled like a failed handshake: answer and close.
        Payload::Bin(_) if !conn.bin => (
            Reply::closing(Response::Error {
                message: "BIN1 frame on a connection that did not \
                          negotiate the `bin` feature in HELLO"
                    .into(),
            }),
            false,
        ),
        Payload::Bin(bytes) => match crate::bin1::decode_request(bytes) {
            Ok(request) => (serve(role, request, conn, sink), true),
            Err(e) => (
                Reply::open(Response::Error {
                    message: e.to_string(),
                }),
                false,
            ),
        },
    };
    let encoded = match bin.then(|| crate::bin1::encode_response(&reply.response)) {
        Some(Some(bytes)) => Payload::Bin(bytes),
        _ => Payload::Json(encode(&reply.response)),
    };
    if encoded.len() > MAX_FRAME {
        // Only a one-shot SNAPSHOT of a huge summary gets here.
        let fallback = Response::Error {
            message: format!(
                "response would be {} bytes, over the {MAX_FRAME}-byte frame \
                 cap; page it with SNAPSHOT_PAGE",
                encoded.len()
            ),
        };
        return (Payload::Json(encode(&fallback)), reply.close);
    }
    (encoded, reply.close)
}
