//! The TCP front-end: one accept loop plus one of two I/O models, for
//! either server role.
//!
//! Connections speak the framed protocol of [`crate::frame`] /
//! [`crate::protocol`], answered through [`crate::role`] on behalf of a
//! [`Role`]: a member [`Service`] or a cluster coordinator. Two
//! interchangeable I/O models sit behind the same accept loop and wire
//! format:
//!
//! * [`IoModel::Reactor`] (default) — nonblocking sockets driven by a
//!   small fixed pool of readiness-polling reactor threads (epoll on
//!   Linux, `poll(2)` fallback elsewhere; see [`crate::reactor`]). N
//!   connections cost N buffers, not N threads, lifting the connection
//!   ceiling from hundreds to tens of thousands.
//! * [`IoModel::Threads`] — the original thread-per-connection blocking
//!   model, kept for differential testing and as a portability escape
//!   hatch (`--io-model threads`).
//!
//! The coordinator runs on [`IoModel::Threads`]: its ingest sink
//! forwards to member sockets and blocks while it does, and it must be
//! flushed when its own connection ends.
//!
//! Shutdown is identical in both: a `SHUTDOWN` request flips the role's
//! flag. The acceptor (polling with a short timeout) stops accepting;
//! connection threads or reactor threads notice the flag within one
//! poll interval, close their connections and retire their sinks (a
//! member's rings close, a coordinator's buffered keys are delivered);
//! the role drains and the server returns.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use crate::frame::{is_timeout, read_frame, write_frame, write_payload};
use crate::protocol::{encode, Response};
use crate::reactor::ReactorPool;
use crate::role::{self, ConnState, Role};
use crate::service::{Service, ServiceConfig};

/// How long a connection read blocks before re-checking the shutdown
/// flag.
const POLL: Duration = Duration::from_millis(25);

/// How long the acceptor sleeps when no connection is pending. Shorter
/// than [`POLL`]: the listen backlog is small (128 by default), so a
/// connect storm can overflow it — and suffer seconds-long SYN
/// retransmits — if the acceptor naps too long between drains.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Which connection I/O model the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// Readiness-driven reactor threads over nonblocking sockets
    /// (default on Unix).
    Reactor,
    /// One blocking OS thread per connection (the pre-reactor model).
    Threads,
}

impl IoModel {
    /// The platform default: the reactor wherever a readiness backend
    /// exists (all Unix), blocking threads elsewhere.
    pub fn default_for_platform() -> Self {
        if cfg!(unix) {
            IoModel::Reactor
        } else {
            IoModel::Threads
        }
    }
}

impl FromStr for IoModel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reactor" => Ok(IoModel::Reactor),
            "threads" => Ok(IoModel::Threads),
            other => Err(format!(
                "unknown io model `{other}` (expected `reactor` or `threads`)"
            )),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoModel::Reactor => f.write_str("reactor"),
            IoModel::Threads => f.write_str("threads"),
        }
    }
}

/// Front-end I/O configuration: the model and its sizing.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Which I/O model to run.
    pub model: IoModel,
    /// Reactor thread count (ignored under [`IoModel::Threads`]).
    /// Defaults to `available_parallelism` clamped to `2..=4`: the
    /// reactor is I/O-bound bookkeeping (the shard workers do the heavy
    /// lifting), but a *single* reactor thread serializes every
    /// connection's frame handling behind one scheduler entity, which
    /// measurably inflates round-trip latency versus the threaded model
    /// even on one core — two threads restore pipelining at negligible
    /// cost.
    pub reactor_threads: usize,
}

impl Default for IoConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            model: IoModel::default_for_platform(),
            reactor_threads: cores.clamp(2, 4),
        }
    }
}

/// A bound server, ready to run: a listener in front of a [`Role`].
pub struct Server<R: Role = Service> {
    listener: TcpListener,
    service: Arc<R>,
    addr: SocketAddr,
    io: IoConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the service behind it, with the platform-default I/O model.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Self> {
        Self::bind_with(addr, config, IoConfig::default())
    }

    /// Bind with an explicit I/O configuration.
    pub fn bind_with(addr: &str, config: ServiceConfig, io: IoConfig) -> io::Result<Self> {
        let service = Service::start(config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        Self::with_role(addr, Arc::new(service), io)
    }
}

impl<R: Role> Server<R> {
    /// Bind `addr` in front of an already started role.
    pub fn with_role(addr: &str, service: Arc<R>, io: IoConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            service,
            addr,
            io,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the role, e.g. for in-process inspection in tests.
    pub fn service(&self) -> &Arc<R> {
        &self.service
    }

    /// The I/O configuration this server will run with.
    pub fn io_config(&self) -> IoConfig {
        self.io
    }

    /// Accept and serve until a `SHUTDOWN` request arrives, then drain
    /// the role and return. Consumes the server.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let Self {
            listener,
            service,
            io,
            ..
        } = self;
        let served = match io.model {
            // A fixed number of reactor threads drive all connections.
            IoModel::Reactor => {
                let mut pool = ReactorPool::spawn(&service, io.reactor_threads)?;
                let served = accept_until_shutdown(&listener, &*service, |stream| {
                    pool.dispatch(stream);
                    Ok(())
                });
                drop(listener);
                pool.join();
                served
            }
            // One blocking OS thread per connection.
            IoModel::Threads => {
                let mut connections = Vec::new();
                let served = accept_until_shutdown(&listener, &*service, |stream| {
                    let service = service.clone();
                    connections.push(
                        std::thread::Builder::new()
                            .name("cots-conn".into())
                            .spawn(move || serve_connection(stream, &*service))?,
                    );
                    Ok(())
                });
                drop(listener);
                for c in connections {
                    let _ = c.join();
                }
                served
            }
        };
        // Every connection (and its sink) is gone: quiesce the role.
        service.drain();
        served
    }
}

/// Hand each accepted stream to `admit` until the role's shutdown flag
/// flips. An accept or admission error flags shutdown too, so every
/// connection unwinds before the error surfaces.
fn accept_until_shutdown<R: Role>(
    listener: &TcpListener,
    service: &R,
    mut admit: impl FnMut(TcpStream) -> io::Result<()>,
) -> io::Result<()> {
    let served = loop {
        if service.shutdown_requested() {
            break Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = admit(stream) {
                    break Err(e);
                }
            }
            Err(e) if is_timeout(&e) => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    if served.is_err() {
        service.begin_shutdown();
    }
    served
}

/// Serve one connection until EOF, a protocol violation, or shutdown
/// (the blocking [`IoModel::Threads`] path), then retire its sink.
fn serve_connection<R: Role>(stream: TcpStream, service: &R) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = match stream.try_clone() {
        Ok(s) => io::BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = io::BufWriter::new(stream);
    let mut sink = service.sink();
    let mut conn = ConnState::new();
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean EOF
            Err(e) if is_timeout(&e) => {
                if service.shutdown_requested() {
                    break;
                }
                continue;
            }
            Err(_) => {
                // Framing violation: answer if the socket still works,
                // then drop the connection (resync is impossible).
                let resp = Response::Error {
                    message: "malformed frame".into(),
                };
                let _ = write_frame(&mut writer, &encode(&resp));
                break;
            }
        };
        let (response, close) = role::serve_frame(service, &payload, &mut conn, &mut sink);
        if write_payload(&mut writer, &response).is_err() || close {
            break;
        }
    }
    service.retire(sink);
}
