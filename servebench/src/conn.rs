//! A pipelining client connection.
//!
//! `cots_serve::Client` waits for each response before the next request.
//! An open loop must keep sending on schedule while earlier requests are
//! outstanding, so this connection separates sending from receiving and
//! receives with a deadline. Responses arrive in request order.
//!
//! The deadline wait uses `ppoll(2)`, whose timer has microsecond
//! resolution; a socket read timeout (`SO_RCVTIMEO`) is rounded to the
//! scheduler tick, which would make the open loop milliseconds late.

use std::ffi::{c_int, c_short, c_ulong, c_void};
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use cots_serve::frame::encode_payload;
use cots_serve::protocol::{encode, PROTO_VERSION};
use cots_serve::{Client, FrameAssembler, Payload, Request, Response};

/// How long a blocking call may wait before the run fails.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;

/// Wait up to `timeout` for `fd` to become readable.
fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, aligned locals for the whole call,
    // `nfds` = 1 matches the single `pollfd`, and a null signal mask
    // leaves the mask unchanged.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return match e.kind() {
            io::ErrorKind::Interrupted => Ok(false),
            _ => Err(e),
        };
    }
    Ok(n > 0)
}

fn proto_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One connection to `cots-serve`, greeted with `HELLO` and BIN1
/// negotiated.
pub struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
}

impl Conn {
    /// Connect and complete the handshake; fails unless the server
    /// advertises the `bin` feature.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Self {
            stream,
            asm: FrameAssembler::new(),
        };
        let hello = Request::Hello {
            proto_version: PROTO_VERSION,
            features: vec!["bin".to_string()],
        };
        match conn.call(&hello)? {
            Response::HelloAck { features, .. } if features.iter().any(|f| f == "bin") => Ok(conn),
            other => Err(proto_err(format!("unexpected handshake answer: {other:?}"))),
        }
    }

    /// Send one payload without waiting for its response.
    pub fn send(&mut self, payload: &Payload) -> io::Result<()> {
        self.stream.write_all(&encode_payload(payload))
    }

    /// Send one request as JSON without waiting for its response.
    pub fn send_request(&mut self, request: &Request) -> io::Result<()> {
        self.send(&Payload::Json(encode(request)))
    }

    /// The next response payload, or `None` once `deadline` passes
    /// without one. `None` as the deadline waits up to [`CALL_TIMEOUT`].
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<Payload>> {
        let hard = deadline.is_none();
        let deadline = deadline.unwrap_or_else(|| Instant::now() + CALL_TIMEOUT);
        loop {
            if let Some(p) = self.asm.next_frame().map_err(proto_err)? {
                return Ok(Some(p));
            }
            let now = Instant::now();
            if now >= deadline {
                return if hard {
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no response from server",
                    ))
                } else {
                    Ok(None)
                };
            }
            if !wait_readable(self.stream.as_raw_fd(), deadline - now)? {
                continue;
            }
            match self.asm.fill_from(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Send a request and wait for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send_request(request)?;
        let payload = self
            .recv(None)?
            .expect("a call without deadline returns or fails");
        decode(&payload)
    }

    /// Send `STATS` and return the raw JSON answer.
    pub fn stats_json(&mut self) -> io::Result<String> {
        self.send_request(&Request::Stats)?;
        match self
            .recv(None)?
            .expect("a call without deadline returns or fails")
        {
            Payload::Json(text) => Ok(text),
            Payload::Bin(_) => Err(proto_err("STATS answered in binary")),
        }
    }
}

/// Decode a response payload of either encoding.
pub fn decode(payload: &Payload) -> io::Result<Response> {
    Client::decode_response(payload).map_err(proto_err)
}
