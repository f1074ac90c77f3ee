//! The load: one ingest connection and one query connection.
//!
//! * **Closed loop** ([`closed_loop`]): the next `INGEST` frame goes out
//!   only after the previous one is acked; `OVERLOADED` is retried with
//!   the linear backoff `cots-load` uses.
//! * **Open loop** ([`open_loop`]): frames go out on a fixed schedule
//!   whether or not earlier ones are acked, and each is timed from when
//!   it was due, so a stall also counts against the requests queued
//!   behind it. `OVERLOADED` frames are resent after the same backoff.
//! * **Queries** ([`query_loop`]) run on their own schedule next to
//!   either loop.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cots_serve::{bin1, Payload, QueryReq, Request, Response};

use crate::check::LiveAnswer;
use crate::conn::{decode, Conn};
use crate::gen::{KeyStream, FRAME_KEYS};
use crate::server::await_quiescence;
use crate::trace::Tracer;

/// State the ingest and query threads share.
#[derive(Default)]
pub struct Shared {
    /// Keys in the stream prefix sent so far (stored before each send).
    pub sent_keys: AtomicU64,
    /// Keys acked so far.
    pub acked_keys: AtomicU64,
    /// The ingest side of the phase has finished.
    pub ingest_done: AtomicBool,
}

/// What the ingest connection observed in one phase.
#[derive(Default)]
pub struct IngestResult {
    /// Per frame: due (or send) time to `IngestAck`, µs.
    pub ack_us: Vec<f64>,
    /// Per frame: how late its first send left, ms.
    pub late_ms: Vec<f64>,
    /// Per ack: (ns since the run's epoch, keys acked by then).
    pub acks: Vec<(u64, u64)>,
    /// `OVERLOADED` answers absorbed by resending.
    pub overloaded: u64,
    /// Frames or checkpoints that failed.
    pub errors: u64,
    /// Frames attempted.
    pub frames: u64,
    /// `CHECKPOINT` round trips, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Seconds from the first send to the end of the phase.
    pub elapsed_s: f64,
}

impl IngestResult {
    /// Append a later phase's observations.
    pub fn absorb(&mut self, other: IngestResult) {
        self.ack_us.extend(other.ack_us);
        self.late_ms.extend(other.late_ms);
        self.acks.extend(other.acks);
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.frames += other.frames;
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.elapsed_s += other.elapsed_s;
    }
}

/// Query kinds a workload cycles through.
#[derive(Clone, Copy, Debug)]
pub enum QueryKind {
    /// `frequent(φ)`.
    Frequent,
    /// `top-k`.
    TopK,
    /// Point frequency of a key drawn from the stream's law.
    Point,
}

/// A workload's query schedule.
pub struct QueryPlan {
    /// Queries per second.
    pub qps: f64,
    /// Kinds, cycled in order.
    pub mix: &'static [QueryKind],
}

/// Support fraction of every `frequent` query.
pub const PHI: f64 = 0.01;
/// `k` of every `top-k` query.
pub const TOP_K: usize = 100;

/// What the query connection observed in one phase.
#[derive(Default)]
pub struct QueryResult {
    /// Per answer: due time to answer, µs.
    pub lat_us: Vec<f64>,
    /// Per query: how late it left, ms.
    pub late_ms: Vec<f64>,
    /// Per answer: (ns since the run's epoch, captured total).
    pub answers: Vec<(u64, u64)>,
    /// Per answer: staleness stamp, keys.
    pub staleness: Vec<u64>,
    /// Answers kept for the exact-truth check.
    pub live: Vec<LiveAnswer>,
    /// Queries refused or errored.
    pub errors: u64,
    /// Queries sent.
    pub attempted: u64,
}

impl QueryResult {
    /// Append a later phase's observations.
    pub fn absorb(&mut self, other: QueryResult) {
        self.lat_us.extend(other.lat_us);
        self.late_ms.extend(other.late_ms);
        self.answers.extend(other.answers);
        self.staleness.extend(other.staleness);
        self.live.extend(other.live);
        self.errors += other.errors;
        self.attempted += other.attempted;
    }
}

/// Linear backoff after the `tries`-th `OVERLOADED`, capped at 5 ms (as
/// in `cots-load`).
fn backoff(tries: u64) -> Duration {
    Duration::from_micros((50 * tries).min(5_000))
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Checkpoint cadence: after the frame that ends at a multiple of
/// `every` keys.
fn checkpoint_due(every: Option<u64>, keys_sent: u64) -> bool {
    every.is_some_and(|c| keys_sent.is_multiple_of(c))
}

fn checkpoint(conn: &mut Conn, out: &mut IngestResult) -> io::Result<()> {
    let t = Instant::now();
    match conn.call(&Request::Checkpoint)? {
        Response::Checkpointed { .. } => {
            out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(())
        }
        other => Err(io::Error::other(format!("CHECKPOINT answered {other:?}"))),
    }
}

/// Send `keys` (frames `first_frame..`) one frame at a time, each after
/// the previous ack, then wait until every key is applied with zero
/// staleness.
pub fn closed_loop(
    conn: &mut Conn,
    keys: &[u64],
    first_frame: u64,
    checkpoint_every: Option<u64>,
    shared: &Shared,
    tracer: &mut Tracer,
) -> io::Result<IngestResult> {
    let mut out = IngestResult::default();
    let start = Instant::now();
    for (i, frame) in keys.chunks(FRAME_KEYS).enumerate() {
        let req = first_frame + i as u64;
        send_closed(conn, frame, req, checkpoint_every, shared, &mut out, tracer)?;
    }
    let id = tracer.begin("ingest.quiesce", None, first_frame);
    await_quiescence(conn, shared.acked_keys.load(Ordering::Acquire))?;
    tracer.end(id);
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// One closed-loop frame: send, resend on `OVERLOADED`, and checkpoint
/// when the cadence says so.
fn send_closed(
    conn: &mut Conn,
    frame: &[u64],
    req: u64,
    checkpoint_every: Option<u64>,
    shared: &Shared,
    out: &mut IngestResult,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let end_keys = (req + 1) * FRAME_KEYS as u64;
    let root = tracer.begin("ingest.frame", None, req);
    let payload = tracer.time("serve.bin1.encode", root, req, || {
        Payload::Bin(bin1::encode_ingest(frame))
    });
    shared.sent_keys.store(end_keys, Ordering::Release);
    let sent = Instant::now();
    let mut tries = 0;
    loop {
        let rt = tracer.begin("wire.round_trip", root, req);
        conn.send(&payload)?;
        let response = decode(&conn.recv(None)?.expect("blocking receive"))?;
        tracer.end(rt);
        match response {
            Response::IngestAck { enqueued } if enqueued == frame.len() as u64 => break,
            Response::Overloaded => {
                tries += 1;
                out.overloaded += 1;
                std::thread::sleep(backoff(tries));
            }
            other => return Err(io::Error::other(format!("INGEST answered {other:?}"))),
        }
    }
    out.ack_us.push(sent.elapsed().as_secs_f64() * 1e6);
    out.frames += 1;
    shared.acked_keys.store(end_keys, Ordering::Release);
    tracer.end(root);
    if checkpoint_due(checkpoint_every, end_keys) {
        let id = tracer.begin("persist.checkpoint", None, req);
        checkpoint(conn, out)?;
        tracer.end(id);
    }
    Ok(())
}

/// A request in flight on the open-loop connection.
struct Pending {
    req: u64,
    due: Instant,
    tries: u64,
    what: PendingKind,
}

enum PendingKind {
    Frame {
        payload: Payload,
        keys: u64,
        encode: (Instant, Instant),
        send: (Instant, Instant),
    },
    Checkpoint,
}

/// Send frames `first_frame..first_frame + frames` at `rate` keys/s on a
/// fixed schedule, pipelined, drawing each frame just before it is due.
/// Returns once every frame is acked.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    stream: &KeyStream,
    first_frame: u64,
    frames: u64,
    rate: f64,
    checkpoint_every: Option<u64>,
    shared: &Shared,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<IngestResult> {
    let mut out = IngestResult::default();
    let period = Duration::from_secs_f64(FRAME_KEYS as f64 / rate);
    let (mut ranks, mut keys) = (Vec::new(), Vec::new());
    stream.frame(first_frame, &mut ranks, &mut keys);
    let start = Instant::now() + Duration::from_millis(2);
    let mut next = 0u64;
    let mut in_flight: VecDeque<Pending> = VecDeque::new();
    let mut resend: Vec<(Instant, Pending)> = Vec::new();
    let mut acked = shared.acked_keys.load(Ordering::Acquire);

    let mut on_response = |p: Payload,
                           in_flight: &mut VecDeque<Pending>,
                           resend: &mut Vec<(Instant, Pending)>,
                           out: &mut IngestResult,
                           tracer: &mut Tracer|
     -> io::Result<()> {
        let now = Instant::now();
        let mut pending = in_flight
            .pop_front()
            .ok_or_else(|| io::Error::other("response without a request"))?;
        let response = decode(&p)?;
        match (&pending.what, response) {
            (
                PendingKind::Frame {
                    keys, encode, send, ..
                },
                Response::IngestAck { enqueued },
            ) if enqueued == *keys => {
                out.ack_us.push((now - pending.due).as_secs_f64() * 1e6);
                acked += keys;
                shared.acked_keys.store(acked, Ordering::Release);
                out.acks.push((ns_since(epoch, now), acked));
                let root = tracer.record("ingest.frame", pending.due, now, None, pending.req);
                tracer.record("serve.bin1.encode", encode.0, encode.1, root, pending.req);
                tracer.record("wire.send", send.0, send.1, root, pending.req);
                tracer.record("wire.ack_wait", send.1, now, root, pending.req);
            }
            (PendingKind::Frame { .. }, Response::Overloaded) => {
                out.overloaded += 1;
                pending.tries += 1;
                resend.push((now + backoff(pending.tries), pending));
            }
            (PendingKind::Checkpoint, Response::Checkpointed { .. }) => {
                out.checkpoint_ms
                    .push((now - pending.due).as_secs_f64() * 1e3);
                tracer.record("persist.checkpoint", pending.due, now, None, pending.req);
            }
            (_, other) => {
                eprintln!("servebench: open-loop request answered {other:?}");
                out.errors += 1;
            }
        }
        Ok(())
    };

    loop {
        if next == frames && in_flight.is_empty() && resend.is_empty() {
            break;
        }
        let next_due = (next < frames).then(|| start + period.mul_f64(next as f64));
        let next_resend = resend.iter().map(|(t, _)| *t).min();
        let wake = match (next_due, next_resend) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match wake {
            Some(w) => {
                while let Some(p) = conn.recv(Some(w))? {
                    on_response(p, &mut in_flight, &mut resend, &mut out, tracer)?;
                }
            }
            None => {
                let p = conn.recv(None)?.expect("blocking receive");
                on_response(p, &mut in_flight, &mut resend, &mut out, tracer)?;
                continue;
            }
        }
        let now = Instant::now();
        let mut i = 0;
        while i < resend.len() {
            if resend[i].0 <= now {
                let (_, pending) = resend.swap_remove(i);
                if let PendingKind::Frame { payload, .. } = &pending.what {
                    conn.send(payload)?;
                }
                in_flight.push_back(pending);
            } else {
                i += 1;
            }
        }
        let Some(due) = next_due.filter(|d| *d <= now) else {
            continue;
        };
        let req = first_frame + next;
        let end_keys = (req + 1) * FRAME_KEYS as u64;
        let enc_start = Instant::now();
        out.late_ms.push((enc_start - due).as_secs_f64() * 1e3);
        let payload = Payload::Bin(bin1::encode_ingest(&keys));
        let enc_end = Instant::now();
        shared.sent_keys.store(end_keys, Ordering::Release);
        conn.send(&payload)?;
        let send_end = Instant::now();
        in_flight.push_back(Pending {
            req,
            due,
            tries: 0,
            what: PendingKind::Frame {
                payload,
                keys: keys.len() as u64,
                encode: (enc_start, enc_end),
                send: (enc_end, send_end),
            },
        });
        out.frames += 1;
        next += 1;
        if checkpoint_due(checkpoint_every, end_keys) {
            conn.send_request(&Request::Checkpoint)?;
            in_flight.push_back(Pending {
                req,
                due: Instant::now(),
                tries: 0,
                what: PendingKind::Checkpoint,
            });
        }
        if next < frames {
            stream.frame(first_frame + next, &mut ranks, &mut keys);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// Issue queries at `plan.qps` until the ingest side is done and an
/// answer covers every acked key (or 2 s after ingest ended), then wait
/// for the outstanding answers.
#[allow(clippy::too_many_arguments)]
pub fn query_loop(
    conn: &mut Conn,
    plan: &QueryPlan,
    stream: &KeyStream,
    seed: u64,
    shared: &Shared,
    open: bool,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<QueryResult> {
    let mut out = QueryResult::default();
    let period = Duration::from_secs_f64(1.0 / plan.qps);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5155_4552_5953);
    let start = Instant::now();
    let mut next = 0u64;
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut covered = 0u64;
    let mut give_up: Option<Instant> = None;

    let on_answer = |p: Payload,
                     in_flight: &mut VecDeque<(u64, Instant)>,
                     out: &mut QueryResult,
                     covered: &mut u64,
                     tracer: &mut Tracer|
     -> io::Result<()> {
        let now = Instant::now();
        let (req, due) = in_flight
            .pop_front()
            .ok_or_else(|| io::Error::other("answer without a query"))?;
        match decode(&p)? {
            Response::Answer { entries, stamp, .. } => {
                let sent_keys = shared.sent_keys.load(Ordering::Acquire);
                out.lat_us.push((now - due).as_secs_f64() * 1e6);
                out.answers
                    .push((ns_since(epoch, now), stamp.captured_total));
                out.staleness.push(stamp.staleness);
                *covered = (*covered).max(stamp.captured_total);
                out.live.push(LiveAnswer {
                    sent_keys,
                    captured_total: stamp.captured_total,
                    entries,
                    open,
                });
                tracer.record("query", due, now, None, req);
            }
            other => {
                eprintln!("servebench: query answered {other:?}");
                out.errors += 1;
            }
        }
        Ok(())
    };

    loop {
        let now = Instant::now();
        if shared.ingest_done.load(Ordering::Acquire) {
            let stop = *give_up.get_or_insert(now + Duration::from_secs(2));
            if covered >= shared.acked_keys.load(Ordering::Acquire) || now >= stop {
                while !in_flight.is_empty() {
                    let p = conn.recv(None)?.expect("blocking receive");
                    on_answer(p, &mut in_flight, &mut out, &mut covered, tracer)?;
                }
                return Ok(out);
            }
        }
        let due = start + period.mul_f64(next as f64);
        while let Some(p) = conn.recv(Some(due))? {
            on_answer(p, &mut in_flight, &mut out, &mut covered, tracer)?;
        }
        let sent = Instant::now();
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        let q = match plan.mix[next as usize % plan.mix.len()] {
            QueryKind::Frequent => QueryReq::Frequent { phi: PHI },
            QueryKind::TopK => QueryReq::TopK { k: TOP_K },
            QueryKind::Point => QueryReq::Point {
                key: stream.id_of_rank(stream.sample_rank(&mut rng)),
            },
        };
        conn.send_request(&Request::Query(q))?;
        in_flight.push_back((next, due));
        out.attempted += 1;
        next += 1;
    }
}
