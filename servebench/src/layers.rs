//! Per-layer measurements for the traced run.
//!
//! Each pass calls one layer's entry point directly, in this process, on
//! frames of the workload's own stream, and records a span around every
//! call. The numbers that only the running server can give (queue
//! depths, parks, epochs, WAL syncs) come from its `STATS` instead.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cots::CotsEngine;
use cots_core::{CotsConfig, WorkCounters};
use cots_persist::{FsyncPolicy, WalWriter, DEFAULT_SEGMENT_BYTES};
use cots_serve::frame::encode_payload;
use cots_serve::protocol::{encode, PROTO_VERSION};
use cots_serve::{
    bin1, Backend, Client, ConnState, FrameAssembler, Payload, QueryReq, Request, Response,
    SendOutcome, Service, ServiceConfig, ShardPool, ShardSender,
};

use crate::gen::FRAME_KEYS;
use crate::stat::median;
use crate::trace::Tracer;

/// Shards and counters of every workload's server.
pub const SHARDS: usize = 2;
/// Counter budget of every workload's server.
pub const CAPACITY: usize = 1000;

fn err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Wire-path costs of one sample of frames.
pub struct WireLayers {
    /// `Client::encode_ingest`, ns per key.
    pub encode_ns_per_key: f64,
    /// `bin1::decode_request`, ns per key.
    pub decode_ns_per_key: f64,
    /// `FrameAssembler::extend` plus `next_frame`, ns per frame.
    pub assemble_ns_per_frame: f64,
}

/// Encode `sample` with a real client, then reassemble and decode the
/// wire bytes as the server's reactor would.
pub fn wire(
    addr: &str,
    sample: &[u64],
    tracer: &mut Tracer,
) -> io::Result<(WireLayers, Vec<Payload>)> {
    let client = Client::connect(addr)?;
    if !client.is_binary() {
        return Err(err("the server did not negotiate BIN1"));
    }
    let mut payloads = Vec::new();
    let mut encode = Duration::ZERO;
    for (i, keys) in sample.chunks(FRAME_KEYS).enumerate() {
        let t = Instant::now();
        let p = client.encode_ingest(keys);
        let e = Instant::now();
        encode += e - t;
        tracer.record("serve.bin1.encode", t, e, None, i as u64);
        payloads.push(p);
    }
    drop(client);

    let wire: Vec<u8> = payloads.iter().flat_map(encode_payload).collect();
    let mut asm = FrameAssembler::new();
    let mut assembled = Vec::with_capacity(payloads.len());
    let mut assemble = Duration::ZERO;
    for (i, chunk) in wire.chunks(64 * 1024).enumerate() {
        let t = Instant::now();
        asm.extend(chunk);
        while let Some(p) = asm.next_frame().map_err(err)? {
            assembled.push(p);
        }
        let e = Instant::now();
        assemble += e - t;
        tracer.record("serve.frame.assemble", t, e, None, i as u64);
    }
    if assembled.len() != payloads.len() {
        return Err(err("frame reassembly lost frames"));
    }

    let mut decode = Duration::ZERO;
    for (i, p) in assembled.iter().enumerate() {
        let t = Instant::now();
        let request = bin1::decode_request(p.bytes()).map_err(err)?;
        let e = Instant::now();
        decode += e - t;
        tracer.record("serve.bin1.decode", t, e, None, i as u64);
        match request {
            Request::Ingest { keys } if keys.len() == FRAME_KEYS => {}
            other => return Err(err(format!("BIN1 frame decoded to {other:?}"))),
        }
    }
    let keys = sample.len() as f64;
    Ok((
        WireLayers {
            encode_ns_per_key: ns(encode) / keys,
            decode_ns_per_key: ns(decode) / keys,
            assemble_ns_per_frame: ns(assemble) / assembled.len() as f64,
        },
        payloads,
    ))
}

/// Service-path costs on an in-process service.
pub struct ServiceLayers {
    /// Median accepted `Service::serve_frame` call per INGEST frame, µs.
    pub serve_frame_p50_us: f64,
    /// Median accepted `ShardSender::send` call on the same batches, µs.
    pub send_p50_us: f64,
    /// Median `Service::handle` of `frequent`, `top-k`, `point`, µs.
    pub query_us: [f64; 3],
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        capacity: CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Feed `payloads` through `Service::serve_frame`, query the loaded
/// service, then time `ShardSender::send` on the same batches. Calls
/// answered `OVERLOADED` are resent and left out of the medians: they
/// pay for the partition but enqueue nothing.
pub fn service(
    payloads: &[Payload],
    query: &[QueryReq; 3],
    reps: usize,
    tracer: &mut Tracer,
) -> io::Result<ServiceLayers> {
    let svc = Service::start(service_config()).map_err(err)?;
    let mut sender = svc.connect();
    let mut conn = ConnState::new();
    let hello = Payload::Json(encode(&Request::Hello {
        proto_version: PROTO_VERSION,
        features: vec!["bin".into()],
    }));
    svc.serve_frame(&hello, &mut conn, &mut sender);
    let mut per_frame = Vec::with_capacity(payloads.len());
    for (i, p) in payloads.iter().enumerate() {
        loop {
            let t = Instant::now();
            let (reply, _) = svc.serve_frame(p, &mut conn, &mut sender);
            let e = Instant::now();
            tracer.record("serve.service.serve_frame", t, e, None, i as u64);
            match crate::conn::decode(&reply)? {
                Response::IngestAck { .. } => {
                    per_frame.push((e - t).as_secs_f64() * 1e6);
                    break;
                }
                Response::Overloaded => std::thread::sleep(Duration::from_micros(50)),
                other => return Err(err(format!("serve_frame answered {other:?}"))),
            }
        }
    }
    let keys = (payloads.len() * FRAME_KEYS) as u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = svc.stats();
        if s.applied_keys() >= keys && s.staleness == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(err("in-process service did not quiesce"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut query_us = [0.0; 3];
    let names = [
        "serve.service.query_frequent",
        "serve.service.query_topk",
        "serve.service.query_point",
    ];
    for (slot, (q, name)) in query_us.iter_mut().zip(query.iter().zip(names)) {
        let mut samples = Vec::with_capacity(reps);
        for r in 0..reps {
            let t = Instant::now();
            let response = svc.handle(Request::Query(q.clone()), &mut sender);
            let e = Instant::now();
            tracer.record(name, t, e, None, r as u64);
            if !matches!(response, Response::Answer { .. }) {
                return Err(err(format!("query answered {response:?}")));
            }
            samples.push((e - t).as_secs_f64() * 1e6);
        }
        *slot = median(&mut samples);
    }
    drop(sender);
    svc.drain();

    // The same batches through a bare shard pool: the partition and ring
    // enqueue that `serve_frame` performs inside.
    let engine =
        Arc::new(CotsEngine::new(CotsConfig::for_capacity(CAPACITY).map_err(err)?).map_err(err)?);
    let backend = Backend::Engine(engine);
    let pool = ShardPool::new(SHARDS, ServiceConfig::default().queue_batches);
    let workers = pool.spawn_workers(&backend, None);
    let mut sender = pool.connect();
    let mut sends = Vec::with_capacity(payloads.len());
    for (i, p) in payloads.iter().enumerate() {
        let keys = bin1::decode_request(p.bytes()).map_err(err)?;
        let Request::Ingest { keys } = keys else {
            return Err(err("not an INGEST frame"));
        };
        loop {
            let t = Instant::now();
            let outcome = sender.send(&keys);
            let e = Instant::now();
            tracer.record("serve.shard.send", t, e, None, i as u64);
            if outcome == SendOutcome::Enqueued {
                sends.push((e - t).as_secs_f64() * 1e6);
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    drop(sender);
    pool.begin_shutdown();
    for w in workers {
        w.join().map_err(|_| err("shard worker panicked"))?;
    }
    Ok(ServiceLayers {
        serve_frame_p50_us: median(&mut per_frame),
        send_p50_us: median(&mut sends),
        query_us,
    })
}

/// Engine costs on a standalone engine fed by one thread per shard.
pub struct EngineLayers {
    /// `delegate_batch` busy time summed over threads, ns per key.
    pub apply_ns_per_key: f64,
    /// Work counters after the feed.
    pub work: WorkCounters,
    /// Median `Backend::capture` on the loaded engine, µs.
    pub capture_us: f64,
}

/// Feed `keys` to a standalone engine from `SHARDS` threads, each taking
/// its `ShardSender::shard_of` partition of every frame, then time
/// snapshot capture.
pub fn engine(keys: &[u64], captures: usize, tracer: &mut Tracer) -> io::Result<EngineLayers> {
    let engine =
        Arc::new(CotsEngine::new(CotsConfig::for_capacity(CAPACITY).map_err(err)?).map_err(err)?);
    let epoch_tracers: Vec<Tracer> = (0..SHARDS).map(|_| tracer.fork()).collect();
    let results: Vec<(Duration, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = epoch_tracers
            .into_iter()
            .enumerate()
            .map(|(shard, mut tr)| {
                let engine = &engine;
                s.spawn(move || {
                    let mut busy = Duration::ZERO;
                    let mut part = Vec::with_capacity(FRAME_KEYS);
                    for (i, frame) in keys.chunks(FRAME_KEYS).enumerate() {
                        part.clear();
                        part.extend(
                            frame
                                .iter()
                                .filter(|&&k| ShardSender::shard_of(k, SHARDS) == shard),
                        );
                        let t = Instant::now();
                        engine.delegate_batch(&part);
                        let e = Instant::now();
                        busy += e - t;
                        tr.record("cots.engine.delegate_batch", t, e, None, i as u64);
                    }
                    (busy, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine feeder panicked"))
            .collect()
    });
    let mut busy = Duration::ZERO;
    for (b, tr) in results {
        busy += b;
        tracer.absorb(tr);
    }
    let work = engine.work();
    let backend = Backend::Engine(engine);
    let mut samples = Vec::with_capacity(captures);
    for r in 0..captures {
        let t = Instant::now();
        let (snap, _, _) = backend.capture();
        let e = Instant::now();
        std::hint::black_box(snap);
        tracer.record("cots.publish.capture", t, e, None, r as u64);
        samples.push((e - t).as_secs_f64() * 1e6);
    }
    Ok(EngineLayers {
        apply_ns_per_key: ns(busy) / keys.len() as f64,
        work,
        capture_us: median(&mut samples),
    })
}

/// WAL costs measured in a scratch directory on the data directory's
/// device.
pub struct WalLayers {
    /// `WalWriter::append_run`, ns per key.
    pub append_ns_per_key: f64,
    /// Median `WalWriter::commit` under `FsyncPolicy::Always`, µs.
    pub commit_us: f64,
    /// Median 4 KiB write + fsync, µs.
    pub device_fsync_us: f64,
}

/// Log `sample`'s per-shard batches in bursts of `burst`, one commit per
/// burst, as the shard workers do; then probe the device's fsync.
pub fn wal(dir: &Path, sample: &[u64], burst: usize, tracer: &mut Tracer) -> io::Result<WalLayers> {
    let _ = std::fs::remove_dir_all(dir);
    let mut writer =
        WalWriter::open(dir, 0, FsyncPolicy::Always, DEFAULT_SEGMENT_BYTES).map_err(err)?;
    let mut batches: Vec<Vec<Vec<u64>>> = vec![Vec::new(); SHARDS];
    for frame in sample.chunks(FRAME_KEYS) {
        let mut parts = vec![Vec::new(); SHARDS];
        for &k in frame {
            parts[ShardSender::shard_of(k, SHARDS)].push(k);
        }
        for (shard, part) in parts.into_iter().enumerate() {
            batches[shard].push(part);
        }
    }
    let mut append = Duration::ZERO;
    let mut commits = Vec::new();
    let mut seq = 0u64;
    for (i, group) in batches
        .iter()
        .flat_map(|b| b.chunks(burst.max(1)))
        .enumerate()
    {
        let t = Instant::now();
        writer.append_run(seq, group);
        let a = Instant::now();
        writer.commit().map_err(err)?;
        let c = Instant::now();
        seq += group.len() as u64;
        append += a - t;
        commits.push((c - a).as_secs_f64() * 1e6);
        tracer.record("persist.wal.append_run", t, a, None, i as u64);
        tracer.record("persist.wal.commit", a, c, None, i as u64);
    }
    drop(writer);

    let probe = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&probe)?;
    let block = [0x5au8; 4096];
    let mut fsyncs = Vec::new();
    for r in 0..64 {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        let e = Instant::now();
        tracer.record("persist.device_fsync", t, e, None, r);
        fsyncs.push((e - t).as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_dir_all(dir)?;
    Ok(WalLayers {
        append_ns_per_key: ns(append) / sample.len() as f64,
        commit_us: median(&mut commits),
        device_fsync_us: median(&mut fsyncs),
    })
}

/// Recovery costs on a copy of a data directory.
pub struct RecoverLayers {
    /// `cots_persist::recover` wall time, s.
    pub scan_s: f64,
    /// Replay of the recovered WAL tail into a fresh engine, M keys/s.
    pub replay_mips: f64,
    /// Keys replayed from the WAL tail.
    pub replayed_keys: u64,
}

/// Recover `dir` and replay its WAL tail into a fresh engine.
pub fn recover(dir: &Path, tracer: &mut Tracer) -> io::Result<RecoverLayers> {
    let t = Instant::now();
    let rec = cots_persist::recover(dir).map_err(err)?;
    let scanned = Instant::now();
    tracer.record("persist.recover.scan", t, scanned, None, 0);
    let engine =
        CotsEngine::<u64>::new(CotsConfig::for_capacity(CAPACITY).map_err(err)?).map_err(err)?;
    let r = Instant::now();
    for batch in &rec.batches {
        engine.delegate_batch(&batch.keys);
    }
    engine.finalize();
    let replayed = Instant::now();
    tracer.record("persist.recover.replay", r, replayed, None, 0);
    let keys = rec.report.replayed_items;
    Ok(RecoverLayers {
        scan_s: (scanned - t).as_secs_f64(),
        replay_mips: keys as f64 / (replayed - r).as_secs_f64().max(1e-9) / 1e6,
        replayed_keys: keys,
    })
}
