//! End-to-end tests for the `HELLO` handshake and `SNAPSHOT_PAGE`
//! streaming: version gating over a real socket under both I/O models,
//! paged reassembly equal to the one-shot snapshot, the `unchanged`
//! delta short-circuit, a summary too large for any single frame, and
//! the error that replaces an answer over the frame cap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cots::{SnapshotPublisher, StampedSnapshot};
use cots_core::CounterEntry;
use cots_serve::protocol::encode;
use cots_serve::{
    Client, ConnState, IoConfig, IoModel, QueryReq, QueryStamp, Request, Response, Role, Server,
    Service, ServiceConfig, MAX_FRAME, MAX_PAGE_ENTRIES, PROTO_VERSION,
};

fn spawn_server(model: IoModel, capacity: usize) -> (String, std::thread::JoinHandle<()>) {
    let io = IoConfig {
        model,
        ..IoConfig::default()
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServiceConfig {
            shards: 2,
            capacity,
            refresh: Duration::from_millis(2),
            ..Default::default()
        },
        io,
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

/// Wait until the server's publisher epoch holds still — the
/// refresher's confirming publish after quiescence has landed, so the
/// epoch read here stays valid for `since_epoch` comparisons.
fn settled_epoch(client: &mut Client) -> u64 {
    for _ in 0..1_000 {
        let epoch = client.stats().expect("stats").snapshot_epoch;
        std::thread::sleep(Duration::from_millis(25));
        if client.stats().expect("stats").snapshot_epoch == epoch {
            return epoch;
        }
    }
    panic!("publisher epoch never settled");
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A client that skips HELLO gets `UNSUPPORTED_VERSION` (requested = 0)
/// and the server closes the connection; a wrong version is echoed
/// back; the proper handshake works — under both I/O models.
#[test]
fn handshake_is_mandatory_on_the_wire() {
    for model in [IoModel::Reactor, IoModel::Threads] {
        let (addr, handle) = spawn_server(model, 64);

        // Op before HELLO: rejected, then closed.
        let mut raw = Client::connect_raw(&addr).expect("raw connect");
        raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
        match raw.call(&Request::Stats) {
            Ok(Response::UnsupportedVersion {
                supported,
                requested,
            }) => {
                assert_eq!(supported, PROTO_VERSION, "model {model}");
                assert_eq!(requested, 0, "model {model}");
            }
            other => panic!("model {model}: unexpected pre-HELLO answer: {other:?}"),
        }
        assert!(
            raw.recv().is_err(),
            "model {model}: connection should be closed after the rejection"
        );

        // Wrong version: named in the rejection, then closed.
        let mut raw = Client::connect_raw(&addr).expect("raw connect");
        raw.set_timeout(Some(Duration::from_secs(10))).unwrap();
        match raw.call(&Request::Hello {
            proto_version: 999,
            features: vec![],
        }) {
            Ok(Response::UnsupportedVersion {
                supported,
                requested,
            }) => {
                assert_eq!(supported, PROTO_VERSION, "model {model}");
                assert_eq!(requested, 999, "model {model}");
            }
            other => panic!("model {model}: unexpected bad-HELLO answer: {other:?}"),
        }
        assert!(raw.recv().is_err(), "model {model}: closed after rejection");

        // The blessed path: Client::connect performs HELLO and the
        // connection is fully usable afterwards.
        let mut client = Client::connect(&addr).expect("handshake connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let (version, features) = client.hello().expect("re-HELLO is idempotent");
        assert_eq!(version, PROTO_VERSION);
        assert!(features.iter().any(|f| f == "snapshot-page"));
        client.ingest(&[1, 2, 3]).expect("ingest after handshake");

        shutdown(&addr, handle);
    }
}

/// Page through a snapshot over the wire and check the reassembly is
/// exactly the one-shot `SNAPSHOT` answer, then exercise the
/// `unchanged` delta short-circuit.
#[test]
fn paged_snapshot_matches_one_shot_over_the_wire() {
    let (addr, handle) = spawn_server(IoModel::Reactor, 32);
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let keys: Vec<u64> = (0..5_000u64).map(|i| i % 20).collect();
    for chunk in keys.chunks(512) {
        client.ingest(chunk).expect("ingest");
    }
    cots_serve::loadgen::await_quiescence(&mut client, keys.len() as u64).expect("quiesce");
    let stable = settled_epoch(&mut client);

    let (full_entries, full_total, full_epoch) =
        match client.call(&Request::Snapshot).expect("snapshot") {
            Response::Snapshot { snapshot, stamp } => {
                (snapshot.entries().to_vec(), snapshot.total(), stamp.epoch)
            }
            other => panic!("unexpected: {other:?}"),
        };
    assert_eq!(full_entries.len(), 20);
    assert_eq!(full_total, 5_000);
    assert_eq!(full_epoch, stable);

    // Pull the same summary in pages of 7.
    let mut paged: Vec<CounterEntry<u64>> = Vec::new();
    let mut offset = 0usize;
    loop {
        let resp = client
            .call(&Request::SnapshotPage {
                since_epoch: 0,
                offset,
                limit: 7,
            })
            .expect("page");
        match resp {
            Response::SnapshotPage {
                entries,
                offset: at,
                total_entries,
                total,
                done,
                unchanged,
                stamp,
            } => {
                assert!(!unchanged);
                assert_eq!(at, offset);
                assert_eq!(total_entries, full_entries.len());
                assert_eq!(total, full_total);
                assert_eq!(stamp.epoch, full_epoch, "quiesced: same epoch throughout");
                offset += entries.len();
                paged.extend(entries);
                if done {
                    break;
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(paged, full_entries, "paged reassembly == one-shot snapshot");

    // A puller that already holds this epoch gets a tiny `unchanged`
    // answer instead of the data again.
    match client
        .call(&Request::SnapshotPage {
            since_epoch: full_epoch,
            offset: 0,
            limit: MAX_PAGE_ENTRIES,
        })
        .expect("delta page")
    {
        Response::SnapshotPage {
            entries,
            unchanged,
            done,
            stamp,
            ..
        } => {
            assert!(unchanged && done && entries.is_empty());
            assert_eq!(stamp.epoch, full_epoch);
        }
        other => panic!("unexpected: {other:?}"),
    }

    shutdown(&addr, handle);
}

/// A summary whose one-shot encoding exceeds the 16 MiB frame cap can
/// only move via `SNAPSHOT_PAGE`: every page stays under the cap and
/// the reassembly is exact. In-process against the [`Service`] so the
/// test ingests half a million distinct keys in milliseconds, while
/// exercising the same pinned-transfer path the wire uses.
#[test]
fn oversized_snapshot_streams_in_pages() {
    let capacity = 500_000usize;
    let service = Service::start(ServiceConfig {
        shards: 1,
        capacity,
        refresh: Duration::from_millis(5),
        queue_batches: 64,
        ..Default::default()
    })
    .expect("service");
    let mut sender = service.connect();

    // Large key values inflate the JSON encoding well past the frame
    // cap at this entry count.
    let base = 1_000_000_000_000_000u64;
    let items = 600_000u64;
    let mut next = 0u64;
    while next < items {
        let end = (next + 4_096).min(items);
        let keys: Vec<u64> = (next..end).map(|i| base + i).collect();
        loop {
            match service.handle(
                Request::Ingest { keys: keys.clone() },
                &mut sender,
            ) {
                Response::IngestAck { .. } => break,
                Response::Overloaded => std::thread::sleep(Duration::from_micros(200)),
                other => panic!("unexpected ingest answer: {other:?}"),
            }
        }
        next = end;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let stats = service.stats();
        if stats.applied_keys() >= items && stats.staleness == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service did not quiesce: {} applied",
            stats.applied_keys()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the confirming publish land so the epoch stays frozen for the
    // duration of the transfer.
    loop {
        let epoch = service.stats().snapshot_epoch;
        std::thread::sleep(Duration::from_millis(25));
        if service.stats().snapshot_epoch == epoch {
            break;
        }
    }

    // The one-shot answer physically cannot fit one frame.
    let (snapshot, one_shot_stamp) = match service.handle(Request::Snapshot, &mut sender) {
        Response::Snapshot { snapshot, stamp } => (snapshot, stamp),
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(snapshot.len(), capacity);
    let one_shot = encode(&Response::Snapshot {
        snapshot: snapshot.clone(),
        stamp: one_shot_stamp,
    });
    assert!(
        one_shot.len() > MAX_FRAME,
        "one-shot snapshot must exceed the frame cap for this test to bite \
         ({} <= {MAX_FRAME})",
        one_shot.len()
    );

    // Stream it in pages through the pinned-transfer path: every page
    // frames, and the reassembly is exact.
    let mut conn = ConnState::pre_greeted();
    let mut paged: Vec<CounterEntry<u64>> = Vec::new();
    let mut offset = 0usize;
    let mut pages = 0usize;
    let mut pinned_epoch = None;
    loop {
        let reply = cots_serve::role::serve(
            &service,
            Request::SnapshotPage {
                since_epoch: 0,
                offset,
                limit: MAX_PAGE_ENTRIES,
            },
            &mut conn,
            &mut sender,
        );
        let framed = encode(&reply.response);
        assert!(
            framed.len() <= MAX_FRAME,
            "page {pages} overflows a frame: {} bytes",
            framed.len()
        );
        match reply.response {
            Response::SnapshotPage {
                entries,
                total_entries,
                done,
                unchanged,
                stamp,
                ..
            } => {
                assert!(!unchanged);
                assert_eq!(total_entries, capacity);
                // The transfer is pinned: every page reads the same
                // epoch, no matter what publishes underneath it.
                let epoch = *pinned_epoch.get_or_insert(stamp.epoch);
                assert_eq!(stamp.epoch, epoch);
                offset += entries.len();
                paged.extend(entries);
                pages += 1;
                if done {
                    break;
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(pages > 1, "a >16 MiB summary must take multiple pages");
    assert_eq!(paged.len(), snapshot.len());
    // The pinned transfer may be a different (equal-content) publish
    // than the one-shot; equal counts tie-break in capture order, so
    // compare as multisets.
    let mut paged_sorted = paged;
    paged_sorted.sort_by_key(|e| e.item);
    let mut full_sorted = snapshot.entries().to_vec();
    full_sorted.sort_by_key(|e| e.item);
    assert_eq!(paged_sorted, full_sorted);

    drop(sender);
    service.drain();
}

/// A role whose `SNAPSHOT` answer is larger than one frame, so the
/// front-end's frame-cap fallback is exercised without building a huge
/// summary.
#[derive(Default)]
struct Oversized {
    publisher: SnapshotPublisher<u64>,
    shutdown: AtomicBool,
}

impl Role for Oversized {
    type Sink = ();

    const FEATURES: &'static [&'static str] = &["snapshot-page"];

    fn sink(&self) {}

    fn retire(&self, _sink: ()) {}

    fn pin(&self, _sink: &mut ()) -> Arc<StampedSnapshot<u64>> {
        self.publisher.current()
    }

    fn stamp(&self, snap: &StampedSnapshot<u64>) -> QueryStamp {
        QueryStamp {
            epoch: snap.epoch,
            captured_total: snap.captured_total,
            staleness: 0,
            rotations: None,
        }
    }

    fn dispatch(&self, request: Request, _sink: &mut ()) -> Response {
        match request {
            Request::Snapshot => Response::Error {
                message: "x".repeat(MAX_FRAME),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            _ => Response::Overloaded,
        }
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn drain(self: Arc<Self>) {}
}

/// An answer over `MAX_FRAME` is replaced by an error that points to
/// `SNAPSHOT_PAGE`, and the connection stays usable — under both I/O
/// models.
#[test]
fn oversized_answer_points_to_paging_and_keeps_the_connection() {
    for model in [IoModel::Reactor, IoModel::Threads] {
        let io = IoConfig {
            model,
            ..IoConfig::default()
        };
        let server = Server::with_role("127.0.0.1:0", Arc::new(Oversized::default()), io)
            .expect("bind");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let mut client = Client::connect(&addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        match client.call(&Request::Snapshot) {
            Ok(Response::Error { message }) => {
                assert!(message.contains("SNAPSHOT_PAGE"), "model {model}: {message}")
            }
            other => panic!("model {model}: unexpected oversized answer: {other:?}"),
        }
        match client.call(&Request::Query(QueryReq::TopK { k: 1 })) {
            Ok(Response::Overloaded) => {}
            other => panic!("model {model}: connection should stay open: {other:?}"),
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }
}
