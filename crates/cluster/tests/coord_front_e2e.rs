//! The coordinator's connection front-end over loopback: a real
//! `cots-coord` process fronting in-process member `Server`s.
//!
//! * a request before `HELLO` is refused with `UNSUPPORTED_VERSION`
//!   (requested = 0) and the connection closes;
//! * a BIN1 frame on a connection that did not negotiate `bin` is
//!   answered with an error and the connection closes;
//! * `HELLO_ACK` advertises the coordinator's features;
//! * `SNAPSHOT_PAGE` transfers stay on the epoch pinned at offset 0
//!   while ingest republishes the federated snapshot;
//! * with `--coalesce-keys` above the batch size, a `QUERY` delivers the
//!   connection's buffered keys before it answers (the read barrier),
//!   and a client that disconnects still gets its buffered keys
//!   delivered (the connection-end flush).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cots_core::report::ClusterReport;
use cots_serve::{
    bin1, Client, IoConfig, Payload, QueryReq, Request, Response, Server, Service, ServiceConfig,
    PROTO_VERSION,
};

const TIMEOUT: Duration = Duration::from_secs(20);

/// An in-process member server, shut down over the wire when dropped.
struct Member {
    addr: String,
    service: Arc<Service>,
    thread: Option<JoinHandle<()>>,
}

impl Member {
    fn start() -> Self {
        let server = Server::bind_with(
            "127.0.0.1:0",
            ServiceConfig {
                shards: 2,
                capacity: 512,
                refresh: Duration::from_millis(5),
                ..Default::default()
            },
            IoConfig::default(),
        )
        .expect("bind member");
        Self {
            addr: server.local_addr().to_string(),
            service: server.service().clone(),
            thread: Some(std::thread::spawn(move || {
                server.run().expect("member run")
            })),
        }
    }

    fn ingested(&self) -> u64 {
        self.service.stats().ingested_keys
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A `cots-coord` process, shut down over the wire (or killed) when
/// dropped.
struct Coord {
    child: Child,
    addr: String,
}

impl Coord {
    fn start(members: &[Member], coalesce_keys: usize) -> Self {
        let list: Vec<&str> = members.iter().map(|m| m.addr.as_str()).collect();
        let mut child = Command::new(env!("CARGO_BIN_EXE_cots-coord"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--capacity",
                "512",
                "--pull-ms",
                "10",
            ])
            .arg("--members")
            .arg(list.join(","))
            .arg("--coalesce-keys")
            .arg(coalesce_keys.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn cots-coord");
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() && out.read_line(&mut line).unwrap_or(0) > 0 {
            addr = line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string);
            line.clear();
        }
        // Keep draining stdout so the coordinator never blocks on it.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while out.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            panic!("cots-coord exited before listening");
        };
        Self { child, addr }
    }

    fn client(&self) -> Client {
        let mut c = Client::connect(&self.addr).expect("connect coordinator");
        c.set_timeout(Some(TIMEOUT)).unwrap();
        c
    }

    fn raw(&self) -> Client {
        let mut c = Client::connect_raw(&self.addr).expect("raw connect coordinator");
        c.set_timeout(Some(TIMEOUT)).unwrap();
        c
    }
}

impl Drop for Coord {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn members(n: usize) -> Vec<Member> {
    (0..n).map(|_| Member::start()).collect()
}

fn cluster_report(client: &mut Client) -> ClusterReport {
    match client.call(&Request::ClusterStats).expect("CLUSTER_STATS") {
        Response::ClusterStats(report) => report,
        other => panic!("unexpected CLUSTER_STATS answer: {other:?}"),
    }
}

/// Poll `done` until it holds, panicking after [`TIMEOUT`].
fn await_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn ingested(members: &[Member]) -> u64 {
    members.iter().map(Member::ingested).sum()
}

fn point_count(client: &mut Client, key: u64) -> (u64, u64) {
    let (entries, _, stamp) = client.query(QueryReq::Point { key }).expect("point query");
    (entries.first().map_or(0, |e| e.count), stamp.staleness)
}

fn page(client: &mut Client, offset: usize, limit: usize) -> Response {
    client
        .call(&Request::SnapshotPage {
            since_epoch: 0,
            offset,
            limit,
        })
        .expect("SNAPSHOT_PAGE")
}

#[test]
fn request_before_hello_is_refused_and_closed() {
    let members = members(1);
    let coord = Coord::start(&members, 0);
    let mut raw = coord.raw();
    match raw.call(&Request::Stats) {
        Ok(Response::UnsupportedVersion {
            supported,
            requested,
        }) => {
            assert_eq!(supported, PROTO_VERSION);
            assert_eq!(requested, 0, "no HELLO at all is flagged as version 0");
        }
        other => panic!("unexpected pre-HELLO answer: {other:?}"),
    }
    assert!(raw.recv().is_err(), "connection closes after the refusal");
}

#[test]
fn hello_ack_advertises_coordinator_features() {
    let members = members(1);
    let coord = Coord::start(&members, 0);
    let mut client = coord.client();
    let (version, features) = client.hello().expect("re-HELLO");
    assert_eq!(version, PROTO_VERSION);
    assert_eq!(features, ["cluster", "snapshot-page", "bin"]);
}

#[test]
fn bin1_without_negotiation_is_refused_and_closed() {
    let members = members(1);
    let coord = Coord::start(&members, 0);
    let mut raw = coord.raw();
    match raw.call(&Request::Hello {
        proto_version: PROTO_VERSION,
        features: vec![],
    }) {
        Ok(Response::HelloAck { .. }) => {}
        other => panic!("unexpected HELLO answer: {other:?}"),
    }
    raw.send_payload(&Payload::Bin(bin1::encode_ingest(&[1, 2, 3])))
        .expect("send BIN1 frame");
    match raw.recv() {
        Ok(Response::Error { message }) => assert!(message.contains("bin"), "{message}"),
        other => panic!("unexpected answer to an unnegotiated BIN1 frame: {other:?}"),
    }
    assert!(raw.recv().is_err(), "connection closes after the refusal");
    assert_eq!(ingested(&members), 0, "the refused frame forwarded nothing");
}

#[test]
fn snapshot_pages_stay_on_the_pinned_epoch_while_ingest_republishes() {
    let members = members(2);
    let coord = Coord::start(&members, 0);
    let mut reader = coord.client();
    let mut writer = coord.client();

    let first: Vec<u64> = (0..300).collect();
    writer.ingest(&first).expect("ingest");
    await_until("the first batch to federate", || {
        let r = cluster_report(&mut reader);
        r.captured_total == 300 && r.staleness == 0
    });

    const LIMIT: usize = 64;
    let (pinned, total_entries) = match page(&mut reader, 0, LIMIT) {
        Response::SnapshotPage {
            entries,
            total_entries,
            total,
            done,
            stamp,
            ..
        } => {
            assert_eq!(total, 300);
            assert_eq!(entries.len(), LIMIT);
            assert!(!done);
            (stamp.epoch, total_entries)
        }
        other => panic!("unexpected first page: {other:?}"),
    };

    // New mass republishes the federated snapshot under the transfer.
    let more: Vec<u64> = (1_000..2_000).collect();
    writer.ingest(&more).expect("ingest");
    await_until("a newer federated epoch", || {
        cluster_report(&mut reader).epoch > pinned
    });

    let mut seen = LIMIT;
    loop {
        match page(&mut reader, seen, LIMIT) {
            Response::SnapshotPage {
                entries,
                total_entries: n,
                total,
                done,
                stamp,
                ..
            } => {
                assert_eq!(stamp.epoch, pinned, "transfer stays on the pinned epoch");
                assert_eq!(total, 300, "pinned mass, not the republished one");
                assert_eq!(n, total_entries);
                seen += entries.len();
                if done {
                    break;
                }
            }
            other => panic!("unexpected page: {other:?}"),
        }
    }
    assert_eq!(seen, total_entries);

    // Offset 0 re-pins the current federated snapshot.
    match page(&mut reader, 0, LIMIT) {
        Response::SnapshotPage { stamp, .. } => assert!(stamp.epoch > pinned),
        other => panic!("unexpected re-pinned page: {other:?}"),
    }
}

#[test]
fn query_delivers_buffered_keys_before_answering() {
    let members = members(2);
    let coord = Coord::start(&members, 1_000_000);
    let mut client = coord.client();
    let key = 7u64;
    client.ingest(&[key; 100]).expect("ingest");
    assert_eq!(ingested(&members), 0, "keys wait in the coalescing buffer");

    let (count, staleness) = point_count(&mut client, key);
    assert_eq!(
        ingested(&members),
        100,
        "the QUERY flushed the buffer first"
    );
    assert!(
        count + staleness >= 100,
        "{count} + {staleness} misses acked keys"
    );
    // The connection stays open: only the read barrier can have
    // delivered the keys the answers converge to.
    await_until("the answer to count the buffered keys", || {
        point_count(&mut client, key).0 == 100
    });
}

#[test]
fn disconnect_delivers_buffered_keys() {
    let members = members(2);
    let coord = Coord::start(&members, 1_000_000);
    let mut client = coord.client();
    let keys: Vec<u64> = (0..100).map(|i| i % 5).collect();
    client.ingest(&keys).expect("ingest");
    assert_eq!(ingested(&members), 0, "keys wait in the coalescing buffer");
    drop(client);

    await_until("the connection-end flush", || ingested(&members) == 100);
    let mut observer = coord.client();
    await_until("the federated answer to count them", || {
        point_count(&mut observer, 3).0 == 20
    });
}
