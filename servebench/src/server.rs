//! The `cots-serve` process under test.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cots_core::json::{from_str, Json};

use crate::conn::Conn;

/// How long after the server announces its address the first client
/// connects.
const CONNECT_AFTER: Duration = Duration::from_millis(1);

/// How the server is started for one workload.
pub struct ServerSpec {
    /// The `cots-serve` executable.
    pub binary: PathBuf,
    /// `--data-dir` (with `--fsync always --checkpoint-ms 0`), or in
    /// memory when `None`.
    pub data_dir: Option<PathBuf>,
}

/// A running server process. Dropping it kills the process.
pub struct ServerProc {
    child: Child,
    /// Address the server listens on.
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl ServerSpec {
    /// Spawn the server and complete one `HELLO`. Returns the process,
    /// the greeted connection and the seconds from spawn to the
    /// `HELLO` answer.
    pub fn spawn(&self) -> io::Result<(ServerProc, Conn, f64)> {
        let mut cmd = Command::new(&self.binary);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--capacity",
            "1000",
        ]);
        if let Some(dir) = &self.data_dir {
            cmd.arg("--data-dir").arg(dir);
            cmd.args(["--fsync", "always", "--checkpoint-ms", "0"]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let mut child = cmd.spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            stdout: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                return Err(io::Error::other("cots-serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                proc.addr = addr.to_string();
                break;
            }
        }
        let listening = Instant::now();
        // Keep draining stdout so the server never blocks on a full pipe.
        proc.stdout = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = out.read_to_end(&mut sink);
        }));
        // The acceptor naps between empty polls. Connecting at a fixed
        // point inside its first nap makes that nap part of every
        // measurement, instead of a race that only some spawns lose.
        std::thread::sleep((listening + CONNECT_AFTER).saturating_duration_since(Instant::now()));
        let conn = Conn::connect(&proc.addr)?;
        let setup = start.elapsed().as_secs_f64();
        Ok((proc, conn, setup))
    }
}

impl ServerProc {
    /// Peak resident set (`VmHWM`) of the server, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SIGKILL the server and wait for it to end.
    pub fn kill(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        if self.child.try_wait()?.is_none() {
            self.child.kill()?;
            self.child.wait()?;
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The full `STATS` answer as a JSON tree.
pub fn stats(conn: &mut Conn) -> io::Result<Json> {
    let text = conn.stats_json()?;
    let tagged: Json = from_str(&text).map_err(|e| io::Error::other(e.to_string()))?;
    tagged
        .get("Stats")
        .cloned()
        .ok_or_else(|| io::Error::other(format!("not a STATS answer: {text}")))
}

/// A numeric field of a `STATS` tree by dotted path (`persist.wal_keys`,
/// `shards.0.keys`), 0 when absent.
pub fn field(stats: &Json, path: &str) -> f64 {
    let mut v = stats;
    for part in path.split('.') {
        let next = match part.parse::<usize>() {
            Ok(i) => v.as_arr().and_then(|a| a.get(i)),
            Err(_) => v.get(part),
        };
        match next {
            Some(n) => v = n,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Every numeric leaf of a JSON tree, by dotted path (array elements by
/// index).
fn flatten(v: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    let join = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    if let Some(members) = v.as_obj() {
        for (k, child) in members {
            flatten(child, &join(k), out);
        }
    } else if let Some(items) = v.as_arr() {
        for (i, child) in items.iter().enumerate() {
            flatten(child, &join(&i.to_string()), out);
        }
    } else if let Some(x) = v.as_f64() {
        out.push((prefix.to_string(), x));
    }
}

/// `after − before` for every numeric `STATS` field present after.
pub fn stats_delta(before: &Json, after: &Json) -> Vec<(String, f64)> {
    let (mut b, mut a) = (Vec::new(), Vec::new());
    flatten(before, "", &mut b);
    flatten(after, "", &mut a);
    let before: std::collections::HashMap<String, f64> = b.into_iter().collect();
    a.into_iter()
        .map(|(k, v)| {
            let d = v - before.get(&k).copied().unwrap_or(0.0);
            (k, d)
        })
        .collect()
}

/// Poll `STATS` until `keys` are applied and the published snapshot has
/// zero staleness.
pub fn await_quiescence(conn: &mut Conn, keys: u64) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = stats(conn)?;
        let shards = s.get("shards").and_then(Json::as_arr).unwrap_or(&[]);
        let applied: f64 = shards.iter().map(|sh| field(sh, "keys")).sum();
        if applied >= keys as f64 && field(&s, "staleness") == 0.0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "server did not quiesce: {applied} of {keys} keys applied"
            )));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Recursively copy a data directory (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
