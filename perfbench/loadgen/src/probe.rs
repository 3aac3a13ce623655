//! Outside-in instruments: a timing wrapper around a session transport,
//! an in-memory span recorder, the daemon process handle, `/proc`
//! readers and STATS snapshot parsing.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use minshare_net::tcp::TcpTransport;
use minshare_net::{FrameBatch, MuxClient, MuxConfig, NetError, Transport};

/// Nanoseconds since the first call; the time base of every span.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub session: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Frames moved by a transport span (a batched send moves several).
    pub frames: usize,
}

/// An append-only span list, written out once at the end of a run.
#[derive(Debug, Default)]
pub struct Spans {
    pub list: Vec<Span>,
}

impl Spans {
    /// Records a closed span.
    pub fn push(
        &mut self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.list.push(Span {
            name,
            session,
            parent,
            start_ns,
            end_ns,
            frames: 0,
        });
        self.list.len() - 1
    }

    /// Appends `other`, re-basing its parent indices.
    pub fn extend(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"session\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"frames\":{}}}",
                s.name, s.session, s.start_ns, s.end_ns, s.frames
            )?;
        }
        out.flush()
    }
}

/// What the transport wrapper saw in one session.
#[derive(Debug, Default, Clone)]
pub struct WireRecord {
    pub frames: u64,
    pub bytes: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Payload size of every frame, both directions.
    pub frame_sizes: Vec<usize>,
}

/// A session transport that times every send and receive and records a
/// span per frame under the session's root span.
pub struct TimedTransport<'a, T: Transport> {
    pub inner: T,
    pub wire: &'a mut WireRecord,
    pub spans: &'a mut Spans,
    pub root: usize,
    pub session: u64,
}

impl<T: Transport> TimedTransport<'_, T> {
    fn note(&mut self, name: &'static str, start: u64, sizes: &[usize]) -> u64 {
        let end = now_ns();
        let id = self
            .spans
            .push(name, self.session, Some(self.root), start, end);
        self.spans.list[id].frames = sizes.len();
        self.wire.frames += sizes.len() as u64;
        self.wire.bytes += sizes.iter().sum::<usize>() as u64;
        self.wire.frame_sizes.extend_from_slice(sizes);
        end - start
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let start = now_ns();
        let r = self.inner.send(frame);
        self.wire.send_ns += self.note("net.transport.send", start, &[frame.len()]);
        r
    }

    fn send_batch(&mut self, batch: FrameBatch) -> Result<(), NetError> {
        let sizes: Vec<usize> = batch.frames().map(<[u8]>::len).collect();
        let start = now_ns();
        let r = self.inner.send_batch(batch);
        self.wire.send_ns += self.note("net.transport.send", start, &sizes);
        r
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        let start = now_ns();
        let r = self.inner.recv();
        let size = r.as_ref().map_or(0, Vec::len);
        self.wire.recv_ns += self.note("net.transport.recv", start, &[size]);
        r
    }
}

/// A running `minshare serve`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub port: u16,
}

impl Daemon {
    /// Spawns the daemon and waits until its port file is written and a
    /// STATS request is answered. Returns the daemon, the connection the
    /// STATS went over (the first load connection) and the elapsed time.
    pub fn start(
        binary: &Path,
        args: &[String],
        port_file: &Path,
    ) -> Result<(Daemon, MuxClient, Duration), String> {
        let _ = fs::remove_file(port_file);
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .args(args)
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut daemon = Daemon { child, port: 0 };
        let deadline = started + Duration::from_secs(30);
        daemon.port = loop {
            if let Some(port) = fs::read_to_string(port_file)
                .ok()
                .filter(|s| s.ends_with('\n'))
                .and_then(|s| s.trim().parse().ok())
            {
                break port;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon wrote no port file within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let mut client = daemon.connect()?;
        client
            .fetch_stats()
            .map_err(|e| format!("first STATS failed: {e}"))?;
        let elapsed = started.elapsed();
        Ok((daemon, client, elapsed))
    }

    /// A new mux connection with the client's default configuration.
    pub fn connect(&self) -> Result<MuxClient, String> {
        let tcp = TcpTransport::connect(("127.0.0.1", self.port))
            .map_err(|e| format!("connect to daemon: {e}"))?;
        Ok(MuxClient::new(tcp, MuxConfig::default()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (the Linux
/// `USER_HZ`, fixed at 100 on every mainstream architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of a process, in milliseconds.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLOCK_TICKS_PER_S)
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(count, sum)` of histogram `key` in a STATS snapshot.
pub fn stats_histogram(json: &str, key: &str) -> (u64, u64) {
    let Some(at) = json.find(&format!("\"{key}\":{{")) else {
        return (0, 0);
    };
    let body = &json[at..];
    (json_u64(body, "\"count\":"), json_u64(body, "\"sum\":"))
}

/// Counter `key` in a STATS snapshot (0 when absent).
pub fn stats_counter(json: &str, key: &str) -> u64 {
    json.find(&format!("\"{key}\":"))
        .map_or(0, |at| json_u64(&json[at..], &format!("\"{key}\":")))
}

fn json_u64(text: &str, label: &str) -> u64 {
    text.find(label)
        .map(|i| &text[i + label.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// A scratch directory removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.0.join(name);
        fs::create_dir_all(&p).map_err(|e| format!("cannot create {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = "{\"stats_version\":1,\"epoch\":0,\"counters\":{\"service/session_done/encryptions\":96,\"service/session_done/encryptions{session=1}\":48},\"gauges\":{},\"histograms\":{\"protocol/intersection/duration_ns\":{\"count\":2,\"sum\":5000,\"min\":1,\"max\":2,\"buckets\":{\"64\":1}}}}";

    #[test]
    fn stats_parsing_reads_unlabelled_series() {
        assert_eq!(
            stats_counter(SNAPSHOT, "service/session_done/encryptions"),
            96
        );
        assert_eq!(
            stats_histogram(SNAPSHOT, "protocol/intersection/duration_ns"),
            (2, 5000)
        );
        assert_eq!(
            stats_histogram(SNAPSHOT, "protocol/equijoin/duration_ns"),
            (0, 0)
        );
        assert_eq!(stats_counter(SNAPSHOT, "nope"), 0);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        assert!(cpu_ms("self").is_some());
        assert!(peak_rss_mib(std::process::id()).is_some_and(|m| m > 0.0));
    }
}
