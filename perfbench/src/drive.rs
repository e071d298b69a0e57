//! Driving the real release binaries: spawn, feed, time, reap.
//!
//! The load comes from this one process with at most two threads: the
//! caller's thread sends, one reader thread timestamps reply lines. Reply
//! bytes are kept whole and checked by the oracle after the timed phase,
//! so verification never competes with the program for the cores.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a child process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Peak resident set, MiB: the kernel's high-water mark, the counter
    /// `/proc/<pid>/status` shows as `VmHWM`.
    pub peak_rss_mb: f64,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `child` and read its resource usage. The caller must not also
/// `wait` on it.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as the kernel's `int` and `struct rusage`; `pid` is our
        // own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        cpu_s: secs(usage.utime) + secs(usage.stime),
    })
}

/// The path `name` next to this benchmark's own executable: the release
/// binaries and the scratch directory live there.
pub fn beside_exe(name: &str) -> PathBuf {
    let me = std::env::current_exe().expect("the running executable has a path");
    me.with_file_name(name)
}

/// Reply lines with their arrival times.
pub type Replies = Vec<(Instant, String)>;

struct Shared {
    answered: AtomicU64,
    wake_at: AtomicU64,
    eof: AtomicBool,
    first: OnceLock<Instant>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Shared {
    fn new() -> Arc<Shared> {
        Arc::new(Shared {
            answered: AtomicU64::new(0),
            wake_at: AtomicU64::new(u64::MAX),
            eof: AtomicBool::new(false),
            first: OnceLock::new(),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }
}

/// Spawn a reader thread that timestamps every stdout line of `child`.
fn read_lines(
    out: impl std::io::Read + Send + 'static,
    shared: Arc<Shared>,
) -> JoinHandle<Replies> {
    std::thread::spawn(move || {
        let mut reader = BufReader::with_capacity(1 << 16, out);
        // Fixed-size chunks: growing one vector would copy megabytes in
        // the middle of a timed phase and stall the timestamps.
        const CHUNK: usize = 1 << 14;
        let mut chunks: Vec<Replies> = Vec::new();
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            let now = Instant::now();
            let _ = shared.first.set(now);
            if chunks.last().is_none_or(|c| c.len() == CHUNK) {
                chunks.push(Vec::with_capacity(CHUNK));
            }
            let chunk = chunks.last_mut().expect("a chunk with room");
            chunk.push((now, line.trim_end().to_string()));
            line.clear();
            let n = shared.answered.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= shared.wake_at.load(Ordering::SeqCst) {
                let _guard = shared.lock.lock().expect("reader lock is never poisoned");
                shared.cv.notify_all();
            }
        }
        // EOF: wake a sender that may still be waiting.
        shared.eof.store(true, Ordering::SeqCst);
        let _guard = shared.lock.lock().expect("reader lock is never poisoned");
        shared.cv.notify_all();
        drop(_guard);
        chunks.concat()
    })
}

/// One `cpo-experiments serve --once` process.
pub struct Serve {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    spawned: Instant,
    shared: Arc<Shared>,
    reader: Option<JoinHandle<Replies>>,
    /// Lines written so far.
    pub sent: u64,
}

/// Worker threads of the server and the batch pool: one per core of a
/// two-core host.
pub const SERVE_WORKERS: usize = 2;

/// Server ingress queue capacity. The default (256) is 32 ms of the hot
/// offered rate: a stall of the shared host longer than that made the
/// catching-up sender overflow it, and admission rejections are errors to
/// the oracle. The closed-loop window stays far below either value.
pub const SERVE_QUEUE: usize = 4096;

impl Serve {
    /// Spawn the server.
    pub fn spawn(bin: &Path) -> std::io::Result<Serve> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--once", "--stats-secs", "0", "--threads"])
            .arg(SERVE_WORKERS.to_string())
            .arg("--queue")
            .arg(SERVE_QUEUE.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let shared = Shared::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let reader = Some(read_lines(stdout, Arc::clone(&shared)));
        let stdin = child.stdin.take().map(|s| BufWriter::with_capacity(1 << 16, s));
        Ok(Serve { child, stdin, spawned, shared, reader, sent: 0 })
    }

    /// Queue one line (buffered until [`Serve::flush`]).
    pub fn send(&mut self, line: &str) {
        let w = self.stdin.as_mut().expect("stdin open until finish");
        // A write error means the server died; the oracle reports the
        // unanswered lines.
        let _ = w.write_all(line.as_bytes()).and_then(|_| w.write_all(b"\n"));
        self.sent += 1;
    }

    /// Push buffered lines to the server.
    pub fn flush(&mut self) {
        if let Some(w) = self.stdin.as_mut() {
            let _ = w.flush();
        }
    }

    /// Replies received so far.
    pub fn answered(&self) -> u64 {
        self.shared.answered.load(Ordering::SeqCst)
    }

    /// Block until `target` replies arrived or `timeout` passed.
    pub fn wait_answered(&self, target: u64, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        self.shared.wake_at.store(target, Ordering::SeqCst);
        let mut guard = self.shared.lock.lock().expect("reader lock is never poisoned");
        loop {
            let n = self.answered();
            if n >= target {
                return true;
            }
            let now = Instant::now();
            // After EOF nothing more will arrive.
            if now >= until || self.shared.eof.load(Ordering::SeqCst) {
                return false;
            }
            guard = self.shared.cv.wait_timeout(guard, until - now).expect("not poisoned").0;
        }
    }

    /// Send `probe` and wait for its reply: spawn → first reply is the
    /// server's set-up time.
    pub fn probe(&mut self, probe: &str) -> Option<Duration> {
        self.send(probe);
        self.flush();
        self.wait_answered(1, REPLY_TIMEOUT)
            .then(|| *self.shared.first.get().expect("a reply arrived") - self.spawned)
    }

    /// Close stdin (the drain signal), collect every reply, reap.
    pub fn finish(mut self) -> (Replies, std::io::Result<Exit>) {
        if let Some(mut w) = self.stdin.take() {
            let _ = w.flush();
        }
        let replies = self.reader.take().expect("reader joined once").join().unwrap_or_default();
        let exit = reap(&self.child);
        (replies, exit)
    }
}

impl Drop for Serve {
    /// A session abandoned before [`Serve::finish`] (an early return or a
    /// panic) still stops and reaps its server.
    fn drop(&mut self) {
        if let Some(reader) = self.reader.take() {
            self.stdin = None;
            let _ = self.child.kill();
            let _ = reap(&self.child);
            let _ = reader.join();
        }
    }
}

/// Longest wait for outstanding replies before the oracle takes over.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Closed loop: keep `window` lines outstanding until `until`, or until
/// `limit` lines were sent. Returns (first send, last reply) times.
pub fn closed_loop(
    s: &mut Serve,
    mut line: impl FnMut(u64) -> String,
    window: u64,
    limit: u64,
    until: Instant,
) -> (Instant, u64) {
    let base = s.sent;
    let start = Instant::now();
    while Instant::now() < until && s.sent - base < limit {
        while s.sent - s.answered() < window && s.sent - base < limit {
            let l = line(s.sent - base);
            s.send(&l);
        }
        s.flush();
        if !s.wait_answered(s.sent - window / 2, REPLY_TIMEOUT) {
            break;
        }
    }
    s.flush();
    s.wait_answered(s.sent, REPLY_TIMEOUT);
    (start, s.sent - base)
}

/// Open loop: send `count` lines at `rate` per second on a fixed
/// schedule. Returns each line's due time and how late it was written.
pub fn open_loop(
    s: &mut Serve,
    mut line: impl FnMut(u64) -> String,
    rate: f64,
    count: u64,
) -> (Vec<Instant>, Vec<Duration>) {
    let start = Instant::now() + Duration::from_millis(1);
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let mut dues = Vec::with_capacity(count as usize);
    let mut lags = Vec::with_capacity(count as usize);
    let mut k = 0;
    while k < count {
        let now = Instant::now();
        let next = due(k);
        if next > now {
            std::thread::sleep(next - now);
            continue;
        }
        // Everything due by now goes out in one write.
        let burst = k;
        while k < count && due(k) <= now {
            let l = line(k);
            s.send(&l);
            dues.push(due(k));
            k += 1;
        }
        s.flush();
        let written = Instant::now();
        lags.extend((burst..k).map(|j| written - due(j)));
    }
    s.wait_answered(s.sent, REPLY_TIMEOUT);
    (dues, lags)
}

/// One finished `cpo-experiments batch --check` run.
pub struct BatchRun {
    /// Spawn time.
    pub spawned: Instant,
    /// First progress line on stderr (set-up done, solving started).
    pub ready: Option<Instant>,
    /// Outcome lines with arrival times.
    pub replies: Replies,
    /// When the process was reaped.
    pub ended: Instant,
    /// How it ended.
    pub exit: std::io::Result<Exit>,
}

/// Simulated data sets per `--check` in the batch workload: enough that
/// the serial simulator pass dominates the solves.
pub const BATCH_DATASETS: usize = 1024;

/// Run `batch <file> --check --threads 2 --datasets 1024` to completion.
pub fn run_batch(bin: &Path, file: &Path) -> std::io::Result<BatchRun> {
    let spawned = Instant::now();
    let mut child = Command::new(bin)
        .arg("batch")
        .arg(file)
        .args(["--check", "--datasets"])
        .arg(BATCH_DATASETS.to_string())
        .arg("--threads")
        .arg(SERVE_WORKERS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let shared = Shared::new();
    let reader = read_lines(child.stdout.take().expect("stdout is piped"), shared);
    let mut ready = None;
    let mut tail = Vec::new();
    for line in BufReader::new(child.stderr.take().expect("stderr is piped")).lines() {
        let Ok(line) = line else { break };
        if ready.is_none() && line.starts_with('[') {
            ready = Some(Instant::now());
        }
        if !line.starts_with('[') {
            tail.push(line);
        }
    }
    let replies = reader.join().unwrap_or_default();
    let exit = reap(&child);
    let ended = Instant::now();
    if !matches!(exit, Ok(Exit { code: Some(0), .. })) {
        for line in tail.iter().rev().take(5).rev() {
            eprintln!("batch stderr: {line}");
        }
    }
    Ok(BatchRun { spawned, ready, replies, ended, exit })
}
