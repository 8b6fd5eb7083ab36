//! `ProcessWorld`: a real multi-process SPMD backend for [`WorldComm`].
//!
//! Ranks are separate OS processes spawned from a rank executable and
//! wired together with Unix-domain sockets under a per-world temp
//! directory — zero dependencies beyond `std`, fully offline. Messages
//! travel as chunked, length-prefixed frames (see
//! [`payload`](crate::payload)), so a multi-megabyte ghost-zone transfer
//! never requires an unbounded single write and a stalled peer surfaces
//! as a typed [`CommError::Timeout`] rather than a hang.
//!
//! # Launch protocol
//!
//! The parent ([`ProcessWorld::launch`]) binds `<dir>/coord.sock`, then
//! spawns one child per rank with the environment below. Each child
//! ([`RankBoot::from_env`] + [`RankBoot::connect`]):
//!
//! 1. binds its own mesh listener at `<dir>/rank<r>.sock`;
//! 2. connects to `coord.sock` and sends a `HELLO(rank)` frame;
//! 3. connects to every lower rank's listener (retrying until the
//!    deadline — peers may still be starting) and sends `IDENT(rank)`;
//!    accepts one connection from every higher rank and reads its
//!    `IDENT`;
//! 4. runs the rank program over the resulting full mesh
//!    ([`ProcessComm`]);
//! 5. reports `DONE(stats ‖ output)` — or `FAIL(reason)` — on the
//!    coordinator socket and exits.
//!
//! The parent collects one `DONE`/`FAIL` per rank concurrently, kills
//! every child on the first failure (fail-fast: surviving ranks would
//! only burn their own timeouts), and returns per-rank outputs and
//! traffic stats exactly like the in-process [`World`](crate::World).
//!
//! # Environment variables (the rank-spawn protocol)
//!
//! | variable | meaning |
//! |---|---|
//! | `STKDE_RANK` | this process's rank id, `0..size` |
//! | `STKDE_RANK_SIZE` | number of ranks in the world |
//! | `STKDE_RANK_DIR` | directory holding `coord.sock` / `rank<r>.sock` |
//! | `STKDE_RANK_TIMEOUT_MS` | per-operation deadline for blocking comm |
//! | `STKDE_RANK_CHUNK` | wire chunk payload size in bytes |
//! | `STKDE_RANK_LOG_DIR` | (parent, optional) write per-rank logs here |
//!
//! Everything else in the parent's configured environment is forwarded
//! verbatim, which is how rank programs receive their problem spec.

use crate::error::{CodecError, CommError};
use crate::payload::{frames_for, write_message, FrameDecoder, WireMessage, WirePayload};
use crate::world::{RankStats, WorldComm, WorldOutput};
use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Env var: rank id of a spawned process.
pub const ENV_RANK: &str = "STKDE_RANK";
/// Env var: world size.
pub const ENV_SIZE: &str = "STKDE_RANK_SIZE";
/// Env var: socket directory.
pub const ENV_DIR: &str = "STKDE_RANK_DIR";
/// Env var: per-operation communication deadline in milliseconds.
pub const ENV_TIMEOUT_MS: &str = "STKDE_RANK_TIMEOUT_MS";
/// Env var: wire chunk payload size in bytes.
pub const ENV_CHUNK: &str = "STKDE_RANK_CHUNK";
/// Env var (read by the parent): directory for per-rank log files; when
/// set, each rank's stdout+stderr go to `<dir>/rank<r>.log` so CI can
/// upload them on failure.
pub const ENV_LOG_DIR: &str = "STKDE_RANK_LOG_DIR";

/// Tags at or above this value are reserved for the transport (HELLO,
/// DONE, barriers…); user sends assert below it.
pub const TAG_RESERVED_BASE: u32 = 0xFFFF_FF00;

const TAG_HELLO: u32 = 0xFFFF_FF01;
const TAG_DONE: u32 = 0xFFFF_FF02;
const TAG_FAIL: u32 = 0xFFFF_FF03;
const TAG_IDENT: u32 = 0xFFFF_FF04;
const TAG_BARRIER_ARRIVE: u32 = 0xFFFF_FF05;
const TAG_BARRIER_RELEASE: u32 = 0xFFFF_FF06;

/// Default per-operation deadline for blocking communication.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

const STATS_WORDS: usize = 7;

fn encode_u32(v: u32) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn decode_u32(bytes: &[u8], what: &str) -> Result<u32, CommError> {
    let arr: [u8; 4] = bytes.try_into().map_err(|_| {
        CommError::Protocol(format!("{what}: expected 4 bytes, got {}", bytes.len()))
    })?;
    Ok(u32::from_le_bytes(arr))
}

fn encode_stats(s: &RankStats) -> [u8; STATS_WORDS * 8] {
    let words = [
        s.msgs_sent as u64,
        s.bytes_sent as u64,
        s.msgs_recv as u64,
        s.bytes_recv as u64,
        s.barriers as u64,
        s.frames_sent as u64,
        s.frames_recv as u64,
    ];
    let mut out = [0u8; STATS_WORDS * 8];
    for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    out
}

fn decode_stats(bytes: &[u8]) -> Result<RankStats, CommError> {
    if bytes.len() < STATS_WORDS * 8 {
        return Err(CommError::Protocol(format!(
            "DONE report too short for stats: {} bytes",
            bytes.len()
        )));
    }
    let mut words = [0u64; STATS_WORDS];
    for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
    }
    Ok(RankStats {
        msgs_sent: words[0] as usize,
        bytes_sent: words[1] as usize,
        msgs_recv: words[2] as usize,
        bytes_recv: words[3] as usize,
        barriers: words[4] as usize,
        frames_sent: words[5] as usize,
        frames_recv: words[6] as usize,
    })
}

/// Read one complete chunked message from `stream`, blocking at most
/// until `deadline`.
fn read_message_deadline(
    stream: &mut UnixStream,
    dec: &mut FrameDecoder,
    deadline: Instant,
    what: &str,
) -> Result<WireMessage, CommError> {
    let started = Instant::now();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(m) = dec.next_message() {
            return Ok(m);
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(CommError::Timeout {
                waited_ms: (now - started).as_millis() as u64,
                waiting_for: what.to_string(),
            });
        }
        // A zero read timeout means "block forever" on Unix sockets, so
        // clamp the remaining window to at least one millisecond.
        stream.set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
        match stream.read(&mut buf) {
            Ok(0) => {
                dec.finish()?;
                return Err(CommError::Protocol(format!(
                    "connection closed while waiting for {what}"
                )));
            }
            Ok(n) => dec.push(&buf[..n])?,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// Builder/launcher for a multi-process SPMD world.
///
/// The configured executable is spawned once per rank; it must call
/// [`RankBoot::from_env`] early and hand the boot to a rank program (see
/// the module docs for the full protocol).
#[derive(Debug, Clone)]
pub struct ProcessWorld {
    size: usize,
    exe: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    timeout: Duration,
    run_timeout: Duration,
    chunk: usize,
}

impl ProcessWorld {
    /// A world of `size` rank processes spawned from `exe`.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, exe: impl Into<PathBuf>) -> Self {
        assert!(size > 0, "world size must be > 0");
        Self {
            size,
            exe: exe.into(),
            args: Vec::new(),
            envs: Vec::new(),
            timeout: DEFAULT_TIMEOUT,
            run_timeout: Duration::from_secs(120),
            chunk: crate::payload::DEFAULT_CHUNK,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Append a command-line argument for every rank process.
    pub fn arg(mut self, a: impl Into<String>) -> Self {
        self.args.push(a.into());
        self
    }

    /// Set an environment variable for every rank process (how rank
    /// programs receive their problem spec).
    pub fn env(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.envs.push((k.into(), v.into()));
        self
    }

    /// Per-operation deadline for blocking communication inside ranks
    /// (exported as `STKDE_RANK_TIMEOUT_MS`).
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = d;
        self
    }

    /// Overall wall-clock budget for the whole launch (bootstrap +
    /// compute + collection). Exceeding it kills every rank and errors.
    pub fn run_timeout(mut self, d: Duration) -> Self {
        self.run_timeout = d;
        self
    }

    /// Wire chunk payload size in bytes (exported as `STKDE_RANK_CHUNK`).
    ///
    /// # Panics
    /// Panics if `bytes` is zero.
    pub fn chunk(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "chunk size must be > 0");
        self.chunk = bytes;
        self
    }

    /// Spawn all ranks, run them to completion, and collect each rank's
    /// output blob and traffic stats (indexed by rank).
    ///
    /// # Errors
    /// [`CommError::Spawn`] when a process cannot start,
    /// [`CommError::RankFailed`] when a rank exits abnormally or reports
    /// `FAIL` (the detail includes a log tail), [`CommError::Timeout`]
    /// when the run exceeds [`run_timeout`](Self::run_timeout). On any
    /// error every surviving rank is killed before returning.
    pub fn launch(&self) -> Result<WorldOutput<Vec<u8>>, CommError> {
        // Relaxed: the id only needs to be unique, not ordered with
        // anything — each fetch_add returns a distinct value regardless.
        static WORLD_ID: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stkde-world-{}-{}",
            std::process::id(),
            WORLD_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let result = self.launch_in(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn launch_in(&self, dir: &std::path::Path) -> Result<WorldOutput<Vec<u8>>, CommError> {
        let deadline = Instant::now() + self.run_timeout;
        let listener = UnixListener::bind(dir.join("coord.sock"))?;
        listener.set_nonblocking(true)?;

        // Each launch logs into its own subdirectory (named after the
        // unique socket dir), so concurrent worlds never clobber each
        // other's rank logs.
        let log_dir: Option<PathBuf> = std::env::var_os(ENV_LOG_DIR).map(|base| {
            let mut p = PathBuf::from(base);
            if let Some(name) = dir.file_name() {
                p.push(name);
            }
            p
        });
        if let Some(ld) = &log_dir {
            std::fs::create_dir_all(ld)?;
        }

        let mut children = Vec::with_capacity(self.size);
        let mut logs: Vec<Arc<Mutex<Vec<u8>>>> = Vec::with_capacity(self.size);
        let mut drains = Vec::new();
        for rank in 0..self.size {
            let mut cmd = std::process::Command::new(&self.exe);
            cmd.args(&self.args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, self.size.to_string())
                .env(ENV_DIR, dir)
                .env(ENV_TIMEOUT_MS, self.timeout.as_millis().to_string())
                .env(ENV_CHUNK, self.chunk.to_string())
                .envs(self.envs.iter().map(|(k, v)| (k, v)))
                .stdin(std::process::Stdio::null());
            let log = Arc::new(Mutex::new(Vec::new()));
            if let Some(ld) = &log_dir {
                let file = std::fs::File::create(ld.join(format!("rank{rank}.log")))?;
                cmd.stdout(file.try_clone()?).stderr(file);
            } else {
                cmd.stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::piped());
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| CommError::Spawn(format!("rank {rank} ({:?}): {e}", self.exe)))?;
            // Drain captured output on dedicated threads so a chatty rank
            // can never fill its pipe and stall.
            for taken in [
                child
                    .stdout
                    .take()
                    .map(|s| Box::new(s) as Box<dyn Read + Send>),
                child
                    .stderr
                    .take()
                    .map(|s| Box::new(s) as Box<dyn Read + Send>),
            ]
            .into_iter()
            .flatten()
            {
                let sink = Arc::clone(&log);
                drains.push(std::thread::spawn(move || {
                    let mut src = taken;
                    let mut buf = [0u8; 4096];
                    while let Ok(n) = src.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        sink.lock().expect("log sink").extend_from_slice(&buf[..n]);
                    }
                }));
            }
            logs.push(log);
            children.push(child);
        }

        let result = self.drive(&listener, &mut children, deadline);

        // Whatever happened, no child may outlive the launch.
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for d in drains {
            let _ = d.join();
        }

        result.map_err(|(rank, err)| self.describe_failure(rank, err, &logs, &log_dir))
    }

    /// Run the coordinator protocol; on error, report which rank (if
    /// any specific one) caused it.
    fn drive(
        &self,
        listener: &UnixListener,
        children: &mut [std::process::Child],
        deadline: Instant,
    ) -> Result<WorldOutput<Vec<u8>>, (Option<usize>, CommError)> {
        // Phase 1: accept one HELLO per rank. Each connection keeps its
        // decoder for phase 2 — a fast rank's DONE may already be
        // buffered behind its HELLO.
        let mut conns: Vec<Option<(UnixStream, FrameDecoder)>> =
            (0..self.size).map(|_| None).collect();
        let mut connected = 0;
        while connected < self.size {
            if Instant::now() >= deadline {
                return Err((
                    None,
                    CommError::Timeout {
                        waited_ms: self.run_timeout.as_millis() as u64,
                        waiting_for: format!("rank hello ({connected}/{} connected)", self.size),
                    },
                ));
            }
            // A child that *crashes* before HELLO would stall the accept
            // loop for the whole run budget; notice it early instead. A
            // zero exit is not a failure here: a fast rank can finish the
            // entire protocol and exit while its HELLO and DONE still sit
            // in the socket backlog, ready to be accepted and read.
            for (rank, child) in children.iter_mut().enumerate() {
                if conns[rank].is_none() {
                    if let Ok(Some(status)) = child.try_wait() {
                        if !status.success() {
                            return Err((
                                Some(rank),
                                CommError::RankFailed {
                                    rank,
                                    detail: format!("exited before hello: {status}"),
                                },
                            ));
                        }
                    }
                }
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    // BSD-derived systems hand accepted sockets the
                    // listener's nonblocking flag; the collectors expect
                    // blocking streams.
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| (None, e.into()))?;
                    let mut dec = decoder_for(self.chunk);
                    let hello =
                        read_message_deadline(&mut stream, &mut dec, deadline, "rank hello")
                            .map_err(|e| (None, e))?;
                    if hello.tag != TAG_HELLO {
                        return Err((
                            None,
                            CommError::Protocol(format!("expected HELLO, got tag {}", hello.tag)),
                        ));
                    }
                    let rank =
                        decode_u32(&hello.bytes, "hello rank").map_err(|e| (None, e))? as usize;
                    if rank >= self.size || conns[rank].is_some() {
                        return Err((
                            None,
                            CommError::Protocol(format!("bad or duplicate hello from rank {rank}")),
                        ));
                    }
                    conns[rank] = Some((stream, dec));
                    connected += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err((None, e.into())),
            }
        }

        // Phase 2: collect DONE/FAIL from every rank concurrently so one
        // stalled rank cannot serialize behind a healthy one — and so the
        // first failure can kill the world immediately.
        let (tx, rx) = channel::<(usize, Result<(RankStats, Vec<u8>), CommError>)>();
        let mut collectors = Vec::with_capacity(self.size);
        for (rank, conn) in conns.iter_mut().enumerate() {
            let (mut stream, mut dec) = conn.take().expect("all ranks connected");
            let tx = tx.clone();
            collectors.push(std::thread::spawn(move || {
                let res = read_message_deadline(
                    &mut stream,
                    &mut dec,
                    deadline,
                    "rank completion report",
                )
                .and_then(|m| match m.tag {
                    TAG_DONE => {
                        let stats = decode_stats(&m.bytes)?;
                        Ok((stats, m.bytes[STATS_WORDS * 8..].to_vec()))
                    }
                    TAG_FAIL => Err(CommError::RankFailed {
                        rank,
                        detail: String::from_utf8_lossy(&m.bytes).into_owned(),
                    }),
                    other => Err(CommError::Protocol(format!(
                        "expected DONE/FAIL, got tag {other}"
                    ))),
                })
                // Attribute every collection failure to its rank: an EOF
                // here means the rank died without reporting, a timeout
                // means it never finished.
                .map_err(|e| match e {
                    CommError::RankFailed { .. } => e,
                    other => CommError::RankFailed {
                        rank,
                        detail: other.to_string(),
                    },
                });
                let _ = tx.send((rank, res));
            }));
        }
        drop(tx);

        let mut outputs: Vec<Option<Vec<u8>>> = (0..self.size).map(|_| None).collect();
        let mut stats: Vec<RankStats> = vec![RankStats::default(); self.size];
        let mut failure: Option<(usize, CommError)> = None;
        for _ in 0..self.size {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((rank, Ok((s, out)))) => {
                    stats[rank] = s;
                    outputs[rank] = Some(out);
                }
                Ok((rank, Err(e))) => {
                    failure = Some((rank, e));
                    break;
                }
                Err(_) => {
                    failure = Some((
                        usize::MAX,
                        CommError::Timeout {
                            waited_ms: self.run_timeout.as_millis() as u64,
                            waiting_for: "rank completion reports".to_string(),
                        },
                    ));
                    break;
                }
            }
        }
        if let Some((rank, err)) = failure {
            // Fail fast: kill everyone so the remaining collectors see
            // EOF instead of burning the full deadline.
            for child in children.iter_mut() {
                let _ = child.kill();
            }
            for c in collectors {
                let _ = c.join();
            }
            return Err(((rank != usize::MAX).then_some(rank), err));
        }
        for c in collectors {
            let _ = c.join();
        }

        // Phase 3: reap exit statuses within the remaining budget.
        for (rank, child) in children.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        return Err((
                            Some(rank),
                            CommError::RankFailed {
                                rank,
                                detail: format!("reported DONE but exited with {status}"),
                            },
                        ));
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok(None) => {
                        return Err((
                            Some(rank),
                            CommError::RankFailed {
                                rank,
                                detail: "reported DONE but never exited".to_string(),
                            },
                        ));
                    }
                    Err(e) => return Err((Some(rank), e.into())),
                }
            }
        }

        crate::world::record_rank_stats(stkde_obs::global(), &stats);
        Ok(WorldOutput {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("every rank reported"))
                .collect(),
            stats,
        })
    }

    /// Attach the failing rank's captured log tail to the error.
    fn describe_failure(
        &self,
        rank: Option<usize>,
        err: CommError,
        logs: &[Arc<Mutex<Vec<u8>>>],
        log_dir: &Option<PathBuf>,
    ) -> CommError {
        let Some(rank) = rank else { return err };
        let tail = match log_dir {
            Some(ld) => std::fs::read(ld.join(format!("rank{rank}.log"))).unwrap_or_default(),
            None => logs
                .get(rank)
                .map(|l| l.lock().expect("log sink").clone())
                .unwrap_or_default(),
        };
        if tail.is_empty() {
            return err;
        }
        let text = String::from_utf8_lossy(&tail);
        let tail: String = text
            .lines()
            .rev()
            .take(12)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect::<Vec<_>>()
            .join("\n  ");
        CommError::RankFailed {
            rank,
            detail: format!("{err}; rank {rank} log tail:\n  {tail}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Child side.
// ---------------------------------------------------------------------------

/// The rank identity a spawned process reads from its environment.
#[derive(Debug, Clone)]
pub struct RankBoot {
    /// This process's rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    dir: PathBuf,
    timeout: Duration,
    chunk: usize,
}

impl RankBoot {
    /// Detect whether this process was spawned as a rank.
    ///
    /// Returns `Ok(None)` when `STKDE_RANK` is unset (a normal
    /// invocation).
    ///
    /// # Errors
    /// [`CommError::Protocol`] when the rank environment is incomplete or
    /// unparsable — a spawned rank with half an environment is a bug.
    pub fn from_env() -> Result<Option<RankBoot>, CommError> {
        let Ok(rank) = std::env::var(ENV_RANK) else {
            return Ok(None);
        };
        let get = |key: &str| {
            std::env::var(key)
                .map_err(|_| CommError::Protocol(format!("{ENV_RANK} set but {key} missing")))
        };
        let parse = |key: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| CommError::Protocol(format!("{key}={v} is not a number")))
        };
        let rank = parse(ENV_RANK, rank)? as usize;
        let size = parse(ENV_SIZE, get(ENV_SIZE)?)? as usize;
        let dir = PathBuf::from(get(ENV_DIR)?);
        let timeout = Duration::from_millis(parse(ENV_TIMEOUT_MS, get(ENV_TIMEOUT_MS)?)?);
        let chunk = parse(ENV_CHUNK, get(ENV_CHUNK)?)? as usize;
        if size == 0 || rank >= size {
            return Err(CommError::Protocol(format!(
                "rank {rank} out of range for size {size}"
            )));
        }
        if chunk == 0 {
            return Err(CommError::Protocol("chunk size of zero".to_string()));
        }
        Ok(Some(RankBoot {
            rank,
            size,
            dir,
            timeout,
            chunk,
        }))
    }

    /// Establish the full rank mesh and the coordinator link.
    ///
    /// # Errors
    /// Any bootstrap failure: missing sockets, peers that never appear
    /// within the deadline, or transport errors.
    pub fn connect<P: WirePayload>(&self) -> Result<ProcessComm<P>, CommError> {
        let deadline = Instant::now() + self.timeout;
        let listener = UnixListener::bind(self.dir.join(format!("rank{}.sock", self.rank)))?;

        let mut coord = UnixStream::connect(self.dir.join("coord.sock"))?;
        write_message(
            &mut coord,
            TAG_HELLO,
            &encode_u32(self.rank as u32),
            self.chunk,
        )?;

        // Each peer slot carries its decoder: an eager peer's first user
        // frames may already trail its IDENT in the stream, and those
        // bytes must reach the reader thread, not be dropped.
        let mut peers: Vec<Option<(UnixStream, FrameDecoder)>> =
            (0..self.size).map(|_| None).collect();
        // Higher rank connects to lower rank's listener: rank r dials
        // every j < r, then accepts every j > r.
        for (j, slot) in peers.iter_mut().enumerate().take(self.rank) {
            let path = self.dir.join(format!("rank{j}.sock"));
            let mut stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        return Err(CommError::Timeout {
                            waited_ms: self.timeout.as_millis() as u64,
                            waiting_for: format!("rank {j}'s mesh listener ({e})"),
                        });
                    }
                }
            };
            write_message(
                &mut stream,
                TAG_IDENT,
                &encode_u32(self.rank as u32),
                self.chunk,
            )?;
            *slot = Some((stream, decoder_for(self.chunk)));
        }
        listener.set_nonblocking(true)?;
        let mut accepted = 0;
        while accepted < self.size - 1 - self.rank {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    // BSD-derived systems hand accepted sockets the
                    // listener's nonblocking flag; readers expect a
                    // blocking stream.
                    stream.set_nonblocking(false)?;
                    let mut dec = decoder_for(self.chunk);
                    let ident =
                        read_message_deadline(&mut stream, &mut dec, deadline, "peer ident")?;
                    if ident.tag != TAG_IDENT {
                        return Err(CommError::Protocol(format!(
                            "expected IDENT, got tag {}",
                            ident.tag
                        )));
                    }
                    let j = decode_u32(&ident.bytes, "ident rank")? as usize;
                    if j <= self.rank || j >= self.size || peers[j].is_some() {
                        return Err(CommError::Protocol(format!(
                            "bad or duplicate ident from rank {j}"
                        )));
                    }
                    stream.set_read_timeout(None)?;
                    peers[j] = Some((stream, dec));
                    accepted += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            waited_ms: self.timeout.as_millis() as u64,
                            waiting_for: format!(
                                "mesh connections from higher ranks ({accepted} of {})",
                                self.size - 1 - self.rank
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }

        // Wire up per-peer reader/writer threads. Sends are posted to a
        // writer thread and never block the rank (that is what lets halo
        // exchange overlap compute); receives drain a shared inbox.
        let (inbox_tx, inbox) = channel::<InboxItem<P>>();
        let mut peer_tx: Vec<Option<OutboundTx>> = (0..self.size).map(|_| None).collect();
        let mut writers = Vec::new();
        for (j, slot) in peers.iter_mut().enumerate() {
            let Some((stream, dec)) = slot.take() else {
                continue;
            };
            let reader = stream.try_clone()?;
            reader.set_read_timeout(None)?;
            let rtx = inbox_tx.clone();
            std::thread::spawn(move || reader_loop::<P>(j, reader, rtx, dec));
            let (tx, rx) = channel::<(u32, Vec<u8>)>();
            let wtx = inbox_tx.clone();
            let chunk = self.chunk;
            writers.push(std::thread::spawn(move || {
                writer_loop::<P>(j, stream, rx, chunk, wtx)
            }));
            peer_tx[j] = Some(tx);
        }
        drop(inbox_tx);

        Ok(ProcessComm {
            rank: self.rank,
            size: self.size,
            timeout: self.timeout,
            chunk: self.chunk,
            peer_tx,
            inbox,
            pending: Vec::new(),
            control_pending: Vec::new(),
            coord,
            writers,
            stats: RankStats::default(),
        })
    }
}

/// Outbound handle to one peer's writer thread: `(tag, encoded bytes)`.
type OutboundTx = Sender<(u32, Vec<u8>)>;

enum InboxItem<P> {
    User {
        from: usize,
        tag: u32,
        payload: P,
        frames: usize,
    },
    Control {
        from: usize,
        tag: u32,
    },
    Failed(CommError),
}

/// A frame decoder sized for a connection's negotiated chunk (control
/// frames are tiny, so the larger of the two limits always admits them).
fn decoder_for(chunk: usize) -> FrameDecoder {
    FrameDecoder::with_limits(
        chunk.max(crate::payload::DEFAULT_CHUNK),
        crate::payload::DEFAULT_MAX_MESSAGE,
    )
}

fn reader_loop<P: WirePayload>(
    from: usize,
    mut stream: UnixStream,
    tx: Sender<InboxItem<P>>,
    mut dec: FrameDecoder,
) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // Drain first: the bootstrap may have handed over a decoder that
        // already holds complete messages.
        while let Some(m) = dec.next_message() {
            let item = if m.tag >= TAG_RESERVED_BASE {
                InboxItem::Control { from, tag: m.tag }
            } else {
                match P::decode(&m.bytes) {
                    Ok(payload) => InboxItem::User {
                        from,
                        tag: m.tag,
                        payload,
                        frames: m.frames,
                    },
                    Err(e) => {
                        let _ = tx.send(InboxItem::Failed(e.into()));
                        return;
                    }
                }
            };
            if tx.send(item).is_err() {
                return;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Clean EOF (peer finished) just ends the stream; EOF
                // inside a frame is a protocol failure worth reporting.
                if dec.finish().is_err() {
                    let _ = tx.send(InboxItem::Failed(CommError::Codec(CodecError::Truncated {
                        context: "mid-message peer disconnect",
                    })));
                }
                return;
            }
            Ok(n) => {
                if let Err(e) = dec.push(&buf[..n]) {
                    let _ = tx.send(InboxItem::Failed(e.into()));
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = tx.send(InboxItem::Failed(CommError::Io(format!(
                    "read from rank {from}: {e}"
                ))));
                return;
            }
        }
    }
}

fn writer_loop<P: WirePayload>(
    to: usize,
    mut stream: UnixStream,
    rx: Receiver<(u32, Vec<u8>)>,
    chunk: usize,
    tx: Sender<InboxItem<P>>,
) -> Result<(), CommError> {
    while let Ok((tag, bytes)) = rx.recv() {
        if let Err(e) = write_message(&mut stream, tag, &bytes, chunk) {
            let err = CommError::Io(format!("send to rank {to}: {e}"));
            let _ = tx.send(InboxItem::Failed(err.clone()));
            return Err(err);
        }
    }
    Ok(())
}

struct PendingMsg<P> {
    from: usize,
    tag: u32,
    payload: P,
    frames: usize,
}

/// One rank's endpoint in a [`ProcessWorld`]: the mesh sockets, the
/// coordinator link, and traffic accounting. Implements [`WorldComm`], so
/// rank code is shared verbatim with the in-process backend.
///
/// Sends are handed to per-peer writer threads and never block the rank;
/// receives block with a per-operation deadline
/// (`STKDE_RANK_TIMEOUT_MS`) and surface dead or stalled peers as typed
/// errors.
pub struct ProcessComm<P: WirePayload> {
    rank: usize,
    size: usize,
    timeout: Duration,
    chunk: usize,
    peer_tx: Vec<Option<OutboundTx>>,
    inbox: Receiver<InboxItem<P>>,
    pending: Vec<PendingMsg<P>>,
    control_pending: Vec<(usize, u32)>,
    coord: UnixStream,
    writers: Vec<std::thread::JoinHandle<Result<(), CommError>>>,
    stats: RankStats,
}

impl<P: WirePayload> ProcessComm<P> {
    /// Pull one inbox item into the pending buffers, waiting at most
    /// until `deadline`.
    fn pump_one(
        &mut self,
        started: Instant,
        deadline: Instant,
        what: impl Fn() -> String,
    ) -> Result<(), CommError> {
        let now = Instant::now();
        if now >= deadline {
            return Err(CommError::Timeout {
                waited_ms: (now - started).as_millis() as u64,
                waiting_for: what(),
            });
        }
        match self.inbox.recv_timeout(deadline - now) {
            Ok(InboxItem::User {
                from,
                tag,
                payload,
                frames,
            }) => {
                self.pending.push(PendingMsg {
                    from,
                    tag,
                    payload,
                    frames,
                });
                Ok(())
            }
            Ok(InboxItem::Control { from, tag }) => {
                self.control_pending.push((from, tag));
                Ok(())
            }
            Ok(InboxItem::Failed(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                waited_ms: (Instant::now() - started).as_millis() as u64,
                waiting_for: what(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::PeerClosed { rank: self.rank }),
        }
    }

    fn take_pending(&mut self, i: usize) -> P {
        let msg = self.pending.remove(i);
        // Self-sends are delivered but never billed, mirroring the
        // in-process world.
        if msg.from != self.rank {
            self.stats.msgs_recv += 1;
            self.stats.bytes_recv += msg.payload.byte_len();
            self.stats.frames_recv += msg.frames;
        }
        msg.payload
    }

    fn send_control(&mut self, to: usize, tag: u32) -> Result<(), CommError> {
        self.peer_tx[to]
            .as_ref()
            .expect("non-self slot always has a writer")
            .send((tag, Vec::new()))
            .map_err(|_| CommError::PeerClosed { rank: to })
    }

    fn wait_control(&mut self, from: usize, tag: u32, deadline: Instant) -> Result<(), CommError> {
        let started = Instant::now();
        loop {
            if let Some(i) = self
                .control_pending
                .iter()
                .position(|&(f, t)| f == from && t == tag)
            {
                self.control_pending.remove(i);
                return Ok(());
            }
            self.pump_one(started, deadline, || {
                format!("barrier control from rank {from}")
            })?;
        }
    }

    /// Flush and join the writer threads (drops all outbound senders).
    fn shutdown_writers(&mut self) -> Result<(), CommError> {
        self.peer_tx.clear();
        let mut first_err = None;
        for h in self.writers.drain(..) {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(CommError::Protocol("writer thread panicked".to_string()));
                    }
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Complete this rank: flush every outstanding send, then report
    /// `output` and the accounted traffic to the parent.
    ///
    /// # Errors
    /// A failed flush or coordinator write; the parent will see the rank
    /// as failed either way.
    pub fn finish(mut self, output: &[u8]) -> Result<RankStats, CommError> {
        if let Err(e) = self.shutdown_writers() {
            let _ = self.send_fail(&format!("flush on finish: {e}"));
            return Err(e);
        }
        let mut blob = Vec::with_capacity(STATS_WORDS * 8 + output.len());
        blob.extend_from_slice(&encode_stats(&self.stats));
        blob.extend_from_slice(output);
        write_message(&mut self.coord, TAG_DONE, &blob, self.chunk)?;
        Ok(self.stats)
    }

    /// Report failure to the parent (kills the whole world promptly).
    pub fn fail(mut self, detail: &str) {
        let _ = self.shutdown_writers();
        let _ = self.send_fail(detail);
    }

    fn send_fail(&mut self, detail: &str) -> Result<(), CommError> {
        write_message(&mut self.coord, TAG_FAIL, detail.as_bytes(), self.chunk)?;
        Ok(())
    }
}

impl<P: WirePayload> WorldComm<P> for ProcessComm<P> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: u32, payload: P) -> Result<(), CommError> {
        assert!(
            tag < TAG_RESERVED_BASE,
            "tags >= 0x{TAG_RESERVED_BASE:08x} are reserved for the transport"
        );
        assert!(
            to < self.size,
            "rank {to} out of range (size {})",
            self.size
        );
        if to == self.rank {
            self.pending.push(PendingMsg {
                from: self.rank,
                tag,
                payload,
                frames: 0,
            });
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(payload.byte_len());
        payload.encode(&mut bytes);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += payload.byte_len();
        self.stats.frames_sent += frames_for(bytes.len(), self.chunk);
        self.peer_tx[to]
            .as_ref()
            .expect("non-self slot always has a writer")
            .send((tag, bytes))
            .map_err(|_| CommError::PeerClosed { rank: to })
    }

    fn recv(&mut self, from: usize, tag: u32) -> Result<P, CommError> {
        let started = Instant::now();
        let deadline = started + self.timeout;
        loop {
            if let Some(i) = self
                .pending
                .iter()
                .position(|m| m.from == from && m.tag == tag)
            {
                return Ok(self.take_pending(i));
            }
            self.pump_one(started, deadline, || {
                format!("message tag {tag} from rank {from}")
            })?;
        }
    }

    fn recv_any(&mut self, tag: u32) -> Result<(usize, P), CommError> {
        let started = Instant::now();
        let deadline = started + self.timeout;
        loop {
            if let Some(i) = self.pending.iter().position(|m| m.tag == tag) {
                let from = self.pending[i].from;
                return Ok((from, self.take_pending(i)));
            }
            self.pump_one(started, deadline, || {
                format!("message tag {tag} from any rank")
            })?;
        }
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.stats.barriers += 1;
        if self.size == 1 {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        if self.rank == 0 {
            for r in 1..self.size {
                self.wait_control(r, TAG_BARRIER_ARRIVE, deadline)?;
            }
            for r in 1..self.size {
                self.send_control(r, TAG_BARRIER_RELEASE)?;
            }
        } else {
            self.send_control(0, TAG_BARRIER_ARRIVE)?;
            self.wait_control(0, TAG_BARRIER_RELEASE, deadline)?;
        }
        Ok(())
    }

    fn stats(&self) -> RankStats {
        self.stats
    }
}

/// Run a rank program end to end: bootstrap, execute, report. Returns
/// the process exit code (0 on success), logging failures to stderr so
/// they land in the rank log.
pub fn child_main<P, F>(boot: &RankBoot, f: F) -> i32
where
    P: WirePayload,
    F: FnOnce(&mut ProcessComm<P>) -> Result<Vec<u8>, CommError>,
{
    let mut comm = match boot.connect::<P>() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rank {} bootstrap failed: {e}", boot.rank);
            return 1;
        }
    };
    match f(&mut comm) {
        Ok(out) => match comm.finish(&out) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("rank {} completion report failed: {e}", boot.rank);
                1
            }
        },
        Err(e) => {
            eprintln!("rank {} program failed: {e}", boot.rank);
            comm.fail(&e.to_string());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_var` racing `getenv` on another thread is UB on glibc, and
    /// `launch()` reads the environment (`temp_dir`, the log-dir var) —
    /// every test in this module that touches either side takes this
    /// lock so libtest's parallel threads can never interleave them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn stats_wire_roundtrip() {
        let s = RankStats {
            msgs_sent: 1,
            bytes_sent: 2,
            msgs_recv: 3,
            bytes_recv: 4,
            barriers: 5,
            frames_sent: 6,
            frames_recv: 7,
        };
        assert_eq!(decode_stats(&encode_stats(&s)).unwrap(), s);
        assert!(decode_stats(&[0u8; 8]).is_err());
    }

    #[test]
    fn rank_env_parsing() {
        // Single test: env vars are process-global, so all cases run
        // sequentially here.
        let _env = ENV_LOCK.lock().expect("env lock");
        assert!(matches!(RankBoot::from_env(), Ok(None)));

        std::env::set_var(ENV_RANK, "1");
        assert!(RankBoot::from_env().is_err(), "incomplete env must error");

        std::env::set_var(ENV_SIZE, "4");
        std::env::set_var(ENV_DIR, "/tmp/nowhere");
        std::env::set_var(ENV_TIMEOUT_MS, "250");
        std::env::set_var(ENV_CHUNK, "1024");
        let boot = RankBoot::from_env().unwrap().expect("complete env");
        assert_eq!((boot.rank, boot.size), (1, 4));
        assert_eq!(boot.timeout, Duration::from_millis(250));
        assert_eq!(boot.chunk, 1024);

        std::env::set_var(ENV_RANK, "9");
        assert!(RankBoot::from_env().is_err(), "rank out of range");
        std::env::set_var(ENV_RANK, "not-a-number");
        assert!(RankBoot::from_env().is_err(), "unparsable rank");

        for k in [ENV_RANK, ENV_SIZE, ENV_DIR, ENV_TIMEOUT_MS, ENV_CHUNK] {
            std::env::remove_var(k);
        }
        assert!(matches!(RankBoot::from_env(), Ok(None)));
    }

    #[test]
    fn spawn_failure_is_typed() {
        let _env = ENV_LOCK.lock().expect("env lock");
        let err = ProcessWorld::new(2, "/definitely/not/an/executable")
            .run_timeout(Duration::from_secs(5))
            .launch()
            .unwrap_err();
        assert!(matches!(err, CommError::Spawn(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "world size")]
    fn zero_size_world_panics() {
        let _ = ProcessWorld::new(0, "/bin/true");
    }
}
