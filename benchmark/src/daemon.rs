//! The system under test on the serve workloads: the real `stkde-serve`
//! binary of the root workspace, started the way its usage text says.

use crate::httpc::Conn;
use crate::Opts;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills the process, so no failure path of
/// the benchmark (error return or panic) leaves an orphan behind;
/// [`Daemon::shutdown`] is the orderly way out.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Kept open until the daemon exits: it prints while shutting down,
    /// and a closed pipe would turn that into a panic.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// The daemon's pid as `/proc` spells it.
    pub pid: String,
}

/// The daemon binary: `--serve-bin`, or the root workspace's release
/// build, (re)built here with the command a user would run.
pub fn binary(opts: &Opts) -> Result<PathBuf, String> {
    if let Some(path) = &opts.serve_bin {
        return Ok(path.clone());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--bin", "stkde-serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build stkde-serve: {e}"))?;
    if !status.success() {
        return Err(format!("building stkde-serve failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Ok(target.join("release").join("stkde-serve"))
}

impl Daemon {
    /// Start the daemon on an ephemeral loopback port with documented
    /// flags only and no tuning environment, and read the bound address
    /// from its first stdout line.
    pub fn start(
        bin: &Path,
        dims: (usize, usize, usize),
        hs: f64,
        ht: f64,
        window: f64,
        threads: usize,
    ) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--dims", &format!("{}x{}x{}", dims.0, dims.1, dims.2)])
            .args(["--hs", &hs.to_string(), "--ht", &ht.to_string()])
            .args(["--window", &window.to_string()])
            .args(["--port", "0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let pid = child.id().to_string();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut this = Self {
            child,
            stdout,
            // Replaced below; a failure before that drops (kills) `this`.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let mut line = String::new();
        this.stdout.read_line(&mut line)?;
        this.addr = line
            .trim()
            .strip_prefix("stkde-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected first line from stkde-serve: {line:?}"),
                )
            })?;
        Ok(this)
    }

    /// Ask the daemon to stop through `POST /shutdown` on a connection it
    /// is already serving, close every connection (a worker stays with its
    /// keep-alive connection until the peer closes it), and wait for the
    /// process to exit.
    pub fn shutdown(mut self, mut conns: Vec<Conn>) -> io::Result<()> {
        let conn = conns
            .first_mut()
            .ok_or_else(|| io::Error::other("shutdown needs a connection"))?;
        let reply = conn.post("/shutdown", b"")?;
        drop(conns);
        if !reply.ok() {
            return Err(io::Error::other(format!(
                "/shutdown answered {}",
                reply.status
            )));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "stkde-serve exited with {status}"
                    )))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("stkde-serve did not exit after /shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After an orderly shutdown the process is gone and both calls
        // are no-ops; on every other path this is what stops it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
