//! Starting and stopping fresh daemons.
//!
//! Every measured run gets a fresh daemon: re-driving a used one restarts
//! the stream's times at 0, so the shards clamp every demand to their old
//! clocks and serve it as covered.

use crate::workload::{LEASE_SPEC, SHARDS};
use leased::{Client, LeasedError};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to announce its address.
const WAIT: Duration = Duration::from_secs(30);

/// How daemons are started.
#[derive(Clone, Debug)]
pub enum Launcher {
    /// The `leased` binary at this path, one process per daemon.
    Binary(PathBuf),
    /// A `Server` on a thread of this process — for the benchmark's own
    /// tests, which have no daemon binary at hand.
    #[cfg(test)]
    InProcess,
}

/// A running daemon.
pub struct Daemon {
    addr: SocketAddr,
    pid: u32,
    child: Option<Child>,
    stdout: Option<JoinHandle<()>>,
    server: Option<JoinHandle<Result<(), LeasedError>>>,
}

impl Launcher {
    /// Starts a fresh daemon and waits for its first answered request.
    /// Returns the daemon and the seconds from launch to that answer.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot start or does not answer.
    pub fn start(&self) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut daemon = match self {
            Launcher::Binary(path) => spawn_binary(path)?,
            #[cfg(test)]
            Launcher::InProcess => {
                let mut config = leased::server::ServerConfig::new(crate::workload::structure());
                config.shards = SHARDS;
                let server = leased::server::Server::bind("127.0.0.1:0", &config)
                    .map_err(|e| e.to_string())?;
                let addr = server.local_addr().map_err(|e| e.to_string())?;
                Daemon {
                    addr,
                    pid: std::process::id(),
                    child: None,
                    stdout: None,
                    server: Some(std::thread::spawn(move || server.run())),
                }
            }
        };
        let answered = Client::connect(daemon.addr).and_then(|mut client| client.stats());
        if let Err(e) = answered {
            let _ = daemon.halt();
            return Err(format!("daemon at {} did not answer: {e}", daemon.addr));
        }
        Ok((daemon, started.elapsed().as_secs_f64()))
    }
}

fn spawn_binary(path: &Path) -> Result<Daemon, String> {
    let mut child = Command::new(path)
        .args(["--listen", "127.0.0.1:0", "--shards", &SHARDS.to_string()])
        .args(["--lease", LEASE_SPEC])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", path.display()))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("daemon stdout was not captured".to_string());
    };
    // A thread reads the announcement, then drains stdout until the
    // daemon exits, so the daemon never blocks on a full pipe.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let _ = tx.send(lines.read_line(&mut line).map(|_| line));
        let _ = std::io::copy(&mut lines, &mut std::io::sink());
    });
    let mut daemon = Daemon {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        pid: child.id(),
        child: Some(child),
        stdout: Some(reader),
        server: None,
    };
    let line = match rx.recv_timeout(WAIT) {
        Ok(Ok(line)) => line,
        Ok(Err(e)) => {
            let _ = daemon.halt();
            return Err(format!("reading the daemon's announcement: {e}"));
        }
        Err(_) => {
            let _ = daemon.halt();
            return Err("the daemon did not announce its address".to_string());
        }
    };
    match parse_announcement(&line) {
        Some(addr) => {
            daemon.addr = addr;
            Ok(daemon)
        }
        None => {
            let _ = daemon.halt();
            Err(format!("unexpected daemon announcement {line:?}"))
        }
    }
}

/// The address in `leased: listening on ADDR (N shards)`.
fn parse_announcement(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("leased: listening on ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

impl Daemon {
    /// The daemon's client address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident memory of the daemon's process (`VmHWM`), in MB.
    ///
    /// # Errors
    ///
    /// Fails when `/proc` does not report it.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut status = String::new();
        std::fs::File::open(format!("/proc/{}/status", self.pid))
            .and_then(|mut file| file.read_to_string(&mut status))
            .map_err(|e| format!("reading /proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Stops the daemon and waits until it has ended. A process is
    /// killed: a graceful shutdown serializes every shard, which costs
    /// seconds once the state is large. An in-process server is asked to
    /// shut down.
    ///
    /// # Errors
    ///
    /// Fails when the daemon cannot be stopped.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        let mut outcome = Ok(());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            if let Err(e) = child.wait() {
                outcome = Err(format!("waiting for the daemon: {e}"));
            }
        }
        if let Some(server) = self.server.take() {
            match Client::connect(self.addr).and_then(|mut client| client.shutdown()) {
                Ok(()) => match server.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => outcome = Err(format!("in-process daemon: {e}")),
                    Err(_) => outcome = Err("in-process daemon panicked".to_string()),
                },
                Err(e) => outcome = Err(format!("shutting the in-process daemon down: {e}")),
            }
        }
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
        outcome
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::parse_announcement;

    #[test]
    fn announcements_parse_to_the_bound_address() {
        assert_eq!(
            parse_announcement("leased: listening on 127.0.0.1:40123 (4 shards)\n"),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_announcement("leased: metrics on 127.0.0.1:9"), None);
    }
}
