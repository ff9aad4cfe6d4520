//! The system under test in its own process: the benchmark binary
//! re-executed in a server role runs `cat_engine::ingest::serve`, one
//! session per `session` command on its stdin, so its memory and CPU
//! figures are the server's alone.
//!
//! Control protocol, one line each way per step:
//! server prints `listening <addr>` once bound; the client writes
//! `session`, the server builds a fresh system (clearing the checkpoint
//! directory of a durable workload) and prints `ready`; after the session
//! it prints `done <accesses>` or `error <message>`. `quit` or end of
//! input stops the server.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use catree::engine::checkpoint::CheckpointConfig;
use catree::engine::ingest::{serve, ServeOptions};

use crate::workload::Workload;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// Runs the server role until `quit`.
pub fn run(workload: &Workload, checkpoint_dir: Option<PathBuf>) -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut out = io::stdout().lock();
    writeln!(out, "listening {}", listener.local_addr()?)?;
    out.flush()?;
    let options = ServeOptions {
        producers: workload.producers,
        checkpoint: checkpoint_dir.as_ref().map(CheckpointConfig::new),
        ..Default::default()
    };
    // The previous session's system is dropped when the next one is built,
    // before `ready`, so teardown is never inside a measured session.
    let mut system = None;
    for line in io::stdin().lock().lines() {
        match line?.as_str() {
            "session" => {
                drop(system.take());
                if let Some(dir) = &checkpoint_dir {
                    clear_dir(dir)?;
                }
                let fresh = system.insert(workload.system(workload.shards));
                writeln!(out, "ready")?;
                out.flush()?;
                match serve(&listener, fresh, &options) {
                    Ok(report) => writeln!(out, "done {}", report.outcome.accesses)?,
                    Err(e) => writeln!(out, "error {e}")?,
                }
                out.flush()?;
            }
            "quit" => break,
            other => return Err(io::Error::other(format!("unknown command {other:?}"))),
        }
    }
    Ok(())
}

fn clear_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

/// The client's handle on a running server process. Dropping it stops the
/// process and waits for it.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns the server role for `workload` and waits until it has bound.
    pub fn spawn(workload: &Workload, checkpoint_dir: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.args(["--serve", workload.name]);
        if let Some(dir) = checkpoint_dir {
            cmd.arg("--checkpoint-dir").arg(dir);
        }
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let line = server.line()?;
        server.addr = line
            .strip_prefix("listening ")
            .ok_or_else(|| io::Error::other(format!("server said {line:?}")))?
            .to_string();
        Ok(server)
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server exited"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Asks for a fresh session and waits until the server accepts.
    pub fn start_session(&mut self) -> io::Result<()> {
        writeln!(self.stdin, "session")?;
        self.stdin.flush()?;
        match self.line()?.as_str() {
            "ready" => Ok(()),
            other => Err(io::Error::other(format!("server said {other:?}"))),
        }
    }

    /// Waits for the session's end and returns the accesses it ingested.
    pub fn end_session(&mut self) -> io::Result<u64> {
        let line = self.line()?;
        match line.strip_prefix("done ") {
            Some(n) => n.parse().map_err(io::Error::other),
            None => Err(io::Error::other(format!("server said {line:?}"))),
        }
    }

    /// The server's user plus system CPU time so far, in seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name: state is the first,
        // utime the 12th and stime the 13th.
        let rest = stat
            .rsplit_once(')')
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?
            .1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            let field = fields
                .get(i)
                .ok_or_else(|| io::Error::other("short /proc stat"))?;
            field
                .parse::<u64>()
                .map(|t| t as f64)
                .map_err(io::Error::other)
        };
        Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Stops the server and waits for it.
    pub fn quit(mut self) -> io::Result<()> {
        writeln!(self.stdin, "quit")?;
        self.stdin.flush()?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op after `quit`; otherwise the server may be blocked in
        // `accept`, so it is killed rather than asked.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
