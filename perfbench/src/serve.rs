//! `itq serve` as a child process, and the clients that drive it.
//!
//! The server is the release `itq` binary, started on port 0 with `--quiet`
//! and an armed `--deadline-ms`.  Its address comes from the `listening on`
//! banner; it is stopped with SIGINT and must print `shutdown complete`.  It
//! never outlives the benchmark: a [`Server`] that is dropped without a
//! clean shutdown (an error, a panic unwinding) kills and reaps the child,
//! and the child asks the kernel for SIGKILL should the benchmark itself be
//! killed first.

use crate::inproc::{Sample, Tally};
use crate::workload::{Request, Stmt, Stream};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SIGINT: i32 = 2;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    stopped: bool,
}

impl Server {
    pub fn spawn(itq: &Path, deadline_ms: u64) -> Result<Server, String> {
        let mut cmd = Command::new(itq);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--quiet", "--deadline-ms"])
            .arg(deadline_ms.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call, prctl(PR_SET_PDEATHSIG),
        // passing integer arguments; it touches no memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", itq.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            stopped: false,
        };
        let mut banner = String::new();
        server
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// SIGINT, then the drain must end with `shutdown complete` and exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stopped = true;
        // SAFETY: kill(2) with the pid of a child this process has not yet
        // reaped, so the pid cannot have been reused.
        if unsafe { kill(self.child.id() as i32, SIGINT) } != 0 {
            let _ = self.child.kill();
            let _ = self.child.wait();
            return Err("cannot signal the server".to_string());
        }
        let mut rest = String::new();
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            rest.push_str(&line);
            line.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !rest.lines().any(|l| l == "shutdown complete") || !status.success() {
            return Err(format!(
                "server did not shut down cleanly ({status}): {rest:?}"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Send one request line; the response is every line up to the `.`.
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            if self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("receive: {e}"))?
                == 0
            {
                return Err("server closed the connection".to_string());
            }
            let l = buf.trim_end_matches('\n');
            if l == "." {
                return Ok(lines);
            }
            lines.push(l.to_string());
        }
    }

    pub fn quit(mut self) -> Result<(), String> {
        let lines = self.request("quit;")?;
        match lines.as_slice() {
            [bye] if bye == "bye" => Ok(()),
            _ => Err(format!("unexpected reply to quit: {lines:?}")),
        }
    }
}

/// Send the set-up declarations, one statement per line.
pub fn setup(conn: &mut Conn, stmts: &[Stmt], tally: &mut Tally) -> Result<(), String> {
    for s in stmts {
        let lines = conn.request(&s.text)?;
        tally.record(&s.text, s.expect.check(&lines, true));
    }
    Ok(())
}

pub struct ClientRun {
    pub samples: Vec<Sample>,
    pub ran: Vec<Request>,
    pub tally: Tally,
}

/// One closed-loop client: send, wait for the whole answer, check, repeat.
pub fn client(
    conn: &mut Conn,
    stream: &mut Stream,
    limit: Duration,
    record: bool,
) -> Result<ClientRun, String> {
    let mut run = ClientRun {
        samples: Vec::new(),
        ran: Vec::new(),
        tally: Tally::default(),
    };
    let start = Instant::now();
    while start.elapsed() < limit {
        let req = stream.next().expect("streams are endless");
        let line = req.line();
        let t0 = Instant::now();
        let lines = conn.request(&line)?;
        run.samples.push(Sample::new(&req, t0, start));
        let mut rest = lines.as_slice();
        for s in &req.stmts {
            let n = s.expect.line_count(true).min(rest.len());
            // An error line answers the statement that caused it.
            let n = match rest.first() {
                Some(l) if l.starts_with("error") => 1,
                _ => n,
            };
            run.tally.record(req.kind, s.expect.check(&rest[..n], true));
            rest = &rest[n..];
        }
        if !rest.is_empty() {
            run.tally
                .record(req.kind, Err(format!("unexpected trailing lines {rest:?}")));
        }
        if record {
            run.ran.push(req);
        }
    }
    Ok(run)
}
