//! `privim-serve` as a separate process: spawn, wait for health, scrape,
//! drain.

use crate::loadgen::{frame, parse_response};
use crate::sys;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server process.
pub struct Server {
    child: Child,
    /// Port from the server's `serving on port N` banner.
    pub port: u16,
    /// From spawn to the first `200` on `/healthz`.
    pub ready_after: Duration,
    stdout_drain: Option<std::thread::JoinHandle<()>>,
}

/// Spawn `bin run --bundle <bundle> --addr 127.0.0.1:0 <extra…>` and wait
/// until it answers `/healthz`.
pub fn launch(bin: &Path, bundle: &Path, extra: &[String]) -> Result<Server, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .arg("run")
        .arg("--bundle")
        .arg(bundle)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .args(extra)
        .env("PRIVIM_THREADS", crate::COMPUTE_THREADS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("server stdout was not piped".into());
    };
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap_or(0);
        if n == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before printing its port banner".into());
        }
        if let Some(rest) = line.strip_prefix("serving on port ") {
            match rest.split_whitespace().next().and_then(|p| p.parse().ok()) {
                Some(p) => break p,
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("unparseable banner {line:?}"));
                }
            }
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    let stdout_drain = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    let mut server = Server {
        child,
        port,
        ready_after: Duration::ZERO,
        stdout_drain: Some(stdout_drain),
    };
    loop {
        if let Ok((200, _)) = request(port, "GET", "/healthz", "") {
            server.ready_after = t0.elapsed();
            return Ok(server);
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

impl Server {
    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the server has used so far.
    pub fn cpu(&self) -> Result<Duration, String> {
        sys::process_cpu(Some(self.pid())).ok_or_else(|| "cannot read server /proc stat".into())
    }

    /// Current `/metrics` exposition.
    pub fn scrape(&self) -> Result<String, String> {
        match request(self.port, "GET", "/metrics", "")? {
            (200, body) => String::from_utf8(body).map_err(|_| "non-UTF-8 /metrics".into()),
            (s, _) => Err(format!("/metrics answered {s}")),
        }
    }

    /// SIGTERM, then wait for the drain to finish (SIGKILL after 30 s).
    pub fn drain(mut self) -> Result<(), String> {
        let result = if sys::sigterm(self.pid()) {
            self.wait_exit(Duration::from_secs(30))
        } else {
            Err("could not signal the server".into())
        };
        self.reap();
        result
    }

    fn wait_exit(&mut self, limit: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        while t0.elapsed() < limit {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
        Err("server did not exit within 30 s of SIGTERM".into())
    }

    /// Kill (if still running) and reap the process and its stdout reader.
    fn reap(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One request on a fresh connection (blocking, 30 s timeout):
/// `(status, body)`.
pub fn request(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let _ = s.set_nodelay(true);
    s.write_all(&frame(method, path, &[("Connection", "close")], body))
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((status, body, _)) = parse_response(&buf) {
            return Ok((status, body.to_vec()));
        }
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}
