//! `slowloris_serve` — connection-hygiene gate for the reactor front end.
//!
//! Drives a real `privim-serve` process (not an in-process server: the
//! point is the OS-level socket behaviour of the shipped binary) started
//! with short idle/header timeouts, and asserts the reactor's defenses:
//!
//! 1. open a pack of slowloris connections that each send half a request
//!    and then dribble one byte per second — far slower than the header
//!    timeout allows. Every one of them must be closed by the server,
//!    and attributed to `privim_header_timeout_closes_total`;
//! 2. while the pack is dribbling, a healthy keep-alive client must keep
//!    getting `200`s — the attack occupies connections, not workers;
//! 3. an idle keep-alive connection (one completed exchange, then
//!    silence) must be reaped and attributed to
//!    `privim_idle_timeout_closes_total`;
//! 4. after the reaps, `privim_open_connections` must return to zero
//!    (only the scrape's own short-lived connection comes and goes).
//!
//! Exits non-zero on violation.
//!
//! ```text
//! cargo run --release -p privim-bench --bin slowloris_serve -- \
//!     --server-bin target/release/privim-serve --bundle serve.json --smoke
//! ```

use privim_serve::metrics::parse_counter;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{exit, Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Flags {
    server_bin: PathBuf,
    bundle: PathBuf,
    attackers: usize,
    header_timeout_ms: u64,
    idle_timeout_ms: u64,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: slowloris_serve --server-bin <privim-serve> --bundle <bundle.json>
                       [--attackers 32] [--header-timeout-ms 1500]
                       [--idle-timeout-ms 1500] [--smoke]"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("slowloris_serve: FAIL: {msg}");
    exit(1)
}

fn parse_flags() -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut f = Flags {
        server_bin: PathBuf::from("target/release/privim-serve"),
        bundle: PathBuf::new(),
        attackers: 32,
        header_timeout_ms: 1_500,
        idle_timeout_ms: 1_500,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    usage()
                })
                .clone()
        };
        match a.as_str() {
            "--server-bin" => f.server_bin = PathBuf::from(val("--server-bin")),
            "--bundle" => f.bundle = PathBuf::from(val("--bundle")),
            "--attackers" => f.attackers = val("--attackers").parse().unwrap_or_else(|_| usage()),
            "--header-timeout-ms" => {
                f.header_timeout_ms =
                    val("--header-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--idle-timeout-ms" => {
                f.idle_timeout_ms = val("--idle-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--smoke" => f.smoke = true,
            _ => usage(),
        }
    }
    if f.bundle.as_os_str().is_empty() {
        usage()
    }
    if f.smoke {
        f.attackers = f.attackers.min(16);
    }
    if f.attackers == 0 {
        usage()
    }
    f
}

/// Spawn the server and block until it prints its "serving on port N"
/// banner (stdout is a pipe; the server flushes the banner explicitly).
fn spawn_server(f: &Flags) -> (Child, u16) {
    let mut child = Command::new(&f.server_bin)
        .arg("run")
        .arg("--bundle")
        .arg(&f.bundle)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .arg("--no-wal")
        .arg("--header-timeout-ms")
        .arg(f.header_timeout_ms.to_string())
        .arg("--idle-timeout-ms")
        .arg(f.idle_timeout_ms.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| fail(format!("spawning {}: {e}", f.server_bin.display())));
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(format!("reading server stdout: {e}")));
        if n == 0 {
            let _ = child.kill();
            fail("server exited before printing its port banner");
        }
        print!("  server: {line}");
        if let Some(rest) = line.strip_prefix("serving on port ") {
            let port: u16 = rest
                .split_whitespace()
                .next()
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| fail(format!("unparseable banner: {line:?}")));
            // Keep draining the pipe so the server never blocks on a
            // full stdout buffer once we stop reading.
            std::thread::spawn(move || {
                let mut sink = String::new();
                let _ = reader.read_to_string(&mut sink);
            });
            return (child, port);
        }
    }
}

/// One-shot healthz probe; returns true on a 200.
fn healthz_ok(port: u16) -> bool {
    let Ok(mut s) = TcpStream::connect(("127.0.0.1", port)) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    if s.write_all(b"GET /healthz HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n").is_err() {
        return false;
    }
    let mut text = String::new();
    if s.read_to_string(&mut text).is_err() {
        return false;
    }
    text.starts_with("HTTP/1.1 200")
}

fn scrape_metrics(port: u16) -> String {
    let Ok(mut s) = TcpStream::connect(("127.0.0.1", port)) else {
        fail("server refused /metrics connection");
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    if s.write_all(b"GET /metrics HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n").is_err() {
        fail("writing /metrics request");
    }
    let mut text = String::new();
    let _ = s.read_to_string(&mut text);
    text
}

fn counter(port: u16, name: &str) -> u64 {
    parse_counter(&scrape_metrics(port), name).unwrap_or(0)
}

fn main() {
    let f = parse_flags();
    let (mut child, port) = spawn_server(&f);
    println!(
        "slowloris gate: {} attackers vs header-timeout {}ms / idle-timeout {}ms",
        f.attackers, f.header_timeout_ms, f.idle_timeout_ms
    );

    // Phase 1+2: the dribbling pack, with a healthy client interleaved.
    // Each attacker sends a partial request line, then one byte per
    // second — the header timeout counts from the FIRST partial byte, so
    // the dribble cannot keep the connection alive.
    let mut attackers: Vec<TcpStream> = (0..f.attackers)
        .filter_map(|_| {
            let s = TcpStream::connect(("127.0.0.1", port)).ok()?;
            let _ = s.set_nodelay(true);
            // Short probe timeout: each reap check peeks for EOF without
            // stalling the dribble loop.
            let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
            Some(s)
        })
        .collect();
    if attackers.len() != f.attackers {
        let _ = child.kill();
        fail(format!("only {}/{} attack connections opened", attackers.len(), f.attackers));
    }
    for s in &mut attackers {
        let _ = s.write_all(b"POST /v1/embed HTTP/1.1\r\nHos");
    }
    let deadline = Instant::now() + Duration::from_millis(f.header_timeout_ms * 4 + 2_000);
    let mut healthy_checks = 0u64;
    let dribble = b"X-Slow: aaaaaaaa\r\n";
    let mut di = 0usize;
    // Dribble until every attacker is closed by the server (read returns
    // EOF). A connection the server never closes fails the gate via the
    // deadline.
    let mut open: Vec<TcpStream> = attackers;
    while !open.is_empty() {
        if Instant::now() > deadline {
            let _ = child.kill();
            fail(format!("{} slowloris connection(s) never reaped", open.len()));
        }
        std::thread::sleep(Duration::from_millis(200));
        // The attack must not starve real traffic.
        if !healthz_ok(port) {
            let _ = child.kill();
            fail("healthy client starved while slowloris pack was dribbling");
        }
        healthy_checks += 1;
        let byte = [dribble[di % dribble.len()]];
        di += 1;
        open.retain_mut(|s| {
            // A write can succeed after the server closed (buffered RST);
            // the authoritative signal is read() returning 0/error.
            let _ = s.write_all(&byte);
            let mut buf = [0u8; 16];
            match s.read(&mut buf) {
                Ok(0) => false,         // server closed cleanly
                Ok(_) => true,          // bytes before close? keep watching
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => true,
                Err(_) => false,        // RST — server tore it down
            }
        });
    }
    println!(
        "ok  all {} slowloris connections reaped; healthy client served {healthy_checks} time(s) during the attack",
        f.attackers
    );
    let reaped = counter(port, "privim_header_timeout_closes_total");
    if reaped < f.attackers as u64 {
        let _ = child.kill();
        fail(format!(
            "header_timeout_closes_total = {reaped}, expected >= {}",
            f.attackers
        ));
    }
    println!("ok  privim_header_timeout_closes_total = {reaped}");

    // Phase 3: a keep-alive connection that completes one exchange and
    // then goes silent must be reaped by the idle timeout.
    let mut idle = TcpStream::connect(("127.0.0.1", port))
        .unwrap_or_else(|e| fail(format!("idle connect: {e}")));
    let _ = idle.set_read_timeout(Some(Duration::from_millis(f.idle_timeout_ms * 4 + 2_000)));
    idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: s\r\n\r\n")
        .unwrap_or_else(|e| fail(format!("idle request: {e}")));
    let mut text = String::new();
    // Keep-alive response, then server-side close on idle timeout: EOF
    // ends read_to_string without a Connection: close from us.
    idle.read_to_string(&mut text)
        .unwrap_or_else(|e| fail(format!("idle connection never reaped: {e}")));
    if !text.starts_with("HTTP/1.1 200") {
        let _ = child.kill();
        fail(format!("idle exchange failed: {text:?}"));
    }
    let idle_reaps = counter(port, "privim_idle_timeout_closes_total");
    if idle_reaps < 1 {
        let _ = child.kill();
        fail("idle keep-alive connection was closed but not attributed to the idle timeout");
    }
    println!("ok  idle keep-alive connection reaped (idle_timeout_closes_total = {idle_reaps})");

    // Phase 4: nothing left open. The scrape's own short-lived connection
    // is the one permitted reading.
    let open_now = counter(port, "privim_open_connections");
    if open_now > 1 {
        let _ = child.kill();
        fail(format!(
            "privim_open_connections = {open_now} after all clients left (only the scrape's own connection may be open)"
        ));
    }
    println!("ok  open connections back to zero (scrape excluded)");

    // Orderly exit: SIGTERM drains; fall back to SIGKILL on a wedge.
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // privim-lint: allow(unsafe, reason = "libc kill() FFI sending SIGTERM to the child we spawned; pid comes from Child::id and the call has no memory-safety surface")
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t0.elapsed() > Duration::from_secs(15) => {
                    let _ = child.kill();
                    fail("server did not drain within 15s of SIGTERM");
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(100)),
                Err(e) => fail(format!("waiting on server: {e}")),
            }
        }
    }
    #[cfg(not(unix))]
    {
        let _ = child.kill();
        let _ = child.wait();
    }
    println!("slowloris gate passed");
}
