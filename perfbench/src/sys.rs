//! The few Linux facilities the harness needs beyond std: nanosecond
//! readiness waits (`ppoll`), the clock-tick rate behind
//! `/proc/<pid>/stat` CPU times, and `SIGTERM` for a graceful drain.
//! Plus the pure `/proc/<pid>/stat` parser, which the tests pin.

use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const SC_CLK_TCK: c_int = 2;
const SIGTERM: c_int = 15;

/// Block until `fd` is readable (or writable, when `want_write`), or
/// until `timeout` passes. Unlike `poll(2)`'s millisecond timeout this
/// wakes with the hrtimer's precision, so a sender scheduled 300 µs out
/// is woken 300 µs out, not 1 ms out. The caller re-checks its socket
/// and its clock afterwards, so timeouts, readiness and `EINTR` are all
/// handled the same way.
pub fn wait(fd: c_int, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, aligned `repr(C)` locals for the
    // whole call, `nfds` = 1 matches the single `PollFd`, and a null
    // sigmask means "leave the mask unchanged".
    // privim-lint: allow(unsafe, reason = "ppoll FFI: pfd and ts are live, properly aligned repr(C) locals for the whole call, nfds = 1 matches the single PollFd, and a null sigmask is documented as 'do not change the mask'")
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf takes an integer and reads no caller memory.
    // privim-lint: allow(unsafe, reason = "sysconf(_SC_CLK_TCK) takes a plain integer, touches no caller memory, and is async-signal-safe")
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as u64
    } else {
        100
    }
}

/// Ask process `pid` to drain and exit.
pub fn sigterm(pid: u32) -> bool {
    // SAFETY: kill takes two integers and reads no caller memory; `pid` is
    // an unreaped child of this process, so the id cannot be recycled.
    // privim-lint: allow(unsafe, reason = "kill(2) takes two integers and touches no caller memory; pid is a child this process spawned and has not yet reaped, so the id cannot have been recycled")
    unsafe { kill(pid as c_int, SIGTERM) == 0 }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// Field 2 (`comm`) is parenthesised and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`: after it come
/// field 3 (`state`) onwards, which puts `utime` (field 14) and `stime`
/// (field 15) at offsets 11 and 12.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time (user + system) consumed so far by process `pid`
/// (`None` = this process).
pub fn process_cpu(pid: Option<u32>) -> Option<Duration> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let ticks = parse_stat_cpu_ticks(&text)?;
    Some(Duration::from_secs_f64(
        ticks as f64 / clock_ticks_per_sec() as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_sums_utime_and_stime() {
        // Real layout (kernel 6.x), utime = 1234, stime = 56.
        let line = "4242 (privim-serve) S 1 4242 4242 0 -1 4194560 1517 0 0 0 1234 56 0 0 \
                    20 0 7 0 99999 123456789 2345 18446744073709551615 1 1 0 0 0 0 0 4096 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(1290));
    }

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        // comm may contain spaces and parentheses; only the last ')' ends it.
        let line = "7 (a) b (c d) R 1 7 7 0 -1 0 0 0 0 0 10 20 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(line), Some(30));
    }

    #[test]
    fn stat_cpu_rejects_truncated_text() {
        assert_eq!(parse_stat_cpu_ticks("7 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn own_cpu_time_is_readable() {
        assert!(process_cpu(None).is_some());
    }
}
