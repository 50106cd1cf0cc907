//! `perfbench exec`: run one program as a child and report its wall time,
//! CPU time and peak resident set size.
//!
//! Linux charges a child the peak RSS of the process it was spawned
//! from until it execs, so the measuring parent must be small: a Python
//! driver would put its own RSS under every child's. This process spawns
//! exactly one child, so `getrusage(RUSAGE_CHILDREN)` is that child's.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;

/// (peak RSS in KiB, user + system CPU seconds) over the waited-for
/// children of this process.
fn children_usage() -> (i64, f64) {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of `struct rusage` on 64-bit
    // Linux (the only target this benchmark builds for), and the pointer
    // is to a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        (usage.maxrss, secs(&usage.utime) + secs(&usage.stime))
    } else {
        (-1, -1.0)
    }
}

/// Spawn `argv`, wait for it, and return the result as JSON members.
/// With `until_stdin_eof` the child is sent SIGTERM once this process's
/// standard input closes (how the driver stops `dq serve`).
pub fn run(argv: &[String], until_stdin_eof: bool) -> Result<Vec<(String, String)>, String> {
    let (program, args) = argv.split_first().ok_or("exec needs a program")?;
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    if until_stdin_eof {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` takes plain integers; `pid` is our own child,
        // not yet reaped, so the id cannot have been reused.
        unsafe { kill(pid, SIGTERM) };
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let (maxrss_kib, cpu_s) = children_usage();
    Ok(vec![
        ("wall_s".into(), wall.to_string()),
        ("cpu_s".into(), cpu_s.to_string()),
        ("maxrss_kib".into(), maxrss_kib.to_string()),
        ("code".into(), status.code().unwrap_or(-1).to_string()),
    ])
}
