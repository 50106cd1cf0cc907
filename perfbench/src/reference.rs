//! `perfbench ref`: a fixed reference kernel, timed in CPU seconds.
//!
//! A shared virtual machine changes how much work a CPU second buys,
//! by a fifth or more over minutes, as neighbours load the caches and
//! cores the guest shares. `run.py` runs this kernel right before and
//! right after every measured stage and divides the stage's CPU time by
//! it, so a slower host slows both alike and the ratio stays put. The
//! kernel is this file's own code and never changes with the program, so
//! every change in the program still moves the ratio.
//!
//! It mixes what the pipeline does per row: format rows as CSV text,
//! parse them back, count values in a hash map, sort, and look up a
//! table larger than the caches.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of this process so far.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of `struct timespec` on 64-bit
    // Linux and the pointer is to a live, writable value.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

const ROWS: u64 = 60_000;
const SORTED: usize = 400_000;
const TABLE: usize = 4 << 20;
const LOOKUPS: usize = 1_500_000;

/// Run the kernel once; (CPU seconds, checksum).
pub fn run() -> (f64, u64) {
    let t0 = cpu_now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut csv = String::with_capacity(2 << 20);
    for i in 0..ROWS {
        let r = xorshift(&mut x);
        let _ = writeln!(csv, "{i},{},{:.3},c{}", r % 1000, (r % 100_000) as f64 / 7.0, r % 37);
    }
    let mut counts: HashMap<(u64, String), u32> = HashMap::new();
    let mut sum = 0.0f64;
    for line in csv.lines() {
        let mut fields = line.split(',');
        let mut next = || fields.next().unwrap_or("");
        let _row: u64 = next().parse().unwrap_or(0);
        let value: u64 = next().parse().unwrap_or(0);
        sum += next().parse::<f64>().unwrap_or(0.0);
        *counts.entry((value, next().to_string())).or_insert(0) += 1;
    }
    let mut keys: Vec<_> = counts.into_iter().collect();
    keys.sort();

    let mut sorted: Vec<u64> = (0..SORTED).map(|_| xorshift(&mut x)).collect();
    sorted.sort_unstable();

    let table: Vec<u32> = (0..TABLE as u32).collect();
    let mut hits = 0u64;
    for _ in 0..LOOKUPS {
        hits = hits.wrapping_add(u64::from(table[xorshift(&mut x) as usize % TABLE]));
    }
    let check = black_box(keys.len() as u64 ^ sum.to_bits() ^ sorted[SORTED / 2] ^ hits);
    (cpu_now() - t0, check)
}
