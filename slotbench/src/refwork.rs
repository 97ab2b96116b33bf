//! Fixed reference work that measures how fast the host runs right now.
//!
//! On a shared host the speed available to one process drifts by tens of
//! percent over minutes, as other tenants come and go, while the process
//! stays on its CPU the whole time. That drift moves every host time the
//! benchmark takes, in one run and between runs, by more than the bounds
//! allow. So each measured run call is bracketed by this fixed work, and
//! host times are scaled to a host on which the work takes [`NOMINAL_S`].
//!
//! The work is a sort of pseudo-random keys and hash-map updates over them:
//! branchy, cache-bound code like the engines' own, which tracked their
//! run times best among the kernels tried (see `NOTES.md`). It reads no
//! repository code, so a change to the program cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference work took on the host the bounds were set on
/// (2 vCPUs of an Intel Xeon at 2.1 GHz): the scale of the host-time
/// metrics.
pub const NOMINAL_S: f64 = 0.04;

const KEYS: usize = 1 << 18;
const SORTS: usize = 4;
const MAP_PASSES: usize = 6;
const MAP_UPDATES: usize = 100_000;
const MAP_KEY_MASK: u64 = 0xffff;

/// Fixed pseudo-random keys (xorshift64), the same in every process.
fn keys() -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// Seconds the host takes for the reference work now. Nothing of it stays
/// allocated afterwards, so the engines' peak RSS is not raised by it.
pub fn time() -> f64 {
    let start = Instant::now();
    for _ in 0..SORTS {
        let mut v = keys();
        v.sort_unstable();
        black_box(&v);
    }
    let keys = keys();
    for _ in 0..MAP_PASSES {
        let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, &k) in keys[..MAP_UPDATES].iter().enumerate() {
            *m.entry(k & MAP_KEY_MASK).or_insert(0) += i as u64;
        }
        black_box(&m);
    }
    start.elapsed().as_secs_f64()
}
