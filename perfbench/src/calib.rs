//! The reference kernel every timed pass is divided by.
//!
//! The host this runs on is shared. For half a minute to several
//! minutes at a time other tenants slow the whole guest, by up to 40%,
//! and steal time accounts for little of it, so nothing in the guest
//! shows it. A
//! pass's wall time follows that regime; a pass divided by a fixed piece
//! of work timed right next to it follows it much less.
//!
//! The kernel is the benchmark's own code and calls no program code, so
//! a change to the program moves only the numerator. The slow spells do
//! not slow every kind of work alike, so the kernel mixes five kinds,
//! each a dependent chain the CPU cannot overlap: integer steps (the
//! core), loads chasing a single-cycle permutation that stays in L2, one
//! that fits a last-level cache and one of 64 MB that does not (memory
//! latency), and inserts and removals in a `BTreeMap` of small vectors
//! (the allocator and branchy pointer code, like an event simulator).
//! `perfbench/README.md` (Noise) gives the spreads with and without it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Integer steps per kernel.
const STEPS: u64 = 40_000_000;
/// Permutation sizes (`u32` entries) and loads chased through each:
/// 128 KB, 4 MB and 64 MB.
const CHASES: [(usize, usize); 3] =
    [(1 << 15, 10_000_000), (1 << 20, 3_000_000), (1 << 24, 1_000_000)];
/// `BTreeMap` operations per kernel, over this many keys.
const MAP_OPS: u64 = 1_000_000;
const MAP_KEYS: u64 = 4096;

pub struct Reference {
    perms: Vec<Vec<u32>>,
}

impl Reference {
    /// Builds the permutations (fixed ones, the same in every run).
    pub fn new() -> Self {
        Reference { perms: CHASES.iter().map(|&(n, _)| cycle(n)).collect() }
    }

    /// Wall time of one kernel, in seconds.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for k in 0..STEPS {
            x = xorshift(x).wrapping_add(k);
        }
        black_box(x);
        for (perm, &(_, loads)) in self.perms.iter().zip(&CHASES) {
            let mut i = 0u32;
            for _ in 0..loads {
                i = perm[i as usize];
            }
            black_box(i);
        }
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut x = 7u64;
        for k in 0..MAP_OPS {
            x = xorshift(x);
            let key = x % MAP_KEYS;
            if x & 3 == 0 {
                black_box(map.remove(&key));
            } else {
                map.entry(key).or_default().push(k);
            }
        }
        black_box(map);
        start.elapsed().as_secs_f64()
    }
}

/// A permutation of `0..n` that is one cycle through every entry
/// (Sattolo's shuffle), from a fixed seed.
fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..n).rev() {
        x = xorshift(x);
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
