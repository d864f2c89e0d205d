//! Host-speed probe: a fixed CPU kernel of the benchmark's own, timed
//! right after every op and set-up, so that timings can be reported at
//! one fixed host speed.
//!
//! On a shared virtual machine the same op runs anywhere from 120 to
//! 200 ms as the neighbours' load comes and goes, in bursts of seconds
//! and drifts of minutes. The probe slows down with the op, so the ratio
//! of the two stays put while either alone moves by a quarter. The probe
//! calls nothing in the program: a change to the program moves the op's
//! time and not the probe's.

use std::collections::BTreeMap;
use std::time::Instant;

/// The probe's median seconds on the host the bounds were tuned on (a
/// 2-vCPU Intel Xeon virtual machine). A timing `t` taken next to a
/// probe of `p` seconds is reported as `t × NOMINAL_S / p`: the time it
/// would have taken on that host at that host's typical speed.
pub const NOMINAL_S: f64 = 0.005;

/// Keys the probe's map cycles through.
const KEYS: u64 = 4096;

/// Map insertions per probe.
const INSERTS: u32 = 12_000;

/// Words of the probe's bit-parallel table (256 KiB).
const WORDS: usize = 32 * 1024;

/// Passes over the table per probe.
const PASSES: usize = 6;

/// Runs the probe kernel once and returns its seconds. It mixes the two
/// kinds of work the workloads do: small allocations and ordered-map
/// lookups keyed by strings (the schedulers and flows), and word-wide
/// logic over a table (the simulators).
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    };
    let mut map: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for i in 0..INSERTS {
        map.entry(format!("k{}", step() % KEYS))
            .or_default()
            .push(i);
    }
    let mut table: Vec<u64> = (0..WORDS).map(|_| step()).collect();
    for pass in 0..PASSES {
        for i in 0..WORDS {
            let a = table[i];
            let b = table[(i * 7 + pass) % WORDS];
            table[i] = (a & b) ^ (!a | b.rotate_left(13));
        }
    }
    let entries: usize = map.values().map(Vec::len).sum();
    let bits = table.iter().fold(0, |acc, w| acc ^ w);
    std::hint::black_box((entries, bits));
    t0.elapsed().as_secs_f64()
}

/// `seconds` taken next to a probe of `probe_s`, at the nominal host
/// speed.
pub fn at_nominal(seconds: f64, probe_s: f64) -> f64 {
    seconds * NOMINAL_S / probe_s
}
