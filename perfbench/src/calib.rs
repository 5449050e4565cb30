//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the machine's speed drifts over minutes: the same
//! campaign, at the same seed, in the same process, takes anywhere from
//! 3.4 to 5.8 s on a 2-vCPU Xeon. The drift follows memory-system
//! contention, not clock frequency: a pure arithmetic loop hardly tracks
//! it (correlation 0.28 per campaign), while hash-map and B-tree churn
//! does (0.78–0.86).
//!
//! So the untraced run interleaves short slices of a fixed
//! [`reference_slice`] with the sessions, on the same thread, and reports
//! session and campaign times scaled by the host's speed around them
//! ([`local_speeds`]): the nominal slice time over the median of the
//! slice times measured just before, just after and next after, to the
//! power [`CONTENTION_EXPONENT`], because the program slows more than the
//! reference does. The speed also changes within a campaign: the same 25
//! sessions, repeated, varied by 0.32 (interquartile range over median),
//! by 0.24 scaled by the campaign's median slice and by 0.18 scaled
//! locally. A time of 1 s on a host running the reference at its nominal
//! speed reads 1 s; the same work while the host runs slower reads about
//! 1 s too. The reference is owned by the benchmark and never calls the
//! program, so a change to the program moves only the program's side of
//! the ratio.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The reference slice's time on a host at nominal speed: about its
/// median on the 2-vCPU Xeon the baseline was recorded on.
pub const NOMINAL_SLICE: Duration = Duration::from_micros(4_400);

/// How much more the program slows than the reference when the host
/// does: the program's speed is the reference's speed to this power. The
/// log-log slope of the study-seed campaign's time on the reference's
/// speed, over 60 runs in two sets, was 1.30–1.55 per workload and set
/// (correlation 0.96–0.99).
pub const CONTENTION_EXPONENT: f64 = 1.4;

/// A slice runs after every this many observed jobs on each worker
/// (about 2% of a campaign's time).
pub const SLICE_EVERY: u32 = 25;

/// Operations per kernel in one slice.
const OPS: u64 = 20_000;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the interleaved reference slices on for this process. Off by
/// default: the traced run counts allocations and must not see them.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether [`enable`] was called.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// Runs one slice of the reference — the same work every call: churn of
/// a small hash map of heap buffers, a 64k-key counting hash map, and a
/// B-tree — and returns its time.
pub fn reference_slice() -> Duration {
    let started = Instant::now();
    let mut x = 0x2001_0604u64;
    let mut buffers: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..OPS {
        let v = lcg(&mut x);
        if v & (1 << 20) == 0 {
            buffers.insert(v & 4095, vec![i as u8; (v >> 30) as usize & 63]);
        } else {
            buffers.remove(&(v & 4095));
        }
    }
    black_box(&buffers);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..OPS {
        *counts.entry(lcg(&mut x) & 0xffff).or_default() += i;
    }
    black_box(&counts);
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..OPS {
        let v = lcg(&mut x);
        if v & (1 << 20) == 0 {
            tree.insert(v & 0x3fff, i);
        } else {
            tree.remove(&(v & 0x3fff));
        }
    }
    black_box(&tree);
    started.elapsed()
}

/// The host's speed in each window of a worker whose reference slices
/// took `slices` nanoseconds, in order: window `i` (the work before slice
/// `i`; window `slices.len()` is the work after the last) gets the
/// [`speed`] of slices `i - 1`, `i` and `i + 1`, those that exist.
pub fn local_speeds(slices: &[u64]) -> Vec<f64> {
    (0..=slices.len())
        .map(|i| speed(&mut slices[i.saturating_sub(1)..(i + 2).min(slices.len())].to_vec()))
        .collect()
}

/// The program's speed relative to a host at nominal speed while
/// `slices` (nanoseconds) were measured: nominal slice time over their
/// median, to the power [`CONTENTION_EXPONENT`]. 1.0 when there are none.
/// Sorts `slices`.
pub fn speed(slices: &mut [u64]) -> f64 {
    match crate::report::quantile(slices, 0.5) {
        Some(median) if median > 0 => {
            (NOMINAL_SLICE.as_nanos() as f64 / median as f64).powf(CONTENTION_EXPONENT)
        }
        _ => 1.0,
    }
}
