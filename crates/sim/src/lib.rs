//! # rv-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the RealVideo reproduction: a logical clock
//! ([`SimTime`]/[`SimDuration`]), wake-up folding for poll-style drivers
//! ([`earliest`]), a forkable deterministic RNG ([`SimRng`]), zero-copy
//! payload buffers, scripted faults, campaign counters and the flight
//! recorder.
//!
//! Design follows the smoltcp school of event-driven networking: components
//! are plain state machines polled with an explicit `now`, never reading the
//! wall clock and never spawning threads. Each reports when it next needs
//! attention, and the driver jumps its clock to the earliest report. That
//! is what makes every figure in the paper reproduction bit-identical
//! across runs and machines.
//!
//! ```
//! use rv_sim::{earliest, SimDuration, SimRng, SimTime};
//!
//! // Two periodic components, each reporting its next wake; the driver
//! // jumps straight to the earliest one instead of ticking.
//! let periods = [SimDuration::from_millis(30), SimDuration::from_millis(20)];
//! let mut next = periods.map(|p| SimTime::ZERO + p);
//! let end = SimTime::from_millis(60);
//! let mut fired = Vec::new();
//! while let Some(now) = earliest(next.iter().map(|&t| (t <= end).then_some(t))) {
//!     for (i, t) in next.iter_mut().enumerate() {
//!         if *t == now {
//!             fired.push((now.as_millis(), i));
//!             *t = now + periods[i];
//!         }
//!     }
//! }
//! assert_eq!(fired, [(20, 1), (30, 0), (40, 1), (60, 0), (60, 1)]);
//!
//! // Randomness comes from forked, seeded streams: same seed, same draws.
//! let (mut a, mut b) = (SimRng::seed_from_u64(7), SimRng::seed_from_u64(7));
//! assert_eq!(a.fork(1).next_u64(), b.fork(1).next_u64());
//! ```

// The `alloc-stats` feature implements `GlobalAlloc`, whose contract is
// inherently unsafe; everything else in the crate stays unsafe-free.
#![cfg_attr(not(feature = "alloc-stats"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-stats", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-stats")]
#[allow(unsafe_code)]
pub mod alloc_stats;
mod bytes;
mod chacha;
mod counters;
mod fault;
mod rng;
mod time;
pub mod trace;

pub use bytes::{ByteRope, PayloadBytes, PayloadPool};
pub use counters::{Counter, CounterSet};
pub use fault::{
    FaultPlan, FaultScenario, FaultSegment, LinkOutage, LossBurst, OutagePolicy, ServerCrash,
};
pub use rng::SimRng;
pub use time::{earliest, SimDuration, SimTime};
