//! # rv-perfbench — the campaign benchmark
//!
//! Drives whole campaigns through the public `rv_study` API
//! (`plan_campaign`, then `SerialExecutor`/`ThreadedExecutor::fold`), so
//! it measures the executor code `repro` runs, and splits a session's
//! cost by layer from outside: every timer sits at a call into another
//! crate's public functions.
//!
//! * [`workload`] — the three workloads and the campaign seeds of a run.
//! * [`timed`] — [`Timed`], the accumulator wrapper that times sessions
//!   on each executor worker, and [`run_timed`], one measured campaign.
//! * [`calib`] — the reference slices that calibrate end-to-end times
//!   for the host's drifting speed.
//! * [`checks`] — output digests and the fidelity/accounting checks every
//!   run makes.
//! * [`stepdrive`] — the traced replay of `SessionWorld::run` that counts
//!   every call of the settle loop and times a bounded sample of them.
//! * [`report`] — quantiles and the JSON lines the binaries print.
//!
//! `src/bin/campaign.rs` is the untraced end-to-end run and
//! `src/bin/traced.rs` the per-layer run; `run.py` builds both and
//! drives them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod checks;
pub mod report;
pub mod stepdrive;
pub mod timed;
pub mod workload;

pub use timed::{run_timed, CampaignRun, Timed};
pub use workload::{Output, Workload, STUDY_SEED};
