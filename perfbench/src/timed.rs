//! Timing from inside the executor's own fold.
//!
//! [`Timed`] wraps a `CampaignAccumulator` and forwards every `observe`
//! and `merge` to it unchanged, so a campaign folded into
//! `Timed<CampaignAggregates>` yields exactly the aggregates
//! `run_campaign` yields (the self-test pins this). Around the forwarded
//! calls it records, on each worker, the host time between the end of
//! one `observe` and the start of the next — one session's cost: regenerating
//! the user's jobs when a new user is claimed, building the world,
//! driving it, and retiring it. When calibration is on
//! ([`crate::calib::enable`]) it also runs a reference slice after every
//! [`crate::calib::SLICE_EVERY`] jobs, outside the session gaps.

use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

use realvideo_core::study::{
    CampaignAccumulator, CampaignAggregates, CampaignError, CampaignExecutor, CampaignPlan,
    CampaignSummary, RecordSink, SerialExecutor, SessionJob, SessionRecord, StudyData,
    ThreadedExecutor, WorkerProfile,
};

use crate::calib;
use crate::workload::Workload;

/// Set by [`stop_at_first_job`]: the process start instant a set-up
/// probe measures from.
static PROBE_START: OnceLock<Instant> = OnceLock::new();

/// Turns this process into a set-up probe: the first finished session
/// prints `{"setup_s": …}` — the time from `process_start` to the moment
/// its worker began — and exits with status 0.
pub fn stop_at_first_job(process_start: Instant) {
    let _ = PROBE_START.set(process_start);
}

/// Reference slices a set-up probe runs after its set-up.
const PROBE_SLICES: usize = 5;

/// Ends a set-up probe: the first worker to finish a session runs
/// [`PROBE_SLICES`] reference slices, prints the set-up time raw and
/// calibrated, and exits the process; a worker finishing later blocks in
/// the `Once` until the exit ends it.
fn probe_exit(setup: Duration) -> ! {
    static EXIT: Once = Once::new();
    EXIT.call_once(|| {
        let mut slices: Vec<u64> = (0..PROBE_SLICES)
            .map(|_| nanos(calib::reference_slice()))
            .collect();
        let speed = calib::speed(&mut slices);
        println!(
            "{{\"setup_s\": {:.9}, \"raw_setup_s\": {:.9}, \"speed\": {speed:.6}}}",
            setup.as_secs_f64() * speed,
            setup.as_secs_f64()
        );
        std::process::exit(0);
    });
    unreachable!("the first probe worker exits the process inside call_once");
}

/// One worker's timings, in the order they happened. Window `i` is the
/// work between reference slices `i - 1` and `i`; the sessions after the
/// last slice fall in window `slice_ns.len()`.
#[derive(Debug, Default)]
pub struct WorkerTimes {
    /// Host time per available session, in nanoseconds (unavailable
    /// attempts simulate nothing and are not sampled).
    pub session_ns: Vec<u64>,
    /// The window each entry of `session_ns` fell in.
    pub session_window: Vec<u32>,
    /// Reference slice times, in nanoseconds.
    pub slice_ns: Vec<u64>,
    /// Host time of each window that ended in a slice, in nanoseconds.
    pub window_ns: Vec<u64>,
}

/// An accumulator wrapper that times sessions on each worker.
#[derive(Debug)]
pub struct Timed<A> {
    /// The wrapped accumulator, fed exactly what the executor feeds.
    pub inner: A,
    /// When this accumulator was created: for a worker's accumulator,
    /// when the worker started.
    born: Instant,
    /// End of the previous `observe`, or `born`.
    last: Instant,
    /// End of the previous reference slice, or `born`.
    window_start: Instant,
    /// Jobs observed on this worker.
    observed: u32,
    /// This worker's timings first, then those of the workers merged in.
    pub workers: Vec<WorkerTimes>,
    /// Time spent merging worker accumulators into this one.
    pub merge_time: Duration,
}

impl<A: Default> Default for Timed<A> {
    fn default() -> Self {
        let now = Instant::now();
        Timed {
            inner: A::default(),
            born: now,
            last: now,
            window_start: now,
            observed: 0,
            workers: vec![WorkerTimes::default()],
            merge_time: Duration::ZERO,
        }
    }
}

impl<A: CampaignAccumulator> CampaignAccumulator for Timed<A> {
    fn observe(&mut self, job: &SessionJob, record: &SessionRecord) {
        let now = Instant::now();
        if let Some(start) = PROBE_START.get() {
            probe_exit(self.born.duration_since(*start));
        }
        let own = &mut self.workers[0];
        if record.available {
            own.session_ns.push(nanos(now - self.last));
            own.session_window.push(own.slice_ns.len() as u32);
        }
        self.inner.observe(job, record);
        self.observed += 1;
        if calib::enabled() && self.observed % calib::SLICE_EVERY == 0 {
            own.window_ns.push(nanos(self.window_start.elapsed()));
            own.slice_ns.push(nanos(calib::reference_slice()));
            self.window_start = Instant::now();
        }
        self.last = Instant::now();
    }

    fn merge(&mut self, other: Self) {
        let started = Instant::now();
        self.inner.merge(other.inner);
        self.workers.extend(other.workers);
        self.merge_time += other.merge_time + started.elapsed();
    }
}

/// Whole nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulators a measured campaign can fold into: the aggregates plus,
/// on the dump path, the retained records.
pub trait Outputs: CampaignAccumulator {
    /// Splits into aggregates and the record sink, if one was kept.
    fn into_outputs(self) -> (CampaignAggregates, Option<RecordSink>);
}

impl Outputs for CampaignAggregates {
    fn into_outputs(self) -> (CampaignAggregates, Option<RecordSink>) {
        (self, None)
    }
}

impl Outputs for (CampaignAggregates, RecordSink) {
    fn into_outputs(self) -> (CampaignAggregates, Option<RecordSink>) {
        (self.0, Some(self.1))
    }
}

/// One measured campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// The plan it executed.
    pub plan: CampaignPlan,
    /// Everything the figures need, assembled as `run_campaign` does.
    pub data: StudyData,
    /// Host time per available session, in nanoseconds, all workers.
    pub session_ns: Vec<u64>,
    /// `session_ns`, each scaled by the host speed around it
    /// ([`calib::local_speeds`]); equal to it without calibration.
    pub calibrated_ns: Vec<u64>,
    /// Reference slice times in nanoseconds, all workers (empty unless
    /// calibration is on). Their sum is part of the execute wall time.
    pub slice_ns: Vec<u64>,
    /// The host's speed over the campaign: the local speeds weighted by
    /// the time of their windows; 1.0 without calibration.
    pub speed: f64,
    /// Time spent merging worker accumulators.
    pub merge_time: Duration,
}

impl CampaignRun {
    /// Execute-phase wall time without the reference slices: the slices
    /// of all workers spread evenly over the workers.
    pub fn work_wall(&self) -> Duration {
        let slices: u64 = self.slice_ns.iter().sum();
        let workers = self.data.summary.workers.max(1) as u64;
        self.data
            .summary
            .wall
            .saturating_sub(Duration::from_nanos(slices / workers))
    }
}

/// Plans the workload's campaign at `seed` and folds it through the
/// executor `repro` would pick for `workload.jobs`, timing the execute
/// phase as `run_campaign` does.
pub fn run_timed(workload: &Workload, seed: u64) -> Result<CampaignRun, CampaignError> {
    let params = workload.params(seed);
    let plan_start = Instant::now();
    let plan = realvideo_core::study::plan_campaign(params);
    let plan_wall = plan_start.elapsed();
    let folded = match workload.output {
        crate::Output::Figures => fold::<CampaignAggregates>(&plan)?,
        crate::Output::Dump => fold::<(CampaignAggregates, RecordSink)>(&plan)?,
    };
    let (aggregates, sink) = folded.outputs;
    let records = sink
        .map(|s| s.into_records(plan.total_jobs()))
        .transpose()?;
    let summary = CampaignSummary {
        jobs_planned: plan.total_jobs(),
        played: aggregates.played as usize,
        unavailable: aggregates.unavailable as usize,
        workers: plan.params.jobs.max(1),
        per_worker: folded.worker_loads,
        wall: folded.wall,
        plan_wall,
        profiles: folded.worker_profiles,
        counters: aggregates.counters,
        sim_seconds: aggregates.sim_seconds(),
    };
    let data = StudyData {
        aggregates,
        records,
        excluded_users: plan.population.excluded.len() as u32,
        participants: plan.population.participants.len() as u32,
        summary,
    };
    let mut run = CampaignRun {
        plan,
        data,
        session_ns: Vec::new(),
        calibrated_ns: Vec::new(),
        slice_ns: Vec::new(),
        speed: 1.0,
        merge_time: folded.merge_time,
    };
    let (mut weighted, mut windows) = (0.0, 0.0);
    for w in &folded.workers {
        let speeds = calib::local_speeds(&w.slice_ns);
        run.session_ns.extend_from_slice(&w.session_ns);
        run.calibrated_ns.extend(
            w.session_ns
                .iter()
                .zip(&w.session_window)
                .map(|(&ns, &i)| (ns as f64 * speeds[i as usize]) as u64),
        );
        run.slice_ns.extend_from_slice(&w.slice_ns);
        for (&ns, speed) in w.window_ns.iter().zip(&speeds) {
            weighted += ns as f64 * speed;
            windows += ns as f64;
        }
    }
    if windows > 0.0 {
        run.speed = weighted / windows;
    }
    Ok(run)
}

/// A finished fold with the wrapped accumulator split out.
struct Folded {
    wall: Duration,
    outputs: (CampaignAggregates, Option<RecordSink>),
    worker_loads: Vec<usize>,
    worker_profiles: Vec<WorkerProfile>,
    workers: Vec<WorkerTimes>,
    merge_time: Duration,
}

/// Folds `plan` into `Timed<A>` on the executor its params select.
fn fold<A: Outputs>(plan: &CampaignPlan) -> Result<Folded, CampaignError> {
    let start = Instant::now();
    let fold = if plan.params.jobs <= 1 {
        SerialExecutor.fold::<Timed<A>>(plan)?
    } else {
        ThreadedExecutor::new(plan.params.jobs).fold::<Timed<A>>(plan)?
    };
    let wall = start.elapsed();
    let timed = fold.accumulator;
    Ok(Folded {
        wall,
        outputs: timed.inner.into_outputs(),
        worker_loads: fold.worker_loads,
        worker_profiles: fold.worker_profiles,
        workers: timed.workers,
        merge_time: timed.merge_time,
    })
}
