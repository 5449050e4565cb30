//! The traced replay: `SessionWorld::run`'s settle loop rebuilt from the
//! world's public fields and methods, with every call counted and a
//! bounded sample of calls timed.
//!
//! [`StepDriver::drive`] replays the loop for a session whose fault plan
//! is empty (such a world arms no fault injector, which is the one part
//! of `run` that is private). [`trace_campaign`] replays a whole
//! campaign the way `SerialExecutor` runs it — build, drive, retire,
//! fold — timing and counting allocations around each phase, and checks
//! every replayed session against `run_job_with` on a fresh
//! `WorldScratch`: if any differs, the inner split is not reported.
//!
//! That check cannot see every change to the loop: a change that keeps
//! every session's metrics and counters bit for bit (the contract every
//! performance change to the program keeps) would pass it while the
//! replay went on counting the old loop's calls. So the replay is also
//! pinned to the source it was written from: [`replays_current_loop`]
//! compares a digest of `SessionWorld::run` in the program's source with
//! [`REPLAYED_RUN_DIGEST`], and the inner split is not reported when they
//! differ. Whoever changes that loop updates [`StepDriver::drive`] to
//! match and then the pinned digest.

use std::time::Instant;

use realvideo_core::net::Network;
use realvideo_core::rtsp::TransportKind;
use realvideo_core::sim::{earliest, Counter, CounterSet, SimDuration, SimRng, SimTime};
use realvideo_core::study::{
    build_session_world_gw, gateway_spec, run_job_with, CampaignPlan, SessionJob, SessionRecord,
};
use realvideo_core::tracer::{rate, SessionMetrics, SessionOutcome, SessionWorld, WorldScratch};
use realvideo_core::transport::{Segment, Stack};

use crate::checks::Fnv;
use crate::timed::{nanos, Outputs};

/// The program's session driver, whose `SessionWorld::run` the step
/// driver replays.
const HARNESS_SOURCE: &str = include_str!("../../crates/tracer/src/harness.rs");

/// [`run_source_digest`] of the `SessionWorld::run` that
/// [`StepDriver::drive`] replays.
pub const REPLAYED_RUN_DIGEST: &str = "2c536914cb33dd27";

/// FNV-1a digest of `SessionWorld::run` in the program's source, with
/// comments, indentation and blank lines left out, so that only a change
/// of code moves it. `None` if the function is not found.
pub fn run_source_digest() -> Option<String> {
    let start = HARNESS_SOURCE.find("\n    pub fn run(")? + 1;
    let body = &HARNESS_SOURCE[start..];
    // The first line closing a block at the method's indentation.
    let end = body.find("\n    }\n")?;
    let mut h = Fnv::default();
    for line in body[..end].lines() {
        let code = line.split("//").next().unwrap_or_default().trim();
        if !code.is_empty() {
            h.write(code.as_bytes());
            h.write(b"\n");
        }
    }
    Some(h.hex())
}

/// Whether the program's `SessionWorld::run` is still the loop
/// [`StepDriver::drive`] replays.
pub fn replays_current_loop() -> bool {
    run_source_digest().as_deref() == Some(REPLAYED_RUN_DIGEST)
}

/// One call of `SAMPLE_EVERY` at each call site is timed; every call is
/// counted. Timing every call inflates drive time several-fold. The
/// period is prime so it does not lock onto the settle loop's fixed
/// call pattern, and it runs on across sessions so their cold first
/// calls are not always the ones sampled.
pub const SAMPLE_EVERY: u64 = 61;

/// Exact call counts and a sampled time estimate for one call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Site {
    /// Calls made.
    pub calls: u64,
    /// Calls that reported work done (a nonzero return).
    pub productive: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Host nanoseconds of the timed calls, clock reads included.
    pub sampled_ns: u64,
}

impl Site {
    /// Runs `f`, counting the call and timing it if it is sampled.
    #[inline(always)]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let timed = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        if !timed {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.sampled_ns += nanos(t.elapsed());
        self.sampled += 1;
        r
    }

    /// [`Site::call`] for a poll returning the work it did.
    #[inline(always)]
    fn poll(&mut self, f: impl FnOnce() -> usize) -> usize {
        let n = self.call(f);
        self.productive += u64::from(n > 0);
        n
    }

    /// Mean host nanoseconds of a timed call.
    pub fn mean_ns(&self) -> f64 {
        crate::report::ratio(self.sampled_ns as f64, self.sampled as f64)
    }

    /// Share of calls that did work.
    pub fn productive_share(&self) -> f64 {
        crate::report::ratio(self.productive as f64, self.calls as f64)
    }
}

/// The settle loop's work and time, split by the component called.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveSplit {
    /// Simulated instants visited.
    pub instants: u64,
    /// Settle rounds over all instants.
    pub settle_rounds: u64,
    /// `Network::poll`.
    pub net_poll: Site,
    /// `Stack::needs_poll`, every stack.
    pub needs_poll: Site,
    /// `Stack::poll` on the client host.
    pub client_stack: Site,
    /// `Stack::poll` on the server hosts, replicas included.
    pub server_stack: Site,
    /// `RealServer::poll` on the primary server.
    pub server_app: Site,
    /// `RealServer::poll` on replica servers.
    pub replica_app: Site,
    /// `TracerClient::poll`.
    pub client_app: Site,
    /// One wake computation per instant advanced.
    pub next_wake: Site,
    /// An empty region, timed once per settle round at the same rate as
    /// the calls: the clock's own cost under the same conditions.
    pub clock: Site,
    /// Component `next_wake` queries inside those computations.
    pub next_wake_queries: u64,
    /// Host nanoseconds of the whole replayed drive.
    pub drive_ns: u64,
}

impl DriveSplit {
    /// The timed child call sites.
    pub fn sites(&self) -> [&Site; 8] {
        [
            &self.net_poll,
            &self.needs_poll,
            &self.client_stack,
            &self.server_stack,
            &self.server_app,
            &self.replica_app,
            &self.client_app,
            &self.next_wake,
        ]
    }

    /// Estimated host nanoseconds of all of `site`'s calls, the clock's
    /// cost taken out of each timed call.
    pub fn estimated_ns(&self, site: &Site) -> f64 {
        (site.mean_ns() - self.clock.mean_ns()).max(0.0) * site.calls as f64
    }

    /// Share of drive time no timed child call accounts for: the loop's
    /// own bookkeeping and the counting.
    pub fn unattributed_share(&self) -> f64 {
        let children: f64 = self.sites().iter().map(|s| self.estimated_ns(s)).sum();
        crate::report::ratio(self.drive_ns as f64 - children, self.drive_ns as f64)
    }

    /// Digest of the work counts (never the times): identical on every
    /// run of the same campaign.
    pub fn work_digest(&self, h: &mut Fnv) {
        let mut counts = vec![self.instants, self.settle_rounds, self.next_wake_queries];
        for s in self.sites() {
            counts.push(s.calls);
            counts.push(s.productive);
        }
        for c in counts {
            h.write(&c.to_le_bytes());
        }
    }
}

/// Replays `SessionWorld::run` with call counting and sampled timing.
#[derive(Debug, Default)]
pub struct StepDriver {
    /// Per-replica `(app_ran, poll_app)` flags, reused across sessions.
    replica_flags: Vec<(bool, bool)>,
}

impl StepDriver {
    /// A driver with no sessions behind it.
    pub fn new() -> StepDriver {
        StepDriver {
            replica_flags: Vec::new(),
        }
    }

    /// Drives `world` until its client finishes or `deadline` passes,
    /// exactly as `SessionWorld::run` does for a world armed with no
    /// faults, adding what it did to `split` (which carries the sampling
    /// phase from one session to the next).
    pub fn drive(
        &mut self,
        world: &mut SessionWorld,
        deadline: SimTime,
        split: &mut DriveSplit,
    ) -> SessionMetrics {
        let started = Instant::now();
        let s = split;
        self.replica_flags.clear();
        self.replica_flags
            .resize(world.replicas.len(), (false, true));
        let mut now = world.now;
        loop {
            s.instants += 1;
            let mut client_app_ran = false;
            let mut server_app_ran = false;
            let mut poll_client_app = true;
            let mut poll_server_app = true;
            for flags in &mut self.replica_flags {
                *flags = (false, true);
            }
            for _ in 0..64 {
                s.settle_rounds += 1;
                s.clock.call(|| ());
                let mut moved = s.net_poll.poll(|| world.net.poll(now));
                moved += settle_stack(
                    (&mut s.needs_poll, &mut s.client_stack),
                    (&mut world.client_stack, &mut world.net, now),
                    (&mut client_app_ran, &mut poll_client_app),
                );
                moved += settle_stack(
                    (&mut s.needs_poll, &mut s.server_stack),
                    (&mut world.server_stack, &mut world.net, now),
                    (&mut server_app_ran, &mut poll_server_app),
                );
                moved += settle_app(
                    &mut s.server_app,
                    (&mut server_app_ran, &mut poll_server_app),
                    || world.server.poll(now, &mut world.server_stack),
                );
                moved += settle_app(
                    &mut s.client_app,
                    (&mut client_app_ran, &mut poll_client_app),
                    || world.client.poll(now, &mut world.client_stack),
                );
                for ((stack, server), (app_ran, poll_app)) in
                    world.replicas.iter_mut().zip(&mut self.replica_flags)
                {
                    moved += settle_stack(
                        (&mut s.needs_poll, &mut s.server_stack),
                        (stack, &mut world.net, now),
                        (app_ran, poll_app),
                    );
                    moved += settle_app(&mut s.replica_app, (app_ran, poll_app), || {
                        server.poll(now, stack)
                    });
                    moved += settle_stack(
                        (&mut s.needs_poll, &mut s.server_stack),
                        (stack, &mut world.net, now),
                        (app_ran, poll_app),
                    );
                }
                moved += settle_stack(
                    (&mut s.needs_poll, &mut s.client_stack),
                    (&mut world.client_stack, &mut world.net, now),
                    (&mut client_app_ran, &mut poll_client_app),
                );
                moved += settle_stack(
                    (&mut s.needs_poll, &mut s.server_stack),
                    (&mut world.server_stack, &mut world.net, now),
                    (&mut server_app_ran, &mut poll_server_app),
                );
                if moved == 0 {
                    break;
                }
            }
            if world.client.is_done() || now >= deadline {
                world.now = now;
                break;
            }
            let w = &*world;
            let next = s.next_wake.call(|| {
                let mut next = earliest([
                    w.net.next_wake(),
                    w.client_stack.next_wake(),
                    w.server_stack.next_wake(),
                    w.server.next_wake(now),
                    w.client.next_wake(now),
                ]);
                for (stack, server) in &w.replicas {
                    next = earliest([next, stack.next_wake(), server.next_wake(now)]);
                }
                next
            });
            s.next_wake_queries += 5 + 2 * w.replicas.len() as u64;
            let step_floor = now + SimDuration::from_micros(1);
            now = next.unwrap_or(deadline).min(deadline).max(step_floor);
        }
        let metrics = world.client.metrics().cloned().unwrap_or_else(|| {
            SessionMetrics::failed(
                SessionOutcome::Failed,
                world.client.transport().unwrap_or(TransportKind::Tcp),
            )
        });
        s.drive_ns += nanos(started.elapsed());
        metrics
    }
}

/// One stack step of the settle loop: the stack is polled when it has
/// observable work (`needs_poll`) or its application ran since it was
/// last flushed; work it handled wakes the application again. Takes
/// `(needs_poll site, poll site)`, `(stack, network, now)` and the
/// application's `(ran, poll)` flags; returns the work handled.
#[inline(always)]
fn settle_stack(
    (needs, polls): (&mut Site, &mut Site),
    (stack, net, now): (&mut Stack, &mut Network<Segment>, SimTime),
    (app_ran, poll_app): (&mut bool, &mut bool),
) -> usize {
    if needs.call(|| stack.needs_poll(net, now)) || *app_ran {
        let handled = polls.poll(|| stack.poll(now, net));
        *app_ran = false;
        *poll_app |= handled > 0;
        handled
    } else {
        0
    }
}

/// One application step of the settle loop: the application is polled
/// once per instant and again after its stack made progress; work it did
/// makes its stack due. Returns the work done.
#[inline(always)]
fn settle_app(
    site: &mut Site,
    (app_ran, poll_app): (&mut bool, &mut bool),
    poll: impl FnOnce() -> usize,
) -> usize {
    if !*poll_app {
        return 0;
    }
    *poll_app = false;
    let worked = site.poll(poll);
    *app_ran |= worked > 0;
    worked
}

/// Allocation counters `(allocations, bytes)` — zero unless the binary
/// installed rv-sim's counting allocator.
fn allocs() -> u64 {
    realvideo_core::sim::alloc_stats::snapshot().0
}

/// Host time and allocations of one replayed phase, summed over sessions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Host nanoseconds.
    pub ns: u64,
    /// Allocations.
    pub allocs: u64,
}

impl Phase {
    fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a = allocs();
        let t = Instant::now();
        let r = f();
        self.ns += nanos(t.elapsed());
        self.allocs += allocs() - a;
        r
    }
}

/// What [`trace_campaign`] measured.
#[derive(Debug)]
pub struct CampaignTrace<A> {
    /// The replay's own fold of every session it ran.
    pub accumulator: A,
    /// Jobs replayed (available or not).
    pub jobs: u64,
    /// Available sessions replayed.
    pub available: u64,
    /// Available sessions driven by the step driver.
    pub covered: u64,
    /// Covered sessions whose metrics and counters matched
    /// `run_job_with` on a fresh scratch.
    pub equivalent: u64,
    /// The first few mismatches, described.
    pub mismatches: Vec<String>,
    /// The step driver's split over covered sessions.
    pub split: DriveSplit,
    /// World construction, per available session summed.
    pub worldbuild: Phase,
    /// Driving: the step driver for covered sessions, `SessionWorld::run`
    /// as a whole for the rest.
    pub drive: Phase,
    /// `SessionWorld::retire`.
    pub retire: Phase,
    /// Folding records into the accumulator, every job.
    pub fold: Phase,
    /// `SessionWorld::run` on the covered sessions, untraced.
    pub untraced_drive_ns: u64,
    /// Packets delivered in covered sessions.
    pub covered_packets: u64,
    /// Simulated time of covered sessions, in microseconds.
    pub covered_sim_us: u64,
}

impl<A> CampaignTrace<A> {
    /// Whether every covered session replayed exactly.
    pub fn equivalent(&self) -> bool {
        self.equivalent == self.covered && self.mismatches.is_empty()
    }
}

/// Replays the jobs of the plan's first `users` participants in plan
/// order, as `SerialExecutor` runs them, folding into a fresh `A`.
/// Sessions with an empty fault plan are driven by the [`StepDriver`]
/// and then checked against `run_job_with` on a fresh `WorldScratch`;
/// their untraced drive is timed on a second world for the tracing
/// overhead. The rest are timed around `SessionWorld::run`.
pub fn trace_campaign<A: Outputs>(plan: &CampaignPlan, users: usize) -> CampaignTrace<A> {
    let params = &plan.params;
    let mut driver = StepDriver::new();
    let mut scratch = WorldScratch::default();
    let mut untraced_scratch = WorldScratch::default();
    let mut t = CampaignTrace {
        accumulator: A::default(),
        jobs: 0,
        available: 0,
        covered: 0,
        equivalent: 0,
        mismatches: Vec::new(),
        split: DriveSplit::default(),
        worldbuild: Phase::default(),
        drive: Phase::default(),
        retire: Phase::default(),
        fold: Phase::default(),
        untraced_drive_ns: 0,
        covered_packets: 0,
        covered_sim_us: 0,
    };
    for user_idx in 0..users.min(plan.num_users()) {
        for job in plan.user_jobs(user_idx) {
            t.jobs += 1;
            let user = &plan.population.participants[job.user];
            let site = &plan.roster[job.server];
            let entry = &plan.playlist[job.playlist_slot];
            let gateway = gateway_spec(params, &job);
            let build = |scratch: &mut WorldScratch| {
                build_session_world_gw(
                    user,
                    site,
                    &entry.clip,
                    params.watch_limit,
                    job.session_seed,
                    &job.fault_plan,
                    gateway.as_ref(),
                    scratch,
                )
            };
            let covered = job.available && job.fault_plan.is_empty();
            let (metrics, rating, counters) = if job.available {
                t.available += 1;
                let mut world = t.worldbuild.measure(|| build(&mut scratch));
                let metrics = if covered {
                    t.drive
                        .measure(|| driver.drive(&mut world, params.session_deadline, &mut t.split))
                } else {
                    t.drive.measure(|| world.run(params.session_deadline))
                };
                let counters = world.counters();
                let rating = if job.rating_slot && metrics.outcome.is_played() {
                    let key = SessionJob::stream_key(job.user_id, job.clip_seq);
                    let mut rating_rng = SimRng::derive(params.seed, "rating", key);
                    Some(rate(&metrics, &user.rater, &mut rating_rng))
                } else {
                    None
                };
                t.retire.measure(|| world.retire(&mut scratch));
                (metrics, rating, counters)
            } else {
                (
                    SessionMetrics::failed(SessionOutcome::Unavailable, TransportKind::Tcp),
                    None,
                    CounterSet::new(),
                )
            };
            if covered {
                t.covered += 1;
                t.covered_packets += counters.get(Counter::PacketsDelivered);
                t.covered_sim_us += metrics.session_time.as_micros();
                let mut world = build(&mut untraced_scratch);
                let started = Instant::now();
                world.run(params.session_deadline);
                t.untraced_drive_ns += nanos(started.elapsed());
                world.retire(&mut untraced_scratch);
                let reference = run_job_with(plan, &job, &mut WorldScratch::default());
                // Debug text compares floats bit for bit, NaN included.
                let same_metrics = format!("{:?}", reference.metrics) == format!("{metrics:?}");
                let same_counters = reference.counters == counters;
                if same_metrics && same_counters {
                    t.equivalent += 1;
                } else if t.mismatches.len() < 4 {
                    t.mismatches.push(format!(
                        "user {} clip_seq {}: {} differ",
                        job.user_id,
                        job.clip_seq,
                        match (same_metrics, same_counters) {
                            (false, false) => "metrics and counters",
                            (false, true) => "metrics",
                            _ => "counters",
                        }
                    ));
                }
            }
            let record = SessionRecord {
                user_id: user.id,
                user_country: user.country,
                user_state: user.state,
                user_region: user.region(),
                connection: user.connection,
                pc: user.pc,
                server_name: site.name,
                server_country: site.country,
                server_region: site.region(),
                clip_name: plan.clip_names[job.playlist_slot].clone(),
                available: job.available,
                metrics,
                counters,
                rating,
            };
            let acc = &mut t.accumulator;
            t.fold.measure(|| acc.observe(&job, &record));
        }
    }
    t
}
