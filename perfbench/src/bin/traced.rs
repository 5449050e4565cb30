//! The traced per-layer run.
//!
//! ```text
//! traced --workload NAME [--seed N]
//! ```
//!
//! Runs the workload's campaign at `--seed` twice: once through the
//! workload's executor (plan, fold, and merge timings, campaign-wide
//! allocations per session), then as a serial replay that times and
//! counts allocations around world build, drive, retire, and fold, and
//! drives every fault-free session with the step driver. Checks the
//! campaign's output as the untraced run does, and prints one JSON line
//! with the per-layer metrics, the checks, the output digest, and a
//! digest of the work counts. The counting allocator is installed here
//! and nowhere else.

use realvideo_core::sim::{alloc_stats, Counter};
use realvideo_core::study::{CampaignAggregates, RecordSink};
use rv_perfbench::checks::{campaign_checks, checks_json, output_digest, Check, Fnv};
use rv_perfbench::report::{ratio, JsonObject};
use rv_perfbench::stepdrive::{
    replays_current_loop, run_source_digest, trace_campaign, CampaignTrace, REPLAYED_RUN_DIGEST,
    SAMPLE_EVERY,
};
use rv_perfbench::timed::Outputs;
use rv_perfbench::{run_timed, Output, Workload, STUDY_SEED};

#[global_allocator]
static ALLOC: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

fn main() {
    let mut workload = None;
    let mut seed = STUDY_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--workload", Some(name)) => workload = Workload::by_name(&name),
            ("--seed", Some(n)) => seed = n.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let line = match workload.output {
        Output::Figures => traced::<CampaignAggregates>(&workload, seed),
        Output::Dump => traced::<(CampaignAggregates, RecordSink)>(&workload, seed),
    };
    println!("{line}");
}

fn usage() -> ! {
    eprintln!("usage: traced --workload NAME [--seed N]");
    std::process::exit(2);
}

/// The traced run folding into `A`; returns the result line.
fn traced<A: Outputs>(w: &Workload, seed: u64) -> String {
    let mut checks: Vec<Check> = Vec::new();

    // The executor's own campaign: plan, fold, merge, worker idle time.
    let before = alloc_stats::snapshot().0;
    let run = match run_timed(w, seed) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("traced: campaign failed: {e}");
            std::process::exit(1);
        }
    };
    let campaign_allocs = alloc_stats::snapshot().0 - before;
    let (output, complete) = output_digest(w, &run);
    checks.push(complete);
    checks.extend(campaign_checks(w, seed, &run));
    let plan = &run.plan;
    let summary = &run.data.summary;
    let planned = plan.total_jobs() as f64;
    let (busy_wall, idle): (f64, f64) = summary.profiles.iter().fold((0.0, 0.0), |(w, i), p| {
        (w + p.wall.as_secs_f64(), i + p.idle().as_secs_f64())
    });

    // The replay. At scale above 1 the replicated users repeat the base
    // roster's sessions, so only the first replica is replayed.
    let users = plan.num_users() / w.population_replicas();
    let mut t: CampaignTrace<A> = trace_campaign(plan, users);
    let (replay_agg, _) = std::mem::take(&mut t.accumulator).into_outputs();
    let full = users == plan.num_users();
    if full {
        checks.push(Check {
            name: "replay_aggregates".into(),
            ok: replay_agg == run.data.aggregates,
            detail: "replayed campaign folds to the executor's aggregates".into(),
        });
    }
    let equivalent = t.equivalent();
    checks.push(Check {
        name: "step_driver_equivalence".into(),
        ok: equivalent,
        detail: format!(
            "{} of {} covered sessions equal run_job_with{}",
            t.equivalent,
            t.covered,
            t.mismatches
                .iter()
                .map(|m| format!("; {m}"))
                .collect::<String>()
        ),
    });
    let current = replays_current_loop();
    checks.push(Check {
        name: "step_driver_source".into(),
        ok: current,
        detail: format!(
            "SessionWorld::run digest {}, the step driver replays {REPLAYED_RUN_DIGEST}",
            run_source_digest().unwrap_or_else(|| "(not found)".into())
        ),
    });
    let layer_allocs = t.worldbuild.allocs + t.drive.allocs + t.retire.allocs + t.fold.allocs;
    let campaign_per_session = campaign_allocs as f64 / planned;
    let layer_per_session = ratio(layer_allocs as f64, t.jobs as f64);
    if full && w.jobs == 1 {
        checks.push(Check {
            name: "alloc_layers_sum".into(),
            ok: (layer_per_session - campaign_per_session).abs() <= 0.02 * campaign_per_session,
            detail: format!(
                "layers {layer_per_session:.1} vs campaign {campaign_per_session:.1} allocs/session"
            ),
        });
    }

    let avail = t.available as f64;
    let covered = t.covered as f64;
    let per_avail_us = |ns: u64| ratio(ns as f64 / 1e3, avail);
    let per_avail = |n: u64| ratio(n as f64, avail);
    let counters = run.data.aggregates.counters;
    let campaign_avail =
        (run.data.aggregates.total_attempts - run.data.aggregates.unavailable) as f64;
    let per_session = |c: Counter| ratio(counters.get(c) as f64, campaign_avail);

    let mut m = JsonObject::default();
    m.metric("study.plan_ms", summary.plan_wall.as_secs_f64() * 1e3, "ms")
        .metric("study.worldbuild_us", per_avail_us(t.worldbuild.ns), "us")
        .metric(
            "study.worldbuild_allocs",
            per_avail(t.worldbuild.allocs),
            "count",
        )
        .metric("study.fold_us", per_avail_us(t.fold.ns), "us")
        .metric("study.fold_allocs", per_avail(t.fold.allocs), "count")
        .metric("study.merge_ms", run.merge_time.as_secs_f64() * 1e3, "ms")
        .metric("study.worker_idle_share", ratio(idle, busy_wall), "share")
        .metric("study.allocs_per_session", campaign_per_session, "count")
        .metric("study.layer_allocs_per_session", layer_per_session, "count")
        .metric("tracer.coverage_share", ratio(covered, avail), "share")
        .metric("tracer.drive_us", per_avail_us(t.drive.ns), "us")
        .metric("tracer.drive_allocs", per_avail(t.drive.allocs), "count")
        .metric("tracer.retire_us", per_avail_us(t.retire.ns), "us")
        .metric("tracer.retire_allocs", per_avail(t.retire.allocs), "count")
        .metric(
            "net.packets_delivered",
            per_session(Counter::PacketsDelivered),
            "count",
        )
        .metric("net.drops_loss", per_session(Counter::DropsLoss), "count")
        .metric("net.drops_queue", per_session(Counter::DropsQueue), "count")
        .metric(
            "net.drops_outage",
            per_session(Counter::DropsOutage),
            "count",
        )
        .metric(
            "net.delayline_head_updates",
            per_session(Counter::DelaylineHeadUpdates),
            "count",
        )
        .metric(
            "net.delayline_bypass_share",
            ratio(
                counters.get(Counter::DelaylineBypassPackets) as f64,
                counters.get(Counter::PacketsDelivered) as f64,
            ),
            "share",
        )
        .metric(
            "transport.tcp_retransmits",
            per_session(Counter::TcpRetransmits),
            "count",
        )
        .metric(
            "transport.tcp_rto_timeouts",
            per_session(Counter::TcpRtoTimeouts),
            "count",
        )
        .metric(
            "server.rung_switches",
            per_session(Counter::RungSwitchesUp) + per_session(Counter::RungSwitchesDown),
            "count",
        )
        .metric(
            "server.frames_thinned",
            per_session(Counter::FramesThinned),
            "count",
        )
        .metric(
            "player.rebuffer_events",
            per_session(Counter::RebufferEvents),
            "count",
        )
        .metric(
            "client.session_retries",
            per_session(Counter::SessionRetries),
            "count",
        )
        .metric(
            "gateway.redirects",
            per_session(Counter::GatewayRedirects),
            "count",
        )
        .metric(
            "gateway.failovers",
            per_session(Counter::Failovers),
            "count",
        );

    // The inner split, only when the step driver replays the program's
    // current loop and every covered session replayed exactly.
    let s = &t.split;
    let mut work = Fnv::default();
    s.work_digest(&mut work);
    for (_, v) in counters.iter() {
        work.write(&v.to_le_bytes());
    }
    if current && equivalent && t.covered > 0 {
        let per = |n: u64| n as f64 / covered;
        let per_us = |ns: f64| ns / 1e3 / covered;
        let server_stack_ns = s.estimated_ns(&s.server_stack);
        let server_app_ns = s.estimated_ns(&s.server_app) + s.estimated_ns(&s.replica_app);
        let server_calls = s.server_app.calls + s.replica_app.calls;
        let server_productive = s.server_app.productive + s.replica_app.productive;
        let overhead_ns = s.drive_ns as f64 - t.untraced_drive_ns as f64;
        m.metric("tracer.instants", per(s.instants), "count")
            .metric(
                "tracer.settle_rounds_per_instant",
                ratio(s.settle_rounds as f64, s.instants as f64),
                "count",
            )
            .metric("tracer.next_wake_calls", per(s.next_wake_queries), "count")
            .metric(
                "tracer.next_wake_us",
                per_us(s.estimated_ns(&s.next_wake)),
                "us",
            )
            .metric("tracer.unattributed_share", s.unattributed_share(), "share")
            .metric(
                "tracer.drive_ns_per_packet",
                ratio(s.drive_ns as f64, t.covered_packets as f64),
                "ns",
            )
            .metric(
                "tracer.drive_ns_per_sim_s",
                ratio(s.drive_ns as f64, t.covered_sim_us as f64 / 1e6),
                "ns/s",
            )
            .metric("tracer.overhead_ms", overhead_ns / 1e6, "ms")
            .metric(
                "tracer.overhead_share",
                ratio(overhead_ns, t.untraced_drive_ns as f64),
                "share",
            )
            .metric("net.poll_calls", per(s.net_poll.calls), "count")
            .metric(
                "net.poll_productive_share",
                s.net_poll.productive_share(),
                "share",
            )
            .metric("net.poll_us", per_us(s.estimated_ns(&s.net_poll)), "us")
            .metric(
                "transport.needs_poll_calls",
                per(s.needs_poll.calls),
                "count",
            )
            .metric(
                "transport.needs_poll_us",
                per_us(s.estimated_ns(&s.needs_poll)),
                "us",
            )
            .metric(
                "transport.poll_calls.client",
                per(s.client_stack.calls),
                "count",
            )
            .metric(
                "transport.poll_calls.server",
                per(s.server_stack.calls),
                "count",
            )
            .metric(
                "transport.poll_productive_share.client",
                s.client_stack.productive_share(),
                "share",
            )
            .metric(
                "transport.poll_productive_share.server",
                s.server_stack.productive_share(),
                "share",
            )
            .metric(
                "transport.poll_us.client",
                per_us(s.estimated_ns(&s.client_stack)),
                "us",
            )
            .metric("transport.poll_us.server", per_us(server_stack_ns), "us")
            .metric("server.poll_calls", per(server_calls), "count")
            .metric(
                "server.poll_productive_share",
                ratio(server_productive as f64, server_calls as f64),
                "share",
            )
            .metric("server.poll_us", per_us(server_app_ns), "us")
            .metric(
                "server.replica_poll_calls",
                per(s.replica_app.calls),
                "count",
            )
            .metric("client.poll_calls", per(s.client_app.calls), "count")
            .metric(
                "client.poll_productive_share",
                s.client_app.productive_share(),
                "share",
            )
            .metric(
                "client.poll_us",
                per_us(s.estimated_ns(&s.client_app)),
                "us",
            );
    }

    let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    for c in &failed {
        eprintln!("traced: CHECK FAILED {}: {}", c.name, c.detail);
    }
    eprintln!(
        "traced: {} jobs replayed, {} of {} available sessions stepped, 1 in {SAMPLE_EVERY} \
         calls timed (clock cost {:.1} ns), drive {:.3} s traced vs {:.3} s untraced",
        t.jobs,
        t.covered,
        t.available,
        t.split.clock.mean_ns(),
        s.drive_ns as f64 / 1e9,
        t.untraced_drive_ns as f64 / 1e9,
    );
    let mut out = JsonObject::default();
    out.bool("correct", failed.is_empty())
        .int("attempted", t.jobs)
        .int("failed", 0)
        .raw("metrics", &m.finish())
        .raw("checks", &checks_json(&checks))
        .str("output_digest", &output)
        .str("work_digest", &work.hex());
    out.finish()
}
