//! The untraced end-to-end run.
//!
//! ```text
//! campaign --workload NAME [--seed N] [--seconds S]   # measured run
//! campaign --workload NAME [--seed N] --probe         # one set-up probe
//! campaign --workload NAME [--seed N] --describe      # the campaigns, as JSON
//! ```
//!
//! A measured run is whole passes over the workload's campaign seeds: one
//! pass, then another for as long as the last pass's time still fits in
//! `S` seconds (every pass is the same work, so a fast machine running
//! more passes weights no campaign more than another). It
//! checks every campaign's output and prints one JSON line: the
//! end-to-end metrics (all but `setup_s`, which comes from probes), the
//! checks, and each campaign's output digest. Times are calibrated for
//! the host's speed during each campaign (see `calib`); the raw wall-clock
//! figures are printed next to them.
//!
//! A probe plans the campaign at `--seed`, starts the executor, and exits
//! when the first session finishes, printing `{"setup_s": …}`: the time
//! from entering `main` to the start of the worker that ran it,
//! calibrated, with the raw time and the host speed.

use std::time::Instant;

use realvideo_core::study::plan_campaign;
use rv_perfbench::calib;
use rv_perfbench::checks::{campaign_checks, checks_json, output_digest, Check};
use rv_perfbench::report::{array, quantile, ratio, JsonObject};
use rv_perfbench::timed::stop_at_first_job;
use rv_perfbench::{run_timed, Workload, STUDY_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    probe: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = STUDY_SEED;
    let mut seconds = 25.0;
    let mut probe = false;
    let mut describe = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} wants a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds wants a positive number")?
            }
            "--probe" => probe = true,
            "--describe" => describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        probe,
        describe,
    })
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        std::process::exit(2);
    });
    if args.describe {
        println!("{}", describe(&args));
        return;
    }
    if args.probe {
        stop_at_first_job(process_start);
        let result = run_timed(&args.workload, args.seed);
        eprintln!("campaign: probe ended without running a session: {result:?}");
        std::process::exit(1);
    }
    measure(&args);
}

/// Runs passes until the time is up and prints the result line.
fn measure(args: &Args) {
    let w = &args.workload;
    let seeds = w.campaign_seeds(args.seed);
    let started = Instant::now();
    let mut planned = 0u64;
    let mut attempted = 0u64;
    let mut played = 0u64;
    let mut execute_s = 0.0;
    let mut raw_execute_s = 0.0;
    let mut sim_s = 0.0;
    let mut session_ns: Vec<u64> = Vec::new();
    let mut raw_session_ns: Vec<u64> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut digests: Vec<(u64, String)> = Vec::new();
    let mut campaigns = 0usize;
    let mut failed = 0u64;
    let mut passes = 0usize;
    let mut pass_s = 0.0;
    calib::enable();
    while passes == 0 || started.elapsed().as_secs_f64() + pass_s <= args.seconds {
        let pass_start = Instant::now();
        passes += 1;
        for &seed in &seeds {
            let run = match run_timed(w, seed) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("campaign: seed {seed}: {e}");
                    let lost = plan_campaign(w.params(seed)).total_jobs() as u64;
                    attempted += lost;
                    failed += lost;
                    continue;
                }
            };
            campaigns += 1;
            let s = &run.data.summary;
            planned += s.jobs_planned as u64;
            attempted += run.data.aggregates.total_attempts;
            played += run.data.aggregates.played;
            let speed = run.speed;
            let mut own: Vec<u64> = run.calibrated_ns.clone();
            let own_p50 = quantile(&mut own, 0.50).unwrap_or(0) as f64 / 1e6;
            let own_p99 = quantile(&mut own, 0.99).unwrap_or(0) as f64 / 1e6;
            speeds.push(speed);
            execute_s += run.work_wall().as_secs_f64() * speed;
            raw_execute_s += s.wall.as_secs_f64();
            sim_s += s.sim_seconds;
            session_ns.extend_from_slice(&run.calibrated_ns);
            raw_session_ns.extend_from_slice(&run.session_ns);
            let (digest, complete) = output_digest(w, &run);
            checks.push(complete);
            checks.extend(campaign_checks(w, seed, &run));
            eprintln!(
                "campaign: seed {seed}: {} jobs in {:.3} s, {:.1} sessions/s raw, \
                 host speed {speed:.3}, calibrated {:.1} sessions/s, p50 {own_p50:.3} ms, \
                 p99 {own_p99:.3} ms, digest {digest}",
                s.jobs_planned,
                s.wall.as_secs_f64(),
                s.sessions_per_sec(),
                s.jobs_planned as f64 / (run.work_wall().as_secs_f64() * speed)
            );
            digests.push((seed, digest));
        }
        pass_s = pass_start.elapsed().as_secs_f64();
    }
    let samples = session_ns.len();
    let p50 = quantile(&mut session_ns, 0.50).unwrap_or(0) as f64 / 1e6;
    let p99 = quantile(&mut session_ns, 0.99).unwrap_or(0) as f64 / 1e6;
    let raw_p50 = quantile(&mut raw_session_ns, 0.50).unwrap_or(0) as f64 / 1e6;
    let raw_p99 = quantile(&mut raw_session_ns, 0.99).unwrap_or(0) as f64 / 1e6;
    let rss = peak_rss_mb().unwrap_or(0.0);
    let failed_checks: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    for c in &failed_checks {
        eprintln!("campaign: CHECK FAILED {}: {}", c.name, c.detail);
    }
    eprintln!(
        "campaign: {passes} passes, {campaigns} campaigns, {planned} jobs, {samples} session samples \
         (p50 {p50:.3} ms, p99 {p99:.3} ms; raw {raw_p50:.3} ms, {raw_p99:.3} ms)"
    );

    let mut metrics = JsonObject::default();
    metrics
        .metric("sessions_per_sec", ratio(planned as f64, execute_s), "1/s")
        .metric("sim_seconds_per_sec", ratio(sim_s, execute_s), "s/s")
        .metric("session_ms_p50", p50, "ms")
        .metric("session_ms_p99", p99, "ms")
        .metric("peak_rss_mb", rss, "MB")
        .metric(
            "session_fail_share",
            ratio(
                (attempted - failed - played) as f64,
                (attempted - failed) as f64,
            ),
            "share",
        );
    let mut raw = JsonObject::default();
    raw.num("sessions_per_sec", ratio(planned as f64, raw_execute_s))
        .num("session_ms_p50", raw_p50)
        .num("session_ms_p99", raw_p99);
    let speed_items: Vec<String> = speeds.iter().map(|s| format!("{s:.6}")).collect();
    let digest_items: Vec<String> = digests
        .iter()
        .map(|(seed, d)| {
            let mut o = JsonObject::default();
            o.int("seed", *seed).str("digest", d);
            o.finish()
        })
        .collect();
    let mut out = JsonObject::default();
    out.bool("correct", failed_checks.is_empty() && failed == 0)
        .int("attempted", attempted)
        .int("failed", failed)
        .int("campaigns", campaigns as u64)
        .int("session_samples", samples as u64)
        .raw("metrics", &metrics.finish())
        .raw("raw", &raw.finish())
        .raw("speeds", &array(&speed_items))
        .raw("checks", &checks_json(&checks))
        .raw("digests", &array(&digest_items));
    println!("{}", out.finish());
}

/// The run's campaigns: the workload's parameters and a pass's seeds.
fn describe(args: &Args) -> String {
    let w = &args.workload;
    let p = w.params(args.seed);
    let seeds: Vec<String> = w
        .campaign_seeds(args.seed)
        .iter()
        .map(u64::to_string)
        .collect();
    let mut o = JsonObject::default();
    o.str("workload", w.name)
        .num("scale", p.scale)
        .int("jobs", p.jobs as u64)
        .bool("faults", w.faults)
        .int("replicas", u64::from(p.replicas))
        .str("gateway", &format!("{:?}", p.gateway))
        .str("output", &format!("{:?}", w.output))
        .raw("pass_seeds", &array(&seeds));
    o.finish()
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`), read
/// the way `repro --bench-out` reads it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
