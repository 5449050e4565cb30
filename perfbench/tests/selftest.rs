//! The benchmark's own checks: it must measure the program's fold, and
//! its step driver must replay `SessionWorld::run` exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use realvideo_core::study::{
    plan_campaign, run_campaign, CampaignAggregates, RecordSink, StudyParams,
};
use rv_perfbench::calib;
use rv_perfbench::stepdrive::{
    replays_current_loop, run_source_digest, trace_campaign, REPLAYED_RUN_DIGEST,
};
use rv_perfbench::timed::Outputs;
use rv_perfbench::{run_timed, Output, Workload, STUDY_SEED};

/// A workload's parameters at a scale small enough for a test.
fn small(name: &str, scale: f64) -> Workload {
    Workload {
        scale,
        ..Workload::by_name(name).expect("known workload")
    }
}

#[test]
fn timed_fold_yields_run_campaigns_aggregates() {
    for w in [
        small("classic", 0.03),
        small("faulted_cluster", 0.03),
        small("scaled_parallel", 0.03),
    ] {
        let run = run_timed(&w, 42).expect("campaign runs");
        let reference = run_campaign(w.params(42)).expect("campaign runs");
        assert_eq!(run.data.aggregates, reference.aggregates, "{}", w.name);
        let available =
            (run.data.aggregates.total_attempts - run.data.aggregates.unavailable) as usize;
        assert_eq!(run.session_ns.len(), available, "{}", w.name);
        assert_eq!(run.data.records.is_some(), w.output == Output::Dump);
    }
}

#[test]
fn calibration_slices_leave_the_fold_unchanged() {
    // Process-wide: the other tests here only fold, and slices never
    // reach the wrapped accumulator.
    calib::enable();
    let w = small("classic", 0.03);
    let run = run_timed(&w, 42).expect("campaign runs");
    let reference = run_campaign(w.params(42)).expect("campaign runs");
    assert_eq!(run.data.aggregates, reference.aggregates);
    let jobs = run.plan.total_jobs() as u32;
    assert_eq!(run.slice_ns.len() as u32, jobs / calib::SLICE_EVERY);
    assert_eq!(run.calibrated_ns.len(), run.session_ns.len());
    assert!(run.speed > 0.0 && run.speed.is_finite());
    assert!(run.work_wall() < run.data.summary.wall);
}

#[test]
fn speed_follows_the_median_of_nearby_slices() {
    let nominal = calib::NOMINAL_SLICE.as_nanos() as u64;
    assert_eq!(calib::speed(&mut []), 1.0);
    let half = 0.5f64.powf(calib::CONTENTION_EXPONENT);
    assert_eq!(calib::speed(&mut [nominal * 2, nominal / 2, nominal * 2]), half);
    let (n, slow) = (nominal, nominal * 2);
    assert_eq!(
        calib::local_speeds(&[n, slow, slow, n]),
        [1.0, half, half, 1.0, 1.0]
    );
    assert_eq!(calib::local_speeds(&[]), [1.0]);
}

fn replay<A: Outputs>(w: &Workload, seed: u64) {
    let params = w.params(seed);
    let plan = plan_campaign(params);
    let mut t = trace_campaign::<A>(&plan, plan.num_users());
    assert!(t.covered > 0, "{}: nothing stepped", w.name);
    assert!(t.equivalent(), "{}: {:?}", w.name, t.mismatches);
    assert_eq!(t.jobs, plan.total_jobs() as u64);
    let (replayed, _) = std::mem::take(&mut t.accumulator).into_outputs();
    let reference = run_campaign(params).expect("campaign runs");
    assert_eq!(replayed, reference.aggregates, "{}", w.name);
    assert!(t.split.instants > 0 && t.split.net_poll.calls >= t.split.instants);
}

#[test]
fn step_driver_replays_fault_free_sessions_exactly() {
    replay::<CampaignAggregates>(&small("classic", 0.03), STUDY_SEED);
}

#[test]
fn step_driver_replays_replicas_and_falls_back_on_faults() {
    let w = small("faulted_cluster", 0.05);
    let plan = plan_campaign(w.params(7));
    let t = trace_campaign::<(CampaignAggregates, RecordSink)>(&plan, plan.num_users());
    assert!(t.covered < t.available, "some sessions carry faults");
    assert!(t.split.replica_app.calls > 0, "replicas are driven");
    replay::<(CampaignAggregates, RecordSink)>(&w, 7);
}

#[test]
fn step_driver_replays_the_programs_current_loop() {
    assert_eq!(
        run_source_digest().as_deref(),
        Some(REPLAYED_RUN_DIGEST),
        "SessionWorld::run changed: update StepDriver::drive, then the pinned digest"
    );
    assert!(replays_current_loop());
}

#[test]
fn work_counts_repeat_exactly() {
    let w = small("classic", 0.02);
    let plan = plan_campaign(w.params(3));
    let digest = || {
        let t = trace_campaign::<CampaignAggregates>(&plan, plan.num_users());
        let mut h = rv_perfbench::checks::Fnv::default();
        t.split.work_digest(&mut h);
        h.hex()
    };
    assert_eq!(digest(), digest());
}

#[test]
fn campaign_seeds_start_at_the_study_seed_and_follow_the_seed() {
    for w in rv_perfbench::workload::WORKLOADS {
        let seeds = w.campaign_seeds(5);
        assert_eq!(seeds.len(), w.campaigns_per_pass);
        assert_eq!(seeds[..2], [STUDY_SEED, 5]);
        assert_eq!(seeds, w.campaign_seeds(5));
        assert_ne!(seeds[1..], w.campaign_seeds(6)[1..]);
    }
    assert_eq!(StudyParams::default().seed, STUDY_SEED);
}
