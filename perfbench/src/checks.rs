//! Output checks every run makes, and the digests that pin a campaign's
//! output across runs without pinning it in the benchmark.

use realvideo_core::analysis::{csv_header, csv_row};
use realvideo_core::sim::Counter;
use realvideo_core::{all_figures, FIGURE_IDS};

use crate::report::{array, JsonObject};
use crate::timed::CampaignRun;
use crate::workload::{Output, Workload, STUDY_SEED};

/// 64-bit FNV-1a, the digest of a campaign's output text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One named pass/fail verdict with what was observed.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short stable name.
    pub name: String,
    /// Whether the check held.
    pub ok: bool,
    /// What was observed.
    pub detail: String,
}

/// `checks` as a JSON array of `{"name", "ok", "detail"}` objects.
pub fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            let mut o = JsonObject::default();
            o.str("name", &c.name)
                .bool("ok", c.ok)
                .str("detail", &c.detail);
            o.finish()
        })
        .collect();
    array(&items)
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// The digest of what the workload's campaign produces: the text of all
/// 26 figures, or the CSV dump of every retained record. Also checks the
/// output is complete.
pub fn output_digest(workload: &Workload, run: &CampaignRun) -> (String, Check) {
    let mut h = Fnv::default();
    match workload.output {
        Output::Figures => {
            let figures = all_figures(&run.data);
            for f in &figures {
                h.write(f.id.as_bytes());
                h.write(f.title.as_bytes());
                h.write(f.body.as_bytes());
            }
            let ok = figures.len() == FIGURE_IDS.len();
            let detail = format!("{} of {} figures rendered", figures.len(), FIGURE_IDS.len());
            (h.hex(), check("figures_complete", ok, detail))
        }
        Output::Dump => {
            let records = run.data.records.as_deref().unwrap_or_default();
            h.write(csv_header().as_bytes());
            for r in records {
                h.write(csv_row(r).as_bytes());
                h.write(b"\n");
            }
            let ok = records.len() == run.plan.total_jobs();
            let detail = format!(
                "{} of {} records dumped",
                records.len(),
                run.plan.total_jobs()
            );
            (h.hex(), check("dump_complete", ok, detail))
        }
    }
}

/// The checks that hold for the workload's campaign at `seed`:
/// accounting, the paper's fidelity bands where they are stated, the
/// replicated roster at scale ≥ 1, and that faults actually fired.
pub fn campaign_checks(workload: &Workload, seed: u64, run: &CampaignRun) -> Vec<Check> {
    let agg = &run.data.aggregates;
    let planned = run.plan.total_jobs() as u64;
    let loads: usize = run.data.summary.per_worker.iter().sum();
    let mut checks = vec![check(
        "accounting",
        agg.total_attempts == planned && loads as u64 == planned && agg.played <= planned,
        format!(
            "{} attempts, {} run by workers, {} planned, {} played",
            agg.total_attempts, loads, planned, agg.played
        ),
    )];
    // EXPERIMENTS.md states the bands for the fault-free study at the
    // study seed; other seeds draw other populations, whose UDP share
    // and mean frame rate legitimately leave them.
    if seed == STUDY_SEED && !workload.faults {
        let fps = agg.fps.mean().unwrap_or(0.0);
        checks.push(check(
            "fig11_mean_fps_9_10",
            (9.0..=10.0).contains(&fps),
            format!("mean {fps:.3} fps"),
        ));
        let udp = agg.protocol_played.fraction("UDP");
        checks.push(check(
            "fig16_udp_share_48_56",
            (0.48..=0.56).contains(&udp),
            format!("UDP {:.2}%", udp * 100.0),
        ));
    }
    if workload.scale >= 1.0 {
        let participants = run.data.participants as usize;
        let countries = agg.user_countries.by_name().len();
        let servers = agg.attempts_by_server.by_name().len();
        let expect = 63 * workload.population_replicas();
        checks.push(check(
            "roster_counts",
            participants == expect && countries == 12 && servers == 11,
            format!(
                "{participants} participants (want {expect}), {countries} countries (want 12), \
                 {servers} servers (want 11)"
            ),
        ));
    }
    if workload.faults {
        let outage = agg.counters.get(Counter::DropsOutage);
        let rto = agg.counters.get(Counter::TcpRtoTimeouts);
        checks.push(check(
            "faults_fired",
            outage > 0 && rto > 0,
            format!("{outage} outage drops, {rto} RTO timeouts"),
        ));
    }
    checks
}
