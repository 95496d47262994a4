//! Output checks: campaign JSONL files, and job records rebuilt from a
//! simulator the benchmark drove itself.

use hirise_core::Fabric;
use hirise_lab::json::{self, Json};
use hirise_lab::{Job, JobResult, Metrics};
use hirise_sim::mesh_sim::MeshReport;
use hirise_sim::traffic::TrafficPattern;
use hirise_sim::{NetworkSim, SimReport};

/// A finished campaign file, split into header and records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignFile {
    /// The whole file.
    pub text: String,
    /// The record lines, in job order.
    pub records: Vec<String>,
}

impl CampaignFile {
    /// Digest of the whole file.
    pub fn digest(&self) -> u64 {
        crate::stats::fnv1a64(self.text.as_bytes())
    }
}

/// Reads a finished campaign JSONL file and checks every record: one
/// per job, in job order, with zero recorded invariant violations, and
/// stable (every part runs below its saturation load).
pub fn read_campaign(path: &std::path::Path, jobs: usize) -> Result<CampaignFile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    lines.next().ok_or("empty campaign file")?;
    let records: Vec<String> = lines.map(str::to_string).collect();
    if records.len() != jobs {
        return Err(format!("{} records for {jobs} jobs", records.len()));
    }
    for (index, line) in records.iter().enumerate() {
        check_record(line, index)?;
    }
    Ok(CampaignFile { text, records })
}

/// Checks one job record: its index, zero invariant violations, and a
/// stable run.
pub fn check_record(line: &str, index: usize) -> Result<(), String> {
    let value = json::parse(line).map_err(|e| format!("record {index}: {e}"))?;
    let field = |name: &str| value.get(name).ok_or(format!("record {index}: no {name}"));
    if field("job")?.as_u64() != Some(index as u64) {
        return Err(format!("record {index}: out of order"));
    }
    if field("violations")?.as_u64() != Some(0) {
        return Err(format!("record {index}: invariant violations recorded"));
    }
    if field("stable")?.as_bool() != Some(true) {
        return Err(format!("record {index}: unstable at the workload's load"));
    }
    Ok(())
}

/// The `op` of a server response line, `None` for a record line.
pub fn response_op(line: &str) -> Result<Option<String>, String> {
    let value = json::parse(line).map_err(|e| format!("bad response line: {e}"))?;
    Ok(value.get("op").and_then(Json::as_str).map(str::to_string))
}

/// A numeric member of a response line.
pub fn response_u64(line: &str, name: &str) -> Option<u64> {
    json::parse(line).ok()?.get(name)?.as_u64()
}

/// Rebuilds a single-switch job's record from a simulator the
/// benchmark drove itself, exactly as the lab assembles it.
pub fn single_switch_line<F: Fabric, T: TrafficPattern>(
    job: &Job,
    sim: &NetworkSim<F, T>,
    report: &SimReport,
) -> String {
    let (violations, violation_messages) = match sim.checker() {
        Some(checker) => (
            checker.violation_count(),
            checker
                .violations()
                .iter()
                .take(3)
                .map(|v| match v.cycle {
                    Some(c) => format!("cycle {c}: {}", v.message),
                    None => v.message.clone(),
                })
                .collect(),
        ),
        None => (0, Vec::new()),
    };
    JobResult {
        index: job.index,
        fabric: job.fabric.label(),
        pattern: job.pattern.label(),
        load: job.load,
        fault: job.fault.label(),
        replicate: job.replicate,
        seed: job.seed,
        metrics: Metrics {
            accepted_rate: report.accepted_rate(),
            avg_latency_cycles: report.avg_latency_cycles(),
            p50: report.latency_percentile_cycles(50.0),
            p95: report.latency_percentile_cycles(95.0),
            p99: report.latency_percentile_cycles(99.0),
            max_latency_cycles: report.max_latency_cycles(),
            injected: report.injected_measured(),
            completed: report.completed_measured(),
            stable: report.is_stable(),
            avg_hops: None,
        },
        violations,
        violation_messages,
        fault_events: sim.fault_event_count(),
        per_input_accepted: Some(report.per_input_accepted().to_vec()),
        histogram: report.latency_histogram().clone(),
    }
    .to_jsonl_line()
}

/// Rebuilds a mesh or dragonfly job's record from a sharded simulation
/// the benchmark drove itself, exactly as the lab assembles it.
pub fn routed_line(job: &Job, report: &MeshReport, fault_events: u64) -> String {
    JobResult {
        index: job.index,
        fabric: job.fabric.label(),
        pattern: job.pattern.label(),
        load: job.load,
        fault: job.fault.label(),
        replicate: job.replicate,
        seed: job.seed,
        metrics: Metrics {
            accepted_rate: report.accepted_rate(),
            avg_latency_cycles: report.avg_latency_cycles(),
            p50: report.latency_percentile_cycles(50.0),
            p95: report.latency_percentile_cycles(95.0),
            p99: report.latency_percentile_cycles(99.0),
            max_latency_cycles: report.latency_histogram().max().unwrap_or(0),
            injected: report.injected_measured(),
            completed: report.completed_measured(),
            stable: report.is_stable(),
            avg_hops: Some(report.avg_hops()),
        },
        violations: 0,
        violation_messages: Vec::new(),
        fault_events,
        per_input_accepted: None,
        histogram: report.latency_histogram().clone(),
    }
    .to_jsonl_line()
}
