//! A comparable, literal-friendly view of a [`MeshReport`], for tests
//! that pin mesh telemetry.

use hirise_sim::mesh_sim::MeshReport;

/// Every field of a [`MeshReport`], read through its public API.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub cores: usize,
    pub injected: u64,
    pub completed: u64,
    /// Deliveries inside the measurement window.
    pub delivered: u64,
    pub hop_sum: u64,
    pub latency_sum: u64,
    pub latency_min: Option<u64>,
    pub latency_max: Option<u64>,
    /// The latency histogram's non-empty buckets as flattened
    /// `bucket, count` pairs.
    pub buckets: Vec<u64>,
}

impl Fingerprint {
    /// Reads `report`, whose measurement window was `measure` cycles.
    pub fn of(report: &MeshReport, measure: u64) -> Self {
        let completed = report.completed_measured();
        let histogram = report.latency_histogram();
        assert_eq!(histogram.count(), completed, "one latency per completion");
        Self {
            cores: report.cores(),
            injected: report.injected_measured(),
            completed,
            delivered: (report.accepted_rate() * measure as f64).round() as u64,
            hop_sum: (report.avg_hops() * completed as f64).round() as u64,
            latency_sum: histogram.sum(),
            latency_min: histogram.min(),
            latency_max: histogram.max(),
            buckets: histogram
                .sparse()
                .flat_map(|(bucket, count)| [bucket as u64, count])
                .collect(),
        }
    }
}
