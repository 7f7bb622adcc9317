//! Collection cost model (Appendix D.2 and F).
//!
//! On the testbed the controller collects, per edge switch and per epoch:
//! the flow classifier, the upstream flow encoder, and the downstream flow
//! encoder. Collection uses recirculating tailored packets; the measured
//! budget breakdown at the default configuration (§D.2) is
//!
//! | step                              | time     |
//! |-----------------------------------|----------|
//! | post-flip sync sleep              | 1.00 ms  |
//! | collect flow classifier (64 KiB)  | 2.68 ms  |
//! | collect upstream encoder (240 KiB)| 0.44 ms  |
//! | wait for in-flight packets        | 6.88 ms  |
//! | collect downstream encoder        | 0.33 ms  |
//!
//! totalling 11.33 ms. We scale the per-sketch collection times linearly
//! with sketch size from those calibration points, which preserves the
//! figure-20/21 shapes (a substitution for measuring a Tofino: the table
//! above is the whole calibration). On-switch sketch
//! buckets are five 32-bit lanes = 20 bytes (Figure 13).

/// Bytes of one FermatSketch bucket on the switch: five 32-bit counters
/// (4 ID/fingerprint lanes + 1 count lane), §D.1.
pub const TOFINO_BUCKET_BYTES: usize = 20;

/// Cost model for per-epoch sketch collection.
#[derive(Debug, Clone)]
pub struct CollectionModel {
    /// Number of edge switches collected from.
    pub n_edges: usize,
    /// Flow classifier bytes per switch.
    pub classifier_bytes: usize,
    /// Upstream flow encoder bytes per switch.
    pub upstream_bytes: usize,
    /// Downstream flow encoder bytes per switch.
    pub downstream_bytes: usize,
}

/// Calibration constants from §D.2 (defaults at 64 KiB classifier / 245 KiB
/// upstream / 184 KiB downstream).
const SYNC_SLEEP_MS: f64 = 1.0;
const TRANSIT_WAIT_MS: f64 = 6.88;
const CLASSIFIER_MS_PER_BYTE: f64 = 2.68 / 65_536.0;
const UPSTREAM_MS_PER_BYTE: f64 = 0.44 / (4096.0 * 3.0 * TOFINO_BUCKET_BYTES as f64);
const DOWNSTREAM_MS_PER_BYTE: f64 = 0.33 / (3072.0 * 3.0 * TOFINO_BUCKET_BYTES as f64);

impl CollectionModel {
    /// The §5.2 default configuration: 4 edges, 64 KiB classifier,
    /// 4096-buckets/array upstream and 3072-buckets/array downstream
    /// 3-array Fermat encoders.
    pub fn paper_default() -> Self {
        CollectionModel {
            n_edges: 4,
            classifier_bytes: 65_536,
            upstream_bytes: 4096 * 3 * TOFINO_BUCKET_BYTES,
            downstream_bytes: 3072 * 3 * TOFINO_BUCKET_BYTES,
        }
    }

    /// Total bytes collected per switch per epoch.
    pub fn bytes_per_switch(&self) -> usize {
        self.classifier_bytes + self.upstream_bytes + self.downstream_bytes
    }

    /// Total bytes collected per epoch across all edges.
    pub fn bytes_per_epoch(&self) -> usize {
        self.bytes_per_switch() * self.n_edges
    }

    /// Controller-side collection time per epoch in ms (§D.2 breakdown),
    /// assuming switches are collected in parallel pipelines but the
    /// controller budget is dominated by the serialized steps.
    pub fn collection_time_ms(&self) -> f64 {
        SYNC_SLEEP_MS
            + self.classifier_bytes as f64 * CLASSIFIER_MS_PER_BYTE
            + self.upstream_bytes as f64 * UPSTREAM_MS_PER_BYTE
            + TRANSIT_WAIT_MS
            + self.downstream_bytes as f64 * DOWNSTREAM_MS_PER_BYTE
    }

    /// Collection bandwidth at the controller NIC for a given epoch length,
    /// in Mbps (Figure 21).
    pub fn bandwidth_mbps(&self, epoch_ms: f64) -> f64 {
        let bits = self.bytes_per_epoch() as f64 * 8.0;
        bits / (epoch_ms / 1000.0) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_budget() {
        let m = CollectionModel::paper_default();
        let t = m.collection_time_ms();
        // §D.2: total 11.33 ms.
        assert!((t - 11.33).abs() < 0.05, "collection time {t}");
    }

    #[test]
    fn default_bandwidth_matches_figure_21() {
        let m = CollectionModel::paper_default();
        let bw = m.bandwidth_mbps(50.0);
        // §5/F: ~317-320 Mbps at 50 ms epochs on a 40 Gb NIC (0.8%).
        assert!((300.0..340.0).contains(&bw), "bandwidth {bw}");
        let pct_of_40g = bw / 40_000.0 * 100.0;
        assert!((pct_of_40g - 0.8).abs() < 0.1, "{pct_of_40g}% of 40G");
    }

    #[test]
    fn bandwidth_inverse_in_epoch_length() {
        let m = CollectionModel::paper_default();
        let b50 = m.bandwidth_mbps(50.0);
        let b100 = m.bandwidth_mbps(100.0);
        assert!((b50 / b100 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_sketches_cost_more() {
        let small = CollectionModel::paper_default();
        let big = CollectionModel { upstream_bytes: small.upstream_bytes * 4, ..small.clone() };
        assert!(big.collection_time_ms() > small.collection_time_ms());
        assert!(big.bytes_per_epoch() > small.bytes_per_epoch());
    }
}
