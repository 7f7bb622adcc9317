//! Baseline algorithms that ChameleMon is evaluated against.
//!
//! §5.1 compares FermatSketch with **FlowRadar** and **LossRadar** for packet
//! loss detection; Appendix C compares the Tower+Fermat combination with
//! **CM**, **CU**, **CountHeap**, **UnivMon**, **ElasticSketch**,
//! **FCM-sketch**, **HashPipe**, **CocoSketch**, and **MRAC** across six
//! packet accumulation tasks. Every one of those competitors is implemented
//! here from its original paper's description, with the exact configurations
//! §C lists (e.g. FlowRadar's 10%-memory Bloom filter with 10 hash
//! functions, LossRadar's 48-bit xorSum, Elastic's 4-stage heavy part).
//!
//! Two small traits give the experiment harness a uniform view:
//! [`LossDetector`] for the loss-detection trio and [`AccumulationSketch`]
//! for the per-flow-size family.

pub mod cm;
pub mod coco;
pub mod count_sketch;
pub mod elastic;
pub mod fcm;
pub mod flowradar;
pub mod hashpipe;
pub mod lossradar;
pub mod univmon;

pub use cm::{CmSketch, CuSketch};
pub use coco::CocoSketch;
pub use count_sketch::{CountHeap, CountSketch};
pub use elastic::ElasticSketch;
pub use fcm::FcmSketch;
pub use flowradar::FlowRadar;
pub use hashpipe::HashPipe;
pub use lossradar::LossRadar;
pub use univmon::UnivMon;

use std::collections::HashMap;
use std::hash::Hash;

/// Uniform interface for the packet-loss-detection comparison (Figures 4–6).
///
/// The detector watches the same packet twice — once entering the link
/// (upstream) and, unless it was dropped, once exiting (downstream) — and is
/// finally asked to decode the set of victim flows with lost-packet counts.
pub trait LossDetector<F> {
    /// Record a packet entering the measured segment. `seq` is the packet's
    /// order within its flow (LossRadar's per-packet identifier; flow-level
    /// detectors may ignore it).
    fn observe_upstream(&mut self, f: &F, seq: u32);

    /// Record a packet exiting the measured segment.
    fn observe_downstream(&mut self, f: &F, seq: u32);

    /// Decode the victim flows. `None` means the decode failed (structure
    /// over capacity); `Some(map)` maps each victim flow to its lost-packet
    /// count.
    fn decode_losses(&self) -> Option<HashMap<F, u64>>;

    /// Memory footprint in bytes under the paper's accounting (§5.1 field
    /// widths), counted once per direction or for the pair as the original
    /// system defines it — the harness doubles what needs doubling.
    fn memory_bytes(&self) -> f64;
}

/// Uniform interface for packet-accumulation sketches (Figure 11).
pub trait AccumulationSketch<F: Copy + Eq + Hash> {
    /// Process one packet of flow `f`.
    fn insert(&mut self, f: &F);

    /// Estimated size of flow `f`.
    fn estimate(&self, f: &F) -> u64;

    /// Memory footprint in bytes under the paper's accounting.
    fn memory_bytes(&self) -> f64;

    /// Flows with estimated size ≥ `threshold`, for heavy-hitter /
    /// heavy-change tasks, as `(flow, estimate)`, largest estimate first and
    /// ties toward the smaller flow. The list is a function of the insert
    /// stream: two instances built alike and fed one stream return equal
    /// `Vec`s, whatever order a hash map inside them iterates in. Default:
    /// not supported (empty).
    fn heavy_candidates(&self, _threshold: u64) -> Vec<(F, u64)> {
        Vec::new()
    }
}

/// Puts heavy candidates in [`AccumulationSketch::heavy_candidates`]'
/// order: largest estimate first, ties toward the smaller flow.
fn largest_first<F: Ord>(mut cands: Vec<(F, u64)>) -> Vec<(F, u64)> {
    cands.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    cands
}
