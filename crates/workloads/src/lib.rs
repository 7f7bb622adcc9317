//! Workload generation for the ChameleMon evaluation (§5.2, Appendix E).
//!
//! Two families of workloads appear in the paper:
//!
//! * **CAIDA-like traces** (used for the CPU-platform experiments, §5.1 and
//!   Appendix C): anonymized backbone traces with 32-bit source-IP flow IDs.
//!   We synthesize heavy-tailed traces calibrated to the paper's reported
//!   statistics (first 100K flows ≈ 5.3M packets ⇒ mean ≈ 53 packets/flow;
//!   Appendix-C traces: 63K flows / 2.3M packets ⇒ mean ≈ 37), via a
//!   bounded Pareto sampler — a substitution for the CAIDA traces, which
//!   cannot be redistributed; [`trace::caida_like_trace`] holds the sampler's
//!   parameters and the statistics they were fitted to.
//! * **Distribution-driven UDP workloads** (testbed experiments): flow sizes
//!   drawn from the DCTCP, HADOOP, VL2 and CACHE distributions. We embed
//!   approximate packet-count CDFs transcribed from the cited papers'
//!   figures; what the evaluation depends on is the *relative skew*
//!   (CACHE ≫ HADOOP ≈ VL2 > DCTCP), which these tables preserve.
//!
//! The crate also builds the loss plans the testbed realizes via proactive
//! ECN drops: a set of victim flows, each with a target loss rate.

pub mod distributions;
pub mod loss;
pub mod profile;
pub mod trace;

pub use distributions::{FlowSizeDistribution, WorkloadKind};
pub use loss::{IncastModel, LossPlan, VictimDrift, VictimSelection};
pub use profile::ArrivalProfile;
pub use trace::{caida_like_trace, testbed_trace, FlowChurn, FloodModel, Trace};
