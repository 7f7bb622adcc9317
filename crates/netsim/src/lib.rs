//! Network substrate: the software stand-in for the paper's testbed (§5.2)
//! — a Fat-tree of 10 Tofino switches and 8 servers.
//!
//! The paper's experiments deliberately remove congestion (64-byte packets)
//! and inject losses *proactively* (ECN-marked packets are dropped), so the
//! fabric's only observable behaviours are (a) which edge switches a packet
//! traverses and (b) whether it is dropped in between. This crate models
//! exactly that:
//!
//! * [`topology`] — the topology zoo: the [`Fabric`] contract (routes, hop
//!   counts, link enumeration, role-tagged switch ids) behind the
//!   [`Topology`] enum, with the §5.2 testbed fat-tree, parameterized k-ary
//!   fat-trees, leaf-spine, and imported WAN graphs;
//! * [`clock`] — per-switch clock offsets with NTP-grade precision and the
//!   1-bit epoch timestamp logic of Appendix B;
//! * [`collect`] — the collection cost model of Appendix D.2/F (per-sketch
//!   collection times, per-epoch bandwidth);
//! * [`sim`] — the replay kernel and its serial driver: one epoch
//!   prologue, one per-flow realize step and two walkers (per-packet and
//!   burst, [`ReplayMode`]) replay a trace through ingress hooks, drop
//!   decisions, and egress hooks, epoch by epoch, attributing every drop to
//!   the switch that caused it; the hooks are one trait, [`EdgeSite`], one
//!   implementor per edge switch; the clean fabric is the replay under
//!   [`ImpairmentSet::none`];
//! * [`shard`] — the second driver of the same kernel: per-edge shards on
//!   scoped threads, byte-identical to the serial driver at any layout;
//! * [`queue`] — the link-loss layer, and the only engine it has: offered
//!   load from every flow's ECMP route per (link, time slot), per-flow
//!   arrival profiles shaping it, and a fluid queue per link turning it
//!   into time-correlated drop probabilities plus per-switch queue-depth
//!   telemetry (microbursts, incast ramps, slow drains);
//! * [`index`] — [`FabricIndex`], the dense switch and link numbering the
//!   link-loss layer's per-epoch tables (and the controller's localizer)
//!   are flat arrays over;
//! * [`congestion`] — the links, hot-spot derates (incast ToRs,
//!   browned-out cores, rolling degradations) and the epoch-homogeneous
//!   [`CongestionModel`], which is configuration only: [`queue`] realizes
//!   it as its one-slot, uncoupled case;
//! * [`impair`] — adversarial fabric impairments (per-link queue loss,
//!   Gilbert–Elliott bursty loss, duplication, bounded reordering, per-edge
//!   clock skew), realized per flow above the hook boundary into one
//!   [`FabricFates`] both walkers read, so the per-packet and burst replays
//!   stay byte-identical under any scenario; a flow no random stage touches
//!   is held in closed form.

pub mod clock;
pub mod congestion;
pub mod header;
pub mod impair;
pub mod index;
pub mod collect;
pub mod queue;
pub mod shard;
pub mod sim;
pub mod topology;

pub use clock::{ClockModel, EpochClock};
pub use congestion::{CongestionModel, Derate, Hop, LinkId};
pub use header::{decode_tos, encode_tos, CarriedState, IntShim};
pub use impair::{
    ClockSkew, Duplication, FabricFates, GilbertElliott, ImpairmentSet, LinkLoss,
    Reordering,
};
pub use collect::CollectionModel;
pub use index::FabricIndex;
pub use queue::{QueueDepthStat, QueueLinkStats, QueueModel, QueueRealization, RedDrop};
pub use shard::{
    core_share, merge_fragments, with_core_share, ReportFragment, ShardTiming, ShardedReplay,
    Sharding, StagedDrop, StagedVictim,
};
pub use sim::{
    dominant_drop_switch, EdgeSite, EpochReport, FlowColumn, ReplayMode, SimConfig, Simulator,
    SiteArray, VictimTable,
};
pub use topology::{
    Fabric, FatTree, KaryFatTree, LeafSpine, SwitchId, SwitchRole, Topology, WanGraph,
};
