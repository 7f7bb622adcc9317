//! Per-link congestion: the configuration of the fabric-true loss
//! generator (links, hot spots, the epoch-homogeneous model).
//!
//! The paper's testbed removes congestion entirely (64-byte packets,
//! proactive ECN drops), so earlier revisions realized loss as i.i.d.
//! per-flow coins above the hook boundary — blind to the fat-tree. The
//! link-loss layer closes that gap: every flow's ECMP route contributes its
//! packets to the **offered load** of each directed link it crosses, link
//! utilization maps to a drop probability, and packets die *at a specific
//! switch* (the upstream endpoint of the saturated link, where the egress
//! queue lives). The result feeds [`FabricFates`](crate::impair::FabricFates)
//! so both replay paths consume one realization, and per-switch drop
//! attribution lands in [`EpochReport`](crate::sim::EpochReport) as the
//! ground truth that victim-localization accuracy is scored against.
//!
//! Capacity is *self-calibrating*: a link's capacity is `headroom ×` the
//! mean offered load of its link class (edge→host, edge→agg, agg→core, …),
//! optionally scaled down by [`Derate`]s. Under uniform traffic every link
//! then sits at `1/headroom` utilization — below the drop knee — and only
//! structural hot spots (incast fan-in, a browned-out core, a degraded ToR)
//! push links past it. This keeps scenarios scale-invariant: the same
//! congestion model produces the same *relative* behaviour for CI-smoke and
//! full-size workloads.
//!
//! A [`CongestionModel`] treats the epoch as one homogeneous interval: it
//! is the [`QueueModel`] with one slot and no carried queue, and
//! [`QueueModel::realize`] is the only link-loss engine.

use crate::queue::QueueModel;
use crate::topology::{SwitchId, SwitchRole};
use chm_workloads::ArrivalProfile;

/// The far end of a directed link: another switch, or a destination host
/// (the final hop out of the egress ToR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hop {
    /// A switch-to-switch link.
    Switch(SwitchId),
    /// The last link, switch to server.
    Host(usize),
}

/// A directed link: the upstream switch (whose egress queue drops) and the
/// next hop. Route position `i` of a flow maps to the link out of
/// `route[i]`, so a drop on link `i` is attributed to switch `route[i]`.
pub type LinkId = (SwitchId, Hop);

/// A capacity derate creating a structural hot spot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Derate {
    /// Every out-link of this switch has its capacity scaled by `factor`.
    Switch {
        /// Layer of the derated switch.
        role: SwitchRole,
        /// Index within the layer.
        index: usize,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// A degradation that rolls across the ToRs: during epochs
    /// `[k·period, (k+1)·period)` the edge switch `k mod n_edge` has its
    /// out-links derated by `factor`.
    RollingEdge {
        /// Epochs each ToR stays degraded.
        period: u64,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
}

/// Utilization-driven per-link loss. Capacity self-calibrates per link
/// class (see module docs); drop probability is
/// `clamp(slope · (util − knee), 0, max_drop)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionModel {
    /// Capacity of a link relative to its class's mean offered load.
    pub headroom: f64,
    /// Utilization at which drops begin.
    pub knee: f64,
    /// Drop probability per unit of utilization above the knee.
    pub slope: f64,
    /// Ceiling on any link's drop probability.
    pub max_drop: f64,
    /// Structural hot spots.
    pub derates: Vec<Derate>,
}

impl CongestionModel {
    /// A calibrated default: 2× headroom over the class mean (heavy-tailed
    /// flow sizes make per-link load variance large even under uniform host
    /// selection — the headroom must absorb it), drops begin past 100%
    /// utilization, 30% drop probability per unit of overload, capped at
    /// 50%.
    pub fn calibrated() -> Self {
        CongestionModel {
            headroom: 2.0,
            knee: 1.0,
            slope: 0.3,
            max_drop: 0.5,
            derates: Vec::new(),
        }
    }

    /// The model as the queue model realizes it: one slot spanning the
    /// epoch, flat arrivals, no carried queue, tail drop only — the slot's
    /// pressure is then exactly this model's utilization (`mean / 1`,
    /// `arrivals + 0·q`). The queue's 0.95 ceiling on a slot's combined drop
    /// probability applies to a `max_drop` above it.
    pub fn one_slot_queue(&self) -> QueueModel {
        QueueModel {
            slots: 1,
            profile: ArrivalProfile::Flat,
            headroom: self.headroom,
            knee: self.knee,
            slope: self.slope,
            max_drop: self.max_drop,
            queue_coupling: 0.0,
            red: None,
            derates: self.derates.clone(),
        }
    }
}

/// Capacity/service multiplier of `switch`'s out-links in `epoch`: the
/// product of every matching [`Derate`], whichever model's knob configured
/// it.
pub fn derate_factor(derates: &[Derate], switch: SwitchId, epoch: u64, n_edge: usize) -> f64 {
    let mut f = 1.0;
    for d in derates {
        match *d {
            Derate::Switch { role, index, factor } => {
                if switch.role == role && switch.index == index {
                    f *= factor;
                }
            }
            Derate::RollingEdge { period, factor } => {
                let active = ((epoch / period.max(1)) as usize) % n_edge.max(1);
                if switch.role == SwitchRole::Edge && switch.index == active {
                    f *= factor;
                }
            }
        }
    }
    f
}

/// The link class of a directed link's far end (host links form their own
/// class). Class membership decides which mean offered load calibrates a
/// link's capacity.
pub(crate) fn link_class_to(to: Hop) -> Option<SwitchRole> {
    match to {
        Hop::Switch(s) => Some(s.role),
        Hop::Host(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueRealization;
    use crate::sim::Routable;
    use crate::topology::{Fabric, FatTree, Topology};
    use chm_common::FlowId;
    use chm_workloads::{testbed_trace, WorkloadKind};

    /// The model's one realization: the one-slot queue (the seed only places
    /// microbursts, which a flat profile has none of).
    fn realize(model: &CongestionModel, epoch: u64) -> QueueRealization {
        let topo: Topology = FatTree::testbed().into();
        let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 42);
        model.one_slot_queue().realize(&topo, &trace, epoch, 0)
    }

    #[test]
    fn uniform_traffic_under_headroom_is_lossless() {
        let r = realize(&CongestionModel::calibrated(), 0);
        assert!(r.is_lossless(), "no hot spot: no link may drop, got {:?}", r.hot_links());
    }

    #[test]
    fn switch_derate_saturates_only_that_switch() {
        let mut m = CongestionModel::calibrated();
        m.derates.push(Derate::Switch {
            role: SwitchRole::Core,
            index: 0,
            factor: 0.4,
        });
        let r = realize(&m, 0);
        assert!(!r.is_lossless(), "a 0.4x core must saturate");
        for ((from, _), _) in r.hot_links() {
            assert_eq!(from, SwitchId { role: SwitchRole::Core, index: 0 });
        }
    }

    #[test]
    fn rolling_edge_moves_with_epochs() {
        let mut m = CongestionModel::calibrated();
        m.derates.push(Derate::RollingEdge { period: 2, factor: 0.3 });
        for epoch in 0..8u64 {
            let r = realize(&m, epoch);
            let expect = ((epoch / 2) as usize) % 4;
            assert!(!r.is_lossless(), "epoch {epoch}: degraded ToR must drop");
            for ((from, _), _) in r.hot_links() {
                assert_eq!(
                    from,
                    SwitchId { role: SwitchRole::Edge, index: expect },
                    "epoch {epoch}: drops must follow the rolling ToR"
                );
            }
        }
    }

    #[test]
    fn realization_is_deterministic() {
        let mut m = CongestionModel::calibrated();
        m.derates.push(Derate::Switch {
            role: SwitchRole::Edge,
            index: 1,
            factor: 0.3,
        });
        assert_eq!(realize(&m, 3), realize(&m, 3));
    }

    #[test]
    fn hop_probs_align_with_route() {
        let mut m = CongestionModel::calibrated();
        m.derates.push(Derate::Switch {
            role: SwitchRole::Core,
            index: 1,
            factor: 0.2,
        });
        let topo: Topology = FatTree::testbed().into();
        let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 42);
        let r = m.one_slot_queue().realize(&topo, &trace, 0, 0);
        let mut probs = Vec::new();
        // Find a cross-pod flow routed through core 1 and check alignment:
        // one slot, so one probability per hop.
        for &(f, _) in &trace.flows {
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            r.hop_slot_probs(&route, f.dst_host(), &mut probs);
            assert_eq!(probs.len(), route.len());
            for (i, &p) in probs.iter().enumerate() {
                if p > 0.0 {
                    assert_eq!(
                        route[i],
                        SwitchId { role: SwitchRole::Core, index: 1 },
                        "only the derated core's out-links may drop"
                    );
                }
            }
        }
    }
}
