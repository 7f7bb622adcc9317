//! Per-link congestion: the fabric-true loss generator.
//!
//! The paper's testbed removes congestion entirely (64-byte packets,
//! proactive ECN drops), so earlier revisions realized loss as i.i.d.
//! per-flow coins above the hook boundary — blind to the fat-tree. This
//! module closes that gap: every flow's ECMP route contributes its packets
//! to the **offered load** of each directed link it crosses, link
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

use crate::sim::Routable;
use crate::topology::{SwitchId, SwitchRole, Topology};
use chm_workloads::Trace;
use std::collections::{BTreeMap, HashMap};

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

    /// Capacity multiplier of `switch`'s out-links in `epoch` (product of
    /// every matching derate).
    pub fn derate_factor(&self, switch: SwitchId, epoch: u64, n_edge: usize) -> f64 {
        derate_factor(&self.derates, switch, epoch, n_edge)
    }

    /// Realizes the model for one epoch over one trace: offered load per
    /// directed link from every flow's ECMP route, class-mean capacities,
    /// and the resulting per-link drop probabilities. Pure function of
    /// `(self, topology, trace, epoch)` — the epoch prologue calls it once,
    /// so both walkers and both drivers see identical probabilities.
    pub fn realize<F: Routable>(
        &self,
        topology: &Topology,
        trace: &Trace<F>,
        epoch: u64,
    ) -> CongestionRealization {
        // Offered load per link, in packets (integer accumulation: the sum
        // is order-independent, so a HashMap is safe here).
        let mut loads: HashMap<LinkId, u64> = HashMap::new();
        let mut route = Vec::with_capacity(topology.max_hops());
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            topology.route_into(src, dst, f.key64(), &mut route);
            for w in route.windows(2) {
                *loads.entry((w[0], Hop::Switch(w[1]))).or_insert(0) += pkts;
            }
            *loads
                .entry((route[route.len() - 1], Hop::Host(dst)))
                .or_insert(0) += pkts;
        }
        // Class means over the loaded links, accumulated in sorted link
        // order (deterministic floating-point emission downstream).
        let loads: BTreeMap<LinkId, u64> = loads.into_iter().collect();
        let mut class_sum: BTreeMap<(SwitchRole, Option<SwitchRole>), (u64, u64)> =
            BTreeMap::new();
        for (&(from, to), &load) in &loads {
            let class = (from.role, link_class_to(to));
            let e = class_sum.entry(class).or_insert((0, 0));
            e.0 += load;
            e.1 += 1;
        }
        let mut probs = BTreeMap::new();
        for (&(from, to), &load) in &loads {
            let (sum, count) = class_sum[&(from.role, link_class_to(to))];
            let mean = sum as f64 / count as f64;
            let capacity =
                self.headroom * mean * self.derate_factor(from, epoch, topology.n_edges());
            if capacity <= 0.0 {
                probs.insert((from, to), self.max_drop);
                continue;
            }
            let util = load as f64 / capacity;
            let p = (self.slope * (util - self.knee)).clamp(0.0, self.max_drop);
            if p > 0.0 {
                probs.insert((from, to), p);
            }
        }
        CongestionRealization { probs }
    }
}

/// Capacity/service multiplier of `switch`'s out-links in `epoch`: the
/// product of every matching [`Derate`]. Shared by the static
/// [`CongestionModel`] and the time-resolved
/// [`QueueModel`](crate::queue::QueueModel), so a hot-spot knob means the
/// same thing under both.
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

/// One epoch's realized per-link drop probabilities. Links at or below the
/// knee are absent (probability zero).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CongestionRealization {
    probs: BTreeMap<LinkId, f64>,
}

impl CongestionRealization {
    /// Fills `out` with the drop probability of each hop of `route` (the
    /// link *out of* `route[i]`; the last hop is the link to `dst_host`).
    /// `out` is cleared first; its final length equals `route.len()`.
    pub fn hop_probs(&self, route: &[SwitchId], dst_host: usize, out: &mut Vec<f64>) {
        out.clear();
        for w in route.windows(2) {
            out.push(self.probs.get(&(w[0], Hop::Switch(w[1]))).copied().unwrap_or(0.0));
        }
        if let Some(&last) = route.last() {
            out.push(self.probs.get(&(last, Hop::Host(dst_host))).copied().unwrap_or(0.0));
        }
    }

    /// True when no link in the fabric drops (the whole realization is a
    /// no-op and replay can take the congestion-free path).
    pub fn is_lossless(&self) -> bool {
        self.probs.is_empty()
    }

    /// The saturated links, most-loaded first by probability (ties in link
    /// order) — diagnostic output for examples and reports.
    pub fn hot_links(&self) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self.probs.iter().map(|(&l, &p)| (l, p)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTree;
    use chm_common::FlowId;
    use chm_workloads::{testbed_trace, WorkloadKind};

    fn realize(model: &CongestionModel, epoch: u64) -> CongestionRealization {
        let topo: Topology = FatTree::testbed().into();
        let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 42);
        model.realize(&topo, &trace, epoch)
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
        let r = m.realize(&topo, &trace, 0);
        let mut probs = Vec::new();
        // Find a cross-pod flow routed through core 1 and check alignment.
        for &(f, _) in &trace.flows {
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            r.hop_probs(&route, f.dst_host(), &mut probs);
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
