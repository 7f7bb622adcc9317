//! Dense numbering of a fabric's switches and directed links.
//!
//! The per-epoch tables of the link-loss layer
//! ([`QueueRealization`](crate::queue::QueueRealization)) and of the
//! controller's localizer are keyed by switch or by link. A [`FabricIndex`]
//! numbers both once, from the fabric, so those tables are flat arrays
//! indexed by position instead of maps searched by key.
//!
//! Both numberings follow the keys' own order: switches in [`SwitchId`]
//! order (role, then index), links in [`LinkId`] order — every link of
//! [`Fabric::links`], plus one host link per host, and for each upstream
//! switch its switch links before its host links. A fold over a dense table
//! in position order therefore adds in the same order as a fold over the
//! sorted map it replaces, bit for bit.

use crate::congestion::{Hop, LinkId};
use crate::topology::{Fabric, SwitchId, SwitchRole};

/// The roles in [`SwitchRole`] order; a role's position is its rank.
const ROLES: [SwitchRole; 3] = [SwitchRole::Edge, SwitchRole::Aggregation, SwitchRole::Core];

/// Dense switch and link numbers of one fabric (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricIndex {
    /// Dense number of each role's switch 0, in [`ROLES`] order; the last
    /// entry is the switch count.
    role_base: [usize; 4],
    /// Every directed link, in [`LinkId`] order.
    links: Vec<LinkId>,
    /// The out-links of dense switch `s` are
    /// `links[first_link[s]..first_link[s + 1]]`.
    first_link: Vec<usize>,
    /// The link into host `h`.
    host_link: Vec<usize>,
}

impl FabricIndex {
    /// Numbers `fabric`'s switches and links. A role's switches are
    /// `0..=` the largest index any link or edge names.
    pub fn new<T: Fabric + ?Sized>(fabric: &T) -> Self {
        let switch_links = fabric.links();
        let mut per_role = [fabric.n_edges(), 0, 0];
        for s in switch_links.iter().flat_map(|&(a, b)| [a, b]) {
            let r = &mut per_role[s.role as usize];
            *r = (*r).max(s.index + 1);
        }
        let mut role_base = [0usize; 4];
        for r in 0..3 {
            role_base[r + 1] = role_base[r] + per_role[r];
        }
        let edge = |e: usize| SwitchId {
            role: SwitchRole::Edge,
            index: e,
        };
        let mut links: Vec<LinkId> = switch_links
            .into_iter()
            .map(|(a, b)| (a, Hop::Switch(b)))
            .chain((0..fabric.n_hosts()).map(|h| (edge(fabric.edge_of_host(h)), Hop::Host(h))))
            .collect();
        links.sort_unstable();
        let mut index = FabricIndex {
            role_base,
            links,
            first_link: Vec::new(),
            host_link: vec![0; fabric.n_hosts()],
        };
        let n = index.n_switches();
        index.first_link = Vec::with_capacity(n + 1);
        let mut l = 0;
        for s in 0..n {
            index.first_link.push(l);
            while index
                .links
                .get(l)
                .is_some_and(|&(from, _)| index.switch_index(from) == Some(s))
            {
                if let Hop::Host(h) = index.links[l].1 {
                    index.host_link[h] = l;
                }
                l += 1;
            }
        }
        index.first_link.push(l);
        debug_assert_eq!(l, index.links.len(), "every link leaves a numbered switch");
        index
    }

    /// The index of a fabric with no switch and no link: a placeholder
    /// for a kept realization that has not realized yet.
    pub(crate) fn empty() -> Self {
        FabricIndex { role_base: [0; 4], links: Vec::new(), first_link: Vec::new(), host_link: Vec::new() }
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.role_base[3]
    }

    /// The switch numbered `s`.
    ///
    /// # Panics
    /// If `s >= n_switches()`.
    pub fn switch(&self, s: usize) -> SwitchId {
        assert!(s < self.n_switches(), "switch {s} is not in the fabric");
        let r = (0..3)
            .rev()
            .find(|&r| self.role_base[r] <= s)
            .expect("role 0 starts at 0");
        SwitchId {
            role: ROLES[r],
            index: s - self.role_base[r],
        }
    }

    /// The number of `switch`, or `None` when the fabric has no such switch.
    #[inline]
    pub fn switch_index(&self, switch: SwitchId) -> Option<usize> {
        let r = switch.role as usize;
        let s = self.role_base[r] + switch.index;
        (s < self.role_base[r + 1]).then_some(s)
    }

    /// Every directed link, in [`LinkId`] order; a link's position is its
    /// number.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The number of `link`, or `None` when the fabric has no such link.
    #[inline]
    pub fn link_index(&self, link: LinkId) -> Option<usize> {
        match link.1 {
            Hop::Host(h) => self
                .host_link
                .get(h)
                .copied()
                .filter(|&l| self.links[l] == link),
            Hop::Switch(_) => {
                let s = self.switch_index(link.0)?;
                let out = self.first_link[s]..self.first_link[s + 1];
                self.links[out.clone()]
                    .binary_search(&link)
                    .ok()
                    .map(|i| out.start + i)
            }
        }
    }

    /// The number of the switch `link` number `l` leaves.
    #[inline]
    pub fn link_from(&self, l: usize) -> usize {
        self.switch_index(self.links[l].0)
            .expect("a numbered link leaves a numbered switch")
    }

    /// Fills `out` with the numbers of the links `route` takes to
    /// `dst_host`: the link out of `route[i]` for every hop, the last into
    /// the host. `out` is cleared first.
    ///
    /// # Panics
    /// If the route takes a link the fabric does not have.
    pub fn route_links(&self, route: &[SwitchId], dst_host: usize, out: &mut Vec<usize>) {
        out.clear();
        let hops = route.windows(2).map(|w| (w[0], Hop::Switch(w[1])));
        for link in hops.chain(route.last().map(|&last| (last, Hop::Host(dst_host)))) {
            out.push(
                self.link_index(link)
                    .expect("route takes a link of the fabric"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FatTree, LeafSpine, Topology};

    #[test]
    fn switch_numbers_round_trip_and_reject_strangers() {
        for topo in [
            Topology::from(FatTree::testbed()),
            LeafSpine::new(4, 2, 3).into(),
        ] {
            let ix = FabricIndex::new(&topo);
            assert_eq!(ix.n_switches(), topo.n_switches());
            for s in 0..ix.n_switches() {
                assert_eq!(ix.switch_index(ix.switch(s)), Some(s));
                if s > 0 {
                    assert!(
                        ix.switch(s - 1) < ix.switch(s),
                        "numbers follow SwitchId order"
                    );
                }
            }
            let stranger = SwitchId {
                role: SwitchRole::Core,
                index: 99,
            };
            assert_eq!(ix.switch_index(stranger), None);
            assert_eq!(ix.link_index((stranger, Hop::Host(0))), None);
            assert_eq!(ix.link_index((ix.switch(0), Hop::Switch(stranger))), None);
        }
    }
}
