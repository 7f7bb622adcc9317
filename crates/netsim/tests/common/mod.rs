//! The site double shared by the replay differential and pin suites.

use chm_common::hash::mix64;
use chm_common::{FiveTuple, FlowId};
use chm_netsim::EdgeSite;
use std::collections::HashMap;

/// A stateful site double, deliberately order-sensitive on ingress (a
/// hash chain detects any reordering of the per-edge packet stream) and
/// commutative on egress (wrapping adds, mirroring the real data plane's
/// modular counters). Per-(flow, ts) counts drive a 3-level tag threshold
/// so the burst path emits genuine multi-run bursts.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct Site {
    pub chain: u64,
    pub egress_acc: u64,
    pub ingress_pkts: u64,
    pub egress_pkts: u64,
    pub seen: HashMap<(u64, u8), u64>,
}

fn tag_for(count: u64) -> u8 {
    match count {
        0..=2 => 0,
        3..=9 => 1,
        _ => 2,
    }
}

impl EdgeSite<FiveTuple> for Site {
    fn site_ingress(&mut self, f: &FiveTuple, ts: u8) -> u8 {
        let c = self.seen.entry((f.key64(), ts)).or_insert(0);
        let tag = tag_for(*c);
        *c += 1;
        self.ingress_pkts += 1;
        self.chain = mix64(self.chain ^ f.key64() ^ u64::from(ts));
        tag
    }
    fn site_egress(&mut self, f: &FiveTuple, ts: u8, tag: u8) {
        self.egress_pkts += 1;
        self.egress_acc = self.egress_acc.wrapping_add(mix64(
            f.key64() ^ (u64::from(ts) << 8) ^ u64::from(tag),
        ));
    }
    fn site_ingress_burst(&mut self, f: &FiveTuple, ts: u8, pkts: u64) -> [(u8, u64); 3] {
        let mut runs = [(0u8, 0u64), (1, 0), (2, 0)];
        for _ in 0..pkts {
            let tag = self.site_ingress(f, ts);
            runs[tag as usize].1 += 1;
        }
        runs
    }
    fn site_egress_burst(&mut self, f: &FiveTuple, ts: u8, tag: u8, delivered: u64) {
        if delivered == 0 {
            return;
        }
        self.egress_pkts += delivered;
        self.egress_acc = self.egress_acc.wrapping_add(
            mix64(f.key64() ^ (u64::from(ts) << 8) ^ u64::from(tag))
                .wrapping_mul(delivered),
        );
    }
}

pub fn sites(n: usize) -> Vec<Site> {
    (0..n).map(|_| Site::default()).collect()
}

