//! The topology zoo: the fabrics the replay stack runs on.
//!
//! The original reproduction modeled exactly one network — the §5.2 testbed
//! fat-tree of 10 Tofino switches (4 ToR/edge, 4 aggregation, 2 core)
//! interconnecting 8 servers. This module generalizes that into a
//! [`Fabric`] contract (routes, hop counts, link enumeration, role-tagged
//! switch ids) with four implementations behind the [`Topology`] enum:
//!
//! * [`FatTree`] — the testbed shape: 2 edges + 2 aggs per pod, `n_edge/2`
//!   cores, parity-wired ECMP. The validated constructor rejects the shapes
//!   the old hard-coded wiring silently mis-wired (odd edge counts) or
//!   paniced on (`n_edge < 2` divided by zero in core selection).
//! * [`KaryFatTree`] — the textbook k-ary fat-tree: `k` pods of `k/2` edge
//!   and `k/2` aggregation switches, `(k/2)²` cores, `k/2` hosts per edge
//!   (k = 8 → 128 hosts / 80 switches, k = 16 → 1024 hosts / 320 switches).
//! * [`LeafSpine`] — a two-tier Clos: every leaf connects to every spine,
//!   flows hash across all spines (spines carry [`SwitchRole::Core`]).
//! * [`WanGraph`] — an imported asymmetric WAN graph routed by hop-by-hop
//!   ECMP over BFS shortest paths ([`WanGraph::abilene`] ships the classic
//!   11-node / 14-link Abilene backbone). Unlike the Clos fabrics, parallel
//!   paths here are *not* parity-symmetric — the localizer's
//!   ECMP-parity ties no longer save its exoneration pass.
//!
//! Only edge switches run ChameleMon; the fabric's role in the evaluation is
//! to connect edges and drop packets at attributable switches. Every route
//! is a pure function of `(topology, src_host, dst_host, flow_key)` — real
//! ECMP hashes the 5-tuple, so a flow always takes one path — and hop
//! counts are **definitionally** the route length (they can never drift
//! from the wiring again; property-tested in `tests/properties.rs`).

use chm_common::hash::mix64;

/// Switch roles in the fabric. The derived order (Edge < Aggregation <
/// Core) gives [`SwitchId`] a total order, which the per-switch drop maps
/// rely on for deterministic (sorted) emission into JSON goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SwitchRole {
    /// Top-of-rack switch running the ChameleMon data plane. WAN routers
    /// carry this role too: every WAN node hosts servers and runs the
    /// measurement data plane (an edge deployment covers the whole graph).
    Edge,
    /// Pod aggregation switch (fat-trees only).
    Aggregation,
    /// Core switch (fat-tree cores and leaf-spine spines).
    Core,
}

impl SwitchRole {
    /// Short stable label for reports and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            SwitchRole::Edge => "edge",
            SwitchRole::Aggregation => "agg",
            SwitchRole::Core => "core",
        }
    }
}

/// A switch identifier: role + index within the role. Totally ordered
/// (by layer, then index) so per-switch maps can be `BTreeMap`s with a
/// stable iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId {
    /// The role layer.
    pub role: SwitchRole,
    /// Index within the layer.
    pub index: usize,
}

impl SwitchId {
    /// Bits of a [`code`](Self::code) that hold the index; the role takes
    /// the two above them.
    const INDEX_BITS: u32 = 30;

    /// The largest index a [`code`](Self::code) holds.
    pub const MAX_CODED_INDEX: usize = (1 << Self::INDEX_BITS) - 1;

    /// The switch packed into 32 bits, its role above its index, so that
    /// codes compare as the switches do: `a.code() < b.code()` exactly when
    /// `a < b`. A report fragment stages drops by code.
    ///
    /// # Panics
    /// When the index exceeds [`MAX_CODED_INDEX`](Self::MAX_CODED_INDEX).
    #[inline]
    pub fn code(self) -> u32 {
        assert!(
            self.index <= Self::MAX_CODED_INDEX,
            "switch index {} does not fit a 30-bit switch code",
            self.index
        );
        (self.role as u32) << Self::INDEX_BITS | self.index as u32
    }

    /// The switch a [`code`](Self::code) packs.
    ///
    /// # Panics
    /// When `code` names no role (its top two bits are both set).
    #[inline]
    pub fn from_code(code: u32) -> SwitchId {
        let role = match code >> Self::INDEX_BITS {
            0 => SwitchRole::Edge,
            1 => SwitchRole::Aggregation,
            2 => SwitchRole::Core,
            _ => panic!("{code:#x} is not a switch code"),
        };
        SwitchId { role, index: (code & Self::MAX_CODED_INDEX as u32) as usize }
    }
}

/// The contract every fabric offers the replay stack: host/edge mapping,
/// deterministic per-flow ECMP routes, hop counts, and link enumeration.
///
/// The stack stores the concrete [`Topology`] enum (not `dyn Fabric`) so
/// the hot loops stay monomorphic; the trait exists to pin the contract the
/// property suite checks on every implementation.
pub trait Fabric {
    /// Short stable name of the fabric family (`"fat-tree"`, `"k-ary"`,
    /// `"leaf-spine"`, or the WAN graph's own name).
    fn kind(&self) -> &'static str;

    /// Total number of hosts.
    fn n_hosts(&self) -> usize;

    /// Number of edge (measurement) switches.
    fn n_edges(&self) -> usize;

    /// Total number of switches across all roles.
    fn n_switches(&self) -> usize;

    /// Upper bound on any route's length (switches traversed); lets replay
    /// buffers size themselves once per epoch.
    fn max_hops(&self) -> usize;

    /// The edge switch serving `host`.
    fn edge_of_host(&self, host: usize) -> usize;

    /// Allocation-free routing: clears `out` and fills it with the
    /// switch-level path from `src_host` to `dst_host`, ECMP-resolved
    /// deterministically by `flow_key`. The replay hot loops reuse one
    /// buffer across every flow of an epoch.
    fn route_into(&self, src_host: usize, dst_host: usize, flow_key: u64, out: &mut Vec<SwitchId>);

    /// The switch-level path as a fresh vector.
    fn route(&self, src_host: usize, dst_host: usize, flow_key: u64) -> Vec<SwitchId> {
        let mut out = Vec::with_capacity(self.max_hops());
        self.route_into(src_host, dst_host, flow_key, &mut out);
        out
    }

    /// Hop count (switches traversed) between two hosts for a given flow —
    /// **definitionally** the route length, so it can never drift from the
    /// wiring.
    fn hops(&self, src_host: usize, dst_host: usize, flow_key: u64) -> usize {
        self.route(src_host, dst_host, flow_key).len()
    }

    /// Every directed switch-to-switch link of the fabric, in sorted order
    /// (host attachment links are implicit: one per host at its edge).
    fn links(&self) -> Vec<(SwitchId, SwitchId)>;
}

/// Convenience: a role-tagged switch id.
#[inline]
fn sw(role: SwitchRole, index: usize) -> SwitchId {
    SwitchId { role, index }
}

/// Pushes `a ↔ b` as both directed links.
fn both_ways(links: &mut Vec<(SwitchId, SwitchId)>, a: SwitchId, b: SwitchId) {
    links.push((a, b));
    links.push((b, a));
}

/// Sorts and returns a link list (the [`Fabric`] contract promises sorted
/// emission so downstream folds are deterministic).
fn sorted_links(mut links: Vec<(SwitchId, SwitchId)>) -> Vec<(SwitchId, SwitchId)> {
    links.sort_unstable();
    links
}

// ---------------------------------------------------------------------------
// FatTree — the §5.2 testbed family.
// ---------------------------------------------------------------------------

/// The testbed fat-tree family: pods of exactly 2 edge + 2 aggregation
/// switches, `n_edge / 2` parity-wired cores.
///
/// Layout: pod `p` contains edge switches `2p`, `2p+1` and aggregation
/// switches `2p`, `2p+1`; core `c` connects to the aggregation switch of
/// matching parity (`a % 2 == c % 2`) in every pod. Host `h` attaches to
/// edge `h / hosts_per_edge`.
///
/// The fields are private behind [`FatTree::new`]: the wiring above is only
/// consistent for an even `n_edge ≥ 2`, and the old public-field struct let
/// callers build shapes the router then silently mis-wired (odd `n_edge`
/// floors the core count below what `pod_of_edge` implies) or paniced on
/// (`n_edge < 2` divides by zero in core selection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    n_edge: usize,
    hosts_per_edge: usize,
}

impl FatTree {
    /// Builds a validated fat-tree of `n_edge` ToRs with `hosts_per_edge`
    /// hosts each.
    ///
    /// # Panics
    /// When `n_edge` is zero or odd (pods hold exactly 2 edges, and the
    /// parity wiring needs `n_edge / 2 ≥ 1` cores), or `hosts_per_edge`
    /// is zero.
    pub fn new(n_edge: usize, hosts_per_edge: usize) -> Self {
        assert!(n_edge >= 2, "fat-tree needs at least 2 edge switches (one pod)");
        assert!(n_edge.is_multiple_of(2), "fat-tree pods hold exactly 2 edges: n_edge must be even");
        assert!(hosts_per_edge >= 1, "each edge switch must serve at least one host");
        FatTree { n_edge, hosts_per_edge }
    }

    /// The §5.2 testbed: 4 edge + 4 aggregation + 2 core switches, 8 hosts.
    pub fn testbed() -> Self {
        FatTree::new(4, 2)
    }

    /// Number of edge switches.
    pub fn n_edge(&self) -> usize {
        self.n_edge
    }

    /// Hosts attached to each edge switch.
    pub fn hosts_per_edge(&self) -> usize {
        self.hosts_per_edge
    }

    /// Number of core switches (one per pair of aggregation parities per
    /// pod pair — `n_edge / 2`, exact because the constructor enforces an
    /// even `n_edge`).
    pub fn n_cores(&self) -> usize {
        self.n_edge / 2
    }

    /// The pod containing edge switch `edge` (2 edges per pod, by
    /// construction).
    pub fn pod_of_edge(&self, edge: usize) -> usize {
        edge / 2
    }
}

impl Fabric for FatTree {
    fn kind(&self) -> &'static str {
        "fat-tree"
    }
    fn n_hosts(&self) -> usize {
        self.n_edge * self.hosts_per_edge
    }
    fn n_edges(&self) -> usize {
        self.n_edge
    }
    /// Edge + aggregation + core.
    fn n_switches(&self) -> usize {
        self.n_edge + self.n_edge + self.n_cores()
    }
    fn max_hops(&self) -> usize {
        5
    }
    fn edge_of_host(&self, host: usize) -> usize {
        assert!(host < self.n_hosts(), "host {host} out of range");
        host / self.hosts_per_edge
    }
    fn route_into(&self, src: usize, dst: usize, key: u64, out: &mut Vec<SwitchId>) {
        out.clear();
        let se = self.edge_of_host(src);
        let de = self.edge_of_host(dst);
        if se == de {
            // Same rack: single hop through the shared ToR.
            out.push(sw(SwitchRole::Edge, se));
            return;
        }
        let sp = self.pod_of_edge(se);
        let dp = self.pod_of_edge(de);
        let h = mix64(key);
        if sp == dp {
            // Same pod: edge → (one of 2 aggs) → edge.
            let agg = sp * 2 + (h as usize & 1);
            out.push(sw(SwitchRole::Edge, se));
            out.push(sw(SwitchRole::Aggregation, agg));
            out.push(sw(SwitchRole::Edge, de));
        } else {
            // Cross-pod: edge → agg → core → agg → edge. The chosen core
            // pins the aggregation switch in each pod (parity wiring).
            let core = (h as usize >> 1) % self.n_cores();
            let up_agg = sp * 2 + core % 2;
            let down_agg = dp * 2 + core % 2;
            out.push(sw(SwitchRole::Edge, se));
            out.push(sw(SwitchRole::Aggregation, up_agg));
            out.push(sw(SwitchRole::Core, core));
            out.push(sw(SwitchRole::Aggregation, down_agg));
            out.push(sw(SwitchRole::Edge, de));
        }
    }
    /// Each edge to both pod aggs, each agg to the cores of its parity.
    fn links(&self) -> Vec<(SwitchId, SwitchId)> {
        let mut links = Vec::new();
        for e in 0..self.n_edge {
            let pod = self.pod_of_edge(e);
            for a in [pod * 2, pod * 2 + 1] {
                both_ways(&mut links, sw(SwitchRole::Edge, e), sw(SwitchRole::Aggregation, a));
            }
        }
        for a in 0..self.n_edge {
            for c in 0..self.n_cores() {
                if c % 2 == a % 2 || self.n_cores() == 1 {
                    both_ways(
                        &mut links,
                        sw(SwitchRole::Aggregation, a),
                        sw(SwitchRole::Core, c),
                    );
                }
            }
        }
        sorted_links(links)
    }
}

// ---------------------------------------------------------------------------
// KaryFatTree — the textbook k-ary fat-tree.
// ---------------------------------------------------------------------------

/// The textbook k-ary fat-tree: `k` pods, each with `k/2` edge and `k/2`
/// aggregation switches; `(k/2)²` cores in `k/2` groups of `k/2`;
/// aggregation switch `j` of every pod connects to core group `j`. Each
/// edge switch serves `k/2` hosts.
///
/// | k  | hosts | switches           |
/// |----|-------|--------------------|
/// | 4  | 16    | 20 (8 + 8 + 4)     |
/// | 8  | 128   | 80 (32 + 32 + 16)  |
/// | 16 | 1024  | 320 (128 + 128 + 64) |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KaryFatTree {
    k: usize,
}

impl KaryFatTree {
    /// Builds the k-ary fat-tree.
    ///
    /// # Panics
    /// When `k` is odd or `< 2` (the construction needs `k/2 ≥ 1` switches
    /// per tier per pod).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k-ary fat-tree needs k >= 2");
        assert!(k.is_multiple_of(2), "k-ary fat-tree needs an even k");
        KaryFatTree { k }
    }

    /// The arity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `k / 2`: switches per tier per pod, hosts per edge, cores per group.
    fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of core switches: `(k/2)²`.
    pub fn n_cores(&self) -> usize {
        self.half() * self.half()
    }

    /// The pod containing edge (or aggregation) switch `index`.
    pub fn pod_of_edge(&self, edge: usize) -> usize {
        edge / self.half()
    }
}

impl Fabric for KaryFatTree {
    fn kind(&self) -> &'static str {
        "k-ary"
    }
    fn n_hosts(&self) -> usize {
        self.k * self.half() * self.half()
    }
    fn n_edges(&self) -> usize {
        self.k * self.half()
    }
    fn n_switches(&self) -> usize {
        2 * self.k * self.half() + self.n_cores()
    }
    fn max_hops(&self) -> usize {
        5
    }
    fn edge_of_host(&self, host: usize) -> usize {
        assert!(host < self.n_hosts(), "host {host} out of range");
        host / self.half()
    }
    fn route_into(&self, src: usize, dst: usize, key: u64, out: &mut Vec<SwitchId>) {
        out.clear();
        let half = self.half();
        let se = self.edge_of_host(src);
        let de = self.edge_of_host(dst);
        if se == de {
            out.push(sw(SwitchRole::Edge, se));
            return;
        }
        let sp = se / half;
        let dp = de / half;
        let h = mix64(key) as usize;
        if sp == dp {
            // Same pod: any of the pod's k/2 aggs.
            let agg = sp * half + h % half;
            out.push(sw(SwitchRole::Edge, se));
            out.push(sw(SwitchRole::Aggregation, agg));
            out.push(sw(SwitchRole::Edge, de));
        } else {
            // Cross-pod: any of the (k/2)² cores; the core's group pins the
            // aggregation switch in both pods.
            let core = h % self.n_cores();
            let group = core / half;
            out.push(sw(SwitchRole::Edge, se));
            out.push(sw(SwitchRole::Aggregation, sp * half + group));
            out.push(sw(SwitchRole::Core, core));
            out.push(sw(SwitchRole::Aggregation, dp * half + group));
            out.push(sw(SwitchRole::Edge, de));
        }
    }
    fn links(&self) -> Vec<(SwitchId, SwitchId)> {
        let half = self.half();
        let mut links = Vec::new();
        for e in 0..self.n_edges() {
            let pod = e / half;
            for j in 0..half {
                both_ways(
                    &mut links,
                    sw(SwitchRole::Edge, e),
                    sw(SwitchRole::Aggregation, pod * half + j),
                );
            }
        }
        for pod in 0..self.k {
            for j in 0..half {
                for c in j * half..(j + 1) * half {
                    both_ways(
                        &mut links,
                        sw(SwitchRole::Aggregation, pod * half + j),
                        sw(SwitchRole::Core, c),
                    );
                }
            }
        }
        sorted_links(links)
    }
}

// ---------------------------------------------------------------------------
// LeafSpine — the two-tier Clos.
// ---------------------------------------------------------------------------

/// A two-tier leaf-spine Clos: every leaf (ToR, [`SwitchRole::Edge`])
/// connects to every spine ([`SwitchRole::Core`] — there is no aggregation
/// tier). Flows between different leaves hash across all spines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSpine {
    n_leaf: usize,
    n_spine: usize,
    hosts_per_leaf: usize,
}

impl LeafSpine {
    /// Builds the leaf-spine fabric.
    ///
    /// # Panics
    /// When any dimension is zero (a route between two leaves needs at
    /// least one spine).
    pub fn new(n_leaf: usize, n_spine: usize, hosts_per_leaf: usize) -> Self {
        assert!(n_leaf >= 1, "leaf-spine needs at least one leaf");
        assert!(n_spine >= 1, "leaf-spine needs at least one spine");
        assert!(hosts_per_leaf >= 1, "each leaf must serve at least one host");
        LeafSpine { n_leaf, n_spine, hosts_per_leaf }
    }

    /// Number of leaf switches.
    pub fn n_leaf(&self) -> usize {
        self.n_leaf
    }

    /// Number of spine switches.
    pub fn n_spine(&self) -> usize {
        self.n_spine
    }
}

impl Fabric for LeafSpine {
    fn kind(&self) -> &'static str {
        "leaf-spine"
    }
    fn n_hosts(&self) -> usize {
        self.n_leaf * self.hosts_per_leaf
    }
    fn n_edges(&self) -> usize {
        self.n_leaf
    }
    fn n_switches(&self) -> usize {
        self.n_leaf + self.n_spine
    }
    fn max_hops(&self) -> usize {
        3
    }
    fn edge_of_host(&self, host: usize) -> usize {
        assert!(host < self.n_hosts(), "host {host} out of range");
        host / self.hosts_per_leaf
    }
    fn route_into(&self, src: usize, dst: usize, key: u64, out: &mut Vec<SwitchId>) {
        out.clear();
        let sl = self.edge_of_host(src);
        let dl = self.edge_of_host(dst);
        if sl == dl {
            out.push(sw(SwitchRole::Edge, sl));
            return;
        }
        let spine = mix64(key) as usize % self.n_spine;
        out.push(sw(SwitchRole::Edge, sl));
        out.push(sw(SwitchRole::Core, spine));
        out.push(sw(SwitchRole::Edge, dl));
    }
    fn links(&self) -> Vec<(SwitchId, SwitchId)> {
        let mut links = Vec::new();
        for l in 0..self.n_leaf {
            for s in 0..self.n_spine {
                both_ways(&mut links, sw(SwitchRole::Edge, l), sw(SwitchRole::Core, s));
            }
        }
        sorted_links(links)
    }
}

// ---------------------------------------------------------------------------
// WanGraph — imported asymmetric WAN topologies.
// ---------------------------------------------------------------------------

/// Salt separating the per-node WAN ECMP hash stream from other mixes.
const WAN_HOP_SALT: u64 = 0x3a4e_0709;

/// An imported WAN-style graph: arbitrary connected wiring, every node a
/// measurement edge ([`SwitchRole::Edge`]) serving `hosts_per_node` hosts.
///
/// Routing is hop-by-hop ECMP over BFS shortest paths: at each node the
/// flow hashes over the neighbors that strictly decrease the BFS distance
/// to the destination, so a flow always takes one shortest path but
/// parallel shortest paths share load. Unlike the Clos fabrics these
/// parallel paths are **asymmetric** — no parity wiring ties the candidate
/// switches' blame together, which is exactly the regime that stresses the
/// localizer's exoneration pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WanGraph {
    name: &'static str,
    hosts_per_node: usize,
    /// Sorted adjacency lists.
    adj: Vec<Vec<usize>>,
    /// All-pairs BFS distances, `dist[u][v]` in hops.
    dist: Vec<Vec<u32>>,
    n_links: usize,
}

impl WanGraph {
    /// Builds a WAN graph from an undirected edge list over `n_nodes`
    /// nodes.
    ///
    /// # Panics
    /// When the graph is empty, disconnected, has out-of-range or self-loop
    /// edges, or `hosts_per_node` is zero.
    pub fn new(
        name: &'static str,
        n_nodes: usize,
        edges: &[(usize, usize)],
        hosts_per_node: usize,
    ) -> Self {
        assert!(n_nodes >= 1, "WAN graph needs at least one node");
        assert!(hosts_per_node >= 1, "each WAN node must serve at least one host");
        let mut adj = vec![Vec::new(); n_nodes];
        for &(a, b) in edges {
            assert!(a < n_nodes && b < n_nodes, "edge ({a}, {b}) out of range");
            assert!(a != b, "self-loop at node {a}");
            adj[a].push(b);
            adj[b].push(a);
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
            nbrs.dedup();
        }
        // All-pairs BFS (the graphs are small — tens of nodes).
        let mut dist = vec![vec![u32::MAX; n_nodes]; n_nodes];
        let mut queue = std::collections::VecDeque::new();
        for (s, dist_s) in dist.iter_mut().enumerate() {
            dist_s[s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist_s[v] == u32::MAX {
                        dist_s[v] = dist_s[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            assert!(
                dist_s.iter().all(|&d| d != u32::MAX),
                "WAN graph must be connected (node {s} cannot reach every node)"
            );
        }
        let n_links = adj.iter().map(|n| n.len()).sum::<usize>() / 2;
        WanGraph { name, hosts_per_node, adj, dist, n_links }
    }

    /// The classic Abilene (Internet2) backbone: 11 PoPs, 14 links.
    ///
    /// Nodes: 0 Seattle, 1 Sunnyvale, 2 Denver, 3 Los Angeles, 4 Houston,
    /// 5 Kansas City, 6 Indianapolis, 7 Atlanta, 8 Chicago, 9 Washington,
    /// 10 New York.
    pub fn abilene(hosts_per_node: usize) -> Self {
        WanGraph::new(
            "abilene",
            11,
            &[
                (0, 1),  // Seattle – Sunnyvale
                (0, 2),  // Seattle – Denver
                (1, 2),  // Sunnyvale – Denver
                (1, 3),  // Sunnyvale – Los Angeles
                (2, 5),  // Denver – Kansas City
                (3, 4),  // Los Angeles – Houston
                (4, 5),  // Houston – Kansas City
                (4, 7),  // Houston – Atlanta
                (5, 6),  // Kansas City – Indianapolis
                (6, 7),  // Indianapolis – Atlanta
                (6, 8),  // Indianapolis – Chicago
                (7, 9),  // Atlanta – Washington
                (8, 10), // Chicago – New York
                (9, 10), // Washington – New York
            ],
            hosts_per_node,
        )
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected links.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// The graph's diameter in hops.
    pub fn diameter(&self) -> usize {
        self.dist
            .iter()
            .flat_map(|row| row.iter())
            .copied()
            .max()
            .unwrap_or(0) as usize
    }

    /// The node of highest degree (ties toward the smaller index) — the
    /// natural hub to derate in WAN hot-spot scenarios.
    pub fn hub(&self) -> usize {
        (0..self.n_nodes())
            .max_by_key(|&u| (self.adj[u].len(), usize::MAX - u))
            .unwrap_or(0)
    }
}

impl Fabric for WanGraph {
    fn kind(&self) -> &'static str {
        self.name
    }
    fn n_hosts(&self) -> usize {
        self.n_nodes() * self.hosts_per_node
    }
    fn n_edges(&self) -> usize {
        self.n_nodes()
    }
    fn n_switches(&self) -> usize {
        self.n_nodes()
    }
    fn max_hops(&self) -> usize {
        self.diameter() + 1
    }
    fn edge_of_host(&self, host: usize) -> usize {
        assert!(host < self.n_hosts(), "host {host} out of range");
        host / self.hosts_per_node
    }
    fn route_into(&self, src: usize, dst: usize, key: u64, out: &mut Vec<SwitchId>) {
        out.clear();
        let s = self.edge_of_host(src);
        let d = self.edge_of_host(dst);
        let mut u = s;
        out.push(sw(SwitchRole::Edge, u));
        while u != d {
            // ECMP over the neighbors that strictly decrease the BFS
            // distance; the per-(flow, node) hash makes the whole path a
            // pure function of (key, src, dst).
            let down = self.dist[u][d] - 1;
            let n_cand = self.adj[u].iter().filter(|&&v| self.dist[v][d] == down).count();
            let pick = mix64(key ^ mix64(u as u64 ^ WAN_HOP_SALT)) as usize % n_cand;
            let v = self.adj[u]
                .iter()
                .filter(|&&v| self.dist[v][d] == down)
                .nth(pick)
                .copied()
                .expect("BFS guarantees a distance-decreasing neighbor");
            out.push(sw(SwitchRole::Edge, v));
            u = v;
        }
    }
    fn links(&self) -> Vec<(SwitchId, SwitchId)> {
        let mut links = Vec::new();
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                links.push((sw(SwitchRole::Edge, u), sw(SwitchRole::Edge, v)));
            }
        }
        sorted_links(links)
    }
}

// ---------------------------------------------------------------------------
// Topology — the enum the replay stack carries.
// ---------------------------------------------------------------------------

/// The concrete fabric a replay runs on. The stack stores this enum (not a
/// trait object) so the per-flow routing calls stay monomorphic and
/// allocation-free; every constructor site takes `impl Into<Topology>`, so
/// passing a bare [`FatTree::testbed()`] keeps working.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// The testbed fat-tree family (2 edges/pod).
    FatTree(FatTree),
    /// The textbook k-ary fat-tree.
    KaryFatTree(KaryFatTree),
    /// A two-tier leaf-spine Clos.
    LeafSpine(LeafSpine),
    /// An imported WAN-style graph.
    Wan(WanGraph),
}

impl From<FatTree> for Topology {
    fn from(t: FatTree) -> Self {
        Topology::FatTree(t)
    }
}

impl From<KaryFatTree> for Topology {
    fn from(t: KaryFatTree) -> Self {
        Topology::KaryFatTree(t)
    }
}

impl From<LeafSpine> for Topology {
    fn from(t: LeafSpine) -> Self {
        Topology::LeafSpine(t)
    }
}

impl From<WanGraph> for Topology {
    fn from(t: WanGraph) -> Self {
        Topology::Wan(t)
    }
}

/// Dispatches one method call to the active variant.
macro_rules! dispatch {
    ($self:expr, $f:ident ( $($arg:expr),* )) => {
        match $self {
            Topology::FatTree(t) => Fabric::$f(t, $($arg),*),
            Topology::KaryFatTree(t) => Fabric::$f(t, $($arg),*),
            Topology::LeafSpine(t) => Fabric::$f(t, $($arg),*),
            Topology::Wan(t) => Fabric::$f(t, $($arg),*),
        }
    };
}

// Kept inherent as well as on the trait: the repository benchmark's adapter
// calls these two on a `Topology` without importing `Fabric`.
impl Topology {
    /// [`Fabric::n_hosts`].
    pub fn n_hosts(&self) -> usize {
        dispatch!(self, n_hosts())
    }

    /// [`Fabric::n_edges`].
    pub fn n_edges(&self) -> usize {
        dispatch!(self, n_edges())
    }
}

impl Fabric for Topology {
    fn kind(&self) -> &'static str {
        dispatch!(self, kind())
    }
    fn n_hosts(&self) -> usize {
        dispatch!(self, n_hosts())
    }
    fn n_edges(&self) -> usize {
        dispatch!(self, n_edges())
    }
    fn n_switches(&self) -> usize {
        dispatch!(self, n_switches())
    }
    fn max_hops(&self) -> usize {
        dispatch!(self, max_hops())
    }
    fn edge_of_host(&self, host: usize) -> usize {
        dispatch!(self, edge_of_host(host))
    }
    fn route_into(&self, src: usize, dst: usize, key: u64, out: &mut Vec<SwitchId>) {
        dispatch!(self, route_into(src, dst, key, out))
    }
    fn links(&self) -> Vec<(SwitchId, SwitchId)> {
        dispatch!(self, links())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_dimensions() {
        let t = FatTree::testbed();
        assert_eq!(t.n_hosts(), 8);
        assert_eq!(t.n_switches(), 10); // 4 edge + 4 agg + 2 core
    }

    #[test]
    fn host_to_edge_mapping() {
        let t = FatTree::testbed();
        assert_eq!(t.edge_of_host(0), 0);
        assert_eq!(t.edge_of_host(1), 0);
        assert_eq!(t.edge_of_host(2), 1);
        assert_eq!(t.edge_of_host(7), 3);
    }

    #[test]
    fn same_rack_route_is_one_switch() {
        let t = FatTree::testbed();
        let r = t.route(0, 1, 42);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], SwitchId { role: SwitchRole::Edge, index: 0 });
    }

    #[test]
    fn same_pod_route_is_three_switches() {
        let t = FatTree::testbed();
        let r = t.route(0, 2, 42); // edge 0 -> edge 1, pod 0
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].role, SwitchRole::Edge);
        assert_eq!(r[1].role, SwitchRole::Aggregation);
        assert!(r[1].index < 2, "agg must be in pod 0");
        assert_eq!(r[2], SwitchId { role: SwitchRole::Edge, index: 1 });
    }

    #[test]
    fn cross_pod_route_is_five_switches() {
        let t = FatTree::testbed();
        let r = t.route(0, 7, 42); // edge 0 (pod 0) -> edge 3 (pod 1)
        assert_eq!(r.len(), 5);
        assert_eq!(r[2].role, SwitchRole::Core);
        assert_eq!(r[0], SwitchId { role: SwitchRole::Edge, index: 0 });
        assert_eq!(r[4], SwitchId { role: SwitchRole::Edge, index: 3 });
        // Up/down aggregation switches live in the right pods.
        assert!(r[1].index < 2 && r[3].index >= 2);
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let t = FatTree::testbed();
        assert_eq!(t.route(0, 7, 9), t.route(0, 7, 9));
    }

    #[test]
    fn ecmp_spreads_flows() {
        let t = FatTree::testbed();
        let mut cores_used = std::collections::HashSet::new();
        for k in 0..64u64 {
            let r = t.route(0, 7, k);
            cores_used.insert(r[2].index);
        }
        assert_eq!(cores_used.len(), 2, "both cores should carry traffic");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_host_panics() {
        FatTree::testbed().edge_of_host(8);
    }

    #[test]
    #[should_panic(expected = "at least 2 edge switches")]
    fn fat_tree_rejects_degenerate_edge_count() {
        // The old public-field struct divided by zero in core selection
        // here; the validated constructor rejects the shape up front.
        FatTree::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn fat_tree_rejects_odd_edge_count() {
        // The old wiring silently mis-wired odd shapes: `pod_of_edge`
        // implied ceil(n/2) pods but the core count floored to n/2,
        // under-sizing per-switch maps relative to what routes emit.
        FatTree::new(5, 2);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn fat_tree_rejects_zero_hosts() {
        FatTree::new(4, 0);
    }

    #[test]
    fn hops_is_route_len_for_every_pair() {
        let t = FatTree::new(8, 3);
        for src in 0..t.n_hosts() {
            for dst in 0..t.n_hosts() {
                for key in [0u64, 7, 0xdead_beef] {
                    assert_eq!(t.hops(src, dst, key), t.route(src, dst, key).len());
                }
            }
        }
    }

    #[test]
    fn fat_tree_links_are_sorted_and_symmetric() {
        let t = FatTree::testbed();
        let links = t.links();
        assert!(links.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        for &(a, b) in &links {
            assert!(links.contains(&(b, a)), "{a:?} -> {b:?} must be bidirectional");
        }
        // 4 edges x 2 aggs + 4 aggs x 1 core each, both directions.
        assert_eq!(links.len(), 2 * (4 * 2 + 4));
    }

    #[test]
    fn kary_dimensions_match_the_textbook() {
        for (k, hosts, switches) in [(4usize, 16usize, 20usize), (8, 128, 80), (16, 1024, 320)] {
            let t = KaryFatTree::new(k);
            assert_eq!(Fabric::n_hosts(&t), hosts, "k={k}");
            assert_eq!(Fabric::n_switches(&t), switches, "k={k}");
        }
    }

    #[test]
    fn kary_routes_are_wired_to_pods_and_groups() {
        let t = KaryFatTree::new(8);
        let half = 4;
        let src = 0; // edge 0, pod 0
        let dst = Fabric::n_hosts(&t) - 1; // last edge, last pod
        for key in 0..64u64 {
            let r = Fabric::route(&t, src, dst, key);
            assert_eq!(r.len(), 5);
            assert_eq!(r[0], SwitchId { role: SwitchRole::Edge, index: 0 });
            assert_eq!(r[2].role, SwitchRole::Core);
            let group = r[2].index / half;
            assert_eq!(r[1], SwitchId { role: SwitchRole::Aggregation, index: group });
            assert_eq!(
                r[3],
                SwitchId { role: SwitchRole::Aggregation, index: 7 * half + group }
            );
        }
    }

    #[test]
    fn kary_ecmp_uses_every_core() {
        let t = KaryFatTree::new(4);
        let mut cores = std::collections::HashSet::new();
        for key in 0..512u64 {
            let r = Fabric::route(&t, 0, Fabric::n_hosts(&t) - 1, key);
            cores.insert(r[2].index);
        }
        assert_eq!(cores.len(), t.n_cores(), "all 4 cores must carry traffic");
    }

    #[test]
    fn leaf_spine_routes_and_spreads() {
        let t = LeafSpine::new(8, 4, 2);
        assert_eq!(Fabric::n_hosts(&t), 16);
        assert_eq!(Fabric::n_switches(&t), 12);
        assert_eq!(Fabric::route(&t, 0, 1, 3).len(), 1, "same leaf stays local");
        let mut spines = std::collections::HashSet::new();
        for key in 0..256u64 {
            let r = Fabric::route(&t, 0, 15, key);
            assert_eq!(r.len(), 3);
            assert_eq!(r[1].role, SwitchRole::Core);
            spines.insert(r[1].index);
        }
        assert_eq!(spines.len(), 4, "all spines must carry traffic");
    }

    #[test]
    fn abilene_shape_and_routes() {
        let w = WanGraph::abilene(2);
        assert_eq!(w.n_nodes(), 11);
        assert_eq!(w.n_links(), 14);
        assert_eq!(Fabric::n_hosts(&w), 22);
        assert!(w.diameter() >= 4, "a backbone is not a clique");
        // Seattle (node 0) to New York (node 10): every realized route is a
        // shortest path, starts/ends right, and stays on wiring.
        let d = w.dist[0][10] as usize;
        for key in 0..64u64 {
            let r = Fabric::route(&w, 0, 21, key);
            assert_eq!(r.len(), d + 1);
            assert_eq!(r[0], SwitchId { role: SwitchRole::Edge, index: 0 });
            assert_eq!(r[d], SwitchId { role: SwitchRole::Edge, index: 10 });
            for pair in r.windows(2) {
                assert!(
                    w.adj[pair[0].index].contains(&pair[1].index),
                    "route must follow graph edges: {pair:?}"
                );
            }
            // Deterministic per flow.
            assert_eq!(r, Fabric::route(&w, 0, 21, key));
        }
    }

    #[test]
    fn abilene_ecmp_splits_where_parallel_shortest_paths_exist() {
        let w = WanGraph::abilene(1);
        // Across many flows between the coasts, more than one distinct
        // route must be realized (Abilene has parallel shortest paths
        // between Sunnyvale and the east coast).
        let mut distinct = std::collections::HashSet::new();
        for key in 0..256u64 {
            distinct.insert(Fabric::route(&w, 1, 10, key));
        }
        assert!(distinct.len() > 1, "ECMP must split over parallel paths");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn wan_rejects_disconnected_graphs() {
        WanGraph::new("split", 4, &[(0, 1), (2, 3)], 1);
    }

    #[test]
    fn topology_enum_delegates_faithfully() {
        let ft = FatTree::testbed();
        let t: Topology = ft.clone().into();
        assert_eq!(t.kind(), "fat-tree");
        assert_eq!(t.n_hosts(), ft.n_hosts());
        assert_eq!(t.n_edges(), ft.n_edge());
        assert_eq!(t.n_switches(), ft.n_switches());
        for src in 0..8 {
            for dst in 0..8 {
                for key in [1u64, 99, 0x5eed] {
                    assert_eq!(t.route(src, dst, key), ft.route(src, dst, key));
                    assert_eq!(t.hops(src, dst, key), ft.hops(src, dst, key));
                }
            }
        }
        assert_eq!(t.links(), ft.links());
    }
}
