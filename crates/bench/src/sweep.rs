//! `chm-bench scenarios --topology-sweep`: scores the full pipeline on
//! every fabric of the topology zoo — the §5.2 testbed fat-tree, k-ary
//! fat-trees (k=4, k=8), symmetric and asymmetric leaf-spines, and the
//! Abilene WAN backbone — and records per-fabric detection F1 and
//! localization top-1/top-3 hit rates against the LossRadar and FlowRadar
//! baselines in `results/TOPOLOGY_SWEEP.json`.
//!
//! Every fabric runs the *same* adversarial shape (10% random victims at
//! 5% loss, congestion coupling, one structural hot spot) so differences
//! between rows are fabric effects — path diversity, hop locality, ECMP
//! fan-out — not scenario effects. The hot spot follows the fabric: Clos
//! fabrics derate core 0; the WAN derates its hub PoP (the max-degree
//! node), where path overlap concentrates blame.
//!
//! The JSON is a pure function of the sweep seeds (no timestamps), so
//! double runs are byte-identical and CI gates regressions with
//! [`crate::scenarios::check_regressions`] — the file reuses the
//! 6-space-indented scenario-line format [`crate::scenarios::parse_golden`]
//! reads.

use crate::parallel::run_trials;
use crate::scenarios::{check_regressions, config_for, result_block};
use chm_netsim::Fabric;
use chm_obs::json_string;
use chm_scenarios::{run_with_config, ReplayMode, Scenario, ScenarioResult, TopologySpec};
use chm_workloads::VictimSelection;
use std::fs;
use std::io;
use std::path::Path;

/// One row of the sweep: the fabric spec plus the name it reports under.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Stable row key in `TOPOLOGY_SWEEP.json`.
    pub name: &'static str,
    /// Which fabric to build.
    pub spec: TopologySpec,
    /// Sweep seed for this fabric's scenario.
    pub seed: u64,
}

/// The sweep roster: six fabrics spanning every generator family, in
/// file order. Fixed seeds keep the goldens stable when rows are added.
pub fn sweep_roster() -> Vec<SweepEntry> {
    vec![
        SweepEntry { name: "testbed", spec: TopologySpec::Testbed, seed: 0xFAB0 },
        SweepEntry {
            name: "fat-tree-k4",
            spec: TopologySpec::KaryFatTree { k: 4 },
            seed: 0xFAB1,
        },
        SweepEntry {
            name: "fat-tree-k8",
            spec: TopologySpec::KaryFatTree { k: 8 },
            seed: 0xFAB2,
        },
        SweepEntry {
            name: "leaf-spine-8x4",
            spec: TopologySpec::LeafSpine { n_leaf: 8, n_spine: 4, hosts_per_leaf: 2 },
            seed: 0xFAB3,
        },
        SweepEntry {
            name: "leaf-spine-asym",
            spec: TopologySpec::LeafSpine { n_leaf: 6, n_spine: 3, hosts_per_leaf: 4 },
            seed: 0xFAB4,
        },
        SweepEntry {
            name: "abilene-wan",
            spec: TopologySpec::AbileneWan { hosts_per_node: 2 },
            seed: 0xFAB5,
        },
    ]
}

/// Builds the sweep scenario for one fabric: the shared adversarial shape
/// on that fabric, hot spot placed by role. Clos fabrics (testbed, k-ary,
/// leaf-spine) derate core 0; the WAN derates its hub PoP — WAN nodes are
/// all [`Edge`](chm_netsim::SwitchRole::Edge)-role (every PoP runs the
/// measurement data plane), so the hot spot must name an edge there.
pub fn sweep_scenario(e: &SweepEntry, quick: bool) -> Scenario {
    let (flows, epochs) = if quick { (600, 4) } else { (2_000, 8) };
    let b = Scenario::builder(e.name)
        .seed(e.seed)
        .topology(e.spec)
        .flows(flows)
        .epochs(epochs)
        .loss(VictimSelection::RandomRatio(0.1), 0.05)
        .congestion();
    let b = match e.spec {
        TopologySpec::AbileneWan { hosts_per_node } => {
            let hub = chm_netsim::WanGraph::abilene(hosts_per_node).hub();
            b.derate_switch(chm_netsim::SwitchRole::Edge, hub, 0.3)
        }
        _ => b.derate_switch(chm_netsim::SwitchRole::Core, 0, 0.3),
    };
    b.build()
}

/// The sweep scorecard: fabric metadata plus the scenario result, in
/// roster order.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// One `(entry, result)` per fabric.
    pub rows: Vec<(SweepEntry, ScenarioResult)>,
}

/// Runs the sweep, one scenario per fabric, fanned out on the parallel
/// trial executor with ordered collection (byte-identical at any worker
/// count).
pub fn run_sweep(quick: bool, mode: ReplayMode) -> SweepRun {
    let roster = sweep_roster();
    let results: Vec<ScenarioResult> = run_trials(roster.len(), |i| {
        let s = sweep_scenario(&roster[i], quick);
        run_with_config(&s, mode, config_for(quick, s.seed))
    });
    SweepRun { rows: roster.into_iter().zip(results).collect() }
}

/// Prints the sweep scorecard as an aligned table.
pub fn print_table(run: &SweepRun) {
    println!("\n== topology sweep — one adversarial shape per fabric ==");
    println!(
        "{:>16} {:>9} {:>6} {:>6} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "fabric", "switches", "hosts", "hops", "mean_f1", "loc@1", "loc@3", "lr_f1",
        "fr_f1"
    );
    for (e, r) in &run.rows {
        let t = e.spec.build(8);
        println!(
            "{:>16} {:>9} {:>6} {:>6} {:>8.4} {:>7.2} {:>7.2} {:>8.4} {:>8.4}",
            e.name,
            t.n_switches(),
            t.n_hosts(),
            t.max_hops(),
            r.mean_f1,
            r.mean_loc_top1,
            r.mean_loc_top3,
            r.lossradar.f1,
            r.flowradar.f1,
        );
    }
}

/// Renders the sweep as the `TOPOLOGY_SWEEP.json` document. Scenario-level
/// lines use the same 6-space indentation as `SCENARIOS.json`, so
/// [`crate::scenarios::parse_golden`] and the threshold gate apply
/// unchanged.
pub fn to_json(run: &SweepRun, quick: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"id\": \"topology-sweep\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"scenarios\": [\n");
    for (i, (e, r)) in run.rows.iter().enumerate() {
        let t = e.spec.build(8);
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_string(e.name)));
        out.push_str(&format!("      \"kind\": {},\n", json_string(t.kind())));
        out.push_str(&format!("      \"n_switches\": {},\n", t.n_switches()));
        out.push_str(&format!("      \"n_hosts\": {},\n", t.n_hosts()));
        out.push_str(&format!("      \"n_links\": {},\n", t.links().len()));
        out.push_str(&format!("      \"max_hops\": {},\n", t.max_hops()));
        out.push_str(&(result_block(r, false) + "\n"));
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < run.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `TOPOLOGY_SWEEP.json` under `dir`.
pub fn write_json(run: &SweepRun, quick: bool, dir: impl AsRef<Path>) -> io::Result<()> {
    fs::create_dir_all(&dir)?;
    fs::write(dir.as_ref().join("TOPOLOGY_SWEEP.json"), to_json(run, quick))
}

/// The sweep threshold gate: delegates to the scenario gate (the golden
/// format is shared), tolerance [`crate::scenarios::CHECK_TOLERANCE`].
pub fn check_sweep(golden_json: &str, run: &SweepRun) -> Vec<String> {
    let results: Vec<ScenarioResult> =
        run.rows.iter().map(|(_, r)| r.clone()).collect();
    check_regressions(golden_json, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::parse_golden;

    #[test]
    fn roster_covers_the_required_fabrics() {
        let roster = sweep_roster();
        assert!(roster.len() >= 6, "sweep must score at least 6 fabrics");
        let names: Vec<_> = roster.iter().map(|e| e.name).collect();
        assert!(names.contains(&"fat-tree-k8"), "k=8 fat-tree is required");
        assert!(
            names.iter().any(|n| n.starts_with("leaf-spine")),
            "a leaf-spine fabric is required"
        );
        // Seeds are distinct: no two fabrics share a workload.
        let mut seeds: Vec<_> = roster.iter().map(|e| e.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), roster.len());
    }

    #[test]
    fn sweep_scenarios_build_and_size_to_their_fabric() {
        for e in sweep_roster() {
            let s = sweep_scenario(&e, true);
            let t = s.build_topology();
            assert_eq!(
                s.n_hosts as usize,
                t.n_hosts(),
                "{}: trace must address exactly the fabric's hosts",
                e.name
            );
            assert!(
                s.impairments.congestion.is_some(),
                "{}: sweep scenarios are congestion-coupled",
                e.name
            );
        }
    }

    #[test]
    fn json_roundtrips_through_the_scenario_golden_parser() {
        // One tiny fabric keeps this a unit test, not a benchmark.
        let e = SweepEntry {
            name: "fat-tree-k4",
            spec: TopologySpec::KaryFatTree { k: 4 },
            seed: 0xFAB1,
        };
        let mut s = sweep_scenario(&e, true);
        s.epochs = 2;
        s.n_flows = 150;
        let r = run_with_config(&s, ReplayMode::Burst, config_for(true, s.seed));
        let run = SweepRun { rows: vec![(e, r)] };
        let j1 = to_json(&run, true);
        let j2 = to_json(&run, true);
        assert_eq!(j1, j2, "same run must render byte-identical JSON");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(j1.matches(open).count(), j1.matches(close).count());
        }
        let golden = parse_golden(&j1).expect("a fresh sweep's JSON parses");
        assert_eq!(golden.len(), 1);
        assert_eq!(golden[0].name, "fat-tree-k4");
        assert!((golden[0].mean_f1 - run.rows[0].1.mean_f1).abs() < 1e-12);
        // Fresh run vs its own golden: the gate passes.
        assert!(check_sweep(&j1, &run).is_empty());
        // A doctored regression fails it.
        let mut worse = run.clone();
        worse.rows[0].1.mean_f1 -= 0.1;
        assert_eq!(check_sweep(&j1, &worse).len(), 1);
    }
}
