//! Loss localization, end to end: a browned-out core switch drops packets
//! via the per-link congestion model, the fabric replay attributes every
//! drop to the switch that caused it (ground truth), and the ChameleMon
//! controller — which only sees the edge sketches — runs its localization
//! pass to rank the suspect switches from the victims' ingress/egress loss
//! asymmetry. The example prints both sides and scores the match.
//!
//! Run with: `cargo run --release --example loss_localization`

use chm_scenarios::{ReplayMode, Scenario, ScenarioStack};
use chm_netsim::SwitchRole;
use chm_workloads::VictimSelection;

fn main() {
    // A core brownout: core 0's out-links run at 40% capacity. No loss
    // plan at all — every drop is congestion, attributed to a real switch.
    let s = Scenario::builder("brownout-demo")
        .seed(0xC0DE)
        .flows(2_000)
        .epochs(4)
        .loss(VictimSelection::RandomN(0), 0.0)
        .derate_switch(SwitchRole::Core, 0, 0.4)
        .build();

    let mut stack = ScenarioStack::new(&s);
    let base = s.base_trace();
    let mut last = None;
    for _ in 0..s.epochs {
        let t = stack.step_epoch(&s, &base, ReplayMode::Burst);
        println!(
            "epoch {}: {} victims (controller found {}), loc hit@1 {:.2}, hit@3 {:.2}",
            t.metrics.epoch,
            t.metrics.true_victims,
            t.metrics.reported_victims,
            t.metrics.loc_top1,
            t.metrics.loc_top3,
        );
        last = Some(t);
    }
    let t = last.expect("at least one epoch");

    println!("\nground truth — losses attributed per switch:");
    for (switch, drops) in &t.report.dropped_at {
        println!(
            "  {:>12} {:>2}: {:>6} dropped",
            match switch.role {
                SwitchRole::Edge => "edge",
                SwitchRole::Aggregation => "aggregation",
                SwitchRole::Core => "core",
            },
            switch.index,
            drops,
        );
    }

    println!("\ncontroller's suspect ranking (blame normalized by known transit):");
    for (switch, score) in t.localization.ranking.iter().take(5) {
        println!("  {:>12} {:>2}: score {:.3}", switch.role.label(), switch.index, score);
    }

    println!("\nroute length histogram (switches on path -> packets):");
    for (h, n) in &t.report.hops_histogram {
        println!("  {h} switches: {n} packets");
    }

    // The worst victim and where it bled.
    if let Some((flow, lost, drops)) = t.report.lost.with_drops().max_by_key(|&(_, lost, _)| lost) {
        println!(
            "\nworst victim {:?} lost {} packets at {:?}; controller's candidates: {:?}",
            flow,
            lost,
            drops.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            t.localization.per_victim.get(flow).map(|c| &c[..c.len().min(3)]),
        );
    }
}
