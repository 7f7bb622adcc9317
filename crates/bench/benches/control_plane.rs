//! Criterion benches for the control-plane computations behind Figures 9
//! and 20: TowerSketch estimation (linear counting + MRAC), FermatSketch
//! delta construction (add/sub across switches), and threshold search.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use chamelemon::control::threshold_for_target;
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{mrac_em, MracConfig, MracScratch, TowerConfig, TowerSketch};
use chm_workloads::caida_like_trace;

fn bench_tower_estimators(c: &mut Criterion) {
    let trace = caida_like_trace(30_000, 0xc0de);
    let mut tower = TowerSketch::new(&TowerConfig::paper_default(1));
    for (f, pkts) in &trace.flows {
        for _ in 0..(*pkts).min(300) {
            tower.insert_and_query(*f as u64);
        }
    }
    let mut g = c.benchmark_group("tower_estimators");
    g.bench_function("cardinality", |b| b.iter(|| black_box(tower.cardinality_estimate())));
    g.bench_function("mrac_realtime", |b| {
        b.iter(|| {
            let hist = tower.level_histogram(0);
            mrac_em(&hist, 32_768, &MracConfig::realtime())
        })
    });
    g.bench_function("mrac_full", |b| {
        b.iter(|| {
            let hist = tower.level_histogram(0);
            mrac_em(&hist, 32_768, &MracConfig::default())
        })
    });
    g.finish();
}

/// The estimate as the controller pays for it each epoch: the paper's tower
/// under a testbed-sized load (50 k flows over 4 edges, sizes uncapped so
/// the 16-bit level holds a few hundred distinct values out of 65 536).
fn bench_flow_size_distribution(c: &mut Criterion) {
    let trace = caida_like_trace(12_500, 0xc0de);
    let mut tower = TowerSketch::new(&TowerConfig::paper_default(1));
    for (f, pkts) in &trace.flows {
        tower.insert_burst(*f as u64, *pkts, 1, 1);
    }
    let mut g = c.benchmark_group("flow_size_distribution");
    g.bench_function("mrac_realtime_16bit_level", |b| {
        b.iter(|| {
            let hist = tower.level_histogram(1);
            mrac_em(&hist, 16_384, &MracConfig::realtime())
        })
    });
    g.bench_function("paper_default_fresh_scratch", |b| {
        b.iter(|| tower.flow_size_distribution(black_box(&[70_000, 81_234]), &MracConfig::realtime()))
    });
    let mut scratch = MracScratch::default();
    g.bench_function("paper_default_reused_scratch", |b| {
        b.iter(|| {
            let mut dist = Vec::new();
            tower.flow_size_distribution_into(
                black_box(&[70_000, 81_234]),
                &MracConfig::realtime(),
                &mut scratch,
                &mut dist,
            );
            dist
        })
    });
    g.finish();
}

fn bench_delta_construction(c: &mut Criterion) {
    // 4 switches' HL encoders, cumulative add + subtract (§4.2 step 2-3).
    let cfg = FermatConfig::standard(2_560, 2);
    let mut ups = Vec::new();
    let mut downs = Vec::new();
    for s in 0..4u32 {
        let mut up = FermatSketch::<u32>::new(cfg);
        let mut down = FermatSketch::<u32>::new(cfg);
        for f in 0..1_500u32 {
            let id = s * 100_000 + f;
            up.insert_weighted(&id, 10);
            down.insert_weighted(&id, if f % 10 == 0 { 9 } else { 10 });
        }
        ups.push(up);
        downs.push(down);
    }
    c.bench_function("delta_hl_4_switches", |b| {
        b.iter(|| {
            let mut cum_up = ups[0].clone();
            for u in &ups[1..] {
                cum_up.add_assign_sketch(u);
            }
            let mut cum_down = downs[0].clone();
            for d in &downs[1..] {
                cum_down.add_assign_sketch(d);
            }
            cum_up.sub_assign_sketch(&cum_down);
            let r = cum_up.decode_in_place();
            assert!(r.success);
            r
        })
    });
}

fn bench_threshold_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("threshold_for_target");
    for size in [256usize, 65_536] {
        let mut dist = vec![0.0; size];
        for (s, d) in dist.iter_mut().enumerate().skip(1) {
            *d = 1_000.0 / (s as f64).powf(1.5);
        }
        g.bench_with_input(BenchmarkId::from_parameter(size), &dist, |b, dist| {
            b.iter(|| threshold_for_target(black_box(dist), 50_000.0, 8_000.0))
        });
    }
    g.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_tower_estimators, bench_flow_size_distribution, bench_delta_construction,
        bench_threshold_search
}
criterion_main!(benches);
