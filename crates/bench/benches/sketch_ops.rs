//! Criterion micro-benchmarks: per-packet insertion and decode throughput
//! of every sketch in the workspace — the raw costs behind each figure.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use chm_baselines::{
    AccumulationSketch, CmSketch, CocoSketch, CountHeap, CuSketch, ElasticSketch, FcmSketch,
    HashPipe, UnivMon,
};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{TowerConfig, TowerSketch};
use chm_workloads::caida_like_trace;

fn packet_stream(n_flows: usize) -> Vec<u32> {
    caida_like_trace(n_flows, 0xbe7c).top_n(n_flows).packet_stream(1)
}

fn bench_inserts(c: &mut Criterion) {
    let stream = packet_stream(10_000);
    let mut g = c.benchmark_group("insert_per_packet");
    g.throughput(Throughput::Elements(stream.len() as u64));

    g.bench_function("fermat", |b| {
        b.iter(|| {
            let mut s = FermatSketch::<u32>::new(FermatConfig::standard(8192, 1));
            for f in &stream {
                s.insert(black_box(f));
            }
            s
        })
    });
    g.bench_function("tower", |b| {
        b.iter(|| {
            let mut s = TowerSketch::new(&TowerConfig::sized(128 * 1024, 1));
            for f in &stream {
                s.insert_and_query(black_box(*f as u64));
            }
            s
        })
    });
    macro_rules! bench_acc {
        ($name:literal, $make:expr) => {
            g.bench_function($name, |b| {
                b.iter(|| {
                    let mut s = $make;
                    for f in &stream {
                        AccumulationSketch::<u32>::insert(&mut s, black_box(f));
                    }
                    s
                })
            });
        };
    }
    bench_acc!("cm", CmSketch::new(128 * 1024, 1));
    bench_acc!("cu", CuSketch::new(128 * 1024, 1));
    bench_acc!("elastic", ElasticSketch::<u32>::new(128 * 1024, 1));
    bench_acc!("hashpipe", HashPipe::<u32>::new(128 * 1024, 1));
    bench_acc!("coco", CocoSketch::<u32>::new(128 * 1024, 1));
    bench_acc!("fcm", FcmSketch::<u32>::new(128 * 1024, 1));
    bench_acc!("countheap", CountHeap::<u32>::new(128 * 1024, 1024, 1));
    bench_acc!("univmon", UnivMon::<u32>::new(256 * 1024, 1));
    g.finish();
}

fn bench_fermat_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("fermat_decode");
    for flows in [1_000usize, 5_000, 20_000] {
        let buckets = (flows as f64 * 1.4 / 3.0).ceil() as usize;
        let mut s = FermatSketch::<u32>::new(FermatConfig::standard(buckets, 2));
        for f in 0..flows as u32 {
            s.insert_weighted(&f, 1 + (f as i64 % 9));
        }
        g.throughput(Throughput::Elements(flows as u64));
        g.bench_with_input(BenchmarkId::from_parameter(flows), &s, |b, s| {
            b.iter(|| {
                let r = s.decode();
                assert!(r.success);
                r
            })
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
    targets = bench_inserts, bench_fermat_decode
}
criterion_main!(benches);
