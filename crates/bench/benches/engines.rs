//! E10 (Criterion form) — engine throughput per scheme and contention
//! level under the deterministic driver. The shapes (who wins where)
//! are the reproduction target; absolute numbers are machine-local.

use adya_workloads::{
    mixed_workload, run_deterministic, schemes, DriverConfig, MixedConfig, Scheme,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn run_once(scheme: Scheme, cfg: &MixedConfig) -> usize {
    let engine = (scheme.make)();
    let (_, programs) = mixed_workload(engine.as_ref(), cfg);
    let stats = run_deterministic(
        engine.as_ref(),
        programs,
        &DriverConfig {
            seed: cfg.seed,
            ..Default::default()
        },
    );
    stats.committed
}

fn bench_schemes(c: &mut Criterion) {
    for (contention, keys, theta) in [("low", 256u64, 0.0), ("high", 8u64, 1.0)] {
        let mut group = c.benchmark_group(format!("workload_{contention}_contention"));
        group.sample_size(10);
        for scheme in schemes() {
            let cfg = MixedConfig {
                keys,
                txns: 32,
                ops_per_txn: 4,
                write_ratio: 0.5,
                abort_prob: 0.0,
                delete_prob: 0.0,
                theta,
                seed: 5,
            };
            group.bench_with_input(BenchmarkId::from_parameter(scheme.name), &cfg, |b, cfg| {
                b.iter(|| run_once(scheme, cfg))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
