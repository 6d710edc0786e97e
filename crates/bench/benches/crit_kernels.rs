//! Criterion wall-clock benchmarks of the two computational kernels the
//! optimized framework introduces: the pack engines and Floyd–Rivest
//! selection. These complement the simulated-time figures: they show that
//! the *real* code implementing the optimizations is itself fast.
//!
//! Both pack personalities cost the host the same — a hand-copy-speed
//! block loop. The single-context re-search is charged to the *simulated*
//! clock from an exact closed-form count (proven equal to the executed
//! walk by `ncd-datatype`'s property tests); the host does not pay the
//! simulated machine's quadratic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ncd_core::{detect_outliers, k_select};
use ncd_datatype::{matrix_column_type, pack_all_profiled, EngineKind, EngineParams, NullObserver};

fn bench_pack_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_engines");
    for &n in &[64usize, 128, 256] {
        let bytes = n * n * 24;
        let src = vec![7u8; bytes];
        let col = matrix_column_type(n, n, 3).expect("column type");
        group.throughput(Throughput::Bytes(bytes as u64));
        for (name, kind) in [
            ("single_context", EngineKind::SingleContext),
            ("dual_context", EngineKind::DualContext),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let params = EngineParams::default();
                    pack_all_profiled(kind, &col, n, params, &src, &mut NullObserver).expect("pack")
                })
            });
        }
    }
    group.finish();
}

fn bench_kselect(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for &n in &[1_000usize, 100_000, 1_000_000] {
        // Deterministic pseudorandom volumes with one outlier.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut vols: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1024
            })
            .collect();
        vols[n / 2] = 1 << 30;
        group.bench_with_input(BenchmarkId::new("floyd_rivest", n), &n, |b, &n| {
            b.iter(|| {
                let mut work = vols.clone();
                k_select(&mut work, n - 1)
            })
        });
        group.bench_with_input(BenchmarkId::new("full_sort", n), &n, |b, &n| {
            b.iter(|| {
                let mut work = vols.clone();
                work.sort_unstable();
                work[n - 1]
            })
        });
        let usized: Vec<usize> = vols.iter().map(|&v| v as usize).collect();
        group.bench_with_input(BenchmarkId::new("outlier_detect", n), &n, |b, _| {
            b.iter(|| detect_outliers(&usized, 0.9, 8.0))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pack_engines, bench_kselect
}
criterion_main!(benches);
