//! Performance of the GTH steady-state solve as the chain grows — the
//! generic `k+m` generator provides progressively larger availability
//! chains, and a ring generator provides dense synthetic ones.

use availsim_core::markov::GenericKofN;
use availsim_core::ModelParams;
use availsim_ctmc::{Ctmc, CtmcBuilder};
use availsim_hra::Hep;
use availsim_storage::RaidGeometry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// A ring of `n` states with forward chords, all rates O(1).
fn ring_chain(n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new();
    let ids: Vec<_> = (0..n).map(|i| b.state(format!("s{i}")).unwrap()).collect();
    for i in 0..n {
        b.transition(ids[i], ids[(i + 1) % n], 1.0 + (i % 7) as f64 * 0.3)
            .unwrap();
        b.transition(ids[i], ids[(i + 3) % n], 0.1 + (i % 5) as f64 * 0.05)
            .unwrap();
    }
    b.build().unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state_ring");
    for &n in &[4usize, 16, 64, 256] {
        let chain = ring_chain(n);
        group.bench_with_input(BenchmarkId::new("gth", n), &chain, |b, chain| {
            b.iter(|| black_box(chain.steady_state().unwrap()));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("steady_state_raid_chains");
    for &m in &[1u32, 2] {
        let geometry = if m == 1 {
            RaidGeometry::raid5(7).unwrap()
        } else {
            RaidGeometry::raid6(6).unwrap()
        };
        let params = ModelParams::paper_defaults(geometry, 1e-6, Hep::new(0.01).unwrap()).unwrap();
        let model = GenericKofN::new(params).unwrap();
        group.bench_function(BenchmarkId::new("generic_k_of_n", format!("m{m}")), |b| {
            b.iter(|| black_box(model.solve().unwrap().unavailability()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
