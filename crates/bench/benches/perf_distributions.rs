//! Sampler throughput for every lifetime distribution, plus the special
//! functions on the statistics hot path.

use availsim_sim::distributions::{Exponential, Lifetime, Weibull};
use availsim_sim::rng::SimRng;
use availsim_sim::stats::student_t::t_critical_two_sided;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    let dists: Vec<(&str, Box<dyn Lifetime>)> = vec![
        ("exponential", Box::new(Exponential::new(1e-6).unwrap())),
        (
            "weibull",
            Box::new(Weibull::from_rate_shape(1e-6, 1.21).unwrap()),
        ),
    ];
    for (name, dist) in &dists {
        group.bench_function(*name, |b| {
            let mut rng = SimRng::seed_from(9);
            b.iter(|| black_box(dist.sample(&mut rng)));
        });
    }
    group.finish();

    c.bench_function("rng/next_f64", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.next_f64()));
    });

    c.bench_function("stats/t_critical_99_df1e6", |b| {
        b.iter(|| black_box(t_critical_two_sided(0.99, 1e6).unwrap()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(50)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
