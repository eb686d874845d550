//! Criterion benches: query answering cost per summary (Figure 3(c) timing,
//! statistically sound version).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sas_bench::{network_workload, Scale};
use sas_data::uniform_area_queries;
use sas_summaries::qdigest::QDigestSummary;
use sas_summaries::wavelet::WaveletSummary;
use sas_summaries::Summary;

fn bench_query(c: &mut Criterion) {
    let w = network_workload(Scale::Small);
    let side = 1u64 << w.bits;
    let mut qrng = StdRng::seed_from_u64(1);
    let queries = uniform_area_queries(&mut qrng, side, side, 20, 25, 0.2);
    let s = 1000;

    let aware = sas_bench::build_aware(&w.data, s, 1);
    let obliv = sas_bench::build_obliv(&w.data, s, 2);
    let wavelet = WaveletSummary::build(&w.data, w.bits, w.bits, s);
    let qdigest = QDigestSummary::build(&w.data, w.bits, s);

    let mut group = c.benchmark_group("query_500_rects");
    for (name, summary) in [
        ("aware", &aware as &dyn Summary),
        ("obliv", &obliv as &dyn Summary),
        ("wavelet", &wavelet as &dyn Summary),
        ("qdigest", &qdigest as &dyn Summary),
    ] {
        group.bench_function(BenchmarkId::new(name, s), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in &queries {
                    acc += sas_bench::answer_value(summary, q);
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
