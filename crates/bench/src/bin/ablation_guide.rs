//! Ablation: effect of the guide-sample factor `s′/s` on two-pass accuracy.
//!
//! The paper uses `s′ = 5s` and notes that "increasing the factor did not
//! significantly improve the accuracy". This ablation regenerates that
//! observation: error vs guide factor 1, 2, 5, 10.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sas_bench::*;
use sas_data::uniform_area_queries;
use sas_summaries::StoredSample;

fn main() {
    let scale = Scale::from_env();
    let w = network_workload(scale);
    let side = 1u64 << w.bits;
    let s = 1000;
    let mut qrng = StdRng::seed_from_u64(11);
    let queries = uniform_area_queries(&mut qrng, side, side, scale.query_count(), 25, 0.3);

    eprintln!("ablation_guide: network data, summary size {s}");

    let mut rows = Vec::new();
    for &factor in &[1usize, 2, 5, 10] {
        // Average over a few seeds to smooth sampling noise.
        let mut err = 0.0;
        let seeds = 5;
        let mut secs = 0.0;
        for seed in 0..seeds {
            let (summary, t) = timed(|| {
                let mut rng = StdRng::seed_from_u64(1000 * factor as u64 + seed);
                let sample = sas_sampling::two_pass::sample_product(&w.data, s, factor, &mut rng);
                StoredSample::spatial(sample, &w.data).expect("every sampled key has a location")
            });
            secs += t;
            err += avg_abs_error(&summary, &w.exact, &queries, w.total);
        }
        rows.push(vec![
            factor.to_string(),
            fmt_err(err / seeds as f64),
            format!("{:.3}", secs / seeds as f64),
        ]);
    }
    print_table(
        "Ablation: two-pass accuracy and build time vs guide factor s'/s (paper uses 5)",
        &["guide_factor", "avg_abs_error", "build_seconds"],
        &rows,
    );
}
