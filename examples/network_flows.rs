//! The paper's motivating scenario (Example 1): summarizing IP flow data
//! and answering ad-hoc traffic questions from the summary.
//!
//! Generates a synthetic flow table (sources × destinations in a prefix
//! hierarchy, heavy-tailed volumes), builds a 2 000-key structure-aware
//! summary with the two-pass I/O-efficient algorithm, and estimates
//! "traffic between subnet ranges" queries against the exact answer.
//!
//! ```sh
//! cargo run --release --example network_flows
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use structure_aware_sampling::data::NetworkConfig;
use structure_aware_sampling::sampling::two_pass;
use structure_aware_sampling::structures::product::{BoxRange, MultiRangeQuery};
use structure_aware_sampling::summaries::exact::ExactEngine;
use structure_aware_sampling::summaries::{Query, StoredSample, Summary};

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let cfg = NetworkConfig {
        bits: 16,
        flows: 120_000,
        ..Default::default()
    };
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    println!(
        "flow table: {} (src,dst) pairs, total volume {:.3e}",
        data.len(),
        exact.total()
    );

    // Two read-only passes, O(s') memory — the summary a collector can
    // build without holding the flow table.
    let s = 2_000;
    let sample = two_pass::sample_product(&data, s, 5, &mut rng);
    let summary = StoredSample::spatial(sample.clone(), &data).expect("every flow has a location");
    println!("built {s}-key structure-aware summary (two-pass, guide factor 5)\n");

    // Ad-hoc analysis: traffic between address ranges ("subnets").
    let side = 1u64 << 16;
    let queries = [
        ("whole matrix", BoxRange::xy(0, side - 1, 0, side - 1)),
        (
            "top-left /2 × /2",
            BoxRange::xy(0, side / 4 - 1, 0, side / 4 - 1),
        ),
        (
            "src /4 slice",
            BoxRange::xy(side / 2, side / 2 + side / 16 - 1, 0, side - 1),
        ),
        (
            "dst /4 slice",
            BoxRange::xy(0, side - 1, side / 4, side / 4 + side / 16 - 1),
        ),
        ("small subnet pair", BoxRange::xy(1000, 1255, 2000, 2255)),
    ];
    println!(
        "{:<22}{:>14}{:>14}{:>10}",
        "query", "truth", "estimate", "rel.err"
    );
    for (name, q) in queries {
        let q = MultiRangeQuery::new(vec![q]);
        let truth = exact.multi_sum(&q);
        let est = summary
            .answer(&Query::from(&q), 0.9)
            .expect("a valid box")
            .value;
        let rel = if truth > 0.0 {
            (est - truth).abs() / truth
        } else {
            est.abs()
        };
        println!(
            "{name:<22}{truth:>14.3e}{est:>14.3e}{rel:>9.2}%",
            rel = rel * 100.0
        );
    }

    // Samples also answer questions no dedicated summary can: e.g. "show me
    // representative flows above the threshold in this subnet".
    let subnet = BoxRange::xy(0, side / 4 - 1, 0, side - 1);
    let mut reps: Vec<_> = sample
        .iter()
        .filter(|e| data.point_of(e.key).is_some_and(|p| subnet.contains(p)))
        .take(5)
        .collect();
    reps.sort_by(|a, b| b.adjusted_weight.total_cmp(&a.adjusted_weight));
    println!("\nrepresentative flows from the top-left source quadrant:");
    for e in reps {
        println!(
            "  key {:>10}: adjusted volume {:.3e}",
            e.key, e.adjusted_weight
        );
    }
}
