//! Tech-ticket analysis: product of two hierarchies (trouble codes ×
//! network locations), comparing structure-aware and oblivious samples on
//! hierarchy-aligned queries.
//!
//! Subtrees of each hierarchy map to contiguous coordinate intervals
//! (mixed-radix path encoding), so "all tickets with trouble code under
//! node X at locations under node Y" is a box query.
//!
//! ```sh
//! cargo run --release --example tech_tickets
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use structure_aware_sampling::core::varopt::VarOptSampler;
use structure_aware_sampling::data::TicketConfig;
use structure_aware_sampling::sampling::two_pass;
use structure_aware_sampling::structures::product::{BoxRange, MultiRangeQuery};
use structure_aware_sampling::summaries::exact::ExactEngine;
use structure_aware_sampling::summaries::{Query, StoredSample, Summary};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let cfg = TicketConfig {
        tickets: 150_000,
        ..Default::default()
    };
    let (trouble_domain, location_domain) = cfg.domains();
    let data = cfg.generate(&mut rng);
    let exact = ExactEngine::new(&data);
    println!(
        "tickets: {} distinct (code, location) pairs; domains {trouble_domain} × {location_domain}",
        data.len()
    );

    let s = 3_000;
    let located = "every ticket has a location";
    let aware = StoredSample::spatial(two_pass::sample_product(&data, s, 5, &mut rng), &data)
        .expect(located);
    let obliv = StoredSample::spatial(VarOptSampler::sample_slice(s, &data.keys, &mut rng), &data)
        .expect(located);
    let value = |summary: &StoredSample, q: &MultiRangeQuery| {
        summary
            .answer(&Query::from(q), 0.9)
            .expect("a valid box")
            .value
    };

    // Hierarchy-aligned queries: top-level trouble subtree c crossed with
    // top-level location subtree l.
    let t_sub = trouble_domain / 16; // 16 first-level trouble children
    let l_sub = location_domain / 16;
    println!(
        "\n{:<28}{:>13}{:>13}{:>13}",
        "trouble-subtree × loc-subtree", "truth", "aware", "obliv"
    );
    let mut aware_err = 0.0;
    let mut obliv_err = 0.0;
    let mut shown = 0;
    for c in 0..16u64 {
        for l in 0..16u64 {
            let q = MultiRangeQuery::new(vec![BoxRange::xy(
                c * t_sub,
                (c + 1) * t_sub - 1,
                l * l_sub,
                (l + 1) * l_sub - 1,
            )]);
            let truth = exact.multi_sum(&q);
            let ea = value(&aware, &q);
            let eo = value(&obliv, &q);
            aware_err += (ea - truth).abs();
            obliv_err += (eo - truth).abs();
            if truth > 0.0 && shown < 8 {
                println!(
                    "code[{c:>2}] × loc[{l:>2}]           {truth:>13.3e}{ea:>13.3e}{eo:>13.3e}"
                );
                shown += 1;
            }
        }
    }
    println!(
        "\nsummed |error| over all 256 subtree pairs: aware {aware_err:.3e}, obliv {obliv_err:.3e} ({:.1}x)",
        obliv_err / aware_err
    );
}
