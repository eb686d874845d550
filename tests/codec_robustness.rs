//! Decoder robustness certification: corrupted, truncated, wrong-version,
//! and wrong-kind inputs must surface as `Err` — never a panic, never an
//! unbounded allocation. The sweep covers **every registered summary
//! kind**: each kind's encoding is attacked bit by bit (the trailing
//! CRC-32 detects all single-bit errors, so every flip must be rejected)
//! and prefix by prefix.

use rand::rngs::StdRng;
use rand::SeedableRng;

use structure_aware_sampling::codec::{crc32, CodecError, TRAILER_LEN};
use structure_aware_sampling::core::varopt::VarOptSampler;
use structure_aware_sampling::core::WeightedKey;
use structure_aware_sampling::sampling::product::SpatialData;
use structure_aware_sampling::summaries::countsketch::SketchSummary;
use structure_aware_sampling::summaries::qdigest::QDigestSummary;
use structure_aware_sampling::summaries::wavelet::WaveletSummary;
use structure_aware_sampling::summaries::{decode_summary, encode_summary, StoredSample};
use structure_aware_sampling::Summary;

/// Deliberately tiny fixtures: the bit-flip sweep decodes the frame once
/// per bit, so O(bytes²) work must stay cheap.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let data: Vec<WeightedKey> = (0..60u64)
        .map(|k| WeightedKey::new(k, 0.5 + (k % 7) as f64))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let sample = structure_aware_sampling::sampling::order::sample(&data, 12, &mut rng);

    let mut varopt = VarOptSampler::new(10);
    for wk in &data {
        varopt.push(wk.key, wk.weight, &mut rng);
    }

    let rows: Vec<(u64, u64, f64)> = (0..40u64).map(|i| (i % 16, (i * 7) % 16, 1.5)).collect();
    let spatial = SpatialData::from_xyw(&rows);

    let stored2 = {
        let mut rng2 = StdRng::seed_from_u64(2);
        let smp = structure_aware_sampling::sampling::product::sample(&spatial, 8, &mut rng2);
        StoredSample::spatial(smp, &spatial).expect("points cover all keys")
    };

    // A merged wavelet carries its error bookkeeping in the optional
    // section 3, which direct builds never write.
    let merged_wavelet = {
        let (first, second) = rows.split_at(rows.len() / 2);
        let mut w = WaveletSummary::build(&SpatialData::from_xyw(first), 4, 4, 8);
        w.try_merge(WaveletSummary::build(
            &SpatialData::from_xyw(second),
            4,
            4,
            8,
        ))
        .expect("same geometry");
        w
    };

    vec![
        ("sample-1d", encode_summary(&StoredSample::one_dim(sample))),
        ("sample-2d", encode_summary(&stored2)),
        ("varopt", encode_summary(&varopt)),
        (
            "qdigest",
            encode_summary(&QDigestSummary::build(&spatial, 4, 16)),
        ),
        (
            "wavelet",
            encode_summary(&WaveletSummary::build(&spatial, 4, 4, 20)),
        ),
        ("wavelet-merged", encode_summary(&merged_wavelet)),
        (
            "sketch",
            encode_summary(&SketchSummary::build(&spatial, 4, 4, 90, 3)),
        ),
    ]
}

/// Recomputes the trailing CRC so tampered frames survive the envelope
/// check and exercise the per-kind field validation underneath.
fn fix_checksum(bytes: &mut [u8]) {
    let at = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[..at]);
    bytes[at..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn every_fixture_decodes_cleanly() {
    for (name, bytes) in fixtures() {
        let s: Box<dyn Summary> = decode_summary(&bytes)
            .unwrap_or_else(|e| panic!("{name}: pristine frame failed to decode: {e}"));
        assert!(s.item_count() > 0, "{name}");
    }
}

#[test]
fn bit_flip_sweep_rejects_every_corruption() {
    for (name, bytes) in fixtures() {
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_summary(&corrupt).is_err(),
                "{name}: flipping bit {bit} of {} was not rejected",
                bytes.len() * 8
            );
        }
    }
}

#[test]
fn truncation_sweep_rejects_every_prefix() {
    for (name, bytes) in fixtures() {
        for len in 0..bytes.len() {
            assert!(
                decode_summary(&bytes[..len]).is_err(),
                "{name}: {len}-byte prefix was not rejected"
            );
        }
    }
}

#[test]
fn wrong_kind_tag_is_rejected_not_misinterpreted() {
    // Rewriting the kind tag (with a fixed-up checksum) must never let one
    // kind's body reach another kind's decoder successfully: the body
    // either fails section/field validation or reports a clean error.
    let all = fixtures();
    for (name, bytes) in &all {
        for tag in 0u16..8 {
            let mut forged = bytes.clone();
            forged[6..8].copy_from_slice(&tag.to_le_bytes());
            fix_checksum(&mut forged);
            if forged == *bytes {
                continue; // original tag
            }
            assert!(
                decode_summary(&forged).is_err(),
                "{name}: body accepted under forged kind tag {tag}"
            );
        }
    }
}

#[test]
fn future_version_is_rejected() {
    for (name, bytes) in fixtures() {
        let mut forged = bytes.clone();
        forged[4..6].copy_from_slice(&2u16.to_le_bytes());
        fix_checksum(&mut forged);
        assert!(
            matches!(
                decode_summary(&forged),
                Err(CodecError::UnsupportedVersion(2))
            ),
            "{name}: version 2 frame was not rejected as unsupported"
        );
    }
}

#[test]
fn declared_length_lies_are_rejected() {
    for (name, bytes) in fixtures() {
        for delta in [1u64, 8, 1 << 40] {
            let mut forged = bytes.clone();
            let declared = u64::from_le_bytes(forged[8..16].try_into().unwrap()) + delta;
            forged[8..16].copy_from_slice(&declared.to_le_bytes());
            fix_checksum(&mut forged);
            assert!(
                decode_summary(&forged).is_err(),
                "{name}: inflated body length (+{delta}) accepted"
            );
        }
    }
}

#[test]
fn non_finite_payload_values_are_rejected() {
    // Overwrite each 8-byte window with a NaN bit pattern (checksum fixed):
    // decoders must reject smuggled non-finite weights rather than let them
    // poison estimates. Windows that do not decode as a weight may fail for
    // other reasons — any Err is acceptable, a panic is not.
    let nan = f64::NAN.to_bits().to_le_bytes();
    for (name, bytes) in fixtures() {
        let body = 16..bytes.len() - TRAILER_LEN;
        for at in body.clone().step_by(8) {
            if at + 8 > body.end {
                break;
            }
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&nan);
            fix_checksum(&mut forged);
            if forged == *bytes {
                continue;
            }
            // Must not panic; Ok is allowed only if the window did not
            // actually change the frame (handled above) — everything else
            // must keep the decoder's invariants intact.
            if let Ok(s) = decode_summary(&forged) {
                let total = s.total_estimate();
                assert!(
                    total.is_finite(),
                    "{name}: NaN at offset {at} reached a live summary"
                );
            }
        }
    }
}

#[test]
fn crafted_sketch_geometry_cannot_wrap_size_arithmetic() {
    // A hand-built frame with a colossal counter width and a valid CRC:
    // the decoder's size math must reject it with checked arithmetic, not
    // wrap around into a plausible size and blow up allocating.
    use structure_aware_sampling::codec::{encode_frame, Writer};
    for width in [u64::MAX, u64::MAX / 3, (u64::MAX / 24) + 2, 1u64 << 61] {
        let forged = encode_frame(5, |w: &mut Writer| {
            w.section(1, |w| {
                w.put_u32(4); // bits_x
                w.put_u32(4); // bits_y
                w.put_u64(width);
                w.put_u8(3); // rows
            });
            w.section(2, |w| w.put_bytes(&[0u8; 48]));
        });
        assert!(
            decode_summary(&forged).is_err(),
            "sketch width {width} was not rejected"
        );
    }
}

#[test]
fn crafted_varopt_partition_violations_are_rejected() {
    // Valid frame envelope, invalid reservoir state: a "large" key below
    // the threshold must not decode into a biased sampler.
    use structure_aware_sampling::codec::{encode_frame, Writer};
    let forged = encode_frame(2, |w: &mut Writer| {
        w.section(1, |w| {
            w.put_u64(4); // capacity
            w.put_f64(5.0); // tau
            w.put_u64(2); // count
            w.put_f64(6.0); // total weight
        });
        w.section(2, |w| {
            w.put_u64(1);
            w.put_u64(1); // key
            w.put_f64(1.0); // weight < tau
        });
        w.section(3, |w| {
            w.put_u64(1);
            w.put_u64(2);
        });
    });
    assert!(decode_summary(&forged).is_err());
}
