//! Durable Pareto-front segments: each evaluator stream's archive
//! spilled to disk, so a restarted daemon answers `FRONT` queries warm —
//! `simulations 0` — instead of re-sweeping the design space.
//!
//! One file per stream, `front-<key>.seg` next to the evaluation-cache
//! segments, stored by the same [`FramedStore`] as the cache; this module
//! supplies only the payload grammar, [`FrontCodec`]:
//!
//! ```text
//! hi-serve pareto front v1
//! key 00000afc1d2e3f40
//! entry 85 1a2b3c4d
//! p 0000000000000216 3ff3ae147ae147ae 3fee666666666666 4010cccccccccccd 4056ab851eb851ec
//! ```
//!
//! A front point travels as its fingerprint plus four bit-exact floats —
//! power, PDR, latency, lifetime. The two formats differ in header line
//! and payload grammar, so a cross-fed file fails fast with a "not a
//! pareto front" (or "not a cache segment") diagnostic instead of being
//! half-parsed.
//!
//! The log is **append-only over accepted points**: settle appends every
//! front member not yet on disk, and displaced members are *not*
//! scrubbed eagerly. Hydration re-offers every logged point to a fresh
//! [`ParetoArchive`](hi_pareto::ParetoArchive), whose
//! insertion-order-invariant dominance filters the stale ones — the disk
//! format never has to encode deletions. Compaction (every
//! `compact_threshold` appends, at drain, or over a chaos-torn tail)
//! rewrites the file with the *current* front only, and a drain-time
//! flush skips only when disk holds exactly the current front
//! ([`Codec::EXACT_FLUSH`]).

use hi_core::DesignPoint;
use hi_pareto::FrontPoint;

use crate::store::{Codec, FramedStore, StoreMetrics};

/// The Pareto-front segment's payload grammar: one [`FrontPoint`] per
/// entry.
#[derive(Debug)]
pub struct FrontCodec;

/// The durable side of the Pareto archives: one append-mostly
/// `front-*.seg` per evaluator stream, sharing the cache directory with
/// [`crate::SegmentStore`].
pub type FrontStore = FramedStore<FrontCodec>;

impl Codec for FrontCodec {
    type Item = FrontPoint;
    const HEADER: &'static str = "hi-serve pareto front v1";
    const PREFIX: &'static str = "front";
    const LABEL: &'static str = "pareto front";
    const ITEMS: &'static str = "front points";
    const COLD: &'static str = "front";
    const METRICS: StoreMetrics = StoreMetrics {
        loaded: hi_trace::wellknown::SERVE_PARETO_LOADED,
        persisted: hi_trace::wellknown::SERVE_PARETO_PERSISTED,
        compactions: hi_trace::wellknown::SERVE_PARETO_COMPACTIONS,
        quarantined: hi_trace::wellknown::SERVE_PARETO_QUARANTINED,
    };
    const EXACT_FLUSH: bool = true;

    /// Floats travel as exact bit patterns, so a hydrated archive is
    /// bit-identical to the one that was persisted.
    fn render(point: &FrontPoint) -> String {
        format!(
            "p {:016x} {:016x} {:016x} {:016x} {:016x}",
            point.fingerprint,
            point.power_mw.to_bits(),
            point.pdr.to_bits(),
            point.latency_ms.to_bits(),
            point.nlt_days.to_bits()
        )
    }

    fn parse(payload: &str) -> Result<FrontPoint, String> {
        let mut tokens = payload.split_ascii_whitespace();
        match tokens.next() {
            Some("p") => {}
            Some(other) => return Err(format!("unknown front entry kind `{other}`")),
            None => return Err("empty front entry payload".to_string()),
        }
        let fp_token = tokens
            .next()
            .ok_or("missing point fingerprint".to_string())?;
        let fingerprint = u64::from_str_radix(fp_token, 16)
            .map_err(|_| format!("bad point fingerprint `{fp_token}`"))?;
        if DesignPoint::from_fingerprint(fingerprint).is_none() {
            return Err(format!(
                "fingerprint {fingerprint:016x} encodes no valid design point"
            ));
        }
        let mut take = |what: &str| -> Result<f64, String> {
            let token = tokens.next().ok_or(format!("{what}: missing field"))?;
            u64::from_str_radix(token, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("{what}: bad hex `{token}`"))
        };
        let point = FrontPoint {
            fingerprint,
            power_mw: take("power")?,
            pdr: take("pdr")?,
            latency_ms: take("latency")?,
            nlt_days: take("lifetime")?,
        };
        if tokens.next().is_some() {
            return Err("trailing fields after front entry payload".to_string());
        }
        Ok(point)
    }

    fn fingerprint(point: &FrontPoint) -> u64 {
        point.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{self as store, Fixture};
    use crate::{CachedOutcome, SegmentStore};
    use hi_core::{Evaluation, MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;
    use hi_pareto::ParetoArchive;

    fn design(i: u8) -> DesignPoint {
        DesignPoint {
            placement: Placement::from_indices([0, 1, 3, (5 + i % 3) as usize]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: if i.is_multiple_of(2) {
                RouteChoice::Star
            } else {
                RouteChoice::Mesh
            },
        }
    }

    fn point(i: u8, power: f64, pdr: f64, latency: f64) -> FrontPoint {
        FrontPoint {
            fingerprint: design(i).fingerprint(),
            power_mw: power,
            pdr,
            latency_ms: latency,
            nlt_days: 101.25 / power,
        }
    }

    impl Fixture for FrontCodec {
        fn item(i: u8) -> FrontPoint {
            match i {
                0 => point(0, 1.0, 0.9, 5.0),
                1 => point(1, 0.5, 0.6, 9.0),
                _ => point(2, 0.7, 0.95, 4.0), // dominates point(0)
            }
        }

        /// Re-inserting the log into a fresh archive filters the
        /// displaced point.
        fn check_hydrated(logged: &[FrontPoint]) {
            let mut archive = ParetoArchive::default();
            for p in logged {
                archive.insert(*p);
            }
            let front = archive.front();
            assert_eq!(front.len(), 2);
            assert!(front.contains(&Self::item(2)));
        }
    }

    #[test]
    fn front_entries_roundtrip_bit_for_bit() {
        let p = point(0, 1.25, 0.9137, 5.5);
        assert_eq!(FrontCodec::parse(&FrontCodec::render(&p)).unwrap(), p);
        let weird = FrontPoint {
            fingerprint: design(1).fingerprint(),
            power_mw: f64::MIN_POSITIVE,
            pdr: -0.0,
            latency_ms: f64::INFINITY,
            nlt_days: f64::NAN,
        };
        let parsed = FrontCodec::parse(&FrontCodec::render(&weird)).unwrap();
        assert_eq!(parsed.power_mw.to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(parsed.pdr.to_bits(), (-0.0f64).to_bits());
        assert!(parsed.nlt_days.is_nan());
    }

    #[test]
    fn malformed_front_entries_are_rejected_precisely() {
        for (payload, needle) in [
            ("", "empty front entry"),
            ("q 0000000000000216", "unknown front entry kind"),
            ("p", "missing point fingerprint"),
            ("p zzzz", "bad point fingerprint"),
            ("p ffffffffffffffff 0 0 0 0", "no valid design point"),
            ("p 0000000000000216 3ff0", "pdr: missing field"),
            ("p 0000000000000216 0 0 0 0 deadbeef", "trailing fields"),
        ] {
            let err = FrontCodec::parse(payload).unwrap_err();
            assert!(err.contains(needle), "`{payload}` → {err}");
        }
    }

    #[test]
    fn front_segments_roundtrip_and_cross_feeding_fails_fast() {
        let points = vec![point(0, 1.0, 0.9, 5.0), point(1, 0.8, 0.85, 6.0)];
        let bytes = FrontStore::render(0xabc, &points);
        let load = FrontStore::parse(&bytes).unwrap();
        assert_eq!(load.key, 0xabc);
        assert_eq!(load.items, points);
        assert_eq!(load.torn, None);
        // A cache segment fed to the front parser (and vice versa) is
        // rejected at the header, not half-parsed.
        let cache = SegmentStore::render(
            0xabc,
            &[CachedOutcome::Nominal {
                point: design(0),
                eval: Evaluation {
                    pdr: 0.9,
                    nlt_days: 40.0,
                    power_mw: 1.0,
                    latency_ms: 5.0,
                },
            }],
        );
        let err = FrontStore::parse(&cache).unwrap_err();
        assert!(err.contains("not a pareto front"), "{err}");
        let err = SegmentStore::parse(&bytes).unwrap_err();
        assert!(err.contains("not a cache segment"), "{err}");
    }

    #[test]
    fn torn_front_tails_keep_the_intact_prefix() {
        store::check_torn_prefix::<FrontCodec>();
    }

    #[test]
    fn store_settles_hydrates_and_filters_stale_points_across_reopen() {
        store::check_reopen::<FrontCodec>();
    }

    #[test]
    fn flush_folds_displaced_points_out_of_the_file() {
        store::check_flush::<FrontCodec>();
    }

    #[test]
    fn torn_files_repair_and_rotted_files_quarantine_at_open() {
        store::check_repair::<FrontCodec>();
    }

    #[test]
    fn compaction_folds_the_append_tail() {
        store::check_compaction::<FrontCodec>();
    }

    #[test]
    fn chaos_torn_append_recovers_via_forced_compaction() {
        store::check_chaos::<FrontCodec>();
    }

    #[test]
    fn front_and_cache_segments_share_a_directory_without_collisions() {
        let dir = std::env::temp_dir().join(format!("hi-front-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = 0x33;
        std::fs::write(
            SegmentStore::path(&dir, key),
            SegmentStore::render(
                key,
                &[CachedOutcome::Nominal {
                    point: design(0),
                    eval: Evaluation {
                        pdr: 0.9,
                        nlt_days: 40.0,
                        power_mw: 1.0,
                        latency_ms: 5.0,
                    },
                }],
            ),
        )
        .unwrap();
        std::fs::write(
            FrontStore::path(&dir, key),
            FrontStore::render(key, &[point(0, 1.0, 0.9, 5.0)]),
        )
        .unwrap();
        // Each store sees only its own files.
        let (fronts, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(fronts.hydrate(key).len(), 1);
        let (caches, notes) = SegmentStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(caches.hydrate(key).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miskeyed_front_files_are_quarantined() {
        store::check_miskeyed::<FrontCodec>();
    }
}
