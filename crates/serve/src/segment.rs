//! Durable cache segments: the fleet pool's point→outcome maps spilled
//! to disk, so a restarted daemon re-serves previously simulated points
//! with `simulations 0` instead of paying for them again.
//!
//! One file per evaluator stream, `cache-<key>.seg` in the daemon's
//! cache directory (`key` is the profile's evaluation fingerprint),
//! stored by the one [`FramedStore`] (framing, torn-tail repair, bit-rot
//! quarantine, compaction); this module supplies only the payload
//! grammar, [`CacheCodec`]:
//!
//! ```text
//! hi-serve cache segment v1
//! key 00000afc1d2e3f40
//! entry 89 1a2b3c4d
//! n 0000000000000216 3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae 4010cccccccccccd
//! entry 174 5e6f7a8b
//! r 0000000000000317 1 <nominal quad> <scenario-0 quad>
//! ```
//!
//! An evaluation travels as four bit-exact floats — PDR, lifetime,
//! power, latency. Entries written before latency joined the
//! [`Evaluation`] carry three; they still parse (latency zero), but the
//! canonical rendered form is always four-wide.
//!
//! Only `Ok` outcomes are persisted. Cached *errors* are deterministic
//! and cheap to rediscover; persisting them would resurrect stale
//! diagnostics across daemon upgrades.

use hi_core::{DesignPoint, Evaluation, RobustEvaluation};

use crate::store::{Codec, FramedStore, StoreMetrics};

/// One persistable cache outcome: a nominal evaluation or a robust
/// scorecard, tagged with its design point.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// A fault-free evaluation from a [`SharedSimEvaluator`]
    /// [hi_core::SharedSimEvaluator] stream.
    Nominal {
        /// The evaluated design point.
        point: DesignPoint,
        /// Its nominal evaluation.
        eval: Evaluation,
    },
    /// A full fault-suite scorecard from a [`RobustEvaluator`]
    /// [hi_core::RobustEvaluator] stream.
    Robust {
        /// The evaluated design point.
        point: DesignPoint,
        /// Its per-scenario scorecard.
        card: RobustEvaluation,
    },
}

impl CachedOutcome {
    /// The design point this outcome belongs to.
    pub fn point(&self) -> DesignPoint {
        match self {
            CachedOutcome::Nominal { point, .. } | CachedOutcome::Robust { point, .. } => *point,
        }
    }

    /// The point's fingerprint — the dedup key within one segment.
    pub fn fingerprint(&self) -> u64 {
        self.point().fingerprint()
    }
}

fn push_quad(out: &mut String, eval: &Evaluation) {
    out.push_str(&format!(
        " {:016x} {:016x} {:016x} {:016x}",
        eval.pdr.to_bits(),
        eval.nlt_days.to_bits(),
        eval.power_mw.to_bits(),
        eval.latency_ms.to_bits()
    ));
}

/// Reads one evaluation's hex-bit floats. `legacy` entries (written
/// before latency joined the [`Evaluation`]) carry three values and
/// load with latency zero; current entries carry four.
fn take_eval<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
    legacy: bool,
) -> Result<Evaluation, String> {
    let width = if legacy { 3 } else { 4 };
    let mut bits = [0u64; 4];
    for slot in bits.iter_mut().take(width) {
        let token = tokens.next().ok_or(format!("{what}: missing field"))?;
        *slot = u64::from_str_radix(token, 16).map_err(|_| format!("{what}: bad hex `{token}`"))?;
    }
    Ok(Evaluation {
        pdr: f64::from_bits(bits[0]),
        nlt_days: f64::from_bits(bits[1]),
        power_mw: f64::from_bits(bits[2]),
        latency_ms: f64::from_bits(bits[3]),
    })
}

/// The cache segment's payload grammar: one [`CachedOutcome`] per entry.
#[derive(Debug)]
pub struct CacheCodec;

/// The durable side of the fleet pool: one append-mostly `cache-*.seg`
/// per evaluator stream.
pub type SegmentStore = FramedStore<CacheCodec>;

impl Codec for CacheCodec {
    type Item = CachedOutcome;
    const HEADER: &'static str = "hi-serve cache segment v1";
    const PREFIX: &'static str = "cache";
    const LABEL: &'static str = "cache segment";
    const ITEMS: &'static str = "entries";
    const COLD: &'static str = "stream";
    const METRICS: StoreMetrics = StoreMetrics {
        loaded: hi_trace::wellknown::SERVE_CACHE_LOADED,
        persisted: hi_trace::wellknown::SERVE_CACHE_PERSISTED,
        compactions: hi_trace::wellknown::SERVE_CACHE_COMPACTIONS,
        quarantined: hi_trace::wellknown::SERVE_CACHE_QUARANTINED,
    };
    const EXACT_FLUSH: bool = false;

    /// Floats travel as exact bit patterns, so a loaded entry seeds the
    /// cache with values bit-identical to the simulation that produced
    /// them.
    fn render(outcome: &CachedOutcome) -> String {
        match outcome {
            CachedOutcome::Nominal { point, eval } => {
                let mut s = format!("n {:016x}", point.fingerprint());
                push_quad(&mut s, eval);
                s
            }
            CachedOutcome::Robust { point, card } => {
                let mut s = format!("r {:016x} {}", point.fingerprint(), card.scenarios.len());
                push_quad(&mut s, &card.nominal);
                for scenario in &card.scenarios {
                    push_quad(&mut s, scenario);
                }
                s
            }
        }
    }

    fn parse(payload: &str) -> Result<CachedOutcome, String> {
        let mut tokens = payload.split_ascii_whitespace();
        let kind = tokens.next().ok_or("empty entry payload".to_string())?;
        let fp_token = tokens
            .next()
            .ok_or("missing point fingerprint".to_string())?;
        let fp = u64::from_str_radix(fp_token, 16)
            .map_err(|_| format!("bad point fingerprint `{fp_token}`"))?;
        let point = DesignPoint::from_fingerprint(fp).ok_or(format!(
            "fingerprint {fp:016x} encodes no valid design point"
        ))?;
        // Width detection: an entry is current (four floats per
        // evaluation) exactly when its token count says so; anything else
        // parses at the legacy three-float width, whose own
        // missing-field/trailing checks produce the right diagnostics for
        // malformed counts.
        let total_tokens = payload.split_ascii_whitespace().count();
        let outcome = match kind {
            "n" => CachedOutcome::Nominal {
                point,
                eval: take_eval(&mut tokens, "nominal evaluation", total_tokens != 2 + 4)?,
            },
            "r" => {
                let count: usize = tokens
                    .next()
                    .ok_or("missing scenario count".to_string())?
                    .parse()
                    .map_err(|_| "bad scenario count".to_string())?;
                let legacy =
                    total_tokens != count.saturating_add(1).saturating_mul(4).saturating_add(3);
                // A megabyte-scale count with no payload behind it must
                // fail on the missing fields, not pre-allocate.
                let nominal = take_eval(&mut tokens, "nominal evaluation", legacy)?;
                let mut scenarios = Vec::with_capacity(count.min(1024));
                for i in 0..count {
                    scenarios.push(take_eval(&mut tokens, &format!("scenario {i}"), legacy)?);
                }
                CachedOutcome::Robust {
                    point,
                    card: RobustEvaluation { nominal, scenarios },
                }
            }
            other => return Err(format!("unknown entry kind `{other}`")),
        };
        if tokens.next().is_some() {
            return Err("trailing fields after entry payload".to_string());
        }
        Ok(outcome)
    }

    fn fingerprint(outcome: &CachedOutcome) -> u64 {
        outcome.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{self as store, Fixture};
    use hi_core::{MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;

    fn point(i: u8) -> DesignPoint {
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

    fn ev(x: f64) -> Evaluation {
        Evaluation {
            pdr: 0.9 + x,
            nlt_days: 100.0 * x,
            power_mw: 1.0 / (x + 1.0),
            latency_ms: 3.0 + x,
        }
    }

    fn nominal(i: u8) -> CachedOutcome {
        CachedOutcome::Nominal {
            point: point(i),
            eval: ev(f64::from(i)),
        }
    }

    fn robust(i: u8) -> CachedOutcome {
        CachedOutcome::Robust {
            point: point(i),
            card: RobustEvaluation {
                nominal: ev(f64::from(i)),
                scenarios: vec![ev(0.25), ev(0.5)],
            },
        }
    }

    impl Fixture for CacheCodec {
        fn item(i: u8) -> CachedOutcome {
            if i % 2 == 1 {
                robust(i)
            } else {
                nominal(i)
            }
        }
    }

    #[test]
    fn entries_roundtrip_bit_for_bit() {
        for outcome in [nominal(0), robust(1)] {
            let parsed = CacheCodec::parse(&CacheCodec::render(&outcome)).unwrap();
            assert_eq!(parsed, outcome);
        }
        // NaN and infinities survive via bit patterns.
        let weird = CachedOutcome::Nominal {
            point: point(2),
            eval: Evaluation {
                pdr: f64::NAN,
                nlt_days: f64::INFINITY,
                power_mw: -0.0,
                latency_ms: f64::MIN_POSITIVE,
            },
        };
        match CacheCodec::parse(&CacheCodec::render(&weird)).unwrap() {
            CachedOutcome::Nominal { eval, .. } => {
                assert!(eval.pdr.is_nan());
                assert_eq!(eval.nlt_days, f64::INFINITY);
                assert_eq!(eval.power_mw.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn pre_latency_entries_parse_with_latency_zeroed() {
        // Entries written by a pre-latency daemon carry three floats per
        // evaluation; they must still hydrate (latency zero), and the
        // width detection must not misread a current robust entry.
        let legacy_n = "n 0000000000000216 3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae";
        match CacheCodec::parse(legacy_n).unwrap() {
            CachedOutcome::Nominal { eval, .. } => {
                assert_eq!(eval.pdr, f64::from_bits(0x3fee666666666666));
                assert_eq!(eval.latency_ms.to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let legacy_r = "r 0000000000000216 1 \
                        3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae \
                        3fe0000000000000 4040000000000000 3ff8000000000000";
        match CacheCodec::parse(legacy_r).unwrap() {
            CachedOutcome::Robust { card, .. } => {
                assert_eq!(card.scenarios.len(), 1);
                assert_eq!(card.nominal.latency_ms.to_bits(), 0.0f64.to_bits());
                assert_eq!(card.scenarios[0].latency_ms.to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn segments_roundtrip_and_report_their_key() {
        let entries = vec![nominal(0), robust(1), nominal(2)];
        let bytes = SegmentStore::render(0xabc, &entries);
        let load = SegmentStore::parse(&bytes).unwrap();
        assert_eq!(load.key, 0xabc);
        assert_eq!(load.items, entries);
        assert_eq!(load.torn, None);
    }

    #[test]
    fn torn_tails_keep_the_intact_prefix() {
        store::check_torn_prefix::<CacheCodec>();
    }

    #[test]
    fn payload_corruption_is_bit_rot_not_torn() {
        let bytes = SegmentStore::render(7, &[nominal(0), nominal(2)]);
        let text = String::from_utf8(bytes.clone()).unwrap();
        let payload_at = text.find("\nn ").unwrap() + 1;
        let mut rotted = bytes.clone();
        rotted[payload_at + 5] ^= 0x04;
        let err = SegmentStore::parse(&rotted).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
        // Framing violation mid-file (length that does not land on a
        // newline) is also bit rot.
        let mut bad_frame = text.clone();
        let at = bad_frame.find("entry ").unwrap();
        bad_frame.replace_range(at..at + 7, "entry 9");
        let err = SegmentStore::parse(bad_frame.as_bytes()).unwrap_err();
        assert!(
            err.contains("framing") || err.contains("crc32") || err.contains("malformed"),
            "{err}"
        );
    }

    #[test]
    fn store_settles_hydrates_and_recovers_across_reopen() {
        store::check_reopen::<CacheCodec>();
    }

    #[test]
    fn torn_files_are_repaired_and_rotted_files_quarantined_at_open() {
        store::check_repair::<CacheCodec>();
    }

    #[test]
    fn compaction_folds_the_append_tail() {
        store::check_compaction::<CacheCodec>();
    }

    #[test]
    fn chaos_torn_append_recovers_via_forced_compaction() {
        store::check_chaos::<CacheCodec>();
    }

    #[test]
    fn flush_leaves_one_clean_file() {
        store::check_flush::<CacheCodec>();
    }

    #[test]
    fn miskeyed_segment_files_are_quarantined() {
        store::check_miskeyed::<CacheCodec>();
    }
}
