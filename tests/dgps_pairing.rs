//! The linear dGPS pairing walk against the quadratic scan it replaced:
//! every base reading checked against every reference reading, keeping
//! the smallest skew within tolerance, then the earlier reference, then
//! the first ingested. The scan lives here, as the oracle only.

use glacsweb::Scenario;
use glacsweb_server::{DgpsFix, GpsRecord, Warehouse};
use glacsweb_sim::{Bytes, SimDuration, SimTime};
use glacsweb_station::{StationId, UploadItem};
use proptest::prelude::*;

fn skew(b: &GpsRecord, r: &GpsRecord) -> SimDuration {
    if r.taken_at > b.taken_at {
        r.taken_at.saturating_since(b.taken_at)
    } else {
        b.taken_at.saturating_since(r.taken_at)
    }
}

/// The O(base × reference) pairing scan.
fn quadratic_fixes(w: &Warehouse) -> Vec<DgpsFix> {
    let reference = w.gps_records(StationId::Reference);
    w.gps_records(StationId::Base)
        .into_iter()
        .filter_map(|b| {
            reference
                .iter()
                .map(|r| (skew(b, r), r))
                .filter(|&(s, _)| s <= Warehouse::PAIRING_TOLERANCE)
                .min_by_key(|&(s, r)| (s, r.taken_at))
                .map(|(_, r)| DgpsFix {
                    taken_at: b.taken_at,
                    position_m: b.observed_position_m - r.observed_position_m,
                })
        })
        .collect()
}

/// Fixes as comparable bits: positions must match exactly, not nearly.
fn bits(fixes: &[DgpsFix]) -> Vec<(SimTime, u64)> {
    fixes
        .iter()
        .map(|f| (f.taken_at, f.position_m.to_bits()))
        .collect()
}

fn assert_walk_matches_scan(w: &Warehouse) -> Result<(), TestCaseError> {
    let pairing = w.pairing();
    let expected = quadratic_fixes(w);
    prop_assert_eq!(bits(&pairing.fixes), bits(&expected));
    prop_assert_eq!(pairing.base_readings, w.gps_records(StationId::Base).len());
    prop_assert_eq!(bits(&w.differential_fixes()), bits(&expected));
    Ok(())
}

fn t0() -> SimTime {
    SimTime::from_ymd_hms(2009, 9, 22, 11, 0, 0)
}

fn ingest(w: &mut Warehouse, station: StationId, secs: u64, position: f64) {
    w.ingest(
        station,
        &UploadItem::GpsFile {
            taken_at: t0() + SimDuration::from_secs(secs),
            observed_position_m: position,
            size: Bytes::from_kib(165),
        },
    );
}

const TOL_SECS: u64 = Warehouse::PAIRING_TOLERANCE.as_secs();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Readings on a coarse grid (so timestamps collide within and across
    /// stations, and skews land exactly on the tolerance), with sub-minute
    /// jitter, ingested in the generated — not time — order.
    #[test]
    fn walk_matches_the_scan_on_generated_sets(
        readings in proptest::collection::vec((any::<bool>(), 0u64..40, 0u64..4, -50.0f64..50.0), 0..48)
    ) {
        let mut w = Warehouse::new();
        for (is_base, slot, jitter, position) in readings {
            let station = if is_base { StationId::Base } else { StationId::Reference };
            let secs = slot * 300 + [0, 0, 1, 299][jitter as usize];
            ingest(&mut w, station, secs, position);
        }
        assert_walk_matches_scan(&w)?;
    }
}

#[test]
fn walk_matches_the_scan_on_the_edge_cases() {
    type Case = &'static [(StationId, u64, f64)];
    use StationId::{Base, Reference};
    let cases: [(&str, Case); 7] = [
        (
            "duplicate timestamps, different positions",
            &[
                (Base, 600, 7.0),
                (Base, 600, 8.0),
                (Reference, 600, 2.0),
                (Reference, 600, 3.0),
                (Reference, 900, 1.0),
            ],
        ),
        (
            "skew exactly at the tolerance, and one second past it",
            &[
                (Base, 2 * TOL_SECS, 7.0),
                (Reference, TOL_SECS, 2.0),
                (Base, 10 * TOL_SECS, 7.0),
                (Reference, 11 * TOL_SECS + 1, 2.0),
            ],
        ),
        (
            "equidistant readings before and after",
            &[
                (Base, 1000, 7.0),
                (Reference, 700, 1.0),
                (Reference, 1300, 2.0),
            ],
        ),
        (
            "out-of-order ingest",
            &[
                (Reference, 5000, 1.0),
                (Base, 4800, 6.0),
                (Reference, 100, 2.0),
                (Base, 300, 7.0),
                (Reference, 4700, 3.0),
                (Base, 90, 8.0),
            ],
        ),
        (
            "empty base side",
            &[(Reference, 0, 1.0), (Reference, 60, 2.0)],
        ),
        ("empty reference side", &[(Base, 0, 1.0), (Base, 60, 2.0)]),
        (
            "one reference serves many bases",
            &[
                (Base, 0, 1.0),
                (Base, 300, 2.0),
                (Base, 600, 3.0),
                (Reference, 300, 0.5),
                (Base, 900, 4.0),
            ],
        ),
    ];
    for (name, readings) in cases {
        let mut w = Warehouse::new();
        for &(station, secs, position) in readings {
            ingest(&mut w, station, secs, position);
        }
        if let Err(e) = assert_walk_matches_scan(&w) {
            panic!("{name}: {e}");
        }
    }
    // The tie-break the scan defines: the earlier of two equidistant
    // references, and the first ingested of two simultaneous ones.
    let mut w = Warehouse::new();
    ingest(&mut w, Base, 1000, 7.0);
    ingest(&mut w, Reference, 1300, 2.0);
    ingest(&mut w, Reference, 700, 1.0);
    ingest(&mut w, Reference, 700, 4.0);
    assert_eq!(
        bits(&w.differential_fixes()),
        bits(&[DgpsFix {
            taken_at: t0() + SimDuration::from_secs(1000),
            position_m: 6.0,
        }])
    );
}

#[cfg_attr(debug_assertions, ignore = "slow in debug; run with --release")]
#[test]
fn walk_matches_the_scan_over_a_full_year() {
    let mut d = Scenario::iceland_2008().build();
    d.run_until(SimTime::from_ymd_hms(2009, 10, 1, 0, 0, 0));
    let w = d.server().warehouse();
    let pairing = w.pairing();
    assert!(pairing.fixes.len() > 1_500, "fixes {}", pairing.fixes.len());
    assert_eq!(bits(&pairing.fixes), bits(&quadratic_fixes(w)));
    let base = w.gps_records(StationId::Base).len();
    assert_eq!(
        pairing.yield_fraction(),
        pairing.fixes.len() as f64 / base as f64
    );
    assert_eq!(d.summary().dgps_fixes, pairing.fixes.len());
}
