//! The data warehouse: everything the stations send home.

use std::collections::BTreeMap;

use glacsweb_probe::{ProbeId, ProbeReading};
use glacsweb_sim::{Bytes, SimDuration, SimTime, TimeSeries};
use glacsweb_station::{StationId, UploadItem};
use serde::{Deserialize, Serialize};

/// One raw dGPS observation as received.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsRecord {
    /// Station that took it.
    pub station: StationId,
    /// Recording start time.
    pub taken_at: SimTime,
    /// Single-receiver observed position, metres.
    pub observed_position_m: f64,
    /// File size.
    pub size: Bytes,
}

/// A differential fix produced by pairing a base reading with a
/// simultaneous reference reading.
///
/// §II: "In order to dramatically improve the accuracy of the position fix
/// of a mobile object a simultaneous dGPS recording for a known location
/// is needed." §III: "the readings from one station are less useful than
/// when readings for both stations are available" — which is the entire
/// reason the reading schedules are kept in sync.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DgpsFix {
    /// When the paired readings were taken.
    pub taken_at: SimTime,
    /// Differentially corrected down-flow position, metres.
    pub position_m: f64,
}

/// The outcome of one dGPS pairing pass ([`Warehouse::pairing`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    /// The differential fixes, in base-reading time order.
    pub fixes: Vec<DgpsFix>,
    /// Base readings the fixes were paired from.
    pub base_readings: usize,
}

impl Pairing {
    /// Fraction of base readings that could be differentially corrected
    /// (0 when there are none).
    pub fn yield_fraction(&self) -> f64 {
        if self.base_readings == 0 {
            return 0.0;
        }
        self.fixes.len() as f64 / self.base_readings as f64
    }
}

/// Everything received from the field.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Warehouse {
    gps: Vec<GpsRecord>,
    probe_readings: BTreeMap<ProbeId, Vec<ProbeReading>>,
    sensor_samples: u64,
    logs_received: u64,
    log_bytes: Bytes,
    total_items: u64,
}

impl Warehouse {
    /// Maximum skew between base and reference readings that still counts
    /// as "simultaneous" for a differential fix.
    pub const PAIRING_TOLERANCE: SimDuration = SimDuration::from_mins(10);

    /// Creates an empty warehouse.
    pub fn new() -> Self {
        Warehouse::default()
    }

    /// Ingests one upload item.
    pub fn ingest(&mut self, from: StationId, item: &UploadItem) {
        self.total_items += 1;
        match item {
            UploadItem::GpsFile {
                taken_at,
                observed_position_m,
                size,
            } => self.gps.push(GpsRecord {
                station: from,
                taken_at: *taken_at,
                observed_position_m: *observed_position_m,
                size: *size,
            }),
            UploadItem::ProbeData(readings) => {
                for r in readings {
                    self.probe_readings.entry(r.probe_id).or_default().push(*r);
                }
            }
            UploadItem::SensorData { samples, .. } => self.sensor_samples += samples,
            UploadItem::SystemLog { size, .. } => {
                self.logs_received += 1;
                self.log_bytes += *size;
            }
        }
    }

    /// Raw GPS records from one station, time-ordered.
    pub fn gps_records(&self, station: StationId) -> Vec<&GpsRecord> {
        let mut v: Vec<&GpsRecord> = self.gps.iter().filter(|g| g.station == station).collect();
        v.sort_by_key(|g| g.taken_at);
        v
    }

    /// Produces differential fixes by pairing base readings with the
    /// **nearest** reference reading within
    /// [`Warehouse::PAIRING_TOLERANCE`] — nearest, not first: when two
    /// reference readings both fall inside the window (a pair straddling
    /// midnight, or a reference in a lower power state whose sparse
    /// schedule drifts against the base's), the smaller skew gives the
    /// better common-mode cancellation. Ties break toward the earlier
    /// reference, then toward the first ingested among equal timestamps,
    /// so the choice is deterministic. A reference reading may serve
    /// several base readings (a reference held in state 1 takes one
    /// reading a day; every base reading within tolerance of it still
    /// corrects against it).
    pub fn differential_fixes(&self) -> Vec<DgpsFix> {
        self.pairing().fixes
    }

    /// The fixes of [`Warehouse::differential_fixes`] together with the
    /// number of base readings they were paired from, in one pass.
    ///
    /// Both sides come time-sorted (stably, so equal timestamps keep their
    /// ingest order), which makes this a two-pointer walk: `lo` is the
    /// first reference not too early for the current base reading, and
    /// only moves forward. From there the skew shrinks up to the base
    /// reading's own instant and grows after it, so the scan stops at the
    /// first reference at or past that instant. A strict `<` keeps the
    /// first of equally near references, which is the tie-break above.
    pub fn pairing(&self) -> Pairing {
        let base = self.gps_records(StationId::Base);
        let reference = self.gps_records(StationId::Reference);
        let mut fixes = Vec::new();
        let mut lo = 0;
        for b in &base {
            while reference.get(lo).is_some_and(|r| {
                r.taken_at < b.taken_at && Self::pairing_skew(b, r) > Self::PAIRING_TOLERANCE
            }) {
                lo += 1;
            }
            let mut nearest: Option<(SimDuration, &GpsRecord)> = None;
            for r in reference.iter().skip(lo) {
                let skew = Self::pairing_skew(b, r);
                if skew > Self::PAIRING_TOLERANCE {
                    break;
                }
                if nearest.is_none_or(|(best, _)| skew < best) {
                    nearest = Some((skew, r));
                }
                if r.taken_at >= b.taken_at {
                    break;
                }
            }
            if let Some((_, r)) = nearest {
                // Differential correction: the reference knows its true
                // position is 0, so its observed error corrects the base.
                fixes.push(DgpsFix {
                    taken_at: b.taken_at,
                    position_m: b.observed_position_m - r.observed_position_m,
                });
            }
        }
        Pairing {
            fixes,
            base_readings: base.len(),
        }
    }

    /// Absolute skew between a base and a reference reading.
    ///
    /// `SimTime::saturating_since` clamps a negative difference to zero,
    /// so the later reading must be the receiver on *both* branches —
    /// subtracting in the wrong direction would report a zero skew for
    /// any out-of-order pair and pair readings hours apart.
    fn pairing_skew(b: &GpsRecord, r: &GpsRecord) -> SimDuration {
        if r.taken_at > b.taken_at {
            r.taken_at.saturating_since(b.taken_at)
        } else {
            b.taken_at.saturating_since(r.taken_at)
        }
    }

    /// Fraction of base readings that could be differentially corrected —
    /// the figure of merit of the §III synchronisation design.
    pub fn pairing_yield(&self) -> f64 {
        self.pairing().yield_fraction()
    }

    /// Probes that have delivered any data.
    pub fn probes_reporting(&self) -> Vec<ProbeId> {
        self.probe_readings.keys().copied().collect()
    }

    /// Readings received across all probes.
    pub fn probe_reading_count(&self) -> usize {
        self.probe_readings.values().map(Vec::len).sum()
    }

    /// All readings from one probe, time-ordered.
    pub fn probe_series(&self, probe: ProbeId) -> Vec<&ProbeReading> {
        let mut v: Vec<&ProbeReading> = self
            .probe_readings
            .get(&probe)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        v.sort_by_key(|r| r.time);
        v
    }

    /// The Fig 6 product: a conductivity time series for one probe.
    pub fn conductivity_series(&self, probe: ProbeId) -> TimeSeries {
        let mut s = TimeSeries::new(format!("probe {probe} conductivity (uS)"));
        for r in self.probe_series(probe) {
            s.push(r.time, r.conductivity_us);
        }
        s
    }

    /// Subglacial water-pressure series for one probe, kPa — the other
    /// half of the §I stick-slip analysis.
    pub fn pressure_series(&self, probe: ProbeId) -> TimeSeries {
        let mut s = TimeSeries::new(format!("probe {probe} pressure (kPa)"));
        for r in self.probe_series(probe) {
            s.push(r.time, r.pressure_kpa);
        }
        s
    }

    /// Case-tilt series for one probe, degrees (till-deformation studies).
    pub fn tilt_series(&self, probe: ProbeId) -> TimeSeries {
        let mut s = TimeSeries::new(format!("probe {probe} tilt (deg)"));
        for r in self.probe_series(probe) {
            s.push(r.time, r.tilt_deg);
        }
        s
    }

    /// Totals: (upload items, sensor samples, logs, log bytes).
    pub fn totals(&self) -> (u64, u64, u64, Bytes) {
        (
            self.total_items,
            self.sensor_samples,
            self.logs_received,
            self.log_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gps_item(taken_at: SimTime, pos: f64) -> UploadItem {
        UploadItem::GpsFile {
            taken_at,
            observed_position_m: pos,
            size: Bytes::from_kib(165),
        }
    }

    fn t(h: u32, m: u32) -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, h, m, 0)
    }

    #[test]
    fn pairs_simultaneous_readings_into_fixes() {
        let mut w = Warehouse::new();
        // Base observes truth 5.0 with +2.0 common-mode error; reference
        // (truth 0) observes +2.0 as well → fix recovers 5.0.
        w.ingest(StationId::Base, &gps_item(t(0, 30), 7.0));
        w.ingest(StationId::Reference, &gps_item(t(0, 30), 2.0));
        // An unpaired base reading (reference was in a lower state).
        w.ingest(StationId::Base, &gps_item(t(2, 30), 7.5));
        let fixes = w.differential_fixes();
        assert_eq!(fixes.len(), 1);
        assert!((fixes[0].position_m - 5.0).abs() < 1e-9);
        assert!((w.pairing_yield() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pairing_respects_the_tolerance() {
        let mut w = Warehouse::new();
        w.ingest(StationId::Base, &gps_item(t(0, 30), 1.0));
        w.ingest(StationId::Reference, &gps_item(t(0, 39), 0.5));
        assert_eq!(w.differential_fixes().len(), 1, "9 min skew pairs");
        let mut w2 = Warehouse::new();
        w2.ingest(StationId::Base, &gps_item(t(0, 30), 1.0));
        w2.ingest(StationId::Reference, &gps_item(t(0, 41), 0.5));
        assert_eq!(w2.differential_fixes().len(), 0, "11 min skew does not");
    }

    #[test]
    fn pairing_picks_the_nearest_reference_not_the_first() {
        // Two references inside the window: the scan order (time-sorted)
        // meets the 9-minute-early one first, but the 1-minute-late one
        // is the better simultaneous pair. Pre-fix, `find` returned the
        // first within tolerance and the fix inherited the wrong
        // common-mode error.
        let mut w = Warehouse::new();
        w.ingest(StationId::Base, &gps_item(t(0, 30), 7.0));
        w.ingest(StationId::Reference, &gps_item(t(0, 21), 9.0));
        w.ingest(StationId::Reference, &gps_item(t(0, 31), 2.0));
        let fixes = w.differential_fixes();
        assert_eq!(fixes.len(), 1);
        assert!(
            (fixes[0].position_m - 5.0).abs() < 1e-9,
            "paired against the 1-minute reference, not the 9-minute one"
        );
    }

    #[test]
    fn pairing_straddles_a_day_boundary() {
        // Base reads just after midnight; candidate references sit just
        // before midnight (previous civil day) and a little later the
        // same morning. Day boundaries mean nothing to the skew — the
        // 7-minute cross-midnight reference wins over the 9-minute
        // same-day one.
        let mut w = Warehouse::new();
        let base_at = SimTime::from_ymd_hms(2009, 9, 23, 0, 2, 0);
        let cross_midnight = SimTime::from_ymd_hms(2009, 9, 22, 23, 55, 0);
        let same_day = SimTime::from_ymd_hms(2009, 9, 23, 0, 11, 0);
        w.ingest(StationId::Base, &gps_item(base_at, 7.0));
        w.ingest(StationId::Reference, &gps_item(same_day, 9.0));
        w.ingest(StationId::Reference, &gps_item(cross_midnight, 2.0));
        let fixes = w.differential_fixes();
        assert_eq!(fixes.len(), 1);
        assert!(
            (fixes[0].position_m - 5.0).abs() < 1e-9,
            "the cross-midnight reference is nearer and must win"
        );
    }

    #[test]
    fn low_power_reference_serves_every_base_reading_within_tolerance() {
        // Reference in a lower power state takes one reading; two base
        // readings fall within tolerance on either side of it. Both must
        // pair (against the same reference), with the right skews.
        let mut w = Warehouse::new();
        w.ingest(StationId::Base, &gps_item(t(12, 22), 7.0));
        w.ingest(StationId::Base, &gps_item(t(12, 38), 8.0));
        w.ingest(StationId::Reference, &gps_item(t(12, 30), 2.0));
        let fixes = w.differential_fixes();
        assert_eq!(fixes.len(), 2, "one reference corrects both");
        assert!((fixes[0].position_m - 5.0).abs() < 1e-9);
        assert!((fixes[1].position_m - 6.0).abs() < 1e-9);
    }

    #[test]
    fn pairing_skew_is_symmetric_in_both_directions() {
        // Pins the `saturating_since` direction on both branches: the
        // later reading is always the receiver, so reference-after-base
        // and base-after-reference report the same magnitude (a wrong
        // direction saturates to zero and pairs anything).
        let mk = |at: SimTime| GpsRecord {
            station: StationId::Base,
            taken_at: at,
            observed_position_m: 0.0,
            size: Bytes::from_kib(165),
        };
        let early = mk(t(1, 0));
        let late = mk(t(1, 9));
        assert_eq!(
            Warehouse::pairing_skew(&early, &late),
            SimDuration::from_mins(9)
        );
        assert_eq!(
            Warehouse::pairing_skew(&late, &early),
            SimDuration::from_mins(9)
        );
        assert_eq!(
            Warehouse::pairing_skew(&early, &early),
            SimDuration::from_secs(0)
        );
        // The regression the direction audit guards against: an hours-
        // apart pair must never report a zero skew.
        let far = mk(t(5, 0));
        assert!(Warehouse::pairing_skew(&early, &far) > Warehouse::PAIRING_TOLERANCE);
        assert!(Warehouse::pairing_skew(&far, &early) > Warehouse::PAIRING_TOLERANCE);
    }

    #[test]
    fn probe_readings_accumulate_per_probe() {
        let mut w = Warehouse::new();
        let mk = |probe_id, seq, cond| ProbeReading {
            probe_id,
            seq,
            time: t(0, 0) + SimDuration::from_hours(seq),
            conductivity_us: cond,
            pressure_kpa: 600.0,
            tilt_deg: 1.0,
            temp_c: -0.4,
        };
        w.ingest(
            StationId::Base,
            &UploadItem::ProbeData(vec![mk(21, 1, 2.0), mk(24, 1, 3.0)]),
        );
        w.ingest(
            StationId::Base,
            &UploadItem::ProbeData(vec![mk(21, 2, 2.5)]),
        );
        assert_eq!(w.probes_reporting(), vec![21, 24]);
        let series = w.conductivity_series(21);
        assert_eq!(series.len(), 2);
        assert_eq!(w.probe_series(24).len(), 1);
        assert!(w.conductivity_series(99).is_empty());
        assert_eq!(w.pressure_series(21).len(), 2);
        assert_eq!(w.tilt_series(24).len(), 1);
        assert!((w.pressure_series(21).stats().mean - 600.0).abs() < 1e-9);
    }

    #[test]
    fn totals_track_everything() {
        let mut w = Warehouse::new();
        w.ingest(
            StationId::Base,
            &UploadItem::SensorData {
                samples: 48,
                size: Bytes::from_kib(1),
            },
        );
        w.ingest(
            StationId::Base,
            &UploadItem::SystemLog {
                size: Bytes::from_kib(10),
                special_results: vec![],
            },
        );
        let (items, sensors, logs, log_bytes) = w.totals();
        assert_eq!(items, 2);
        assert_eq!(sensors, 48);
        assert_eq!(logs, 1);
        assert_eq!(log_bytes, Bytes::from_kib(10));
    }

    #[test]
    fn empty_warehouse_yields_nothing() {
        let w = Warehouse::new();
        assert_eq!(w.pairing_yield(), 0.0);
        assert!(w.differential_fixes().is_empty());
        assert!(w.probes_reporting().is_empty());
    }
}
