//! Named electrical loads with per-device energy metering.

use std::cell::Cell;
use std::collections::BTreeMap;

use glacsweb_sim::{Derived, SimDuration, WattHours, Watts};
use serde::{Deserialize, Serialize};

/// Memo of the total switched-on draw, invalidated by every mutation of
/// the on/off pattern. A hit returns the exact `Watts` the last full
/// re-sum produced — the sum is always recomputed whole (same values,
/// same name order), never adjusted incrementally, so the cached
/// bits equal a fresh evaluation's. Derived state: the load set holds
/// it in a [`Derived`].
#[derive(Debug, Clone, Default)]
struct TotalCache(Cell<Option<Watts>>);

/// The set of switchable loads hanging off a station's power rail.
///
/// The Gumsense board's defining feature (§II) is *software-controlled
/// powering of peripherals*: the MSP430 switches the Gumstix, dGPS, and
/// modem rails on and off. `LoadSet` models those switches and meters each
/// device's lifetime energy, which is what the architecture-comparison
/// experiment (E9) reports.
///
/// # Example
///
/// ```
/// use glacsweb_power::LoadSet;
/// use glacsweb_sim::{SimDuration, Watts};
///
/// let mut loads = LoadSet::new();
/// loads.add("gumstix", Watts::from_milliwatts(900.0));
/// loads.add("gprs", Watts::from_milliwatts(2640.0));
/// loads.set_on("gumstix", true);
/// assert_eq!(loads.total_power(), Watts(0.9));
///
/// loads.meter(SimDuration::from_hours(2));
/// assert!((loads.energy("gumstix").unwrap().value() - 1.8).abs() < 1e-9);
/// assert_eq!(loads.energy("gprs").unwrap().value(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadSet {
    /// The devices, sorted by name with no duplicates — the order the
    /// map this replaced iterated in, so sums and snapshots fold the same
    /// values in the same order. A station registers six devices, so the
    /// rail's per-substep `meter` walks one flat slice, and a lookup by
    /// name is a scan of six entries.
    loads: Vec<(String, Load)>,
    total: Derived<TotalCache>,
}

// Hand-written (de)serialization: the pinned wire format leaves the
// `Derived` total out entirely (a derive would write it as `null`). The
// wire shape is the one the derive produced when the devices lived in a
// `BTreeMap<String, Load>`: a map with the single `loads` field holding
// a name-keyed map. Restore goes through that map, so it keeps its
// duplicate-key and error behaviour.
impl Serialize for LoadSet {
    fn stream_to<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        let Self { loads, total: _ } = self;
        sink.map(1);
        sink.str("loads");
        sink.map(loads.len());
        for (name, l) in loads {
            sink.str(name);
            l.stream_to(sink);
        }
    }
}

impl Deserialize for LoadSet {
    fn stream_from<S: serde::Source + ?Sized>(src: &mut S) -> Result<Self, serde::de::Error> {
        let mut loads = None;
        let mut f = serde::de::Fields::read(src, ["loads"], |f, src, _| f.decode(src, &mut loads))?;
        let loads: BTreeMap<String, Load> = f.take(0, loads)?;
        Ok(LoadSet {
            loads: loads.into_iter().collect(),
            total: Derived::default(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Load {
    power: Watts,
    on: bool,
    energy: WattHours,
}

/// A point-in-time view of one load, as returned by [`LoadSet::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSnapshot {
    /// Device name.
    pub name: String,
    /// Rated draw when on.
    pub power: Watts,
    /// Whether the device rail is currently switched on.
    pub on: bool,
    /// Lifetime energy consumed.
    pub energy: WattHours,
}

impl LoadSet {
    /// Creates an empty load set.
    pub fn new() -> Self {
        LoadSet::default()
    }

    /// Registers a device (initially off).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered or the power is negative.
    pub fn add(&mut self, name: impl Into<String>, power: Watts) {
        let name = name.into();
        assert!(power.value() >= 0.0, "load power must be non-negative");
        let found = self
            .loads
            .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()));
        assert!(found.is_err(), "duplicate load {name:?}");
        let (Ok(at) | Err(at)) = found;
        let load = Load {
            power,
            on: false,
            energy: WattHours::ZERO,
        };
        self.loads.insert(at, (name, load));
        self.total.0.set(None);
    }

    fn get(&self, name: &str) -> Option<&Load> {
        self.loads.iter().find(|(n, _)| n == name).map(|(_, l)| l)
    }

    /// Switches a device rail on or off.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown — switching a rail that does not
    /// exist is a wiring bug, not a runtime condition.
    pub fn set_on(&mut self, name: &str, on: bool) {
        let load = self
            .loads
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, l)| l)
            // glacsweb: allow(panic-freedom, reason = "load names are compile-time constants (station::loads); switching an unregistered rail is a wiring bug the simulation must not paper over")
            .unwrap_or_else(|| panic!("unknown load {name:?}"));
        if load.on != on {
            load.on = on;
            self.total.0.set(None);
        }
    }

    /// `true` if the named device rail is on.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    pub fn is_on(&self, name: &str) -> bool {
        self.get(name)
            // glacsweb: allow(panic-freedom, reason = "load names are compile-time constants (station::loads); querying an unregistered rail is a wiring bug the simulation must not paper over")
            .unwrap_or_else(|| panic!("unknown load {name:?}"))
            .on
    }

    /// Total instantaneous draw of all switched-on devices.
    ///
    /// Cached between switching events: the power rail re-reads this
    /// every 60 s substep while the on/off pattern changes only a few
    /// times a day.
    pub fn total_power(&self) -> Watts {
        if let Some(total) = self.total.0.get() {
            return total;
        }
        let total = self
            .loads
            .iter()
            .filter(|(_, l)| l.on)
            .map(|(_, l)| l.power)
            .sum();
        self.total.0.set(Some(total));
        total
    }

    /// Accumulates per-device energy for a period during which the on/off
    /// pattern did not change.
    pub fn meter(&mut self, dt: SimDuration) {
        for (_, load) in &mut self.loads {
            if load.on {
                load.energy += load.power.over(dt);
            }
        }
    }

    /// Lifetime energy of one device, or `None` if unknown.
    pub fn energy(&self, name: &str) -> Option<WattHours> {
        self.get(name).map(|l| l.energy)
    }

    /// Lifetime energy of every device combined.
    pub fn total_energy(&self) -> WattHours {
        self.loads.iter().map(|(_, l)| l.energy).sum()
    }

    /// Snapshot of every registered device, sorted by name.
    pub fn snapshot(&self) -> Vec<LoadSnapshot> {
        self.loads
            .iter()
            .map(|(name, l)| LoadSnapshot {
                // glacsweb: allow(perf-hygiene, reason = "snapshot() is a reporting API for summaries and serialization, not the advance loop")
                name: name.clone(),
                power: l.power,
                on: l.on,
                energy: l.energy,
            })
            .collect()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// `true` if no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Switches every device off (the watchdog's end-of-window action).
    pub fn all_off(&mut self) {
        for (_, load) in &mut self.loads {
            load.on = false;
        }
        self.total.0.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_loads() -> LoadSet {
        let mut l = LoadSet::new();
        l.add("gumstix", Watts::from_milliwatts(900.0));
        l.add("gprs", Watts::from_milliwatts(2640.0));
        l.add("radio_modem", Watts::from_milliwatts(3960.0));
        l.add("gps", Watts::from_milliwatts(3600.0));
        l
    }

    #[test]
    fn total_power_sums_only_on_devices() {
        let mut l = table1_loads();
        assert_eq!(l.total_power(), Watts::ZERO);
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        assert!((l.total_power().value() - 4.5).abs() < 1e-12);
        l.set_on("gps", false);
        assert!((l.total_power().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn metering_accumulates_per_device() {
        let mut l = table1_loads();
        l.set_on("gprs", true);
        l.meter(SimDuration::from_mins(30));
        l.set_on("gprs", false);
        l.set_on("gumstix", true);
        l.meter(SimDuration::from_hours(1));
        assert!((l.energy("gprs").unwrap().value() - 1.32).abs() < 1e-9);
        assert!((l.energy("gumstix").unwrap().value() - 0.9).abs() < 1e-9);
        assert!((l.total_energy().value() - 2.22).abs() < 1e-9);
    }

    #[test]
    fn all_off_kills_every_rail() {
        let mut l = table1_loads();
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        l.all_off();
        assert_eq!(l.total_power(), Watts::ZERO);
        assert!(!l.is_on("gumstix"));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let l = table1_loads();
        let snap = l.snapshot();
        assert_eq!(snap.len(), 4);
        let names: Vec<_> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["gprs", "gps", "gumstix", "radio_modem"]);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
    }

    #[test]
    fn cached_total_matches_fresh_sum_bitwise() {
        let mut l = table1_loads();
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        let fresh: Watts = [
            Watts::from_milliwatts(3600.0),
            Watts::from_milliwatts(900.0),
        ]
        .into_iter()
        .sum();
        // Name order: gps before gumstix.
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        // Hit path returns the same bits.
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        // Redundant switch does not clear the cache; real switch does.
        l.set_on("gps", true);
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        l.set_on("gps", false);
        assert!((l.total_power().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cache_is_invisible_to_equality_and_serde() {
        let a = table1_loads();
        let b = table1_loads();
        let _ = a.total_power();
        assert_eq!(a, b, "cache fill must not affect equality");
        let json = serde_json::to_string(&a).expect("serialize");
        assert!(!json.contains("total"), "cache must not serialize: {json}");
        let back: LoadSet = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, a);
    }

    #[test]
    fn unknown_energy_is_none() {
        let l = table1_loads();
        assert!(l.energy("toaster").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate load")]
    fn rejects_duplicate_names() {
        let mut l = table1_loads();
        l.add("gps", Watts(1.0));
    }

    #[test]
    #[should_panic(expected = "unknown load")]
    fn rejects_unknown_switch() {
        let mut l = table1_loads();
        l.set_on("toaster", true);
    }
}
