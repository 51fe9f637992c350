//! Interior-mutable memos for separable environment terms.
//!
//! Several deterministic environment quantities factor into a per-day
//! part (driven by `day_of_year`, two Hinnant civil-date conversions and
//! a transcendental or two) and a per-second-of-day part (driven by
//! `seconds_of_day`, one modulo). The simulation evaluates them at
//! every power-rail substep — ~1440 times per station per day — while
//! the inputs only take 1 (day) and 86 400 (second-of-day) distinct
//! values. These memos capture **whole subexpressions** exactly as the
//! models compute them: a hit returns the very bits a fresh evaluation
//! would produce, so trajectories are bit-identical with or without the
//! cache (asserted by the golden-trajectory test).
//!
//! All types use interior mutability (`Cell`/`RefCell`, never wall-clock
//! or hashing — see the `glacsweb-analyze` determinism rule) so read
//! paths keep `&self`. Owners hold them in [`Derived`], which keeps the
//! contents out of equality and snapshots.
//!
//! [`Derived`]: glacsweb_sim::Derived

use std::cell::{Cell, RefCell};

/// Sentinel day key meaning "nothing memoised yet".
const NO_DAY: u64 = u64::MAX;

/// Seconds-of-day domain size.
const SOD: usize = 86_400;

/// One-slot memo for a scalar that is constant within a civil day.
#[derive(Debug, Clone)]
pub(crate) struct DayCell {
    day: Cell<u64>,
    value: Cell<f64>,
}

impl Default for DayCell {
    fn default() -> Self {
        DayCell {
            day: Cell::new(NO_DAY),
            value: Cell::new(0.0),
        }
    }
}

impl DayCell {
    /// The memoised value for `day` (days since the epoch), computing it
    /// with `f` on the first request of each new day.
    pub(crate) fn get_or(&self, day: u64, f: impl FnOnce() -> f64) -> f64 {
        if self.day.get() != day {
            self.value.set(f());
            self.day.set(day);
        }
        self.value.get()
    }
}

/// One-slot memo for a pair of scalars constant within a civil day
/// (e.g. the solar declination products `A = sin φ · sin δ` and
/// `B = cos φ · cos δ`).
#[derive(Debug, Clone)]
pub(crate) struct DayPair {
    day: Cell<u64>,
    values: Cell<(f64, f64)>,
}

impl Default for DayPair {
    fn default() -> Self {
        DayPair {
            day: Cell::new(NO_DAY),
            values: Cell::new((0.0, 0.0)),
        }
    }
}

impl DayPair {
    /// The memoised pair for `day`, computing it with `f` on the first
    /// request of each new day.
    pub(crate) fn get_or(&self, day: u64, f: impl FnOnce() -> (f64, f64)) -> (f64, f64) {
        if self.day.get() != day {
            self.values.set(f());
            self.day.set(day);
        }
        self.values.get()
    }
}

/// Lazily filled table for a value that depends only on the second of
/// the day (86 400 slots, NaN = unfilled).
///
/// The closure must be a pure function of `sod` that never returns NaN;
/// every deterministic diurnal term here (cosine of the hour angle,
/// diurnal temperature swing) satisfies both.
#[derive(Debug, Clone)]
pub(crate) struct SodTable {
    values: RefCell<Vec<f64>>,
}

impl Default for SodTable {
    fn default() -> Self {
        SodTable {
            values: RefCell::new(Vec::new()),
        }
    }
}

impl SodTable {
    /// The memoised value for `sod` seconds past midnight, computing it
    /// with `f` on first access. The table itself is allocated on the
    /// first call so unused environments stay small.
    pub(crate) fn get_or(&self, sod: u64, f: impl FnOnce() -> f64) -> f64 {
        let mut values = self.values.borrow_mut();
        if values.is_empty() {
            values.resize(SOD, f64::NAN);
        }
        let idx = usize::try_from(sod).unwrap_or(0).min(SOD - 1);
        let cached = values[idx];
        if cached.is_nan() {
            let fresh = f();
            values[idx] = fresh;
            fresh
        } else {
            cached
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_cell_memoises_per_day() {
        let cell = DayCell::default();
        let mut calls = 0;
        let mut probe = |day| {
            cell.get_or(day, || {
                calls += 1;
                day as f64 * 2.0
            })
        };
        assert_eq!(probe(10), 20.0);
        assert_eq!(probe(10), 20.0);
        assert_eq!(probe(11), 22.0);
        assert_eq!(calls, 2);
    }

    #[test]
    fn day_pair_memoises_per_day() {
        let pair = DayPair::default();
        let (a, b) = pair.get_or(3, || (1.5, 2.5));
        assert_eq!((a, b), (1.5, 2.5));
        // A hit must not re-run the closure.
        let (a, b) = pair.get_or(3, || unreachable!());
        assert_eq!((a, b), (1.5, 2.5));
    }

    #[test]
    fn sod_table_returns_identical_bits() {
        let table = SodTable::default();
        let f = |sod: u64| (sod as f64 / 3600.0).cos();
        let first = table.get_or(4321, || f(4321));
        let hit = table.get_or(4321, || unreachable!());
        assert_eq!(first.to_bits(), hit.to_bits());
        assert_eq!(first.to_bits(), f(4321).to_bits());
    }

    #[test]
    fn sod_table_handles_domain_edges() {
        let table = SodTable::default();
        assert_eq!(table.get_or(0, || 1.0), 1.0);
        assert_eq!(table.get_or(86_399, || 2.0), 2.0);
    }
}
