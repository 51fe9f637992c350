//! Lead-acid battery model.

use glacsweb_sim::{AmpHours, Amps, Celsius, SimDuration, Volts, WattHours};
use serde::{Deserialize, Serialize};

/// A 12 V-class lead-acid battery bank with coulomb counting, an
/// SoC-dependent open-circuit voltage, internal resistance, an absorption
/// overpotential when charging near full, cold-temperature capacity
/// derating, charging inefficiency and self-discharge.
///
/// Fidelity target: the *terminal voltage trajectory* — the one signal the
/// MSP430 samples every 30 minutes and the Table II policy thresholds
/// (12.5 / 12.0 / 11.5 V) act on — with the diurnal structure of Fig 5:
/// midday charging peaks above 14 V, overnight rest near the open-circuit
/// voltage, and visible sags during two-hourly dGPS readings in state 3.
///
/// # Example
///
/// ```
/// use glacsweb_power::LeadAcidBattery;
/// use glacsweb_sim::{AmpHours, Amps, Celsius, SimDuration, Volts};
///
/// let mut bank = LeadAcidBattery::new(AmpHours(36.0));
/// let v_full = bank.terminal_voltage(Amps(0.0));
/// assert!(v_full > Volts(12.8), "rested full bank: {v_full}");
///
/// // Discharge at 3 A for two hours.
/// bank.step(SimDuration::from_hours(2), Amps(-3.0), Celsius(10.0));
/// assert!(bank.state_of_charge() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeadAcidBattery {
    capacity: AmpHours,
    soc: f64,
    internal_resistance_ohm: f64,
    charge_efficiency: f64,
    /// Fractional self-discharge per month at 20 °C.
    self_discharge_per_month: f64,
    /// Total energy ever discharged (Wh), for reporting.
    discharged: WattHours,
    /// Total energy ever accepted while charging (Wh), for reporting.
    charged: WattHours,
}

impl LeadAcidBattery {
    /// Nominal rail voltage of the bank.
    pub const NOMINAL: Volts = Volts(12.0);

    /// Creates a fully charged bank of the given 20-hour-rate capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    pub fn new(capacity: AmpHours) -> Self {
        Self::with_state(capacity, 1.0)
    }

    /// Creates a bank at a given state of charge.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive or `soc` is outside `[0, 1]`.
    pub fn with_state(capacity: AmpHours, soc: f64) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        assert!((0.0..=1.0).contains(&soc), "soc {soc} out of range");
        LeadAcidBattery {
            capacity,
            soc,
            internal_resistance_ohm: 0.22,
            charge_efficiency: 0.88,
            self_discharge_per_month: 0.04,
            discharged: WattHours::ZERO,
            charged: WattHours::ZERO,
        }
    }

    /// Rated capacity at 25 °C.
    pub fn capacity(&self) -> AmpHours {
        self.capacity
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.soc
    }

    /// `true` once the bank is completely exhausted.
    ///
    /// This is the condition that resets the MSP430's RTC and RAM schedule
    /// (§IV of the paper).
    pub fn is_exhausted(&self) -> bool {
        self.soc <= f64::EPSILON
    }

    /// Total energy delivered to loads over the bank's life.
    pub fn total_discharged(&self) -> WattHours {
        self.discharged
    }

    /// Total energy accepted from chargers over the bank's life.
    pub fn total_charged(&self) -> WattHours {
        self.charged
    }

    /// Rested open-circuit voltage at the current state of charge.
    ///
    /// Linear 11.3 V (flat) → 12.9 V (full). A healthy lead-acid rests
    /// nearer 11.8 V when nominally "empty", but a bank run to true
    /// exhaustion (the §IV scenario) sits lower; the wider span also puts
    /// every Table II threshold (12.5/12.0/11.5 V) inside the rest-voltage
    /// range, as the deployed policy assumes.
    pub fn open_circuit_voltage(&self) -> Volts {
        Volts(11.3 + 1.6 * self.soc)
    }

    /// Terminal voltage under the given current (positive = charging).
    ///
    /// Includes the ohmic drop/rise and, when charging near full, the
    /// absorption overpotential that produces the >14 V midday peaks of
    /// Fig 5.
    pub fn terminal_voltage(&self, current: Amps) -> Volts {
        self.voltage_curve().terminal_voltage(current)
    }

    /// The terminal-voltage curve at the current state of charge.
    ///
    /// The charge controller's taper solve evaluates the terminal voltage
    /// 2–3 times per substep at a *fixed* state of charge (the untapered
    /// check, then the two grid-point predicates of the closed-form fast
    /// path; 24 more on a bisection fallback); the
    /// curve hoists the SoC-dependent terms (open-circuit voltage and
    /// absorption gain) so each evaluation is a handful of flops. The
    /// hoisted terms are whole subexpressions of the original formula,
    /// so results are bit-identical to [`LeadAcidBattery::terminal_voltage`]
    /// computed from scratch.
    pub fn voltage_curve(&self) -> VoltageCurve {
        VoltageCurve {
            ocv: self.open_circuit_voltage().value(),
            // Rises steeply as the bank approaches full.
            absorption_gain: 1.6 * self.soc.powi(8),
            resistance_ohm: self.internal_resistance_ohm,
        }
    }

    /// Effective capacity at the given temperature (lead-acid loses
    /// roughly 0.7 %/°C below 25 °C; clamped at 50 %).
    pub fn effective_capacity(&self, temp: Celsius) -> AmpHours {
        let factor = (1.0 + 0.007 * (temp.value() - 25.0)).clamp(0.5, 1.1);
        AmpHours(self.capacity.value() * factor)
    }

    /// Advances the bank by `dt` at a constant `current` (positive =
    /// charging) and ambient temperature.
    ///
    /// Returns the current actually absorbed/delivered — charging beyond
    /// full and discharging beyond empty are truncated, which is how the
    /// caller detects brown-out.
    pub fn step(&mut self, dt: SimDuration, current: Amps, temp: Celsius) -> Amps {
        let hours = dt.as_hours_f64();
        if hours <= 0.0 {
            return Amps(0.0);
        }
        let cap = self.effective_capacity(temp).value();
        let mut delta_ah = current.value() * hours;
        if delta_ah > 0.0 {
            delta_ah *= self.charge_efficiency;
        }
        // Self-discharge: ~4 %/month scaled by time.
        let leak = self.soc * self.self_discharge_per_month * (hours / (30.0 * 24.0));
        let proposed = self.soc + delta_ah / cap - leak;
        let clamped = proposed.clamp(0.0, 1.0);
        let actual_delta_ah = (clamped - self.soc + leak) * cap;
        self.soc = clamped;
        let v = self.open_circuit_voltage().value();
        if actual_delta_ah >= 0.0 {
            self.charged += WattHours(actual_delta_ah / self.charge_efficiency * v);
        } else {
            self.discharged += WattHours(-actual_delta_ah * v);
        }
        Amps(actual_delta_ah / hours)
    }

    /// Advances the bank by `n_steps` equal steps of `dt` in one call.
    ///
    /// Replays the exact per-step recurrence of [`LeadAcidBattery::step`]
    /// with the step-invariant terms (effective capacity, commanded
    /// charge increment, self-discharge rate) hoisted out of the loop —
    /// each is a whole subexpression of the stepped formula, so the
    /// final state and meters are **bit-identical** to calling `step`
    /// `n_steps` times (asserted by proptests). Returns the current
    /// actually absorbed/delivered over the *final* step, which is what
    /// a stepped caller would have observed last.
    pub fn leap(&mut self, n_steps: u32, dt: SimDuration, current: Amps, temp: Celsius) -> Amps {
        let hours = dt.as_hours_f64();
        if hours <= 0.0 || n_steps == 0 {
            return Amps(0.0);
        }
        let cap = self.effective_capacity(temp).value();
        let mut delta_ah = current.value() * hours;
        if delta_ah > 0.0 {
            delta_ah *= self.charge_efficiency;
        }
        // Whole subexpressions of the per-step formulas, constant across
        // the leap (`hours / (30·24)` and `Δah / cap`).
        let leak_time = hours / (30.0 * 24.0);
        let soc_step = delta_ah / cap;
        let mut last = Amps(0.0);
        for _ in 0..n_steps {
            let leak = self.soc * self.self_discharge_per_month * leak_time;
            let proposed = self.soc + soc_step - leak;
            let clamped = proposed.clamp(0.0, 1.0);
            let actual_delta_ah = (clamped - self.soc + leak) * cap;
            self.soc = clamped;
            let v = self.open_circuit_voltage().value();
            if actual_delta_ah >= 0.0 {
                self.charged += WattHours(actual_delta_ah / self.charge_efficiency * v);
            } else {
                self.discharged += WattHours(-actual_delta_ah * v);
            }
            last = Amps(actual_delta_ah / hours);
        }
        last
    }

    /// Opens a constant-current **sleep glide** anchored at the bank's
    /// current state: the closed-form sleep-window integrator the fleet
    /// kernel leaps on.
    ///
    /// Where [`LeadAcidBattery::leap`] *replays* the stepped recurrence
    /// (bit-identical to `n × step`, but O(n)), a glide *defines* the
    /// sleep trajectory as an exact closed form: the leak and rest
    /// voltage are linearised at the anchor, so the state after `k`
    /// ticks is `clamp(soc₀ + k·δ)` — one multiply-add whatever `k` is.
    /// A per-tick stepper and a whole-window leap evaluate the *same
    /// expression* at `k = 1, 2, …` versus once at `k = n`, which is
    /// what makes leaping bit-identical to ticking **by construction**
    /// rather than by replay. The linearisation is the physics of a
    /// sleeping node: microamp-scale drift over hours moves the state
    /// of charge so little that the leak and OCV are constant to first
    /// order, exactly like the MSP430's own coulomb bookkeeping.
    ///
    /// The glide owns the anchor meters, so committing at `j` and later
    /// at `k > j` leaves the bank bit-identical to committing once at
    /// `k` — mid-window digests and snapshots are safe (asserted by
    /// proptests).
    pub fn glide(&self, dt: SimDuration, current: Amps, temp: Celsius) -> SleepGlide {
        let hours = dt.as_hours_f64();
        let cap = self.effective_capacity(temp).value();
        let mut delta_ah = current.value() * hours;
        if delta_ah > 0.0 {
            delta_ah *= self.charge_efficiency;
        }
        let leak = self.soc * self.self_discharge_per_month * (hours / (30.0 * 24.0));
        let delta = if hours > 0.0 {
            delta_ah / cap - leak
        } else {
            0.0
        };
        let v0 = self.open_circuit_voltage().value();
        // Wh metered per unit of SoC movement, at the anchor rest
        // voltage: gross-of-inefficiency when charging, direct when
        // discharging (leak is part of the net movement).
        let scale = if delta >= 0.0 {
            cap / self.charge_efficiency * v0
        } else {
            cap * v0
        };
        SleepGlide {
            soc0: self.soc,
            charged0: self.charged.value(),
            discharged0: self.discharged.value(),
            delta,
            scale,
        }
    }

    /// Recharges instantly to full — used by scenario setup, not by the
    /// simulation loop.
    pub fn reset_full(&mut self) {
        self.soc = 1.0;
    }

    /// Drains instantly to total exhaustion — the §IV "total exhaustion"
    /// event as a fault-injection hook. The next controller wake sees an
    /// RTC reset and a lost RAM schedule.
    pub fn drain_empty(&mut self) {
        self.soc = 0.0;
    }
}

/// Terminal-voltage curve of a bank at one fixed state of charge.
///
/// Produced by [`LeadAcidBattery::voltage_curve`]; evaluating it is
/// bit-identical to [`LeadAcidBattery::terminal_voltage`] on the bank it
/// was taken from, with the SoC-dependent terms precomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    pub(crate) ocv: f64,
    pub(crate) absorption_gain: f64,
    pub(crate) resistance_ohm: f64,
}

impl VoltageCurve {
    /// Terminal voltage under the given current (positive = charging).
    pub fn terminal_voltage(&self, current: Amps) -> Volts {
        let ohmic = current.value() * self.resistance_ohm;
        let absorption = if current.value() > 0.0 {
            self.absorption_gain * (current.value() / (1.0 + current.value()))
        } else {
            0.0
        };
        Volts((self.ocv + ohmic + absorption).clamp(9.0, 15.0))
    }
}

/// The closed-form trajectory of a bank sleeping at constant current,
/// anchored at one battery state (see [`LeadAcidBattery::glide`]).
///
/// Every accessor is a pure function of the anchor and the tick index
/// `k`, so evaluating the trajectory tick-by-tick and leaping straight
/// to `k = n` produce the same bits — there is no accumulated state to
/// replay. Clamping at empty/full is exact: the affine extrapolation is
/// clamped, which for a constant-sign `δ` equals the iterated clamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepGlide {
    /// State of charge at the anchor.
    soc0: f64,
    /// Charged-energy meter at the anchor, Wh.
    charged0: f64,
    /// Discharged-energy meter at the anchor, Wh.
    discharged0: f64,
    /// Net per-tick SoC movement (efficiency-applied, leak-inclusive).
    delta: f64,
    /// Wh metered per unit of SoC movement, at the anchor rest voltage.
    scale: f64,
}

impl SleepGlide {
    /// State of charge after `k` ticks: `clamp(soc₀ + k·δ)`.
    pub fn soc_at(&self, k: u32) -> f64 {
        (self.soc0 + f64::from(k) * self.delta).clamp(0.0, 1.0)
    }

    /// Charged-energy meter after `k` ticks, Wh. Only a charging glide
    /// (`δ ≥ 0`) moves it; clamping at full truncates it exactly.
    pub fn charged_at(&self, k: u32) -> f64 {
        if self.delta >= 0.0 {
            self.charged0 + (self.soc_at(k) - self.soc0) * self.scale
        } else {
            self.charged0
        }
    }

    /// Discharged-energy meter after `k` ticks, Wh. Only a discharging
    /// glide (`δ < 0`) moves it; clamping at empty truncates it exactly.
    pub fn discharged_at(&self, k: u32) -> f64 {
        if self.delta >= 0.0 {
            self.discharged0
        } else {
            self.discharged0 + (self.soc0 - self.soc_at(k)) * self.scale
        }
    }

    /// Writes the state at tick `k` back into a bank — O(1) for any `k`.
    ///
    /// Commits are *re-derivations from the anchor*, not increments:
    /// `commit(j)` followed by `commit(k)` is bit-identical to a single
    /// `commit(k)`, which is what lets a leap kernel settle a partial
    /// window at a digest/snapshot horizon and keep going.
    pub fn commit(&self, battery: &mut LeadAcidBattery, k: u32) {
        battery.soc = self.soc_at(k);
        battery.charged = WattHours(self.charged_at(k));
        battery.discharged = WattHours(self.discharged_at(k));
    }

    /// The anchor fields as raw bit patterns, in declaration order —
    /// feed for canonical state digests.
    pub fn digest_bits(&self) -> [u64; 5] {
        [
            self.soc0.to_bits(),
            self.charged0.to_bits(),
            self.discharged0.to_bits(),
            self.delta.to_bits(),
            self.scale.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_five_day_depletion_under_gps_load() {
        // §III: 3.6 W continuous drains 36 Ah in ~5 days. Simulate with the
        // full battery model at 12 V nominal and mild temperature.
        let mut b = LeadAcidBattery::new(AmpHours(36.0));
        let mut hours = 0u64;
        while !b.is_exhausted() && hours < 24 * 30 {
            let i = Amps(-3.6 / 12.0);
            b.step(SimDuration::from_hours(1), i, Celsius(25.0));
            hours += 1;
        }
        let days = hours as f64 / 24.0;
        assert!((days - 5.0).abs() < 0.4, "depleted in {days} days");
    }

    #[test]
    fn voltage_tracks_state_of_charge() {
        let full = LeadAcidBattery::with_state(AmpHours(36.0), 1.0);
        let half = LeadAcidBattery::with_state(AmpHours(36.0), 0.5);
        let flat = LeadAcidBattery::with_state(AmpHours(36.0), 0.0);
        assert!(full.open_circuit_voltage() > half.open_circuit_voltage());
        assert!(half.open_circuit_voltage() > flat.open_circuit_voltage());
        assert!((flat.open_circuit_voltage().value() - 11.3).abs() < 1e-9);
        assert!((full.open_circuit_voltage().value() - 12.9).abs() < 1e-9);
    }

    #[test]
    fn policy_thresholds_are_reachable() {
        // The Table II thresholds (12.5/12.0/11.5 V daily average) must all
        // lie inside the model's rest-voltage range so every power state is
        // reachable: 12.5 V at 75 % SoC, 12.0 V at ~44 %, 11.5 V at 12.5 %.
        let b = LeadAcidBattery::with_state(AmpHours(36.0), 0.75);
        assert!((b.open_circuit_voltage().value() - 12.5).abs() < 0.01);
        let low = LeadAcidBattery::with_state(AmpHours(36.0), 0.05);
        let sagged = low.terminal_voltage(Amps(-1.5));
        assert!(sagged < Volts(11.6), "deep discharge under load: {sagged}");
    }

    #[test]
    fn charging_raises_terminal_voltage_above_14_near_full() {
        let b = LeadAcidBattery::with_state(AmpHours(36.0), 0.97);
        let v = b.terminal_voltage(Amps(3.0));
        assert!(v > Volts(14.0), "absorption voltage {v}");
        // But a half-charged bank accepts bulk charge below 14 V.
        let half = LeadAcidBattery::with_state(AmpHours(36.0), 0.5);
        assert!(half.terminal_voltage(Amps(3.0)) < Volts(13.5));
    }

    #[test]
    fn gps_reading_produces_a_visible_dip() {
        // Fig 5: regular dips at 2 h intervals while in state 3. A 0.3 A
        // dGPS draw must sag the terminal voltage measurably.
        let b = LeadAcidBattery::with_state(AmpHours(36.0), 0.8);
        let rest = b.terminal_voltage(Amps(-0.01));
        let reading = b.terminal_voltage(Amps(-0.31));
        assert!(
            rest.value() - reading.value() > 0.05,
            "dip {} -> {}",
            rest,
            reading
        );
    }

    #[test]
    fn cold_reduces_effective_capacity() {
        let b = LeadAcidBattery::new(AmpHours(36.0));
        let warm = b.effective_capacity(Celsius(25.0));
        let cold = b.effective_capacity(Celsius(-15.0));
        assert!((warm.value() - 36.0).abs() < 1e-9);
        assert!(cold.value() < 27.0, "cold capacity {cold}");
        // Extreme cold clamps rather than going to zero.
        assert!(b.effective_capacity(Celsius(-100.0)).value() >= 18.0);
    }

    #[test]
    fn charge_is_truncated_at_full() {
        let mut b = LeadAcidBattery::new(AmpHours(10.0));
        let absorbed = b.step(SimDuration::from_hours(5), Amps(4.0), Celsius(25.0));
        assert!(
            absorbed.value().abs() < 0.05,
            "full bank absorbs ~nothing: {absorbed}"
        );
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn discharge_is_truncated_at_empty() {
        let mut b = LeadAcidBattery::with_state(AmpHours(10.0), 0.05);
        b.step(SimDuration::from_hours(10), Amps(-5.0), Celsius(25.0));
        assert!(b.is_exhausted());
        assert_eq!(b.state_of_charge(), 0.0);
    }

    #[test]
    fn self_discharge_drains_an_idle_bank() {
        let mut b = LeadAcidBattery::new(AmpHours(36.0));
        // Six idle months.
        for _ in 0..(6 * 30 * 24) {
            b.step(SimDuration::from_hours(1), Amps(0.0), Celsius(10.0));
        }
        assert!(b.state_of_charge() < 0.85, "soc {}", b.state_of_charge());
        assert!(b.state_of_charge() > 0.5);
    }

    #[test]
    fn energy_meters_accumulate() {
        let mut b = LeadAcidBattery::with_state(AmpHours(36.0), 0.5);
        b.step(SimDuration::from_hours(2), Amps(-1.0), Celsius(25.0));
        assert!(b.total_discharged().value() > 20.0);
        b.step(SimDuration::from_hours(2), Amps(1.0), Celsius(25.0));
        assert!(b.total_charged().value() > 20.0);
    }

    #[test]
    #[should_panic(expected = "soc 1.5 out of range")]
    fn rejects_bad_soc() {
        let _ = LeadAcidBattery::with_state(AmpHours(36.0), 1.5);
    }

    #[test]
    fn voltage_curve_matches_terminal_voltage_bitwise() {
        for soc in [0.0, 0.12, 0.5, 0.93, 1.0] {
            let b = LeadAcidBattery::with_state(AmpHours(36.0), soc);
            let curve = b.voltage_curve();
            for i in [-4.0, -0.31, -0.01, 0.0, 0.05, 1.7, 5.0] {
                assert_eq!(
                    curve.terminal_voltage(Amps(i)).value().to_bits(),
                    b.terminal_voltage(Amps(i)).value().to_bits(),
                    "soc {soc} current {i}"
                );
            }
        }
    }

    #[test]
    fn glide_is_anchored_at_the_current_state() {
        let b = LeadAcidBattery::with_state(AmpHours(36.0), 0.62);
        let g = b.glide(SimDuration::from_mins(10), Amps(-0.01), Celsius(-5.0));
        assert_eq!(g.soc_at(0).to_bits(), 0.62f64.to_bits());
        assert_eq!(
            g.charged_at(0).to_bits(),
            b.total_charged().value().to_bits()
        );
        assert!(g.soc_at(144) < 0.62, "a net drain glides downward");
    }

    #[test]
    fn glide_clamps_exactly_at_empty_and_full() {
        let low = LeadAcidBattery::with_state(AmpHours(10.0), 0.02);
        let g = low.glide(SimDuration::from_mins(10), Amps(-3.0), Celsius(25.0));
        assert_eq!(g.soc_at(10_000), 0.0, "drain clamps at empty");
        let hi = LeadAcidBattery::with_state(AmpHours(10.0), 0.99);
        let gc = hi.glide(SimDuration::from_mins(10), Amps(3.0), Celsius(25.0));
        assert_eq!(gc.soc_at(10_000), 1.0, "charge clamps at full");
        // Meters truncate with the clamp: no energy flows past the rail.
        assert_eq!(
            gc.charged_at(10_000).to_bits(),
            gc.charged_at(20_000).to_bits()
        );
    }

    #[test]
    fn glide_cold_capacity_slows_the_slide() {
        let b = LeadAcidBattery::with_state(AmpHours(36.0), 0.8);
        let warm = b.glide(SimDuration::from_mins(10), Amps(-0.1), Celsius(25.0));
        let cold = b.glide(SimDuration::from_mins(10), Amps(-0.1), Celsius(-20.0));
        // Same amp-hours out of a smaller effective bank: SoC falls faster.
        assert!(cold.soc_at(144) < warm.soc_at(144));
    }

    proptest! {
        /// `commit(j)` then `commit(k)` from the same glide leaves the
        /// bank bit-identical to a single `commit(k)` — the property
        /// that makes mid-window digest/snapshot horizons safe.
        #[test]
        fn glide_commits_are_path_independent(
            soc0 in 0.0f64..1.0,
            current in -3.0f64..3.0,
            temp in -30.0f64..30.0,
            j in 0u32..500,
            extra in 0u32..500,
        ) {
            let anchor = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            let g = anchor.glide(SimDuration::from_mins(10), Amps(current), Celsius(temp));
            let k = j + extra;
            let mut direct = anchor.clone();
            g.commit(&mut direct, k);
            let mut staged = anchor.clone();
            g.commit(&mut staged, j);
            g.commit(&mut staged, k);
            prop_assert_eq!(
                direct.state_of_charge().to_bits(),
                staged.state_of_charge().to_bits()
            );
            prop_assert_eq!(
                direct.total_charged().value().to_bits(),
                staged.total_charged().value().to_bits()
            );
            prop_assert_eq!(
                direct.total_discharged().value().to_bits(),
                staged.total_discharged().value().to_bits()
            );
        }

        /// Glide invariants: SoC stays in `[0, 1]`, both lifetime meters
        /// are monotone in `k`, and only one of them ever moves.
        #[test]
        fn glide_meters_are_monotone_and_exclusive(
            soc0 in 0.0f64..1.0,
            current in -3.0f64..3.0,
            temp in -30.0f64..30.0,
            k in 1u32..2000,
        ) {
            let b = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            let g = b.glide(SimDuration::from_mins(10), Amps(current), Celsius(temp));
            prop_assert!((0.0..=1.0).contains(&g.soc_at(k)));
            prop_assert!(g.charged_at(k) >= g.charged_at(k - 1));
            prop_assert!(g.discharged_at(k) >= g.discharged_at(k - 1));
            let charged_moved = g.charged_at(k) > g.charged_at(0);
            let discharged_moved = g.discharged_at(k) > g.discharged_at(0);
            prop_assert!(!(charged_moved && discharged_moved));
        }

        /// Over short windows the glide tracks the stepped integrator
        /// closely (the linearisation is first-order in the leak): the
        /// physics check that a glide is `step` with a frozen leak, not
        /// a different battery.
        #[test]
        fn glide_tracks_step_over_short_windows(
            soc0 in 0.1f64..0.9,
            current in -0.05f64..0.05,
            temp in -20.0f64..20.0,
            n in 1u32..144,
        ) {
            let anchor = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            let g = anchor.glide(SimDuration::from_mins(10), Amps(current), Celsius(temp));
            let mut stepped = anchor.clone();
            for _ in 0..n {
                stepped.step(SimDuration::from_mins(10), Amps(current), Celsius(temp));
            }
            prop_assert!(
                (g.soc_at(n) - stepped.state_of_charge()).abs() < 1e-4,
                "glide {} vs stepped {} after {} ticks",
                g.soc_at(n),
                stepped.state_of_charge(),
                n
            );
        }
    }

    proptest! {
        /// `leap(n)` leaves the bank (state and lifetime meters)
        /// bit-identical to `n × step` — the battery-integration leg of
        /// the kernel's leap-equivalence contract.
        #[test]
        fn leap_equals_n_steps(
            soc0 in 0.0f64..1.0,
            current in -5.0f64..5.0,
            secs in 1u64..7200,
            temp in -30.0f64..30.0,
            n in 0u32..200,
        ) {
            let mut leaper = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            let mut stepper = leaper.clone();
            let dt = SimDuration::from_secs(secs);
            let last_leap = leaper.leap(n, dt, Amps(current), Celsius(temp));
            let mut last_step = Amps(0.0);
            for _ in 0..n {
                last_step = stepper.step(dt, Amps(current), Celsius(temp));
            }
            prop_assert_eq!(
                leaper.state_of_charge().to_bits(),
                stepper.state_of_charge().to_bits()
            );
            prop_assert_eq!(
                leaper.total_charged().value().to_bits(),
                stepper.total_charged().value().to_bits()
            );
            prop_assert_eq!(
                leaper.total_discharged().value().to_bits(),
                stepper.total_discharged().value().to_bits()
            );
            prop_assert_eq!(last_leap.value().to_bits(), last_step.value().to_bits());
        }

        /// SoC stays in [0,1] and voltage stays in the clamp range under
        /// arbitrary step sequences.
        #[test]
        fn invariants_under_random_steps(
            steps in proptest::collection::vec((-5.0f64..5.0, 0u64..7200, -30.0f64..30.0), 1..100),
            soc0 in 0.0f64..1.0,
        ) {
            let mut b = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            for (i, secs, temp) in steps {
                b.step(SimDuration::from_secs(secs), Amps(i), Celsius(temp));
                prop_assert!((0.0..=1.0).contains(&b.state_of_charge()));
                let v = b.terminal_voltage(Amps(i));
                prop_assert!(v >= Volts(9.0) && v <= Volts(15.0));
            }
        }

        /// Charging never decreases SoC; discharging never increases it
        /// (ignoring the tiny self-discharge term by bounding step size).
        #[test]
        fn monotone_response(soc0 in 0.05f64..0.95, i in 0.1f64..5.0) {
            let mut b = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            b.step(SimDuration::from_mins(10), Amps(i), Celsius(10.0));
            prop_assert!(b.state_of_charge() >= soc0 - 1e-6);
            let mut b2 = LeadAcidBattery::with_state(AmpHours(36.0), soc0);
            b2.step(SimDuration::from_mins(10), Amps(-i), Celsius(10.0));
            prop_assert!(b2.state_of_charge() <= soc0 + 1e-9);
        }
    }
}
