//! The power rail: battery + chargers + loads integrated over time.

use std::cell::Cell;

use glacsweb_env::Environment;
use glacsweb_sim::{Amps, Celsius, SimDuration, SimTime, Volts, WattHours, Watts};
use serde::{de, Deserialize, Serialize, Value};

use crate::battery::LeadAcidBattery;
use crate::charger::{controller_taper, Charger};
use crate::load::LoadSet;

/// Memo of the last taper solve, keyed by the exact bit patterns of its
/// inputs (raw charger power and the battery's [`VoltageCurve`]
/// coefficients). A hit returns the exact `Watts` the last full bisection
/// produced for identical inputs — the solve is deterministic, so the
/// cached bits equal a fresh evaluation's. This pays off on the
/// mains-charged reference station, whose raw input (a constant 30 W) and
/// state of charge (pinned at full) repeat for weeks of sub-steps at a
/// time. Derived state: invisible to clones-for-comparison via the
/// always-equal `PartialEq` below.
///
/// [`VoltageCurve`]: crate::VoltageCurve
#[derive(Debug, Clone, Default)]
struct TaperMemo(Cell<Option<([u64; 4], f64)>>);

impl TaperMemo {
    fn get(&self, key: [u64; 4]) -> Option<Watts> {
        match self.0.get() {
            Some((k, w)) if k == key => Some(Watts(w)),
            _ => None,
        }
    }

    fn put(&self, key: [u64; 4], w: Watts) {
        self.0.set(Some((key, w.value())));
    }
}

impl PartialEq for TaperMemo {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

/// One station's complete power system.
///
/// The simulation loop advances the rail between events with
/// [`PowerRail::advance`]; the MSP430 model samples
/// [`PowerRail::measured_voltage`] every thirty minutes — the exact signal
/// the paper's Table II policy consumes.
#[derive(Debug, Clone)]
pub struct PowerRail {
    battery: LeadAcidBattery,
    chargers: Vec<Charger>,
    /// Per-charger harvested energy, aligned with `chargers`.
    harvest_by: Vec<WattHours>,
    loads: LoadSet,
    now: SimTime,
    harvested: WattHours,
    /// Seconds of brown-out (load demanded but battery empty).
    brownout_secs: u64,
    /// Scratch buffer of per-charger outputs for the current sub-step,
    /// aligned with `chargers` — feeds the taper input, the harvest total
    /// and the per-source apportionment from one evaluation, and carries
    /// the day-constant outputs from sub-step to sub-step within one
    /// `advance` call. Derived state, reused to avoid per-step
    /// allocation.
    output_buf: Vec<f64>,
    /// Single-entry memo of the last taper solve (see [`TaperMemo`]).
    taper: TaperMemo,
}

/// Equality ignores the scratch buffer and the taper memo: both are
/// derived per-sub-step state, rebuilt on the next `advance`, and a
/// freshly restored rail must compare equal to the one it was saved from.
impl PartialEq for PowerRail {
    fn eq(&self, other: &Self) -> bool {
        self.battery == other.battery
            && self.chargers == other.chargers
            && self.harvest_by == other.harvest_by
            && self.loads == other.loads
            && self.now == other.now
            && self.harvested == other.harvested
            && self.brownout_secs == other.brownout_secs
    }
}

// Hand-written (de)serialization, following the `LoadSet` precedent: the
// scratch output buffer and the taper memo are derived state and must not
// appear on the wire. Restore re-checks the `chargers`/`harvest_by`
// alignment invariant that `add_charger` maintains.
impl Serialize for PowerRail {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
            (Value::Str("battery".to_string()), self.battery.to_value()),
            // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
            (Value::Str("chargers".to_string()), self.chargers.to_value()),
            (
                // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
                Value::Str("harvest_by".to_string()),
                self.harvest_by.to_value(),
            ),
            // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
            (Value::Str("loads".to_string()), self.loads.to_value()),
            // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
            (Value::Str("now".to_string()), self.now.to_value()),
            (
                // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
                Value::Str("harvested".to_string()),
                self.harvested.to_value(),
            ),
            (
                // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
                Value::Str("brownout_secs".to_string()),
                self.brownout_secs.to_value(),
            ),
        ])
    }
}

impl Deserialize for PowerRail {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let chargers: Vec<Charger> = de::field(v, "chargers")?;
        let harvest_by: Vec<WattHours> = de::field(v, "harvest_by")?;
        if chargers.len() != harvest_by.len() {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
            return Err(de::Error::custom(format!(
                "power rail: {} chargers but {} harvest accumulators",
                chargers.len(),
                harvest_by.len()
            )));
        }
        Ok(PowerRail {
            battery: de::field(v, "battery")?,
            chargers,
            harvest_by,
            loads: de::field(v, "loads")?,
            now: de::field(v, "now")?,
            harvested: de::field(v, "harvested")?,
            brownout_secs: de::field(v, "brownout_secs")?,
            output_buf: Vec::new(),
            taper: TaperMemo::default(),
        })
    }
}

impl PowerRail {
    /// Sub-step used when integrating between events.
    const STEP: SimDuration = SimDuration::from_secs(60);

    /// Creates a rail starting at `start` simulated time.
    pub fn new(battery: LeadAcidBattery, start: SimTime) -> Self {
        PowerRail {
            battery,
            chargers: Vec::new(),
            harvest_by: Vec::new(),
            loads: LoadSet::new(),
            now: start,
            harvested: WattHours::ZERO,
            brownout_secs: 0,
            output_buf: Vec::new(),
            taper: TaperMemo::default(),
        }
    }

    /// Attaches a charging source.
    pub fn add_charger(&mut self, charger: Charger) -> &mut Self {
        self.chargers.push(charger);
        self.harvest_by.push(WattHours::ZERO);
        self
    }

    /// Per-charger lifetime harvest, labelled (`"solar"`, `"wind"`,
    /// `"mains"`).
    pub fn harvest_by_source(&self) -> Vec<(&'static str, WattHours)> {
        self.chargers
            .iter()
            .zip(&self.harvest_by)
            .map(|(c, &wh)| (c.label(), wh))
            .collect()
    }

    /// The switchable loads (register devices and toggle rails here).
    pub fn loads_mut(&mut self) -> &mut LoadSet {
        &mut self.loads
    }

    /// Read-only view of the loads.
    pub fn loads(&self) -> &LoadSet {
        &self.loads
    }

    /// Read-only view of the battery.
    pub fn battery(&self) -> &LeadAcidBattery {
        &self.battery
    }

    /// Mutable battery access for fault injection (forced exhaustion).
    pub fn battery_mut(&mut self) -> &mut LeadAcidBattery {
        &mut self.battery
    }

    /// The simulated instant the rail state reflects.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total charger energy harvested so far.
    pub fn total_harvested(&self) -> WattHours {
        self.harvested
    }

    /// Cumulative seconds during which the battery could not carry the
    /// switched-on loads.
    pub fn brownout_secs(&self) -> u64 {
        self.brownout_secs
    }

    /// `true` if the battery is completely exhausted right now.
    pub fn is_exhausted(&self) -> bool {
        self.battery.is_exhausted()
    }

    /// The battery terminal voltage under the present net current — what
    /// the MSP430's ADC reads.
    pub fn measured_voltage(&self, env: &Environment) -> Volts {
        let net = self.net_current(env, self.now);
        self.battery.terminal_voltage(net)
    }

    /// Instantaneous charger output after controller taper.
    ///
    /// The controller regulates against the *charging* terminal voltage:
    /// it finds the largest acceptance fraction whose resulting terminal
    /// voltage stays within the absorb/float band, which is what caps the
    /// midday peaks of Fig 5 near 14.4 V.
    pub fn charge_power(&self, env: &Environment, t: SimTime) -> Watts {
        let raw: Watts = self.chargers.iter().map(|c| c.output(env, t)).sum();
        self.tapered_charge(raw)
    }

    /// The taper solve for a pre-summed raw charger output.
    ///
    /// The battery's state of charge is fixed for the whole solve, so
    /// its 2–3 terminal-voltage evaluations (the untapered check, then
    /// the two grid-point predicates of the closed-form fast path; 24
    /// more on a bisection fallback) run on the hoisted
    /// [`VoltageCurve`](crate::VoltageCurve) — bit-identical to calling
    /// `battery.terminal_voltage` each time.
    fn tapered_charge(&self, raw: Watts) -> Watts {
        if raw.value() <= 0.0 {
            return Watts::ZERO;
        }
        let i_raw = raw.value() / LeadAcidBattery::NOMINAL.value();
        let curve = self.battery.voltage_curve();
        // The solve is a pure function of (raw, curve): memo-hit on exact
        // input bits and skip the bisection entirely.
        let key = [
            raw.value().to_bits(),
            curve.ocv.to_bits(),
            curve.absorption_gain.to_bits(),
            curve.resistance_ohm.to_bits(),
        ];
        if let Some(w) = self.taper.get(key) {
            return w;
        }
        if controller_taper(curve.terminal_voltage(Amps(i_raw))) >= 1.0 {
            self.taper.put(key, raw);
            return raw;
        }
        let lo = Self::taper_fraction(&curve, i_raw);
        let tapered = raw * lo.max(0.05);
        self.taper.put(key, tapered);
        tapered
    }

    /// The regulation point of the charge controller: the acceptance
    /// fraction the historical 24-step bisection converges to, computed
    /// bit-for-bit.
    ///
    /// If the bisection's predicate `P(x) = taper(v(i_raw·x)) > x` is
    /// weakly monotone at the float level, its true-region is downward
    /// closed and 24 halvings of `[0, 1]` land on the *unique* dyadic
    /// `lo = k/2²⁴` with `P(lo)` true (or `k = 0`) and `P(lo + 2⁻²⁴)`
    /// false (or `k + 1 = 2²⁴`) — every midpoint is an exact dyadic
    /// binary64 value, so any route to that `k` returns identical bits.
    /// `P` is monotone as a real function, and each float op rounds a
    /// monotone piece, but the absorption term `fl(i)/fl(1 + i)` rounds
    /// its numerator and denominator independently, so ulp-level
    /// monotonicity is *not* proven for large currents. The equality is
    /// therefore pinned two ways: a proptest drives this function against
    /// [`PowerRail::bisect_taper_fraction`] across randomized curves and
    /// currents, and debug builds re-run the bisection on every fast-path
    /// return and assert bit equality — a silent trajectory divergence
    /// becomes a loud failure.
    ///
    /// Fast path: solve the fixed point `x = taper(v(i_raw·x))` on the
    /// linear taper segment in closed form (a quadratic in `i_raw·x`),
    /// snap to the 2⁻²⁴ grid, and confirm the two predicate evaluations
    /// that characterise `k` — ~2 curve evaluations instead of 24. Any
    /// failure (crossing outside the linear segment, guess off the grid
    /// point) falls back to the exact bisection.
    fn taper_fraction(curve: &crate::VoltageCurve, i_raw: f64) -> f64 {
        const SCALE: f64 = 16_777_216.0; // 2^24
        let p = |x: f64| controller_taper(curve.terminal_voltage(Amps(i_raw * x))) > x;
        // Fixed point on the linear segment: with y = i_raw·x, c the taper
        // slope and A = 1 − c·(ocv − 13.8):
        //   y²(1/i_raw + c·r) + y(1/i_raw − A + c·r + c·g) − A = 0.
        let c = 0.95 / 0.6;
        let a = 1.0 - c * (curve.ocv - 13.8);
        let inv = 1.0 / i_raw;
        let qa = inv + c * curve.resistance_ohm;
        let qb = inv - a + c * curve.resistance_ohm + c * curve.absorption_gain;
        let disc = qb * qb + 4.0 * qa * a;
        if disc > 0.0 {
            let y = (-qb + disc.sqrt()) / (2.0 * qa);
            let x_star = y / i_raw;
            if x_star > 0.0 && x_star < 1.0 {
                let k = (x_star * SCALE).floor();
                // The guess can straddle the grid point by one: verify the
                // characterising predicate pair at k, then its neighbours.
                for kk in [k, k - 1.0, k + 1.0] {
                    if !(0.0..SCALE).contains(&kk) {
                        continue;
                    }
                    let lo = kk / SCALE;
                    // glacsweb: allow(numeric-safety, reason = "kk is an exact small integer from floor(); == 0.0 encodes the bisection's unevaluated-left-endpoint convention and must stay exact")
                    let lo_ok = kk == 0.0 || p(lo);
                    let hi_ok = kk + 1.0 >= SCALE || !p((kk + 1.0) / SCALE);
                    if lo_ok && hi_ok {
                        debug_assert_eq!(
                            lo.to_bits(),
                            Self::bisect_taper_fraction(curve, i_raw).to_bits(),
                            "fast taper solve diverged from the bisection \
                             (curve {curve:?}, i_raw {i_raw})"
                        );
                        return lo;
                    }
                }
            }
        }
        Self::bisect_taper_fraction(curve, i_raw)
    }

    /// The historical 24-step bisection for the regulation point, kept as
    /// the reference implementation and fallback: this is the function
    /// whose output [`PowerRail::taper_fraction`] must reproduce bit for
    /// bit.
    fn bisect_taper_fraction(curve: &crate::VoltageCurve, i_raw: f64) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..24 {
            let mid = (lo + hi) / 2.0;
            let v = curve.terminal_voltage(Amps(i_raw * mid));
            if controller_taper(v) > mid {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn net_current(&self, env: &Environment, t: SimTime) -> Amps {
        let v = LeadAcidBattery::NOMINAL;
        let charge = self.charge_power(env, t);
        let load = self.loads.total_power();
        Amps((charge.value() - load.value()) / v.value())
    }

    /// Integrates the rail forward to `t` in one-minute sub-steps.
    ///
    /// The caller must have advanced `env` to (at least) `t` first. The
    /// load on/off pattern is assumed constant over the span — callers
    /// advance the rail *before* switching rails at an event, which is how
    /// the event loop in `glacsweb::Deployment` uses it.
    ///
    /// `env` is borrowed immutably for the whole call, so the chargers
    /// whose output reads the clock only through the civil day (wind and
    /// mains, see [`Charger::varies_within_day`]) are evaluated once per
    /// day seen in the call; the panel is evaluated every sub-step. Each
    /// output is the value a fresh evaluation would return, and the
    /// buffer is summed in charger order as before, so every downstream
    /// quantity carries identical bits.
    pub fn advance(&mut self, env: &Environment, t: SimTime) {
        let mut memo_day = None;
        while self.now < t {
            let now = self.now;
            let dt = (t - now).min(Self::STEP);
            let temp = Celsius(env.temperature_c(now));
            let day = now.unix() / 86_400;
            if memo_day == Some(day) {
                for (out, c) in self.output_buf.iter_mut().zip(&self.chargers) {
                    if c.varies_within_day() {
                        *out = c.output(env, now).value();
                    }
                }
            } else {
                memo_day = Some(day);
                self.output_buf.clear();
                self.output_buf
                    .extend(self.chargers.iter().map(|c| c.output(env, now).value()));
            }
            let raw_watts: Watts = self.output_buf.iter().map(|&w| Watts(w)).sum();
            let charge = self.tapered_charge(raw_watts);
            let load = self.loads.total_power();
            let net = Amps((charge.value() - load.value()) / LeadAcidBattery::NOMINAL.value());
            let actual = self.battery.step(dt, net, temp);
            if load.value() > 0.0
                && self.battery.is_exhausted()
                && actual.value() >= net.value() + 1e-12
            {
                // Discharge was truncated: the loads browned out.
                self.brownout_secs += dt.as_secs();
            }
            self.harvested += charge.over(dt);
            if charge.value() > 0.0 {
                // Apportion the tapered harvest by each charger's raw share.
                let raw: f64 = self.output_buf.iter().sum();
                if raw > 0.0 {
                    for (acc, &out) in self.harvest_by.iter_mut().zip(self.output_buf.iter()) {
                        let share = out / raw;
                        *acc += charge.over(dt) * share;
                    }
                }
            }
            self.loads.meter(dt);
            self.now += dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::EnvConfig;
    use glacsweb_sim::AmpHours;

    use crate::charger::{MainsCharger, SolarPanel, WindTurbine};

    fn setup(config: EnvConfig, y: i32, mo: u32, d: u32) -> (Environment, PowerRail, SimTime) {
        let mut env = Environment::new(config, 77);
        let t0 = SimTime::from_ymd_hms(y, mo, d, 0, 0, 0);
        env.advance_to(t0);
        let rail = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 0.8), t0);
        (env, rail, t0)
    }

    #[test]
    fn idle_rail_holds_charge_for_days() {
        let (mut env, mut rail, t0) = setup(EnvConfig::lab(), 2009, 5, 1);
        let end = t0 + SimDuration::from_days(7);
        env.advance_to(end);
        rail.advance(&env, end);
        assert!(rail.battery().state_of_charge() > 0.75);
        assert_eq!(rail.brownout_secs(), 0);
    }

    #[test]
    fn summer_solar_recharges_the_bank() {
        let (mut env, mut rail, t0) = setup(EnvConfig::vatnajokull(), 2009, 6, 15);
        rail.add_charger(Charger::Solar(SolarPanel::new(Watts(10.0))));
        rail.loads_mut().add("msp430", Watts::from_milliwatts(5.0));
        rail.loads_mut().set_on("msp430", true);
        let mut t = t0;
        for _ in 0..(4 * 24) {
            t += SimDuration::from_mins(15);
            env.advance_to(t);
            rail.advance(&env, t);
        }
        assert!(
            rail.battery().state_of_charge() > 0.85,
            "soc {}",
            rail.battery().state_of_charge()
        );
        assert!(rail.total_harvested().value() > 20.0);
    }

    #[test]
    fn continuous_gps_without_charging_depletes_in_about_five_days() {
        // End-to-end check of the paper's §III example through the rail.
        let (mut env, _, t0) = setup(EnvConfig::lab(), 2009, 1, 10);
        // A full battery for the clean arithmetic.
        let mut rail = PowerRail::new(LeadAcidBattery::new(AmpHours(36.0)), t0);
        rail.loads_mut().add("gps", Watts(3.6));
        rail.loads_mut().set_on("gps", true);
        let mut t = t0;
        let mut depleted_at = None;
        for _ in 0..(10 * 24) {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            rail.advance(&env, t);
            if rail.is_exhausted() && depleted_at.is_none() {
                depleted_at = Some(t);
            }
        }
        let days = (depleted_at.expect("should deplete") - t0).as_days_f64();
        // Lab temperature ~18 °C slightly derates capacity; accept 4–6 days.
        assert!((4.0..6.0).contains(&days), "depleted after {days} days");
        assert!(rail.brownout_secs() > 0, "brown-out accounted");
    }

    #[test]
    fn wind_turbine_carries_a_winter_load() {
        let (mut env, mut rail, t0) = setup(EnvConfig::vatnajokull(), 2009, 1, 5);
        rail.add_charger(Charger::Wind(WindTurbine::new(Watts(50.0))));
        rail.loads_mut().add("msp430", Watts::from_milliwatts(5.0));
        rail.loads_mut().set_on("msp430", true);
        let mut t = t0;
        for _ in 0..(24 * 4) {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            rail.advance(&env, t);
        }
        // January wind at ~9 m/s mean should keep the bank up (until
        // burial, which takes longer than 4 days).
        assert!(rail.battery().state_of_charge() > 0.6);
    }

    #[test]
    fn mains_charger_respects_cafe_season() {
        let (mut env, mut rail, t0) = setup(EnvConfig::vatnajokull(), 2009, 1, 15);
        rail.add_charger(Charger::Mains(MainsCharger::new(Watts(30.0))));
        assert_eq!(
            rail.charge_power(&env, t0),
            Watts::ZERO,
            "no mains in January"
        );
        let summer = SimTime::from_ymd_hms(2009, 7, 15, 12, 0, 0);
        env.advance_to(summer);
        rail.advance(&env, summer);
        assert!(rail.charge_power(&env, summer).value() > 0.0);
    }

    #[test]
    fn measured_voltage_sags_under_load() {
        let (mut env, mut rail, t0) = setup(EnvConfig::lab(), 2009, 3, 1);
        env.advance_to(t0 + SimDuration::from_hours(1));
        rail.advance(&env, t0 + SimDuration::from_hours(1));
        rail.loads_mut().add("gps", Watts(3.6));
        let v_rest = rail.measured_voltage(&env);
        rail.loads_mut().set_on("gps", true);
        let v_loaded = rail.measured_voltage(&env);
        assert!(
            v_rest.value() - v_loaded.value() > 0.04,
            "{v_rest} -> {v_loaded}"
        );
    }

    mod taper_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The analytic fast path returns bit-for-bit what the pure
            /// 24-step bisection returns, across the whole reachable
            /// input space: open-circuit voltage 11.3–12.9 V (soc 0–1),
            /// absorption gain 0–1.6 (1.6·soc⁸), a generous resistance
            /// band around the model's 0.22 Ω, and raw charge currents up
            /// to ~8 A (solar + wind + mains ≈ 90 W on a 12 V rail).
            #[test]
            fn fast_taper_equals_bisection(
                ocv in 11.3f64..12.9,
                gain in 0.0f64..1.6,
                r in 0.005f64..0.5,
                i_raw in 1e-4f64..8.0,
            ) {
                let curve = crate::VoltageCurve {
                    ocv,
                    absorption_gain: gain,
                    resistance_ohm: r,
                };
                let fast = PowerRail::taper_fraction(&curve, i_raw);
                let bisect = PowerRail::bisect_taper_fraction(&curve, i_raw);
                prop_assert_eq!(
                    fast.to_bits(),
                    bisect.to_bits(),
                    "fast {} vs bisection {} (curve {:?}, i_raw {})",
                    fast,
                    bisect,
                    curve,
                    i_raw
                );
            }
        }

        /// Opt-in stress variant of `fast_taper_equals_bisection`: half a
        /// million randomized cases. Run with
        /// `cargo test -p glacsweb-power --release -- --ignored`.
        #[test]
        #[ignore = "stress: 500k randomized cases, run explicitly"]
        fn fast_taper_equals_bisection_stress() {
            use proptest::test_runner::{Config, TestRunner};
            let mut runner = TestRunner::new(Config::with_cases(500_000));
            runner
                .run(
                    &(11.3f64..12.9, 0.0f64..1.6, 0.005f64..0.5, 1e-4f64..8.0),
                    |(ocv, gain, r, i_raw)| {
                        let curve = crate::VoltageCurve {
                            ocv,
                            absorption_gain: gain,
                            resistance_ohm: r,
                        };
                        let fast = PowerRail::taper_fraction(&curve, i_raw);
                        let bisect = PowerRail::bisect_taper_fraction(&curve, i_raw);
                        prop_assert_eq!(fast.to_bits(), bisect.to_bits());
                        Ok(())
                    },
                )
                .expect("fast taper solve must match the bisection");
        }
    }

    #[test]
    fn charge_controller_tapers_near_full() {
        let (mut env, _, t0) = setup(EnvConfig::vatnajokull(), 2009, 6, 21);
        let noon = SimTime::from_ymd_hms(2009, 6, 21, 12, 0, 0);
        env.advance_to(noon);
        // A battery held artificially at absorb voltage accepts less.
        let mut full = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 1.0), t0);
        full.add_charger(Charger::Solar(SolarPanel::new(Watts(10.0))));
        let mut half = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 0.5), t0);
        half.add_charger(Charger::Solar(SolarPanel::new(Watts(10.0))));
        assert!(full.charge_power(&env, noon) <= half.charge_power(&env, noon));
    }
}
