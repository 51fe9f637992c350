//! The composed environment façade.

use glacsweb_sim::{SimRng, SimTime};
use serde::{de, Deserialize, Serialize, Value};

use crate::cafe::cafe_mains_available;
use crate::config::EnvConfig;
use crate::daycache::{DayPair, SodTable};
use crate::hydrology::Hydrology;
use crate::motion::GlacierMotion;
use crate::snow::SnowPack;
use crate::solar::SolarModel;
use crate::temperature::TemperatureModel;
use crate::wind::WindModel;

/// Coarse season classification used by reports and schedule heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Season {
    /// December–March: the no-field-visit survival window (§I).
    Winter,
    /// April–May.
    Spring,
    /// June–September: wet ice, worst probe radio.
    Summer,
    /// October–November.
    Autumn,
}

impl Season {
    /// Season of the given instant.
    pub fn of(t: SimTime) -> Season {
        match t.date().month {
            12 | 1..=3 => Season::Winter,
            4 | 5 => Season::Spring,
            6..=9 => Season::Summer,
            _ => Season::Autumn,
        }
    }
}

/// The complete synthetic glacier environment.
///
/// Call [`Environment::advance_to`] from the simulation's main loop before
/// querying; queries are cheap and side-effect free.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Environment {
    config: EnvConfig,
    solar: SolarModel,
    temperature: TemperatureModel,
    wind: WindModel,
    snow: SnowPack,
    hydrology: Hydrology,
    motion: GlacierMotion,
    cloud_factor: f64,
    rng: SimRng,
    now: SimTime,
    started: bool,
    /// Memo of the per-day solar products `(sin φ·sin δ, cos φ·cos δ)`.
    // glacsweb: derived-state
    solar_day: DayPair,
    /// Memo of `cos(hour angle)` — a pure function of second-of-day.
    // glacsweb: derived-state
    cos_hour: SodTable,
}

// Deserialization is hand-written so a snapshot cannot smuggle in a
// configuration that `Environment::new` would have rejected with a panic:
// restore validates and reports a typed error instead. The day/second
// memos are derived state — they restart empty and refill bit-identically
// on first use.
impl Deserialize for Environment {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let config: EnvConfig = de::field(v, "config")?;
        if let Err(e) = config.validate() {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
            return Err(de::Error::custom(format!(
                "snapshot carries invalid environment config: {e}"
            )));
        }
        Ok(Environment {
            config,
            solar: de::field(v, "solar")?,
            temperature: de::field(v, "temperature")?,
            wind: de::field(v, "wind")?,
            snow: de::field(v, "snow")?,
            hydrology: de::field(v, "hydrology")?,
            motion: de::field(v, "motion")?,
            cloud_factor: de::field(v, "cloud_factor")?,
            rng: de::field(v, "rng")?,
            now: de::field(v, "now")?,
            started: de::field(v, "started")?,
            solar_day: DayPair::default(),
            cos_hour: SodTable::default(),
        })
    }
}

/// The tail of the clear-sky chain after `sin el`, in the model's exact
/// operation order: `asin → degrees → radians → sin → max(0)`.
fn elevation_chain(sin_el: f64) -> f64 {
    sin_el.asin().to_degrees().to_radians().sin().max(0.0)
}

impl Environment {
    /// Creates an environment from a configuration and a master seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EnvConfig::validate`].
    pub fn new(config: EnvConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid environment config: {e}");
        }
        let mut master = SimRng::seed_from(seed);
        let rng = master.fork(0xE57);
        Environment {
            solar: SolarModel::new(config.latitude_deg),
            temperature: TemperatureModel::new(
                config.temp_annual_mean_c,
                config.temp_annual_amplitude_c,
                config.temp_diurnal_amplitude_c,
                config.temp_noise_sd_c,
            ),
            wind: WindModel::new(
                config.wind_mean_winter_ms,
                config.wind_mean_summer_ms,
                config.wind_gust_sd_ms,
            ),
            snow: SnowPack::new(
                config.storm_rate_winter_per_day,
                config.snow_per_storm_m,
                config.melt_m_per_degree_day,
            ),
            hydrology: Hydrology::new(),
            motion: GlacierMotion::new(
                config.base_velocity_m_per_day,
                config.slip_event_m,
                config.slip_rate_wet_per_day,
            ),
            cloud_factor: config.cloud_clear_fraction,
            config,
            rng,
            now: SimTime::EPOCH,
            started: false,
            solar_day: DayPair::default(),
            cos_hour: SodTable::default(),
        }
    }

    /// The configuration this environment was built from.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The simulated instant the stochastic state currently reflects.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances all stochastic state to `t` in fixed ticks.
    ///
    /// Idempotent for `t <= now()`. The first call anchors the clock: a
    /// deployment starting in September starts with autumn state, not with
    /// a replay from the epoch.
    pub fn advance_to(&mut self, t: SimTime) {
        if !self.started {
            self.now = t;
            self.started = true;
            // Warm-start slow state: if the deployment begins mid melt
            // season the bed is already wet.
            let warm = Season::of(t) == Season::Summer;
            if warm {
                self.hydrology = Hydrology::with_index(0.7);
            }
            return;
        }
        let tick = self.config.tick;
        let dt_hours = tick.as_secs() as f64 / 3600.0;
        let dt_days = dt_hours / 24.0;
        // The tick is fixed, so every per-step transcendental is a run
        // constant — hoist them out of the loop (this loop dominates
        // long-horizon runs; see BENCH_PERF.json).
        let target = self.config.cloud_clear_fraction;
        let cloud_decay = (-dt_hours / 8.0).exp();
        let cloud_noise_sd = 0.15 * (1.0 - cloud_decay * cloud_decay).sqrt();
        while self.now + tick <= t {
            self.now += tick;
            let temp = self.temperature.temperature_c(self.now);
            self.temperature.step_noise(dt_hours, &mut self.rng);
            self.wind.step(dt_hours, &mut self.rng);
            self.snow.step(dt_days, temp, self.now, &mut self.rng);
            self.hydrology.step(dt_days, temp);
            self.motion.step(
                dt_days,
                self.hydrology.water_pressure(self.now),
                &mut self.rng,
            );
            // Cloud: mean-reverting around the configured clear fraction.
            let noise = self.rng.normal(0.0, cloud_noise_sd);
            self.cloud_factor =
                ((self.cloud_factor - target) * cloud_decay + target + noise).clamp(0.05, 1.0);
        }
    }

    /// Memoised clear-sky fraction, bit-identical to
    /// [`SolarModel::clear_sky_fraction`].
    ///
    /// The solar geometry factors exactly as the model computes it:
    /// `sin el = (sin φ·sin δ) + (cos φ·cos δ)·cos H`, where the two
    /// parenthesised products depend only on the civil day and `cos H`
    /// only on the second of day. Memoising those whole subexpressions
    /// and replaying the remaining chain (`asin → degrees → radians →
    /// sin → max`) performs the same float operations in the same order
    /// as the un-memoised model, so the result carries identical bits —
    /// the power rail calls this every 60 s substep, so it is the
    /// hottest transcendental path in the kernel.
    ///
    /// Night short-circuit: for a strictly negative `sin el` every link
    /// of the chain keeps the sign (`asin` of `[-1, 0)` is negative, the
    /// two scalings by positive constants cannot round a finite
    /// non-zero value to zero at these magnitudes, and `sin` of a value
    /// in `(-π/2, 0)` is negative), so `max(0.0)` returns `+0.0` — the
    /// value returned here without the four calls. `sin el` below `-1`
    /// makes `asin` return NaN, which `max` also maps to `+0.0`. The test
    /// is a strict `<`, so `±0.0` still takes the full chain.
    fn clear_sky_fraction(&self, t: SimTime) -> f64 {
        let (a, b) = self.solar_day.get_or(t.unix() / 86_400, || {
            let doy = f64::from(t.day_of_year());
            let decl =
                23.44_f64.to_radians() * (std::f64::consts::TAU * (284.0 + doy) / 365.0).sin();
            let lat = self.solar.latitude_deg().to_radians();
            (lat.sin() * decl.sin(), lat.cos() * decl.cos())
        });
        let cos_h = self.cos_hour.get_or(t.seconds_of_day(), || {
            (15.0 * (t.hour_of_day_f64() - 12.0)).to_radians().cos()
        });
        let sin_el = a + b * cos_h;
        if sin_el < 0.0 {
            return 0.0;
        }
        elevation_chain(sin_el)
    }

    /// Fraction of the solar panel's rated output available now, in
    /// `[0, 1]`: clear-sky geometry × cloud × snow burial.
    pub fn solar_factor(&self, t: SimTime) -> f64 {
        self.clear_sky_fraction(t)
            * self.cloud_factor
            * self.snow.burial_factor(self.config.panel_burial_depth_m)
    }

    /// Cloud transmission factor in `[0.05, 1]`: the middle factor of
    /// [`Environment::solar_factor`].
    pub fn cloud_factor(&self) -> f64 {
        self.cloud_factor
    }

    /// Wind speed at hub height, m/s, derated for generator burial.
    pub fn wind_speed_ms(&self, t: SimTime) -> f64 {
        self.wind.speed_ms(t) * self.snow.burial_factor(self.config.turbine_burial_depth_m)
    }

    /// Air temperature, °C.
    pub fn temperature_c(&self, t: SimTime) -> f64 {
        self.temperature.temperature_c(t)
    }

    /// Snow depth at the station, metres.
    pub fn snow_depth_m(&self) -> f64 {
        self.snow.depth_m()
    }

    /// Melt-water index in `[0, 1]`.
    pub fn melt_index(&self) -> f64 {
        self.hydrology.melt_index()
    }

    /// Probe radio packet-loss probability right now.
    pub fn probe_packet_loss(&self) -> f64 {
        self.hydrology
            .probe_loss(self.config.probe_loss_dry, self.config.probe_loss_wet)
    }

    /// Normalised subglacial water pressure in `[0, 1]`.
    pub fn water_pressure(&self, t: SimTime) -> f64 {
        self.hydrology.water_pressure(t)
    }

    /// Baseline bed conductivity in µS (per-probe offsets are added by the
    /// probe sensing model).
    pub fn bed_conductivity_microsiemens(&self) -> f64 {
        self.hydrology.conductivity_microsiemens()
    }

    /// Down-flow displacement of the glacier surface, metres.
    pub fn glacier_displacement_m(&self) -> f64 {
        self.motion.displacement_m()
    }

    /// Count of stick-slip events so far.
    pub fn slip_count(&self) -> u64 {
        self.motion.slip_count()
    }

    /// `true` if the café mains supply is live.
    pub fn cafe_mains_available(&self, t: SimTime) -> bool {
        cafe_mains_available(t, self.config.cafe_season_months)
    }

    /// A deterministic fork of the environment RNG for co-simulated
    /// components (links, sensors) that need their own stream.
    pub fn fork_rng(&mut self, stream: u64) -> SimRng {
        self.rng.fork(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::SimDuration;

    fn env() -> Environment {
        Environment::new(EnvConfig::vatnajokull(), 1)
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = Environment::new(EnvConfig::vatnajokull(), 99);
            let t0 = SimTime::from_ymd_hms(2008, 10, 1, 0, 0, 0);
            e.advance_to(t0);
            e.advance_to(t0 + SimDuration::from_days(60));
            (
                e.snow_depth_m(),
                e.melt_index(),
                e.glacier_displacement_m(),
                e.wind_speed_ms(e.now()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn advance_is_monotonic_and_idempotent() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(5));
        let snap = e.snow_depth_m();
        // Going backwards is a no-op.
        e.advance_to(t0);
        assert_eq!(e.snow_depth_m(), snap);
    }

    #[test]
    fn iceland_seasonal_temperatures() {
        let m = Environment::new(EnvConfig::vatnajokull(), 1);
        let jan_night = m.temperature_c(SimTime::from_ymd_hms(2009, 1, 25, 3, 0, 0));
        let jul_noon = m.temperature_c(SimTime::from_ymd_hms(2009, 7, 25, 15, 0, 0));
        assert!(jan_night < -7.0, "deep-winter night {jan_night}");
        assert!(jul_noon > 5.0, "high-summer afternoon {jul_noon}");
    }

    #[test]
    fn winter_builds_snow_and_dries_the_bed() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2008, 11, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(t0 + SimDuration::from_days(110));
        assert!(e.snow_depth_m() > 0.5, "snow {}", e.snow_depth_m());
        assert!(e.melt_index() < 0.1, "melt {}", e.melt_index());
        assert!(
            e.probe_packet_loss() < 0.05,
            "winter loss {}",
            e.probe_packet_loss()
        );
    }

    #[test]
    fn summer_wets_the_bed_and_degrades_probe_radio() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2009, 5, 1, 0, 0, 0);
        e.advance_to(t0);
        e.advance_to(SimTime::from_ymd_hms(2009, 7, 25, 0, 0, 0));
        assert!(e.melt_index() > 0.4, "melt {}", e.melt_index());
        assert!(
            e.probe_packet_loss() > 0.08,
            "summer loss {}",
            e.probe_packet_loss()
        );
        assert!(e.bed_conductivity_microsiemens() > 5.0);
    }

    #[test]
    fn warm_start_in_summer() {
        let mut e = env();
        e.advance_to(SimTime::from_ymd_hms(2009, 7, 15, 0, 0, 0));
        // First call anchors with wet-season hydrology rather than epoch
        // replay.
        assert!(e.melt_index() > 0.5);
    }

    #[test]
    fn solar_factor_is_bounded_and_diurnal() {
        let mut e = env();
        let day = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
        e.advance_to(day);
        let noon = e.solar_factor(day + SimDuration::from_hours(12));
        let midnight = e.solar_factor(day);
        assert!((0.0..=1.0).contains(&noon));
        assert!(noon > midnight);
        assert_eq!(midnight, 0.0, "no sun at equinox midnight at 64N");
    }

    #[test]
    fn memoised_clear_sky_matches_model_bitwise() {
        let mut e = env();
        let t0 = SimTime::from_ymd_hms(2008, 9, 1, 0, 0, 0);
        e.advance_to(t0);
        let model = SolarModel::new(e.config().latitude_deg);
        for step in 0..(2 * 1440) {
            let t = t0 + SimDuration::from_mins(step);
            let memoised = e.clear_sky_fraction(t);
            assert_eq!(
                memoised.to_bits(),
                model.clear_sky_fraction(t).to_bits(),
                "step {step}"
            );
            // Second call takes the hit path — same bits again.
            assert_eq!(e.clear_sky_fraction(t).to_bits(), memoised.to_bits());
        }
    }

    proptest::proptest! {
        /// The night short-circuit's claim: whenever `sin el = a + b·cos H`
        /// is strictly negative, the full chain returns exactly `+0.0`.
        /// `a = sin φ·sin δ` and `cos H` span `[-1, 1]`, `b = cos φ·cos δ`
        /// spans `[0, 1]`; the scale factor also drives `sin el` down to
        /// the subnormal range, where rounding is most likely to lose the
        /// sign.
        #[test]
        fn night_chain_returns_positive_zero(
            a in -1.0f64..1.0,
            b in 0.0f64..1.0,
            cos_h in -1.0f64..1.0,
            scale in -1074i32..0,
        ) {
            for sin_el in [a + b * cos_h, (a + b * cos_h) * 2f64.powi(scale)] {
                if sin_el < 0.0 {
                    proptest::prop_assert_eq!(elevation_chain(sin_el).to_bits(), 0.0f64.to_bits());
                }
            }
        }
    }

    #[test]
    fn night_chain_edges() {
        let tiny = f64::from_bits(1); // smallest subnormal
        for sin_el in [-1.0, -1.0 - f64::EPSILON, -0.5, -f64::MIN_POSITIVE, -tiny] {
            assert_eq!(
                elevation_chain(sin_el).to_bits(),
                0.0f64.to_bits(),
                "{sin_el:e}"
            );
        }
        // ±0.0 is not short-circuited and keeps the full chain's answer.
        assert_eq!(elevation_chain(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(elevation_chain(-0.0), 0.0);
    }

    #[test]
    fn season_classification() {
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 1, 5, 0, 0, 0)),
            Season::Winter
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 12, 5, 0, 0, 0)),
            Season::Winter
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 4, 5, 0, 0, 0)),
            Season::Spring
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 8, 5, 0, 0, 0)),
            Season::Summer
        );
        assert_eq!(
            Season::of(SimTime::from_ymd_hms(2009, 10, 5, 0, 0, 0)),
            Season::Autumn
        );
    }

    #[test]
    fn cafe_follows_config() {
        let mut iceland = env();
        let jan = SimTime::from_ymd_hms(2009, 1, 15, 12, 0, 0);
        iceland.advance_to(jan);
        assert!(!iceland.cafe_mains_available(jan));
        let mut norway = Environment::new(EnvConfig::briksdalsbreen(), 1);
        norway.advance_to(jan);
        assert!(norway.cafe_mains_available(jan));
    }

    #[test]
    fn forked_rngs_are_reproducible() {
        let mut a = Environment::new(EnvConfig::lab(), 7);
        let mut b = Environment::new(EnvConfig::lab(), 7);
        let mut ra = a.fork_rng(5);
        let mut rb = b.fork_rng(5);
        assert_eq!(ra.f64(), rb.f64());
    }

    #[test]
    fn proptest_environment_bounds() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config::with_cases(16));
        runner
            .run(
                &(0u64..500, 1u32..12, 1u32..28, 0u32..24),
                |(seed, month, day, hour)| {
                    let mut e = Environment::new(EnvConfig::vatnajokull(), seed);
                    let t = SimTime::from_ymd_hms(2009, month, day, hour, 0, 0);
                    e.advance_to(t);
                    e.advance_to(t + SimDuration::from_days(3));
                    let q = t + SimDuration::from_days(3);
                    prop_assert!((0.0..=1.0).contains(&e.solar_factor(q)));
                    prop_assert!(e.wind_speed_ms(q) >= 0.0);
                    prop_assert!(e.snow_depth_m() >= 0.0);
                    prop_assert!((0.0..=1.0).contains(&e.melt_index()));
                    prop_assert!((0.0..=1.0).contains(&e.probe_packet_loss()));
                    prop_assert!((0.0..=1.0).contains(&e.water_pressure(q)));
                    prop_assert!(e.bed_conductivity_microsiemens() >= 0.0);
                    prop_assert!(e.glacier_displacement_m() >= 0.0);
                    prop_assert!((-40.0..=40.0).contains(&e.temperature_c(q)));
                    Ok(())
                },
            )
            .expect("environment invariants");
    }

    #[test]
    #[should_panic(expected = "invalid environment config")]
    fn rejects_invalid_config() {
        let mut c = EnvConfig::vatnajokull();
        c.probe_loss_wet = 2.0;
        let _ = Environment::new(c, 0);
    }
}
