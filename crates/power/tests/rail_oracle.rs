//! Differential oracle for `PowerRail::advance`.
//!
//! `Reference` is the sub-step integrator as it stood before the
//! per-day charger memo, the night short-circuit and the flat load set:
//! every charger is evaluated every sub-step, the panel goes through the
//! un-memoised [`SolarModel`] chain, the loads are metered through a
//! `BTreeMap`, and the taper is the plain bisection. Generated scenarios
//! drive it and the kernel through the same calls, and the whole rail
//! state must agree bit for bit after every call.

use std::collections::BTreeMap;

use glacsweb_env::{EnvConfig, Environment, SnowPack, SolarModel};
use glacsweb_power::{
    Charger, LeadAcidBattery, MainsCharger, PowerRail, SolarPanel, VoltageCurve, WindTurbine,
};
use glacsweb_sim::{AmpHours, Amps, Celsius, SimDuration, SimTime, WattHours, Watts};
use proptest::TestRng;

/// The rail's integration sub-step.
const STEP: SimDuration = SimDuration::from_secs(60);

/// The charge controller's acceptance fraction at a battery voltage:
/// full below 13.8 V, 5 % above 14.4 V, linear in between.
fn controller_taper(volts: f64) -> f64 {
    if volts <= 13.8 {
        1.0
    } else if volts >= 14.4 {
        0.05
    } else {
        1.0 - 0.95 * (volts - 13.8) / (14.4 - 13.8)
    }
}

/// The 24-step bisection for the controller's regulation point.
fn bisect_taper_fraction(curve: &VoltageCurve, i_raw: f64) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        if controller_taper(curve.terminal_voltage(Amps(i_raw * mid)).value()) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

struct RefLoad {
    power: Watts,
    on: bool,
    energy: WattHours,
}

struct Reference {
    battery: LeadAcidBattery,
    chargers: Vec<Charger>,
    harvest_by: Vec<WattHours>,
    loads: BTreeMap<String, RefLoad>,
    now: SimTime,
    harvested: WattHours,
    brownout_secs: u64,
}

/// Raw charger output with no memo: the panel through the full
/// clear-sky chain, times cloud, times burial — the operation order of
/// `Environment::solar_factor`.
fn reference_output(c: &Charger, env: &Environment, t: SimTime) -> Watts {
    match c {
        Charger::Solar(panel) => {
            let clear = SolarModel::new(env.config().latitude_deg).clear_sky_fraction(t);
            let burial = SnowPack::with_depth(0.0, 0.0, 0.0, env.snow_depth_m())
                .burial_factor(env.config().panel_burial_depth_m);
            panel.rated() * (clear * env.cloud_factor() * burial)
        }
        other => other.output(env, t),
    }
}

/// The taper with no memo and no fast path.
fn reference_taper(battery: &LeadAcidBattery, raw: Watts) -> Watts {
    if raw.value() <= 0.0 {
        return Watts::ZERO;
    }
    let i_raw = raw.value() / LeadAcidBattery::NOMINAL.value();
    let curve = battery.voltage_curve();
    if controller_taper(curve.terminal_voltage(Amps(i_raw)).value()) >= 1.0 {
        return raw;
    }
    raw * bisect_taper_fraction(&curve, i_raw).max(0.05)
}

impl Reference {
    fn advance(&mut self, env: &Environment, t: SimTime) {
        while self.now < t {
            let dt = (t - self.now).min(STEP);
            let temp = Celsius(env.temperature_c(self.now));
            let outputs: Vec<f64> = self
                .chargers
                .iter()
                .map(|c| reference_output(c, env, self.now).value())
                .collect();
            let raw_watts: Watts = outputs.iter().map(|&w| Watts(w)).sum();
            let charge = reference_taper(&self.battery, raw_watts);
            let load: Watts = self.loads.values().filter(|l| l.on).map(|l| l.power).sum();
            let net = Amps((charge.value() - load.value()) / LeadAcidBattery::NOMINAL.value());
            let actual = self.battery.step(dt, net, temp);
            if load.value() > 0.0
                && self.battery.is_exhausted()
                && actual.value() >= net.value() + 1e-12
            {
                self.brownout_secs += dt.as_secs();
            }
            self.harvested += charge.over(dt);
            if charge.value() > 0.0 {
                let raw: f64 = outputs.iter().sum();
                if raw > 0.0 {
                    for (acc, &out) in self.harvest_by.iter_mut().zip(&outputs) {
                        *acc += charge.over(dt) * (out / raw);
                    }
                }
            }
            for l in self.loads.values_mut() {
                if l.on {
                    l.energy += l.power.over(dt);
                }
            }
            self.now += dt;
        }
    }
}

/// The rail under test and its reference, driven in lockstep.
struct Pair {
    rail: PowerRail,
    reference: Reference,
}

impl Pair {
    fn new(battery: LeadAcidBattery, start: SimTime, chargers: &[Charger]) -> Self {
        let mut rail = PowerRail::new(battery.clone(), start);
        for &c in chargers {
            rail.add_charger(c);
        }
        Pair {
            rail,
            reference: Reference {
                battery,
                chargers: chargers.to_vec(),
                harvest_by: vec![WattHours::ZERO; chargers.len()],
                loads: BTreeMap::new(),
                now: start,
                harvested: WattHours::ZERO,
                brownout_secs: 0,
            },
        }
    }

    fn add_load(&mut self, name: &str, power: Watts) {
        self.rail.loads_mut().add(name, power);
        let load = RefLoad {
            power,
            on: false,
            energy: WattHours::ZERO,
        };
        self.reference.loads.insert(name.to_string(), load);
    }

    fn set_on(&mut self, name: &str, on: bool) {
        self.rail.loads_mut().set_on(name, on);
        if let Some(l) = self.reference.loads.get_mut(name) {
            l.on = on;
        }
    }

    fn advance(&mut self, env: &Environment, t: SimTime, ctx: &str) {
        self.rail.advance(env, t);
        self.reference.advance(env, t);
        self.assert_same(ctx);
    }

    fn assert_same(&self, ctx: &str) {
        let (rail, r) = (&self.rail, &self.reference);
        let bits = |w: WattHours| w.value().to_bits();
        assert_eq!(rail.now(), r.now, "{ctx}: clock");
        assert_eq!(rail.battery(), &r.battery, "{ctx}: battery");
        let battery_bits = |b: &LeadAcidBattery| {
            [
                b.state_of_charge().to_bits(),
                bits(b.total_charged()),
                bits(b.total_discharged()),
            ]
        };
        assert_eq!(
            battery_bits(rail.battery()),
            battery_bits(&r.battery),
            "{ctx}: battery bits"
        );
        assert_eq!(
            bits(rail.total_harvested()),
            bits(r.harvested),
            "{ctx}: harvest"
        );
        let per_source: Vec<u64> = rail
            .harvest_by_source()
            .into_iter()
            .map(|(_, w)| bits(w))
            .collect();
        let ref_per_source: Vec<u64> = r.harvest_by.iter().map(|&w| bits(w)).collect();
        assert_eq!(per_source, ref_per_source, "{ctx}: per-source harvest");
        assert_eq!(rail.brownout_secs(), r.brownout_secs, "{ctx}: brown-out");
        let loads: Vec<(String, bool, u64)> = rail
            .loads()
            .snapshot()
            .into_iter()
            .map(|s| (s.name, s.on, bits(s.energy)))
            .collect();
        let ref_loads: Vec<(String, bool, u64)> = r
            .loads
            .iter()
            .map(|(name, l)| (name.clone(), l.on, bits(l.energy)))
            .collect();
        assert_eq!(loads, ref_loads, "{ctx}: load meters");
    }
}

/// Devices in a deliberately unsorted registration order.
const DEVICES: [(&str, f64); 6] = [
    ("radio_modem", 3.96),
    ("gumstix", 0.9),
    ("msp430", 0.005),
    ("gps", 3.6),
    ("probe_radio", 0.3),
    ("gprs", 2.64),
];

/// Starting days chosen for what happens around them: the Iceland café
/// season opening (Mar 31 → Apr 1) and closing (Sep 30 → Oct 1), the
/// solstices (polar night and midnight sun at high latitude), and an
/// ordinary winter day.
const STARTS: [(i32, u32, u32); 5] = [
    (2009, 3, 30),
    (2009, 9, 29),
    (2008, 12, 20),
    (2009, 6, 20),
    (2009, 1, 14),
];

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One generated scenario: a preset (optionally moved to 78.2° N, which
/// has polar night and midnight sun), a subset of the three chargers, a
/// battery anywhere from empty to full, the six devices switched at
/// random between calls, and about three days of calls whose targets
/// fall at arbitrary seconds (partial sub-steps) and cross midnights.
fn run_case(case: u64) {
    let mut rng = TestRng::deterministic(case);
    let mut config = match below(&mut rng, 3) {
        0 => EnvConfig::vatnajokull(),
        1 => EnvConfig::briksdalsbreen(),
        _ => EnvConfig::lab(),
    };
    let polar = below(&mut rng, 3) == 0;
    if polar {
        config.latitude_deg = 78.2;
    }
    let mut env = Environment::new(config, rng.next_u64());
    let (y, m, d) = STARTS[below(&mut rng, STARTS.len() as u64) as usize];
    let start =
        SimTime::from_ymd_hms(y, m, d, 12, 0, 0) + SimDuration::from_secs(below(&mut rng, 43_200));
    env.advance_to(start);

    let all = [
        Charger::Solar(SolarPanel::new(Watts(10.0))),
        Charger::Wind(WindTurbine::new(Watts(50.0))),
        Charger::Mains(MainsCharger::new(Watts(30.0))),
    ];
    let mask = below(&mut rng, 8);
    let chargers: Vec<Charger> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &c)| c)
        .collect();
    let soc = rng.unit_f64();
    let battery = LeadAcidBattery::with_state(AmpHours(36.0), soc);
    let mut pair = Pair::new(battery, start, &chargers);
    for (name, watts) in DEVICES {
        pair.add_load(name, Watts(watts));
    }

    let end = start + SimDuration::from_days(3);
    let mut t = start;
    let mut call = 0;
    while t < end {
        for (name, _) in DEVICES {
            if below(&mut rng, 4) == 0 {
                pair.set_on(name, below(&mut rng, 2) == 0);
            }
        }
        let span = match below(&mut rng, 3) {
            0 => 1 + below(&mut rng, 59),
            1 => 60 + below(&mut rng, 3_540),
            _ => 3_600 + below(&mut rng, 12 * 3_600),
        };
        t += SimDuration::from_secs(span);
        env.advance_to(t);
        let ctx = format!(
            "case {case} (lat {}, chargers {mask:03b}, soc {soc:.3}), call {call} to {t:?}",
            env.config().latitude_deg
        );
        pair.advance(&env, t, &ctx);
        call += 1;
    }
}

#[test]
fn kernel_matches_the_reference_integrator_on_generated_scenarios() {
    for case in 0..48 {
        run_case(case);
    }
}

/// The per-day memo's edges, pinned explicitly: one call spanning both
/// café season boundaries' midnights with all three chargers, at every
/// preset.
#[test]
fn kernel_matches_the_reference_across_the_cafe_season_edges() {
    for config in [
        EnvConfig::vatnajokull(),
        EnvConfig::briksdalsbreen(),
        EnvConfig::lab(),
    ] {
        for (from, to) in [
            (
                SimTime::from_ymd_hms(2009, 3, 31, 22, 0, 17),
                SimTime::from_ymd_hms(2009, 4, 1, 2, 30, 41),
            ),
            (
                SimTime::from_ymd_hms(2009, 9, 30, 21, 59, 59),
                SimTime::from_ymd_hms(2009, 10, 1, 3, 0, 1),
            ),
        ] {
            let mut env = Environment::new(config.clone(), 5);
            env.advance_to(from);
            let chargers = [
                Charger::Solar(SolarPanel::new(Watts(10.0))),
                Charger::Wind(WindTurbine::new(Watts(50.0))),
                Charger::Mains(MainsCharger::new(Watts(30.0))),
            ];
            let battery = LeadAcidBattery::with_state(AmpHours(36.0), 0.4);
            let mut pair = Pair::new(battery, from, &chargers);
            pair.add_load("gumstix", Watts(0.9));
            pair.set_on("gumstix", true);
            env.advance_to(to);
            pair.advance(
                &env,
                to,
                &format!("{} {from:?} → {to:?}", config.latitude_deg),
            );
        }
    }
}
