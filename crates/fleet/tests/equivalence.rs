//! The fleet kernel's load-bearing contract: quiescent-station leaping
//! is **bit-identical** to naive per-tick stepping, and sharding across
//! threads is byte-invisible in every exported artefact.

use glacsweb_fleet::{Fleet, FleetConfig};
use glacsweb_sim::SimRng;

fn small_config() -> FleetConfig {
    FleetConfig::new(3, 12).seed(2008)
}

/// Leap mode and naive tick mode walk bit-identical trajectories: every
/// battery/meter bit, OU anomaly, RNG position, schedule cursor and
/// service counter agrees after a 30-day run, on the small fleet and on
/// a thousand stations.
#[test]
fn leaping_is_bit_identical_to_ticking() {
    for config in [small_config(), FleetConfig::new(4, 250).seed(2010)] {
        let mut leap = Fleet::new(config.clone().leaping(true)).unwrap();
        let mut tick = Fleet::new(config.leaping(false)).unwrap();
        leap.run_days(30);
        tick.run_days(30);
        assert_eq!(
            leap.state_digest(),
            tick.state_digest(),
            "leap and tick kernels diverged"
        );
        assert_eq!(leap.telemetry().to_json(), tick.telemetry().to_json());
        assert_eq!(leap.summary().to_json(), tick.summary().to_json());
    }
}

/// Equivalence holds across interleaved horizons too — leaping must not
/// depend on run_until boundaries lining up with wake instants.
#[test]
fn leaping_is_bit_identical_under_ragged_horizons() {
    let mut leap = Fleet::new(small_config().leaping(true)).unwrap();
    let mut tick = Fleet::new(small_config().leaping(false)).unwrap();
    for days in [1, 3, 2, 7, 1] {
        leap.run_days(days);
        tick.run_days(days);
        assert_eq!(
            leap.state_digest(),
            tick.state_digest(),
            "diverged at a ragged horizon"
        );
    }
}

/// The leap kernel actually leaps: on a quiescent fleet the bulk of
/// simulated ticks are covered by closed-form advances, not stepping.
#[test]
fn leap_mode_actually_leaps() {
    let mut fleet = Fleet::new(small_config().leaping(true)).unwrap();
    fleet.run_days(30);
    let exec = fleet.exec_stats();
    assert!(exec.leaps > 0, "no leap calls issued");
    assert!(
        exec.ticks_leapt > 10 * exec.ticks_stepped.max(1),
        "leap mode stepped too much: {exec:?}"
    );
    let mut naive = Fleet::new(small_config().leaping(false)).unwrap();
    naive.run_days(30);
    let nexec = naive.exec_stats();
    assert_eq!(nexec.leaps, 0, "naive mode must not leap");
    assert!(nexec.ticks_stepped > 0);
}

/// Thread count is byte-invisible: telemetry, summary and digest agree
/// between a single-threaded run and an eight-way sharded run.
#[test]
fn thread_count_is_byte_invisible() {
    let mut one = Fleet::new(small_config()).unwrap();
    one.set_threads(1);
    one.run_days(20);
    let mut eight = Fleet::new(small_config()).unwrap();
    eight.set_threads(8);
    eight.run_days(20);
    assert_eq!(one.state_digest(), eight.state_digest());
    assert_eq!(one.telemetry().to_json(), eight.telemetry().to_json());
    assert_eq!(one.summary().to_json(), eight.summary().to_json());
}

/// Fixed-seed golden digest: any change to fleet trajectory semantics
/// must be deliberate and update this constant (leaping on and off both
/// reproduce it, by the equivalence above).
#[test]
fn fixed_seed_golden_digest() {
    let mut fleet = Fleet::new(small_config()).unwrap();
    fleet.run_days(30);
    let digest = fleet.state_digest();
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "fleet trajectory changed: digest {digest:#018x} (update GOLDEN_DIGEST if deliberate)"
    );
    let mut naive = Fleet::new(small_config().leaping(false)).unwrap();
    naive.run_days(30);
    assert_eq!(naive.state_digest(), GOLDEN_DIGEST);
}

const GOLDEN_DIGEST: u64 = 0x8141_dbc0_0e24_7253;

/// Storms, deaths and recoveries all exercise the kernel's edge paths
/// in a modest run; make sure the scenario is not degenerate.
#[test]
fn scenario_is_not_degenerate() {
    let mut fleet = Fleet::new(FleetConfig::new(4, 25).seed(7).storms(2.0, 24.0)).unwrap();
    fleet.run_days(60);
    let summary = fleet.summary();
    assert!(summary.comms_windows() > 1000, "{summary:?}");
    assert!(summary.storm_wakes > 0, "storms never intersected a window");
    assert!(summary.windows_lost > 0, "attach failures never happened");
    assert!(summary.sample_wakes > 0);
}

/// Every wake stays inside its draw budget, in both kernel modes and in
/// every build profile: the wake's draw handle refuses a draw past the
/// budget and the fleet counts the refusal, and each station's stream
/// sits exactly four raw draws per wake past the two its construction
/// took (the storm scenario runs every wake branch: sensing, comms
/// attach and retry, deaths and restarts).
#[test]
fn every_wake_stays_within_its_draw_budget() {
    for leaping in [true, false] {
        let config = FleetConfig::new(4, 25)
            .seed(7)
            .storms(2.0, 24.0)
            .leaping(leaping);
        let mut fleet = Fleet::new(config).unwrap();
        fleet.run_days(60);
        let exec = fleet.exec_stats();
        assert!(exec.wakes > 0);
        assert_eq!(exec.overdraws, 0, "a wake overdrew its draw budget");
        let stations: u64 = 4 * 25;
        let drawn: u64 = fleet
            .sites()
            .iter()
            .flat_map(|site| &site.st.rng)
            .map(SimRng::position)
            .sum();
        assert_eq!(drawn, 2 * stations + 4 * exec.wakes, "leaping {leaping}");
    }
}
