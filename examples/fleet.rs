//! Fleet quickstart: simulate ten glacier sites of a thousand stations
//! each for a simulated month, sharded across the worker pool, and show
//! what the leap kernel saved over naive per-tick stepping.
//!
//! ```text
//! cargo run --example fleet --release
//! ```

use std::time::Instant;

use glacsweb_fleet::{Fleet, FleetConfig};

fn main() {
    let config = FleetConfig::new(10, 1_000)
        .seed(2010)
        .storms(6.0, 36.0)
        .rotation_days(14);
    let mut fleet = Fleet::new(config.clone()).expect("valid fleet config");
    println!(
        "running {} sites x {} stations for 30 simulated days…\n",
        fleet.config().sites,
        fleet.config().stations_per_site
    );

    let wall = Instant::now();
    fleet.run_days(30);
    let secs = wall.elapsed().as_secs_f64();

    let summary = fleet.summary();
    let station_days = summary.stations as f64 * summary.days;
    println!(
        "{} stations, {:.0} days: {:.2} M station-days/sec ({:.3}s wall)",
        summary.stations,
        summary.days,
        station_days / secs / 1.0e6,
        secs
    );
    println!(
        "comms windows: {} ({:.1}% healthy, {} lost), deaths {}, restarts {}, overrides {}",
        summary.comms_windows(),
        summary.healthy_fraction() * 100.0,
        summary.windows_lost,
        summary.deaths,
        summary.restarts,
        summary.overrides
    );
    println!(
        "mean final state of charge: {:.1}%",
        summary.mean_soc * 100.0
    );

    let exec = fleet.exec_stats();
    let covered = exec.ticks_stepped + exec.ticks_leapt;
    println!(
        "\nkernel: {} wakes, {} leaps over {} segments covering {} ticks \
         ({:.1}% of {} total; {} stepped naively)",
        exec.wakes,
        exec.leaps,
        exec.segments,
        exec.ticks_leapt,
        100.0 * exec.ticks_leapt as f64 / covered.max(1) as f64,
        covered,
        exec.ticks_stepped
    );
    println!(
        "per wake: {:.0}ns wall, {:.1} segments per leap",
        secs * 1.0e9 / exec.wakes.max(1) as f64,
        exec.segments as f64 / exec.leaps.max(1) as f64
    );

    // The same fleet stepped naively, tick by tick: the leap kernel's
    // oracle, which must land on the identical state.
    let mut naive = Fleet::new(config.leaping(false)).expect("valid fleet config");
    let wall = Instant::now();
    naive.run_days(30);
    let naive_secs = wall.elapsed().as_secs_f64();
    assert_eq!(
        fleet.state_digest(),
        naive.state_digest(),
        "leap and naive kernels diverged"
    );
    println!(
        "naive per-tick stepping: {:.3}s wall, same state; leaping is {:.1}x faster",
        naive_secs,
        naive_secs / secs
    );

    // The digest is the determinism handle: any two runs of this example
    // on any thread count print the same value.
    println!("\nstate digest: {:#018x}", fleet.state_digest());
}
