//! Snapshot bytes are the checkpoint's contract, so the encoder that
//! streams a [`DeploymentState`] straight into the envelope must write
//! exactly the bytes of encoding its `to_value()` tree — at any seed, any
//! checkpoint instant, and mid-outage with a fault plan and telemetry
//! recorders in the state. The 60-day Iceland checkpoint is pinned by
//! digest so a change that moved both paths at once is caught too.

use glacsweb::{Deployment, Fault, FaultPlan, FaultSpec, FaultTarget, Scenario};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_snapshot::to_bytes;
use glacsweb_station::StationConfig;
use serde::Serialize;

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The Fig 5 two-station, four-probe field deployment.
fn fig5(seed: u64) -> glacsweb::DeploymentBuilder {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    glacsweb::DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
}

fn assert_streamed_equals_tree(d: &Deployment, what: &str) {
    let state = d.snapshot();
    let streamed = to_bytes(&state);
    let tree = to_bytes(&state.to_value());
    assert!(
        streamed == tree,
        "{what}: streamed snapshot differs from the tree encoding"
    );
}

#[test]
fn streamed_deployment_state_equals_the_tree_encoding() {
    for seed in [1, 401, 2008] {
        let mut d = fig5(seed).build();
        assert_streamed_equals_tree(&d, &format!("seed {seed}, day 0"));
        for day in [7, 45] {
            d.run_until(d.start() + SimDuration::from_days(day) + SimDuration::from_hours(13));
            assert_streamed_equals_tree(&d, &format!("seed {seed}, day {day}"));
        }
    }
}

#[test]
fn streamed_state_equals_the_tree_mid_outage_with_telemetry() {
    let plan = FaultPlan::new()
        .with(FaultSpec {
            fault: Fault::ServerUnreachable,
            target: FaultTarget::Server,
            onset: SimDuration::from_days(18),
            duration: SimDuration::from_days(7),
            recurrence: None,
        })
        .with(FaultSpec {
            fault: Fault::GprsDegradation { severity: 3.0 },
            target: FaultTarget::Base,
            onset: SimDuration::from_days(5),
            duration: SimDuration::from_days(30),
            recurrence: None,
        });
    let mut d = fig5(2008).fault_plan(plan).observe().build();
    // Inside the outage, off the midday grid: retries mid-backoff, a
    // stranded backlog, and recorders full of events.
    d.run_until(d.start() + SimDuration::from_days(20) + SimDuration::from_hours(15));
    assert!(d.telemetry().is_some(), "observability is on");
    assert_streamed_equals_tree(&d, "mid-outage");
}

#[test]
fn sixty_day_iceland_snapshot_bytes_are_pinned() {
    let mut d = Scenario::iceland_2008().seed(2008).build();
    d.run_days(60);
    let bytes = to_bytes(&d.snapshot());
    assert_eq!(bytes.len(), 2_747_802);
    assert_eq!(format!("{:016x}", fnv1a(&bytes)), "9bf759e2f80b6727");
}
