//! Full-year golden trajectory: the Iceland 2008 deployment run to
//! 2009-10-01, reduced through the same canonical digest as the 60-day
//! golden in `golden_trajectory.rs`.
//!
//! The 60-day pin never reaches the polar-winter nights or the April
//! start of the café mains season, so it cannot see a change to the
//! night-time solar path or to the per-day charger evaluation inside
//! `PowerRail::advance`. This pin covers both, at two seeds.
//!
//! Debug builds skip it (~440 simulated days per seed);
//! `cargo test --release` runs it.

use glacsweb::Scenario;
use glacsweb_sim::SimTime;

mod common;

/// Pinned digests, seed → MD5 of the canonical byte stream.
const GOLDEN: [(u64, &str); 2] = [
    (2008, "52978e83d81aad24a6824a6945673c5f"),
    (7, "d767ba87924a1e892edff8a890c614df"),
];

#[cfg_attr(debug_assertions, ignore = "slow in debug; run with --release")]
#[test]
fn full_year_trajectory_hash_is_pinned() {
    for (seed, golden) in GOLDEN {
        let mut d = Scenario::iceland_2008().seed(seed).build();
        d.run_until(SimTime::from_ymd_hms(2009, 10, 1, 0, 0, 0));
        assert_eq!(
            common::trajectory_digest(&d),
            golden,
            "full-year Iceland trajectory diverged (seed {seed})"
        );
    }
}
