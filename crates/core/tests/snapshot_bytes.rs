//! Snapshot bytes are the checkpoint's contract, so the encoder that
//! streams a [`DeploymentState`] straight into the envelope must write
//! exactly the bytes of encoding its `to_value()` tree — at any seed, any
//! checkpoint instant, and mid-outage with a fault plan and telemetry
//! recorders in the state. The 60-day Iceland checkpoint is pinned by
//! digest so a change that moved both paths at once is caught too.
//!
//! The decoder that reads a `DeploymentState` straight from the payload
//! is held to the tree path it replaced (the payload's `Value` tree, then
//! `from_value`) on the same states, and on corrupted payloads re-sealed
//! with a valid checksum: the same value, or the same error variant with
//! the same message.

use glacsweb::{
    Deployment, DeploymentState, Fault, FaultPlan, FaultSpec, FaultTarget, Scenario, SnapshotError,
};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_snapshot::{crc32, from_bytes, to_bytes, HEADER_LEN};
use glacsweb_station::StationConfig;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};

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

/// The decode path the streaming one replaced: the whole payload as a
/// `Value` tree, then `from_value`.
fn tree_decode(bytes: &[u8]) -> Result<DeploymentState, SnapshotError> {
    let tree: Value = from_bytes(bytes)?;
    Ok(DeploymentState::from_value(&tree)?)
}

fn variant(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::Io(_) => "Io",
        SnapshotError::BadMagic => "BadMagic",
        SnapshotError::Truncated { .. } => "Truncated",
        SnapshotError::ChecksumMismatch { .. } => "ChecksumMismatch",
        SnapshotError::FutureSchema { .. } => "FutureSchema",
        SnapshotError::Malformed(_) => "Malformed",
        SnapshotError::Invalid(_) => "Invalid",
    }
}

/// Streamed and tree decodes of `bytes` agree: equal states (compared by
/// their encoding), or the same error variant and message. Returns the
/// streamed result.
fn assert_decodes_agree(bytes: &[u8], what: &str) -> Result<DeploymentState, SnapshotError> {
    let streamed = from_bytes::<DeploymentState>(bytes);
    match (&streamed, tree_decode(bytes)) {
        (Ok(s), Ok(t)) => assert!(
            to_bytes(s) == to_bytes(&t),
            "{what}: streamed and tree decodes differ"
        ),
        (Err(s), Err(t)) => assert_eq!(
            (variant(s), s.to_string()),
            (variant(&t), t.to_string()),
            "{what}: streamed and tree decodes fail differently"
        ),
        (s, t) => panic!(
            "{what}: streamed decode {:?} but tree decode {:?}",
            s.as_ref().err(),
            t.err()
        ),
    }
    streamed
}

fn assert_streamed_equals_tree(d: &Deployment, what: &str) {
    let state = d.snapshot();
    let streamed = to_bytes(&state);
    let tree = to_bytes(&state.to_value());
    assert!(
        streamed == tree,
        "{what}: streamed snapshot differs from the tree encoding"
    );
    let decoded = assert_decodes_agree(&streamed, what)
        .unwrap_or_else(|e| panic!("{what}: a fresh snapshot fails to decode: {e}"));
    assert!(
        to_bytes(&decoded) == streamed,
        "{what}: decode does not round-trip"
    );
}

/// Offsets of every value tag in a payload, with the tag: a linear scan,
/// since containers are only headers in the byte stream.
fn tags(payload: &[u8]) -> Vec<(usize, u8)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(&tag) = payload.get(pos) {
        out.push((pos, tag));
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&payload[at..at + 8]);
            u64::from_le_bytes(w) as usize
        };
        pos += match tag {
            0..=2 => 1,
            6 => 9 + word(pos + 1),
            _ => 9,
        };
    }
    out
}

/// Re-seals a payload edited in place: new length and checksum.
fn reseal(bytes: &mut [u8]) {
    let (header, payload) = bytes.split_at_mut(HEADER_LEN);
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// One corruption of a valid snapshot, chosen by `rng`: a scalar's tag
/// swapped for another of the same width (a typed error or a changed
/// value), a byte of a string changed (a renamed field, an unknown
/// variant, or invalid UTF-8), or any payload byte flipped (anything,
/// structural faults included).
fn corrupt(bytes: &[u8], tags: &[(usize, u8)], rng: &mut TestRng) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let pick = |rng: &mut TestRng, n: usize| (rng.next_u64() % n as u64) as usize;
    let (what, at, byte) = match rng.next_u64() % 4 {
        0 | 1 => {
            let words: Vec<_> = tags.iter().filter(|(_, t)| (3..=5).contains(t)).collect();
            let narrow: Vec<_> = tags.iter().filter(|(_, t)| *t <= 2).collect();
            let pool = if rng.next_u64().is_multiple_of(2) {
                words
            } else {
                narrow
            };
            let &&(at, tag) = &pool[pick(rng, pool.len())];
            let base = if tag >= 3 { 3 } else { 0 };
            let new = base + (tag - base + 1 + (rng.next_u64() % 2) as u8) % 3;
            ("tag swap", HEADER_LEN + at, new)
        }
        2 => {
            let strs: Vec<_> = tags
                .iter()
                .filter(|&&(at, t)| t == 6 && bytes[HEADER_LEN + at + 1] > 0)
                .collect();
            let &&(at, _) = &strs[pick(rng, strs.len())];
            let len = bytes[HEADER_LEN + at + 1] as usize;
            let byte_at = HEADER_LEN + at + 9 + pick(rng, len.min(32));
            let new = [b'q', b'_', 0xC3, 0xFF][pick(rng, 4)];
            ("string byte", byte_at, new)
        }
        _ => {
            let at = HEADER_LEN + pick(rng, bytes.len() - HEADER_LEN);
            ("byte flip", at, bytes[at] ^ (1 << pick(rng, 8)))
        }
    };
    out[at] = byte;
    reseal(&mut out);
    (out, format!("{what} at {at} to {byte:#04x}"))
}

#[test]
fn corrupted_payloads_fail_as_the_tree_path_fails() {
    let mut d = fig5(401).build();
    d.run_until(d.start() + SimDuration::from_days(3) + SimDuration::from_hours(13));
    let bytes = to_bytes(&d.snapshot());
    let tags = tags(&bytes[HEADER_LEN..]);
    let mut rng = TestRng::deterministic(0x5EED);
    let mut outcomes = std::collections::BTreeMap::new();
    for case in 0..144 {
        let (mut corrupted, mut what) = corrupt(&bytes, &tags, &mut rng);
        if case >= 96 {
            // Two faults at once: which error wins is decided by the
            // tree path's order (structural first, then fields in
            // declaration order), which the streamed decode must keep.
            let (twice, second) = corrupt(&corrupted, &tags, &mut rng);
            corrupted = twice;
            what = format!("{what}, then {second}");
        }
        let outcome = match assert_decodes_agree(&corrupted, &format!("case {case}: {what}")) {
            Ok(_) => "Ok",
            Err(e) => variant(&e),
        };
        *outcomes.entry(outcome).or_insert(0) += 1;
    }
    // The generator must reach every outcome, or the agreement is vacuous.
    for outcome in ["Ok", "Invalid", "Malformed"] {
        assert!(
            outcomes.contains_key(outcome),
            "no {outcome} case: {outcomes:?}"
        );
    }
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
