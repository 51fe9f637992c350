//! Engine-level acceptance tests: seeded mutations prove each semantic
//! pack fires on the live workspace.

use std::path::{Path, PathBuf};

use glacsweb_analyze::{analyze_sources, workspace_sources, Report, RuleId};

fn workspace_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

fn live_sources() -> Vec<(String, String)> {
    workspace_sources(&workspace_root()).expect("workspace readable")
}

fn count(report: &Report, rule: RuleId) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

/// Applies one textual mutation to one live file and returns the
/// resulting report plus the baseline. Asserts the anchor text exists so
/// a refactor that moves it fails loudly here instead of silently
/// weakening the mutation.
fn mutate(rel: &str, from: &str, to: &str) -> (Report, Report) {
    let mut files = live_sources();
    let baseline = analyze_sources("live", &files);
    let entry = files
        .iter_mut()
        .find(|(r, _)| r == rel)
        .unwrap_or_else(|| panic!("{rel} not in workspace"));
    assert!(
        entry.1.contains(from),
        "mutation anchor {from:?} missing from {rel}; update the test"
    );
    entry.1 = entry.1.replace(from, to);
    let mutated = analyze_sources("live", &files);
    (baseline, mutated)
}

#[test]
fn live_baseline_is_clean_and_all_packs_are_active() {
    let report = analyze_sources("live", &live_sources());
    let remaining: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        remaining.is_empty(),
        "unsuppressed findings:\n{}",
        remaining.join("\n")
    );
}

#[test]
fn deleting_a_field_from_a_serialize_path_fires_snapshot_coverage_once() {
    let (baseline, mutated) = mutate(
        "crates/power/src/rail.rs",
        "self.harvested.to_value()",
        "Value::Null",
    );
    assert_eq!(
        count(&mutated, RuleId::SnapshotCoverage),
        count(&baseline, RuleId::SnapshotCoverage) + 1
    );
    let finding = mutated
        .findings
        .iter()
        .find(|f| f.rule == RuleId::SnapshotCoverage)
        .expect("coverage finding");
    assert!(!finding.suppressed);
    assert_eq!(finding.file, "crates/power/src/rail.rs");
    assert!(
        finding.message.contains("`harvested`"),
        "{}",
        finding.message
    );
    // No collateral findings from the other pack.
    assert_eq!(
        count(&mutated, RuleId::RngDrawBudget),
        count(&baseline, RuleId::RngDrawBudget)
    );
}

#[test]
fn unbalancing_a_wake_branch_fires_rng_draw_budget_once() {
    let (baseline, mutated) = mutate(
        "crates/fleet/src/kernel.rs",
        "self.counters.windows_lost += 1;",
        "self.counters.windows_lost += 1; let _ = rng.f64();",
    );
    assert_eq!(
        count(&mutated, RuleId::RngDrawBudget),
        count(&baseline, RuleId::RngDrawBudget) + 1,
        "exactly one budget finding expected"
    );
    let finding = mutated
        .findings
        .iter()
        .find(|f| f.rule == RuleId::RngDrawBudget)
        .expect("budget finding");
    assert!(!finding.suppressed);
    assert_eq!(finding.file, "crates/fleet/src/kernel.rs");
    assert!(
        finding
            .message
            .contains("exceeding the declared budget of 4"),
        "{}",
        finding.message
    );
}

#[test]
fn stale_ledger_entry_carries_its_own_location() {
    // Satellite regression: a deliberately stale entry's finding must
    // point at the ledger comment itself (clickable from --deny output),
    // not at any rule's original site.
    let mut files = live_sources();
    let entry = files
        .iter_mut()
        .find(|(r, _)| r == "crates/power/src/rail.rs")
        .expect("rail.rs present");
    let stale_line_text =
        "// glacsweb: allow(determinism, reason = \"deliberately stale for the regression test\")";
    entry.1 = format!("{stale_line_text}\n{}", entry.1);
    let report = analyze_sources("live", &files);
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            f.rule == RuleId::SuppressionHygiene && f.message.contains("deliberately stale")
        })
        .collect();
    assert_eq!(stale.len(), 1, "exactly one stale-entry finding");
    assert_eq!(stale[0].file, "crates/power/src/rail.rs");
    assert_eq!(
        stale[0].line, 1,
        "must anchor at the ledger entry's own line"
    );
    assert!(stale[0].message.contains("matches no finding"));
}
