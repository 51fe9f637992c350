//! Engine-level acceptance tests: the full engine re-run on the live
//! workspace sources with one file patched in memory. (The live
//! baseline itself is checked by `self_check.rs`.)

use std::path::{Path, PathBuf};

use glacsweb_analyze::{analyze_sources, workspace_sources, RuleId};

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
