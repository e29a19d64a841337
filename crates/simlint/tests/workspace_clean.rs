//! The linter's own acceptance test: the real workspace must be clean.
//!
//! This is the same check CI runs via `cargo run -p simlint -- check`,
//! executed in-process so `cargo test` alone already guards the invariants
//! (and so a regression points at the exact finding, not just an exit
//! code).

use std::path::Path;

use simlint::config::Config;
use simlint::driver;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint sits two levels below the workspace root")
}

fn load_config(root: &Path) -> Config {
    let text = std::fs::read_to_string(root.join("simlint.toml")).expect("simlint.toml exists");
    Config::parse(&text).expect("simlint.toml parses")
}

#[test]
fn workspace_has_no_findings() {
    let root = workspace_root();
    let cfg = load_config(root);
    let result = driver::check_workspace(root, &cfg).expect("scan succeeds");
    assert!(
        result.findings.is_empty(),
        "workspace lint findings:\n{}",
        result
            .findings
            .iter()
            .map(driver::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually covered the tree.
    assert!(result.files_scanned > 50, "{} files", result.files_scanned);
}

#[test]
fn every_unsafe_site_is_documented_and_audited() {
    let root = workspace_root();
    let cfg = load_config(root);
    let result = driver::check_workspace(root, &cfg).expect("scan succeeds");
    // Every crate forbids `unsafe_code`, so the audit must come back
    // empty. (That the scanner does detect unsafe sites is pinned on the
    // fixtures in `fixtures.rs`, so an empty audit here is the tree's
    // property, not a blind scanner.)
    assert!(
        result.unsafe_sites.is_empty(),
        "unsafe sites found: {:?}",
        result.unsafe_sites
    );
    let json = driver::audit_json(&result.unsafe_sites);
    assert!(json.contains("\"schema\": \"simlint-unsafe-audit-v1\""));
    assert!(json.contains("\"total\": 0"), "{json}");
}

#[test]
fn injected_violation_is_caught() {
    // The negative control for the acceptance criterion "exits non-zero
    // when any fixture violation is injected": scan a copy of a real file
    // with one HashMap smuggled in, and watch the finding appear.
    let root = workspace_root();
    let cfg = load_config(root);
    let clean = std::fs::read_to_string(root.join("crates/patronoc/src/routing.rs"))
        .expect("routing.rs readable");
    let report = simlint::rules::scan_file(
        "crates/patronoc/src/routing.rs",
        Some("patronoc"),
        &clean,
        &cfg,
    );
    assert_eq!(report.findings, vec![]);

    let dirty = clean.replacen("BTreeMap", "HashMap", 1);
    let report = simlint::rules::scan_file(
        "crates/patronoc/src/routing.rs",
        Some("patronoc"),
        &dirty,
        &cfg,
    );
    assert!(
        report.findings.iter().any(|f| f.rule == "hash-collection"),
        "{:?}",
        report.findings
    );
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    // The audit above is empty because no crate may contain `unsafe` at
    // all; pin the attribute that makes the compiler enforce it.
    let root = workspace_root();
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = entry.expect("dir entry").path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 10, "only {} crate roots found", roots.len());
    for lib in roots {
        let text = std::fs::read_to_string(&lib).expect("crate root readable");
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{} does not forbid unsafe_code",
            lib.display()
        );
    }
}
