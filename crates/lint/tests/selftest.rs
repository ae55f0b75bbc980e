//! Self-tests: every rule must fire on its fixture tree, waivers must
//! suppress (and malformed ones must fail), the committed workspace
//! must lint clean, and the wire-surface freeze must catch a mutation
//! of the real `types.rs`.

use std::path::{Path, PathBuf};

use gtl_lint::engine::{self, Options};
use gtl_lint::surface;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn run_on(root: PathBuf) -> engine::Report {
    engine::run(&Options { root, bless: false }).expect("engine run")
}

#[test]
fn each_rule_fires_on_its_fixture() {
    for rule in [
        "no-raw-thread",
        "no-wallclock-in-compute",
        "obs-clock-only-via-injection",
        "no-unordered-iteration-in-compute",
        "no-rng-outside-derive-stream",
        "no-panic-on-serve-path",
        "forbid-unsafe-attr",
        "wire-surface-freeze",
        "temp-dir-via-helper",
    ] {
        let report = run_on(fixture_root(rule));
        assert!(!report.clean(), "fixture for `{rule}` should fail");
        assert!(
            report.violations.iter().any(|fv| fv.violation.rule == rule),
            "fixture for `{rule}` should violate it; got {:?}",
            report.violations
        );
        assert!(
            report.violations.iter().all(|fv| fv.violation.rule == rule),
            "fixture for `{rule}` should violate ONLY it; got {:?}",
            report.violations
        );
    }
}

#[test]
fn panic_fixture_catches_both_unwrap_and_macro() {
    let report = run_on(fixture_root("no-panic-on-serve-path"));
    assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
}

#[test]
fn waived_fixture_is_clean_with_one_waiver_in_force() {
    let report = run_on(fixture_root("waived"));
    assert!(report.clean(), "{:?}", report.violations);
    assert_eq!(report.waivers.len(), 1);
    assert_eq!(report.waivers[0].suppressed, 1);
    assert_eq!(report.unused_waivers().count(), 0);
}

#[test]
fn waiver_without_reason_fails_and_suppresses_nothing() {
    let report = run_on(fixture_root("bad-waiver"));
    let rules: Vec<&str> = report.violations.iter().map(|fv| fv.violation.rule).collect();
    assert!(rules.contains(&"waiver-syntax"), "{rules:?}");
    assert!(rules.contains(&"no-raw-thread"), "malformed waiver must not suppress: {rules:?}");
}

#[test]
fn wire_surface_fixture_reports_drift_without_bump() {
    let report = run_on(fixture_root("wire-surface-freeze"));
    let v = &report.violations[0].violation;
    assert!(v.message.contains("without an API_VERSION bump"), "{}", v.message);
}

#[test]
fn committed_workspace_lints_clean() {
    let report = run_on(workspace_root());
    let rendered = engine::render(&report);
    assert!(report.clean(), "committed tree must lint clean:\n{rendered}");
    assert_eq!(report.unused_waivers().count(), 0, "stale waivers:\n{rendered}");
    assert!(report.files_checked > 50, "walk looks truncated: {}", report.files_checked);
    assert!(!report.waivers.is_empty(), "expected documented waivers in the tree");
}

#[test]
fn engine_output_is_deterministic() {
    let a = engine::render(&run_on(workspace_root()));
    let b = engine::render(&run_on(workspace_root()));
    assert_eq!(a, b);
}

#[test]
fn mutating_real_types_rs_without_bump_trips_the_freeze() {
    let root = workspace_root();
    let types_src =
        std::fs::read_to_string(root.join(surface::SURFACE_SOURCE)).expect("read types.rs");
    let golden =
        std::fs::read_to_string(root.join(surface::GOLDEN_PATH)).expect("read committed golden");

    // The committed pair must agree.
    let live = surface::extract_surface(&types_src);
    assert_eq!(live, golden, "committed fingerprint is stale — rerun with GTL_BLESS=1");

    // Renaming a pub field on a copy (no version bump) must trip the
    // freeze and be refused a bless.
    let mutated = types_src.replace("pub avg_pins_per_cell:", "pub avg_pins_per_cell_renamed:");
    assert_ne!(mutated, types_src, "mutation target vanished from types.rs");
    let drifted = surface::extract_surface(&mutated);
    let violations = surface::check_freeze(&drifted, Some(&golden));
    assert_eq!(violations.len(), 1);
    assert!(
        violations[0].message.contains("without an API_VERSION bump"),
        "{}",
        violations[0].message
    );
    assert!(surface::bless_allowed(&drifted, Some(&golden)).is_err());

    // The same mutation WITH a version bump is still reported (the
    // golden is stale) but may be blessed.
    let current_version =
        surface::api_version_of(&live).expect("types.rs must declare API_VERSION");
    let bumped =
        mutated.replace(&format!("API_VERSION: u32 = {current_version}"), "API_VERSION: u32 = 999");
    let bumped_surface = surface::extract_surface(&bumped);
    assert_ne!(
        surface::api_version_of(&bumped_surface),
        surface::api_version_of(&live),
        "version bump did not take — const formatting changed?"
    );
    assert!(surface::bless_allowed(&bumped_surface, Some(&golden)).is_ok());
}
