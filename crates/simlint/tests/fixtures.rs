//! Fixture tests: every rule must trip on its dedicated fixture under
//! `tests/fixtures/`, and the allowlist must silence it. The fixtures are
//! plain text (never compiled, and the workspace scanner skips the
//! `tests/fixtures/` path), so they can contain arbitrarily bad code.

use std::path::Path;

use simlint::manifest::{l4_dep_layering, Manifest};
use simlint::rules;
use simlint::source::SourceFile;
use simlint::{Finding, Rule};

fn fixture_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Load a fixture as if it lived at `rel_path` in crate `crate_name`.
fn fixture_as(name: &str, rel_path: &str, crate_name: &str) -> SourceFile {
    SourceFile::from_text(&fixture_text(name), rel_path.into(), crate_name.into(), false)
}

fn run_rule(rule: fn(&SourceFile, &mut Vec<Finding>), file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    rule(file, &mut out);
    out
}

#[test]
fn l1_fixture_trips_unit_safety() {
    let f = fixture_as("l1_unit.rs", "crates/core/src/fixture.rs", "core");
    let findings = run_rule(rules::l1_unit_safety, &f);
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::UnitSafety));
}

#[test]
fn l2_fixture_trips_no_panic() {
    let f = fixture_as("l2_panic.rs", "crates/core/src/fixture.rs", "core");
    let findings = run_rule(rules::l2_no_panic, &f);
    assert_eq!(findings.len(), 5, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::NoPanic));
}

#[test]
fn l3_fixture_trips_determinism() {
    let f = fixture_as("l3_nondet.rs", "crates/core/src/fixture.rs", "core");
    let findings = run_rule(rules::l3_determinism, &f);
    // Instant::now, SystemTime (×2: return type + body), thread_rng,
    // HashMap (×2: return type + body).
    assert!(findings.len() >= 4, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::Determinism));
}

#[test]
fn l4_fixture_trips_dep_layering() {
    let root = Manifest::parse(
        "[workspace]\n[workspace.dependencies]\nhcapp = { path = \"crates/core\" }\n",
        "Cargo.toml".into(),
    );
    let bad = Manifest::parse(&fixture_text("l4_bad.toml"), "crates/sim-core/Cargo.toml".into());
    let mut findings = Vec::new();
    l4_dep_layering(&[root, bad], &mut findings);
    let excerpts: Vec<&str> = findings.iter().map(|f| f.excerpt.as_str()).collect();
    assert!(
        excerpts.iter().any(|e| e.contains("registry")),
        "{excerpts:#?}"
    );
    assert!(
        excerpts.iter().any(|e| e.contains("criterion")),
        "{excerpts:#?}"
    );
    assert!(
        excerpts.iter().any(|e| e.contains("hierarchy")),
        "{excerpts:#?}"
    );
}

#[test]
fn l5_fixture_trips_doc_coverage() {
    let f = fixture_as(
        "l5_uncited.rs",
        "crates/core/src/controller/fixture.rs",
        "core",
    );
    let findings = run_rule(rules::l5_doc_coverage, &f);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == Rule::DocCoverage));
}

#[test]
fn rules_stay_in_scope() {
    // The same bad code outside a simulation crate is not simlint's
    // business (the cli/experiments hosts may use HashMap etc.).
    let f = fixture_as("l3_nondet.rs", "crates/experiments/src/fixture.rs", "experiments");
    assert!(run_rule(rules::l3_determinism, &f).is_empty());
    // And L5 only applies under crates/core/src/controller/.
    let f = fixture_as("l5_uncited.rs", "crates/core/src/fixture.rs", "core");
    assert!(run_rule(rules::l5_doc_coverage, &f).is_empty());
}

#[test]
fn allow_directives_silence_fixture_findings() {
    // Prefix every offending line with an allow comment line.
    let raw = fixture_text("l2_panic.rs");
    let patched: String = raw
        .lines()
        .map(|l| {
            if l.contains("unwrap")
                || l.contains("panic!")
                || l.contains("todo!")
                || l.contains("unreachable!")
                || l.contains(".expect(")
            {
                format!("    // simlint: allow(no-panic)\n{l}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let f = SourceFile::from_text(&patched, "crates/core/src/fixture.rs".into(), "core".into(), false);
    assert!(run_rule(rules::l2_no_panic, &f).is_empty());
}

#[test]
fn allow_file_directive_silences_whole_fixture() {
    let raw = format!("//! simlint: allow-file(L3)\n{}", fixture_text("l3_nondet.rs"));
    let f = SourceFile::from_text(&raw, "crates/core/src/fixture.rs".into(), "core".into(), false);
    assert!(run_rule(rules::l3_determinism, &f).is_empty());
}

// ---- semantic rules (L6–L8): fixtures become an in-memory workspace ----

use simlint::LoadedWorkspace;

/// Load fixtures into an in-memory workspace at the given rel paths, so
/// the semantic rules see a symbol graph.
fn fixture_workspace(files: &[(&str, &str)]) -> LoadedWorkspace {
    let texts: Vec<(String, String)> = files
        .iter()
        .map(|(fixture, rel)| (rel.to_string(), fixture_text(fixture)))
        .collect();
    let refs: Vec<(&str, &str)> = texts.iter().map(|(r, t)| (r.as_str(), t.as_str())).collect();
    LoadedWorkspace::from_texts(&refs)
}

fn json(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(|f| f.to_json()).collect()
}

#[test]
fn l6_fixture_golden_json() {
    let ws = fixture_workspace(&[("l6_reach.rs", "crates/core/src/fx_l6.rs")]);
    let findings = ws.check(&[Rule::PanicReachability]);
    assert_eq!(
        json(&findings),
        vec![
            r#"{"rule":"L6","name":"panic-reachability","file":"crates/core/src/fx_l6.rs","line":18,"excerpt":"raw.unwrap()","note":"unwrap() reachable from hot loop via QuantumCtl::step -> decode"}"#,
            r#"{"rule":"L6","name":"panic-reachability","file":"crates/core/src/fx_l6.rs","line":22,"excerpt":"h[0]","note":"index expression reachable from hot loop via QuantumCtl::step -> latest"}"#,
        ]
    );
}

#[test]
fn l7_fixture_golden_json() {
    let ws = fixture_workspace(&[("l7_lock.rs", "crates/core/src/fx_l7.rs")]);
    let findings = ws.check(&[Rule::LockDiscipline]);
    assert_eq!(
        json(&findings),
        vec![
            r#"{"rule":"L7","name":"lock-discipline","file":"crates/core/src/fx_l7.rs","line":17,"excerpt":"self.tx.send(7);","note":"channel `send` while holding lock `queue` in Pool::send_while_locked"}"#,
            r#"{"rule":"L7","name":"lock-discipline","file":"crates/core/src/fx_l7.rs","line":23,"excerpt":"let b = self.merge.lock();","note":"lock `merge` acquired while holding `queue`, but the reverse order exists at crates/core/src/fx_l7.rs:30"}"#,
            r#"{"rule":"L7","name":"lock-discipline","file":"crates/core/src/fx_l7.rs","line":30,"excerpt":"let a = self.queue.lock();","note":"lock `queue` acquired while holding `merge`, but the reverse order exists at crates/core/src/fx_l7.rs:23"}"#,
            r#"{"rule":"L7","name":"lock-discipline","file":"crates/core/src/fx_l7.rs","line":57,"excerpt":"std::thread::park();","note":"thread `park` while holding lock `cmd` in Barrier::park_while_reading"}"#,
        ]
    );
}

#[test]
fn l8_fixture_golden_json() {
    let ws = fixture_workspace(&[("l8_time.rs", "crates/core/src/fx_l8.rs")]);
    let findings = ws.check(&[Rule::TimeDomain]);
    assert_eq!(
        json(&findings),
        vec![
            r#"{"rule":"L8","name":"time-domain","file":"crates/core/src/fx_l8.rs","line":8,"excerpt":"let t0 = Instant::now();","note":"wall-clock type `Instant` in leaks_wall_clock"}"#,
            r#"{"rule":"L8","name":"time-domain","file":"crates/core/src/fx_l8.rs","line":13,"excerpt":"power == 1.5","note":"exact float comparison in exact_float_compare"}"#,
        ]
    );
}

#[test]
fn l6_item_level_allow_silences_whole_fn() {
    // An item-level allow above `decode` covers every line of its body.
    let raw = fixture_text("l6_reach.rs").replace(
        "fn decode(raw: Option<f64>) -> f64 {",
        "// simlint: allow(L6): fixture demonstrates item-level suppression\nfn decode(raw: Option<f64>) -> f64 {",
    );
    let ws = LoadedWorkspace::from_texts(&[("crates/core/src/fx_l6.rs", raw.as_str())]);
    let findings = ws.check(&[Rule::PanicReachability]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].excerpt.contains("h[0]"), "{findings:#?}");
}

#[test]
fn l9_flags_bare_allows_and_accepts_justified_ones() {
    let src = "\
// simlint: allow(L2)
pub fn bare() {}

// simlint: allow(L2): fixture needs a justified directive here
pub fn justified() {}
";
    let ws = LoadedWorkspace::from_texts(&[("crates/core/src/fx_l9.rs", src)]);
    let findings = ws.check(&[Rule::AllowHygiene]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].note.contains("bare `allow(L2)`"), "{findings:#?}");
}

#[test]
fn changed_file_filter_agrees_with_full_pass() {
    // `simlint --changed` filters the report after a full-workspace
    // analysis; the incremental view of one file must therefore equal the
    // full pass restricted to that file — including findings whose cause
    // lives in another file (L7's cross-file lock-order evidence).
    let ws = fixture_workspace(&[
        ("l6_reach.rs", "crates/core/src/fx_l6.rs"),
        ("l7_lock.rs", "crates/core/src/fx_l7.rs"),
        ("l8_time.rs", "crates/core/src/fx_l8.rs"),
    ]);
    let sem = [Rule::PanicReachability, Rule::LockDiscipline, Rule::TimeDomain];
    let full = ws.check(&sem);
    assert_eq!(full.len(), 8, "{full:#?}");
    for (fixture, rel) in [
        ("l6_reach.rs", "crates/core/src/fx_l6.rs"),
        ("l7_lock.rs", "crates/core/src/fx_l7.rs"),
        ("l8_time.rs", "crates/core/src/fx_l8.rs"),
    ] {
        let restricted: Vec<&Finding> = full.iter().filter(|f| f.file == rel).collect();
        let solo_ws = fixture_workspace(&[(fixture, rel)]);
        let solo = solo_ws.check(&sem);
        assert_eq!(
            restricted,
            solo.iter().collect::<Vec<_>>(),
            "changed-file view of {rel} diverges from its full-pass findings"
        );
        assert!(!restricted.is_empty(), "no findings for {rel}");
    }
}

#[test]
fn cfg_test_code_is_exempt_from_l2_and_l3() {
    let wrapped = format!(
        "#[cfg(test)]\nmod tests {{\n{}\n}}\n",
        fixture_text("l2_panic.rs")
    );
    let f = SourceFile::from_text(&wrapped, "crates/core/src/x.rs".into(), "core".into(), false);
    assert!(run_rule(rules::l2_no_panic, &f).is_empty());
}
