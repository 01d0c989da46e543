//! Fixture-based self-tests for the lint rules, plus the meta-test that
//! keeps the live workspace lint-clean.
//!
//! Each fixture under `tests/fixtures/` declares its expected
//! violations inline: a trailing `//~ rule-id` comment marks a line the
//! rule must flag, and every unmarked line must stay clean. The runner
//! compares the (line, rule) sets exactly, so a rule that drifts by one
//! line — or starts over/under-reporting — fails here before it ever
//! confuses a CI run. The fixtures are lexed, never compiled; the
//! workspace walker skips `fixtures/` directories so the live lint does
//! not see them.

use std::path::{Path, PathBuf};
use tsue_lint::{lexer, lint_source, run_workspace_with, AllowEntry, Config};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    tsue_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint.toml above crates/lint")
}

/// Collects the `//~ rule-id` markers from a fixture source.
fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let lx = lexer::lex(src);
    let mut out: Vec<(u32, String)> = lx
        .comments
        .iter()
        .filter_map(|c| {
            c.text
                .strip_prefix('~')
                .map(|rest| (c.line, rest.trim().to_string()))
        })
        .collect();
    out.sort();
    out
}

/// Lints one fixture as if it were data-plane source and checks the
/// violation set is line-exact against the inline markers.
fn check_fixture(name: &str, rule: &str) {
    let src = std::fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let expected = expected_markers(&src);
    assert!(!expected.is_empty(), "fixture {name} declares no markers");
    assert!(
        expected.iter().all(|(_, r)| r == rule),
        "fixture {name} mixes rules"
    );
    let cfg = Config {
        data_plane: vec!["crates/fixture".into()],
        ..Default::default()
    };
    let out = lint_source(&format!("crates/fixture/src/{name}"), &src, &cfg);
    let mut got: Vec<(u32, String)> = out
        .violations
        .iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();
    got.sort();
    assert_eq!(
        got, expected,
        "fixture {name}: violations must be line-exact"
    );
}

#[test]
fn fixture_determinism_iter() {
    check_fixture("determinism_iter.rs", "determinism-iter");
}

#[test]
fn fixture_determinism_time() {
    check_fixture("determinism_time.rs", "determinism-time");
}

#[test]
fn fixture_unsafe_safety() {
    check_fixture("unsafe_safety.rs", "unsafe-safety");
}

#[test]
fn fixture_panic_discipline() {
    check_fixture("panic_discipline.rs", "panic-discipline");
}

#[test]
fn fixture_cast_discipline() {
    check_fixture("cast_discipline.rs", "cast-discipline");
}

/// A fresh scratch workspace under the cargo-provided tmpdir; each test
/// uses its own subdirectory so concurrent tests never collide.
fn scratch_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), lib_rs).unwrap();
    root
}

fn plane_cfg() -> Config {
    Config {
        data_plane: vec!["crates/x".into()],
        ..Default::default()
    }
}

#[test]
fn allowlist_round_trip() {
    let root = scratch_workspace("allowlist_rt", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    // Bare violation fails the run.
    let r = run_workspace_with(&root, &plane_cfg()).unwrap();
    assert!(!r.clean());
    assert_eq!(r.error_count(), 1);
    assert_eq!(r.violations[0].rule, "panic-discipline");
    // A matching allowlist entry silences it and is accounted as one
    // spent exemption.
    let mut cfg = plane_cfg();
    cfg.allow.push(AllowEntry {
        rule: "panic-discipline".into(),
        path: "crates/x".into(),
        reason: "fixture: exercises the allowlist path".into(),
    });
    let r = run_workspace_with(&root, &cfg).unwrap();
    assert!(r.clean(), "{}", r.render_text());
    assert_eq!(r.exemptions.len(), 1);
    assert_eq!(r.exemptions[0].kind, "allowlist");
    assert_eq!(r.exemptions[0].used, 1);
    // An entry that silences nothing is itself a violation: the
    // exemption surface may only shrink.
    cfg.allow[0].rule = "determinism-iter".into();
    let r = run_workspace_with(&root, &cfg).unwrap();
    assert!(!r.clean());
    assert!(r
        .violations
        .iter()
        .any(|v| v.message.contains("stale allowlist entry")));
}

#[test]
fn pragma_round_trip_and_budget() {
    let root = scratch_workspace(
        "pragma_rt",
        "fn f(x: Option<u8>) -> u8 {\n    \
         // tsue_lint::allow(panic-discipline, fixture: exercises the pragma path)\n    \
         x.unwrap()\n}\n",
    );
    let r = run_workspace_with(&root, &plane_cfg()).unwrap();
    assert!(r.clean(), "{}", r.render_text());
    assert_eq!(r.exemptions.len(), 1);
    assert_eq!(r.exemptions[0].kind, "pragma");
    assert_eq!(r.exemptions[0].used, 1);
    assert!(r.exemptions[0].reason.contains("pragma path"));
    // The same pragma blows a zero budget: exemptions are never free.
    let cfg = Config {
        max_exemptions: 0,
        ..plane_cfg()
    };
    let r = run_workspace_with(&root, &cfg).unwrap();
    assert!(!r.clean(), "budget overflow must fail the run");
    assert_eq!(r.error_count(), 0, "budget overflow is not a violation");
}

/// The meta-test: the checked-in workspace itself must be lint-clean
/// under the checked-in `lint.toml`, within the exemption budget, and
/// every exemption must carry a written reason.
#[test]
fn live_workspace_is_lint_clean() {
    let root = workspace_root();
    let report = tsue_lint::run_workspace(&root).expect("workspace lint runs");
    assert!(
        report.clean(),
        "live workspace must stay lint-clean:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned >= 80,
        "walker found only {} files — scope regression?",
        report.files_scanned
    );
    assert!(report.exemptions.len() <= report.max_exemptions);
    for e in &report.exemptions {
        assert!(
            e.reason.split_whitespace().count() >= 3,
            "exemption at {} needs a real written reason, got {:?}",
            e.site,
            e.reason
        );
        assert!(e.used > 0, "stale exemptions must have been rejected");
    }
}

/// Mutation resistance, SAFETY side: deleting any one `// SAFETY:`
/// comment from the gf kernels must produce an `unsafe-safety`
/// violation.
#[test]
fn mutation_stripped_safety_comment_fails() {
    let path = workspace_root().join("crates/gf/src/kernel.rs");
    let src = std::fs::read_to_string(&path).expect("gf kernel source");
    let cfg = Config::default();
    let baseline = lint_source("crates/gf/src/kernel.rs", &src, &cfg);
    assert!(
        baseline.violations.is_empty(),
        "kernel.rs must be clean before mutating:\n{:?}",
        baseline.violations
    );
    let safety_lines: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("// SAFETY:"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        safety_lines.len() >= 10,
        "expected many SAFETY comments in the SIMD kernels, found {}",
        safety_lines.len()
    );
    for &drop in &safety_lines {
        let mutated: String = src
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let out = lint_source("crates/gf/src/kernel.rs", &mutated, &cfg);
        assert!(
            out.violations.iter().any(|v| v.rule == "unsafe-safety"),
            "deleting the SAFETY comment on line {} went undetected",
            drop + 1
        );
    }
}

/// Mutation resistance, determinism side: introducing one unordered
/// HashMap iteration into a data-plane crate must produce a
/// `determinism-iter` violation.
#[test]
fn mutation_injected_hash_iteration_fails() {
    let root = workspace_root();
    let cfg_text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = tsue_lint::config::parse(&cfg_text).expect("lint.toml parses");
    assert!(
        cfg.data_plane.iter().any(|p| p == "crates/ecfs"),
        "crates/ecfs must be in the data-plane scope"
    );
    let path = root.join("crates/ecfs/src/lib.rs");
    let src = std::fs::read_to_string(&path).expect("ecfs lib source");
    let baseline = lint_source("crates/ecfs/src/lib.rs", &src, &cfg);
    assert!(
        baseline.violations.is_empty(),
        "ecfs lib.rs must be clean before mutating:\n{:?}",
        baseline.violations
    );
    let mutated = format!(
        "{src}\nfn injected_nondeterminism(injected_map: &std::collections::HashMap<u64, u64>) \
         -> u64 {{\n    injected_map.values().sum()\n}}\n"
    );
    let out = lint_source("crates/ecfs/src/lib.rs", &mutated, &cfg);
    assert_eq!(
        out.violations.len(),
        1,
        "expected exactly the injected violation:\n{:?}",
        out.violations
    );
    assert_eq!(out.violations[0].rule, "determinism-iter");
}

/// The walker must keep skipping these fixtures — if they ever leak
/// into the live scan, the meta-test above would go red for the wrong
/// reason.
#[test]
fn walker_skips_violation_fixtures() {
    let files = tsue_lint::workspace_files(&workspace_root());
    assert!(
        !files.is_empty()
            && files
                .iter()
                .all(|p| !p.to_string_lossy().contains("fixtures")),
        "fixtures must stay out of the live scan"
    );
}
