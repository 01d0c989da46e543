//! `tsue_lint` — the workspace invariant checker.
//!
//! A self-contained static-analysis pass over the workspace's Rust
//! sources: a comment/string-aware lexer ([`lexer`]) feeding a rule
//! engine ([`rules`]) that enforces the repo's load-bearing invariants
//! *as tooling*, not just as tests:
//!
//! * **`determinism-iter`** — no unordered `HashMap`/`HashSet`
//!   iteration in data-plane crates (hash order already caused one real
//!   bug: the DeltaLog recycle nondeterminism fixed in PR 2).
//! * **`determinism-time`** — no `Instant::now`/`SystemTime`/
//!   `thread::spawn`/`thread::scope` in data-plane crates; time is the
//!   DES clock and the data plane is single-threaded.
//! * **`unsafe-safety`** — every `unsafe` site carries a `// SAFETY:`
//!   justification.
//! * **`panic-discipline`** — `unwrap`/`expect`/`panic!` in data-plane
//!   crates carry an `// INVARIANT:` comment or an exemption.
//! * **`cast-discipline`** — `as` casts that can truncate byte/offset
//!   quantities carry a `// cast:` annotation or become `try_into`.
//!
//! Violations are silenced three ways, in order of preference: fix the
//! code; justify inline (`// SAFETY:` / `// INVARIANT:` / `// cast:` —
//! these *satisfy* the rule and are unbudgeted); or exempt it with an
//! inline pragma `// tsue_lint::allow(rule, reason)` or a crate-scoped
//! `[[allow]]` entry in `lint.toml`. Exemptions are budgeted
//! (`max_exemptions`, default 15) and a stale pragma or allowlist entry
//! is itself a violation, so the exemption surface can only shrink.
//!
//! Run it as `cargo run -p tsue_lint` or `tsuectl lint [--json]`; CI
//! gates on it.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::{AllowEntry, Config, ConfigError};
pub use report::{Exemption, Report, Severity, Violation};

use std::path::{Path, PathBuf};

/// An inline `// tsue_lint::allow(rule, reason)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule id the pragma silences.
    pub rule: String,
    /// Written justification.
    pub reason: String,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// 1-based line the pragma applies to (its own line when it trails
    /// code, otherwise the next line that carries code).
    pub applies_to: u32,
}

/// Extracts pragmas from a lexed file. Malformed pragmas (missing rule,
/// comma, or reason) are reported as `pragma` violations.
pub fn extract_pragmas(path: &str, lx: &lexer::Lexed, out: &mut Vec<Violation>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in &lx.comments {
        // Pragmas live in plain `//` comments; doc comments merely
        // *describe* the pragma syntax and never enact it.
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find("tsue_lint::allow(") else {
            continue;
        };
        let rest = &c.text[at + "tsue_lint::allow(".len()..];
        let body = rest.find(')').map(|e| &rest[..e]);
        let parsed = body.and_then(|b| b.split_once(','));
        let Some((rule, reason)) = parsed else {
            out.push(Violation {
                rule: "pragma",
                path: path.to_string(),
                line: c.line,
                severity: Severity::Error,
                message: "malformed pragma — expected `// tsue_lint::allow(rule, reason)` \
                          with a non-empty reason"
                    .into(),
            });
            continue;
        };
        let rule = rule.trim().to_string();
        let reason = reason.trim().trim_matches('"').trim().to_string();
        if reason.is_empty() || !rules::RULES.contains(&rule.as_str()) {
            out.push(Violation {
                rule: "pragma",
                path: path.to_string(),
                line: c.line,
                severity: Severity::Error,
                message: if reason.is_empty() {
                    "pragma without a reason — every exemption carries a written justification"
                        .into()
                } else {
                    format!(
                        "pragma names unknown rule `{rule}` (known: {})",
                        rules::RULES.join(", ")
                    )
                },
            });
            continue;
        }
        // A trailing pragma covers its own line; a standalone comment
        // line covers the next line that carries code.
        let applies_to = if lx.has_code(c.line) {
            c.line
        } else {
            let mut l = c.end_line + 1;
            while l <= lx.n_lines && !lx.has_code(l) {
                l += 1;
            }
            l
        };
        pragmas.push(Pragma {
            rule,
            reason,
            line: c.line,
            applies_to,
        });
    }
    pragmas
}

/// Outcome of linting one file: surviving violations plus the pragmas
/// that were spent (for exemption accounting).
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that survived pragma filtering.
    pub violations: Vec<Violation>,
    /// Pragmas in the file, with per-pragma use counts.
    pub spent_pragmas: Vec<(Pragma, usize)>,
}

/// Lints one source file (no allowlist application — that happens at
/// workspace level, where paths are known relative to the root).
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> FileOutcome {
    let lx = lexer::lex(src);
    let spans = lexer::test_spans(&lx);
    let norm = rel_path.replace('\\', "/");
    let data_plane =
        cfg.data_plane.iter().any(|p| norm.starts_with(p.as_str())) && norm.contains("/src/");
    let harness = norm
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let ctx = rules::Ctx {
        path: &norm,
        lx: &lx,
        test_spans: &spans,
        data_plane,
        harness,
        cfg,
    };
    let mut raw = Vec::new();
    rules::run_all(&ctx, &mut raw);
    let mut pragma_violations = Vec::new();
    let pragmas = extract_pragmas(&norm, &lx, &mut pragma_violations);

    let mut used = vec![0usize; pragmas.len()];
    let mut survivors: Vec<Violation> = Vec::new();
    for v in raw {
        let silenced = pragmas
            .iter()
            .enumerate()
            .find(|(_, p)| p.rule == v.rule && (p.applies_to == v.line || p.line == v.line));
        match silenced {
            Some((i, _)) => used[i] += 1,
            None => survivors.push(v),
        }
    }
    // A pragma that silences nothing is itself a violation: stale
    // exemptions may not accumulate.
    for (p, &n) in pragmas.iter().zip(&used) {
        if n == 0 {
            survivors.push(Violation {
                rule: "pragma",
                path: norm.clone(),
                line: p.line,
                severity: Severity::Error,
                message: format!(
                    "stale pragma — `tsue_lint::allow({}, ..)` silences nothing on line {}; \
                     delete it",
                    p.rule, p.applies_to
                ),
            });
        }
    }
    survivors.extend(pragma_violations);
    FileOutcome {
        violations: survivors,
        spent_pragmas: pragmas
            .into_iter()
            .zip(used)
            .filter(|&(_, n)| n > 0)
            .collect(),
    }
}

/// Walks the workspace for lintable `.rs` files (sorted, workspace-
/// relative, forward slashes). Skips `target/`, `.git`, the vendored
/// dependency shims (`vendor/` except first-party `vendor/tsue_buf`),
/// and the lint's own violation fixtures (`tests/fixtures/`).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                if name.starts_with('.') || name == "target" || name == "fixtures" {
                    continue;
                }
                if rel == "vendor" {
                    // First-party vendored crates stay in scope; the
                    // offline stand-ins for external crates do not.
                    stack.push(p.join("tsue_buf"));
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Runs the full workspace lint rooted at `root` (the directory holding
/// `lint.toml`).
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("lint.toml");
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&cfg_text).map_err(|e| e.to_string())?;
    run_workspace_with(root, &cfg)
}

/// [`run_workspace`] with an explicit configuration (tests use this to
/// exercise allowlist behavior without touching the checked-in file).
pub fn run_workspace_with(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut report = Report {
        max_exemptions: cfg.max_exemptions,
        ..Default::default()
    };
    let mut allow_used = vec![0usize; cfg.allow.len()];
    for path in workspace_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let outcome = lint_source(&rel, &src, cfg);
        report.files_scanned += 1;
        for v in outcome.violations {
            let allowed = cfg
                .allow
                .iter()
                .position(|a| a.rule == v.rule && v.path.starts_with(a.path.as_str()));
            match allowed {
                Some(i) => allow_used[i] += 1,
                None => report.violations.push(v),
            }
        }
        for (p, n) in outcome.spent_pragmas {
            report.exemptions.push(Exemption {
                kind: "pragma",
                rule: p.rule,
                site: format!("{rel}:{}", p.line),
                reason: p.reason,
                used: n,
            });
        }
    }
    for (a, &n) in cfg.allow.iter().zip(&allow_used) {
        if n == 0 {
            report.violations.push(Violation {
                rule: "pragma",
                path: "lint.toml".into(),
                line: 0,
                severity: Severity::Error,
                message: format!(
                    "stale allowlist entry — rule `{}` at `{}` silences nothing; delete it",
                    a.rule, a.path
                ),
            });
        } else {
            report.exemptions.push(Exemption {
                kind: "allowlist",
                rule: a.rule.clone(),
                site: a.path.clone(),
                reason: a.reason.clone(),
                used: n,
            });
        }
    }
    report.sort();
    Ok(report)
}

/// Finds the workspace root by walking up from `start` until a
/// directory containing `lint.toml` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_cfg() -> Config {
        Config {
            data_plane: vec!["crates/x".into()],
            ..Default::default()
        }
    }

    #[test]
    fn pragma_silences_and_counts() {
        let src = "struct S { m: HashMap<u64,u8> }\nimpl S {\n  fn f(&self) -> u64 {\n    // tsue_lint::allow(determinism-iter, sum is commutative)\n    self.m.values().sum()\n  }\n}\n";
        let out = lint_source("crates/x/src/lib.rs", src, &plane_cfg());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.spent_pragmas.len(), 1);
        assert_eq!(out.spent_pragmas[0].1, 1);
        assert_eq!(out.spent_pragmas[0].0.reason, "sum is commutative");
    }

    #[test]
    fn stale_pragma_is_a_violation() {
        let src = "// tsue_lint::allow(determinism-iter, nothing here)\nfn f() {}\n";
        let out = lint_source("crates/x/src/lib.rs", src, &plane_cfg());
        assert_eq!(out.violations.len(), 1);
        assert!(out.violations[0].message.contains("stale pragma"));
    }

    #[test]
    fn malformed_and_unknown_pragmas_are_violations() {
        let out = lint_source(
            "crates/x/src/lib.rs",
            "// tsue_lint::allow(determinism-iter)\nfn f() {}\n",
            &plane_cfg(),
        );
        assert_eq!(out.violations.len(), 1);
        let out = lint_source(
            "crates/x/src/lib.rs",
            "// tsue_lint::allow(no-such-rule, reason)\nfn f() {}\n",
            &plane_cfg(),
        );
        assert!(out.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn harness_paths_skip_plane_rules() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let out = lint_source("crates/x/tests/suite.rs", src, &plane_cfg());
        assert!(out.violations.is_empty());
        let out = lint_source("crates/x/src/lib.rs", src, &plane_cfg());
        assert_eq!(out.violations.len(), 1);
    }
}
