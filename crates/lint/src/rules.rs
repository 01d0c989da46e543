//! The five invariant rules.
//!
//! Every rule is a pure function from a lexed file to violations; all
//! pragma/allowlist filtering happens afterwards in
//! [`crate::lint_source`].
//! See `ARCHITECTURE.md` § "Static analysis & invariants" for the
//! rationale behind each rule and the etiquette for silencing one.

use crate::config::Config;
use crate::lexer::{in_spans, Lexed};
use crate::report::{Severity, Violation};

/// Stable ids of every rule, in reporting order.
pub const RULES: &[&str] = &[
    "determinism-iter",
    "determinism-time",
    "unsafe-safety",
    "panic-discipline",
    "cast-discipline",
];

/// Per-file context handed to every rule.
pub struct Ctx<'a> {
    /// Workspace-relative path (forward slashes).
    pub path: &'a str,
    /// Lexed file.
    pub lx: &'a Lexed,
    /// `#[cfg(test)]` / `#[test]` line spans.
    pub test_spans: &'a [(u32, u32)],
    /// Whether the file belongs to a data-plane crate's `src/`.
    pub data_plane: bool,
    /// Whether the whole file is test/bench/example harness code.
    pub harness: bool,
    /// Workspace configuration.
    pub cfg: &'a Config,
}

impl Ctx<'_> {
    /// Whether data-plane-scoped rules apply at `line`.
    fn plane(&self, line: u32) -> bool {
        self.data_plane && !self.harness && !in_spans(self.test_spans, line)
    }

    fn push(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, message: String) {
        out.push(Violation {
            rule,
            path: self.path.to_string(),
            line,
            severity: Severity::Error,
            message,
        });
    }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    let tracked_hash = tracked_names(ctx.lx, &["HashMap", "HashSet"]);
    determinism_iter(ctx, &tracked_hash, out);
    determinism_time(ctx, out);
    unsafe_safety(ctx, out);
    panic_discipline(ctx, out);
    cast_discipline(ctx, out);
}

/// Whether a justification comment containing `marker` covers `line`:
/// on the line itself, or in the contiguous comment/attribute block
/// immediately above (doc comments and `#[...]` attributes may sit
/// between the marker and the code, blank lines end the search).
pub fn justified(lx: &Lexed, line: u32, markers: &[&str]) -> bool {
    let hit = |l: u32| {
        lx.comments_on(l)
            .any(|c| markers.iter().any(|m| c.text.contains(m)))
    };
    if hit(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if hit(l) {
            return true;
        }
        let has_comment = lx.comments_on(l).next().is_some();
        if lx.has_code(l) {
            // Attribute lines (`#[...]`) may sit between the comment
            // block and the flagged code; anything else ends the walk.
            if first_tok_on(lx, l) != Some("#") {
                return false;
            }
        } else if !has_comment {
            return false; // blank line
        }
    }
    false
}

fn first_tok_on(lx: &Lexed, line: u32) -> Option<&str> {
    lx.toks
        .iter()
        .find(|t| t.line == line)
        .map(|t| t.text.as_str())
}

/// Names bound to one of `types` in this file: struct fields and
/// annotated bindings (`name: HashMap<...>`) plus inferred locals
/// (`let name = HashMap::new()` / `HashMap::<..>::from(..)`).
fn tracked_names(lx: &Lexed, types: &[&str]) -> Vec<String> {
    let t = &lx.toks;
    let mut names = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if !tok.word || !types.contains(&tok.text.as_str()) {
            continue;
        }
        // Walk back over a `path::to::Type` prefix.
        let mut p = i;
        while p >= 3 && t[p - 1].text == ":" && t[p - 2].text == ":" && t[p - 3].word {
            p -= 3;
        }
        // ... and over reference/mutability sigils (`name: &HashMap`,
        // `name: &mut HashMap`).
        while p >= 1 && (t[p - 1].text == "&" || t[p - 1].text == "mut") {
            p -= 1;
        }
        if p == 0 {
            continue;
        }
        let prev = &t[p - 1];
        // `name : Type` — but not `path :: Type` (handled above) and not
        // a type position like `Vec < Type` or `-> Type`.
        if prev.text == ":" && p >= 2 && t[p - 2].text != ":" && t[p - 2].word {
            let name = &t[p - 2].text;
            // Exclude loop labels / lifetimes.
            if !name.starts_with('\'') {
                names.push(name.clone());
            }
            continue;
        }
        // `let [mut] name = Type :: ...`
        if prev.text == "=" && p >= 2 && t[p - 2].word {
            let name_idx = p - 2;
            let is_let = (name_idx >= 1 && t[name_idx - 1].text == "let")
                || (name_idx >= 2
                    && t[name_idx - 1].text == "mut"
                    && t[name_idx - 2].text == "let");
            if is_let {
                names.push(t[name_idx].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Methods whose iteration order on a hash container is arbitrary.
const HASH_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Rule `determinism-iter`: no unordered iteration over
/// `HashMap`/`HashSet`-typed bindings in data-plane code. Hash order
/// varies across runs/hosts and has already produced a real
/// nondeterminism bug (the DeltaLog recycle HashMap-order fix); use
/// `BTreeMap`/`BTreeSet`, or sort a collected listing, instead.
fn determinism_iter(ctx: &Ctx<'_>, tracked: &[String], out: &mut Vec<Violation>) {
    if tracked.is_empty() {
        return;
    }
    let t = &ctx.lx.toks;
    let is_tracked = |s: &str| tracked.iter().any(|n| n == s);
    for i in 0..t.len() {
        // `name . method (`
        if i + 3 < t.len()
            && t[i].word
            && is_tracked(&t[i].text)
            && t[i + 1].text == "."
            && HASH_ITER.contains(&t[i + 2].text.as_str())
            && t[i + 3].text == "("
        {
            let line = t[i + 2].line;
            if ctx.plane(line) {
                ctx.push(
                    out,
                    "determinism-iter",
                    line,
                    format!(
                        "unordered iteration: `.{}()` on hash-backed `{}` — hash order is \
                         nondeterministic across runs; use a BTreeMap/BTreeSet or sort the listing",
                        t[i + 2].text,
                        t[i].text
                    ),
                );
            }
        }
        // `for pat in [&][mut][self .] name {`
        if t[i].text == "for" && t[i].word {
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < t.len() {
                match t[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if depth == 0 && t[j].word => break,
                    "{" => break, // not a for-loop header we understand
                    _ => {}
                }
                j += 1;
            }
            if j >= t.len() || t[j].text != "in" {
                continue;
            }
            let mut k = j + 1;
            while k < t.len() && (t[k].text == "&" || t[k].text == "mut") {
                k += 1;
            }
            if k + 1 < t.len() && t[k].text == "self" && t[k + 1].text == "." {
                k += 2;
            }
            if k + 1 < t.len()
                && t[k].word
                && is_tracked(&t[k].text)
                && t[k + 1].text == "{"
                && ctx.plane(t[k].line)
            {
                ctx.push(
                    out,
                    "determinism-iter",
                    t[k].line,
                    format!(
                        "unordered iteration: `for .. in {}` over a hash-backed container — \
                         use a BTreeMap/BTreeSet or sort the listing",
                        t[k].text
                    ),
                );
            }
        }
    }
}

/// Rule `determinism-time`: no wall-clock (`Instant::now`,
/// `SystemTime`) or host threads (`thread::spawn`/`Builder`/`scope`) in
/// data-plane code — simulated time comes from the DES clock, and the
/// data plane is single-threaded (modelled concurrency is a
/// virtual-clock resource, never a host thread).
fn determinism_time(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    let t = &ctx.lx.toks;
    for i in 0..t.len() {
        if !t[i].word {
            continue;
        }
        let line = t[i].line;
        if !ctx.plane(line) {
            continue;
        }
        let path4 = |a: &str, b: &str| {
            i + 3 < t.len()
                && t[i].text == a
                && t[i + 1].text == ":"
                && t[i + 2].text == ":"
                && t[i + 3].text == b
        };
        if path4("Instant", "now") {
            ctx.push(
                out,
                "determinism-time",
                line,
                "wall-clock read: `Instant::now` in data-plane code — simulated time must come \
                 from the DES clock (`Sim::now`)"
                    .into(),
            );
        } else if t[i].text == "SystemTime" {
            ctx.push(
                out,
                "determinism-time",
                line,
                "wall-clock read: `SystemTime` in data-plane code — simulated time must come \
                 from the DES clock (`Sim::now`)"
                    .into(),
            );
        } else if path4("thread", "spawn") || path4("thread", "Builder") || path4("thread", "scope")
        {
            ctx.push(
                out,
                "determinism-time",
                line,
                format!(
                    "host concurrency: `thread::{}` in data-plane code — the data plane is \
                     single-threaded; model parallel hardware as a virtual-clock resource \
                     (`tsue_sim::MultiResource`)",
                    t[i + 3].text
                ),
            );
        }
    }
}

/// Rule `unsafe-safety`: every `unsafe` site (block, fn, impl, trait)
/// carries a `// SAFETY:` comment justifying why the body is sound.
/// A `/// # Safety` doc section states the *caller's* contract and is
/// deliberately not accepted as the *body's* justification.
fn unsafe_safety(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    let t = &ctx.lx.toks;
    for i in 0..t.len() {
        if !(t[i].word && t[i].text == "unsafe") {
            continue;
        }
        let line = t[i].line;
        if justified(ctx.lx, line, &["SAFETY:"]) {
            continue;
        }
        let kind = t
            .get(i + 1)
            .map(|n| match n.text.as_str() {
                "fn" => "unsafe fn",
                "impl" => "unsafe impl",
                "trait" => "unsafe trait",
                _ => "unsafe block",
            })
            .unwrap_or("unsafe block");
        ctx.push(
            out,
            "unsafe-safety",
            line,
            format!(
                "{kind} without a `// SAFETY:` justification — state why every unsafe \
                 operation in the body is sound (bounds, aliasing, required CPU features)"
            ),
        );
    }
}

/// Rule `panic-discipline`: `unwrap`/`expect`/`panic!`-family calls in
/// data-plane code need an `// INVARIANT:` comment naming the invariant
/// that makes the panic unreachable (or an explicit exemption).
fn panic_discipline(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    let t = &ctx.lx.toks;
    const METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for i in 0..t.len() {
        let (line, what) = if i + 2 < t.len()
            && t[i].text == "."
            && METHODS.contains(&t[i + 1].text.as_str())
            && t[i + 2].text == "("
        {
            (t[i + 1].line, format!(".{}()", t[i + 1].text))
        } else if i + 2 < t.len()
            && t[i].word
            && MACROS.contains(&t[i].text.as_str())
            && t[i + 1].text == "!"
            && t[i + 2].text == "("
        {
            (t[i].line, format!("{}!", t[i].text))
        } else {
            continue;
        };
        if !ctx.plane(line) || justified(ctx.lx, line, &["INVARIANT:"]) {
            continue;
        }
        ctx.push(
            out,
            "panic-discipline",
            line,
            format!(
                "`{what}` in data-plane code without an `// INVARIANT:` comment — name the \
                 invariant that makes this unreachable, or return an error"
            ),
        );
    }
}

/// Identifier fragments that mark a value as a byte count / offset /
/// length — the quantities whose silent truncation the cast rule hunts.
const SIZE_NAMES: &[&str] = &[
    "len", "size", "byte", "off", "pos", "count", "end", "start", "span", "cap", "stripe", "page",
    "seq", "idx",
];

fn is_size_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    SIZE_NAMES.iter().any(|p| lower.contains(p))
}

/// Rule `cast-discipline`: `as` casts of byte/offset-named expressions
/// to a type that can truncate them need a `// cast:` (or
/// `// INVARIANT:`) annotation stating why the value fits — or a
/// conversion to `try_into`/`u64::from`. With `assume_64bit` (set in
/// `lint.toml`, documented in ARCHITECTURE.md) `usize`/`u64`/`i64`
/// targets are treated as lossless; narrower targets are always audited.
fn cast_discipline(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    let t = &ctx.lx.toks;
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    const WIDE: &[&str] = &["u64", "usize", "i64", "isize"];
    for i in 1..t.len() {
        if !(t[i].word && t[i].text == "as") {
            continue;
        }
        let Some(target) = t.get(i + 1) else { continue };
        let audited = NARROW.contains(&target.text.as_str())
            || (!ctx.cfg.assume_64bit && WIDE.contains(&target.text.as_str()));
        if !audited {
            continue;
        }
        let line = target.line;
        if !ctx.plane(line) {
            continue;
        }
        // Collect candidate source-expression names.
        let mut names: Vec<&str> = Vec::new();
        let prev = &t[i - 1];
        if prev.word {
            names.push(&prev.text);
        } else if prev.text == ")" || prev.text == "]" {
            let open = if prev.text == ")" { "(" } else { "[" };
            let close = &prev.text;
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if t[j].text == *close {
                    depth += 1;
                } else if t[j].text == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if t[j].word {
                    names.push(&t[j].text);
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            // The callee/indexed name right before the opening paren.
            if j >= 1 && t[j - 1].word {
                names.push(&t[j - 1].text);
            }
        }
        if !names.iter().any(|n| is_size_name(n)) {
            continue;
        }
        if justified(ctx.lx, line, &["cast:", "INVARIANT:"]) {
            continue;
        }
        ctx.push(
            out,
            "cast-discipline",
            line,
            format!(
                "byte/offset expression cast with `as {}` — truncation would be silent; use \
                 `try_into` or annotate with `// cast: <why the value fits>`",
                target.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_spans};

    fn run(src: &str, data_plane: bool) -> Vec<Violation> {
        let cfg = Config {
            data_plane: vec!["crates/x".into()],
            ..Default::default()
        };
        let lx = lex(src);
        let spans = test_spans(&lx);
        let ctx = Ctx {
            path: if data_plane {
                "crates/x/src/lib.rs"
            } else {
                "crates/other/src/lib.rs"
            },
            lx: &lx,
            test_spans: &spans,
            data_plane,
            harness: false,
            cfg: &cfg,
        };
        let mut out = Vec::new();
        run_all(&ctx, &mut out);
        out
    }

    #[test]
    fn tracked_names_find_fields_and_lets() {
        let lx = lex("struct S { entries: std::collections::HashMap<u64, u8> }\n\
             fn f() { let mut seen = HashSet::new(); let v: Vec<HashMap<u8,u8>> = vec![]; }\n\
             fn g(byref: &HashMap<u64, u8>, bymut: &mut HashSet<u8>) {}\n");
        let names = tracked_names(&lx, &["HashMap", "HashSet"]);
        assert_eq!(names, vec!["bymut", "byref", "entries", "seen"]);
    }

    #[test]
    fn hash_iteration_is_flagged_with_exact_line() {
        let src = "struct S { m: HashMap<u64, u8> }\nimpl S {\n  fn f(&self) -> u64 {\n    self.m.values().sum()\n  }\n}\n";
        let v = run(src, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "determinism-iter");
        assert_eq!(v[0].line, 4);
        assert!(run(src, false).is_empty(), "non-data-plane is out of scope");
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let good = "fn f() {\n  // SAFETY: guarded above.\n  unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(run(bad, false).len(), 1, "unsafe rule applies everywhere");
        assert!(run(good, false).is_empty());
    }

    #[test]
    fn panic_rule_honors_invariant_and_test_code() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let good = "fn f(x: Option<u8>) -> u8 {\n  // INVARIANT: caller checked is_some.\n  x.unwrap()\n}\n";
        let test = "#[cfg(test)]\nmod tests {\n  fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert_eq!(run(bad, true).len(), 1);
        assert!(run(good, true).is_empty());
        assert!(run(test, true).is_empty());
    }

    #[test]
    fn cast_rule_flags_narrowing_size_names() {
        let bad = "fn f(nbytes: u64) -> u32 { nbytes as u32 }\n";
        let ok_annot = "fn f(nbytes: u64) -> u32 {\n  // cast: header field, frames are < 4 GiB by construction.\n  nbytes as u32\n}\n";
        let ok_wide = "fn f(v: &[u8]) -> u64 { v.len() as u64 }\n";
        assert_eq!(run(bad, true).len(), 1);
        assert!(run(ok_annot, true).is_empty());
        assert!(
            run(ok_wide, true).is_empty(),
            "usize->u64 lossless under assume_64bit"
        );
    }

    #[test]
    fn time_rule() {
        let v = run("fn f() { let t = std::time::Instant::now(); }\n", true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "determinism-time");
        let v = run("fn f() { std::thread::spawn(|| ()); }\n", true);
        assert_eq!(v.len(), 1);
        let v = run("fn f() { std::thread::scope(|_| ()); }\n", true);
        assert_eq!(v.len(), 1, "scoped threads are host concurrency too");
        assert_eq!(v[0].rule, "determinism-time");
    }
}
