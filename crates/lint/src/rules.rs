//! The lint rules and the engine that runs them over annotated sources.
//!
//! Each rule is grounded in a repo contract (see README "Invariants &
//! static analysis"):
//!
//! * determinism — fixed seed ⇒ bit-identical error counts at any
//!   `workers × batch` combination, which unordered hash iteration, ad-hoc
//!   threads, wall-clock reads and entropy-seeded RNGs can all silently
//!   break;
//! * fixed-point safety — the quantized datapath is bit-exact only while
//!   every narrowing/arithmetic op is explicitly saturating or audited;
//! * hygiene — every crate root opts into the workspace-wide deny set.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// One finding produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (kebab-case, stable — used in suppression comments).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Static description of a rule, for `--list-rules` and the report header.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case name.
    pub name: &'static str,
    /// One-line contract statement.
    pub description: &'static str,
}

/// Crate directories whose outputs feed simulation results; unordered hash
/// iteration there can silently break the fixed-seed reproducibility
/// contract.
pub const RESULT_CRATES: &[&str] = &[
    "ldpc", "turbo", "channel", "sched", "core", "codes", "noc", "mapping", "svc",
];

/// Files forming the audited fixed-point datapath.
pub const FIXED_POINT_FILES: &[&str] = &[
    "crates/ldpc/src/decoder/layered_fixed.rs",
    "crates/ldpc/src/decoder/meu.rs",
];

/// Helper functions whose bodies are the audited saturating primitives: they
/// may use bare casts/arithmetic internally because they clamp at the edge.
/// The `*_saturates`/`*_clips` observability predicates are the read-only
/// twins of those primitives (same widened arithmetic, compare instead of
/// clamp) and are audited with them.
pub const AUDITED_FNS: &[&str] = &[
    "q_message",
    "r_message",
    "lambda_update",
    "scale_magnitude",
    "q_message_array",
    "scaled_magnitude_array",
    "lambda_update_array",
    "q_saturates",
    "r_clips",
    "lambda_saturates",
];

/// Identifiers that construct entropy-seeded RNGs in the real `rand` API;
/// every RNG in this workspace must take an explicit seed.
const ENTROPY_RNG_IDENTS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_os_rng",
    "getrandom",
];

/// All rules, in reporting order.
pub fn all_rules() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            name: "no-hash-collections",
            description: "HashMap/HashSet are forbidden in result-producing crates \
                          (iteration order is seeded per-process); use BTreeMap/BTreeSet \
                          or a sorted Vec",
        },
        RuleInfo {
            name: "no-thread-spawn",
            description: "thread::spawn/thread::scope are forbidden outside fec-sched; \
                          all fan-out goes through the deterministic WorkPool (fec-svc \
                          transport threads need a reasoned allow, not an exemption)",
        },
        RuleInfo {
            name: "no-wall-clock",
            description: "Instant/SystemTime are forbidden outside crates/bench and \
                          fec-obs's audited clock module (crates/obs/src/clock.rs); \
                          simulation results must not depend on wall-clock time",
        },
        RuleInfo {
            name: "no-entropy-rng",
            description: "entropy-seeded RNG construction is forbidden; every RNG \
                          must take an explicit seed (SeedableRng::seed_from_u64)",
        },
        RuleInfo {
            name: "fixed-bare-arith",
            description: "bare +/-/* (or +=/-=/*=) on explicitly-typed i16/i8 values \
                          in the fixed-point datapath; use saturating_* / widen to i32 \
                          and clamp",
        },
        RuleInfo {
            name: "fixed-narrowing-cast",
            description: "bare `as i16`/`as i8` narrowing cast in the fixed-point \
                          datapath outside the audited helper functions",
        },
        RuleInfo {
            name: "crate-lint-headers",
            description: "every crate root must carry the canonical header: \
                          #![forbid(unsafe_code)], #![deny(missing_debug_implementations)] \
                          and #![warn(missing_docs)] (or deny)",
        },
        RuleInfo {
            name: "lint-allow-syntax",
            description: "a fec-lint allow comment must name a known rule and give a \
                          non-empty reason: // fec-lint: allow(<rule>, <reason>)",
        },
    ]
}

/// Runs every rule over one annotated source file, applying suppressions.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    check_hash_collections(file, &mut raw);
    check_thread_spawn(file, &mut raw);
    check_wall_clock(file, &mut raw);
    check_entropy_rng(file, &mut raw);
    check_fixed_point(file, &mut raw);
    check_crate_headers(file, &mut raw);

    // Apply suppressions (only reasons make them effective), then validate
    // the suppression comments themselves.
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !file.is_suppressed(f.rule, f.line))
        .collect();
    check_allow_comments(file, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

fn push(out: &mut Vec<Finding>, rule: &'static str, file: &SourceFile, t: &Token, msg: String) {
    out.push(Finding {
        rule,
        path: file.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}

fn in_result_crate(file: &SourceFile) -> bool {
    file.crate_dir
        .as_deref()
        .is_some_and(|c| RESULT_CRATES.contains(&c))
}

fn is_fixed_point_file(file: &SourceFile) -> bool {
    file.path.starts_with("crates/fixed/src/") || FIXED_POINT_FILES.contains(&file.path.as_str())
}

/// determinism: no `HashMap`/`HashSet` identifiers in result-producing
/// crates (covers `use` imports, type annotations and constructor paths).
fn check_hash_collections(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_result_crate(file) {
        return;
    }
    for t in file.tokens() {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                out,
                "no-hash-collections",
                file,
                t,
                format!(
                    "`{}` in result-producing crate `{}`: iteration order is \
                     process-seeded and can silently break the fixed-seed => \
                     bit-identical-counts contract; use BTreeMap/BTreeSet or a \
                     sorted Vec",
                    t.text,
                    file.crate_dir.as_deref().unwrap_or("?"),
                ),
            );
        }
    }
}

/// determinism: no `thread::spawn` / `thread::scope` outside `fec-sched` —
/// all fan-out goes through the deterministic `WorkPool`.
///
/// `fec-svc` is deliberately NOT exempted: its transport layer legitimately
/// needs reader/acceptor threads, but each spawn site must carry a reasoned
/// `// fec-lint: allow(no-thread-spawn, <why this thread is transport, not
/// decode fan-out>)` so every thread in the daemon is individually audited
/// rather than waved through crate-wide.
fn check_thread_spawn(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_dir.as_deref() == Some("sched") {
        return;
    }
    let in_svc = file.crate_dir.as_deref() == Some("svc");
    let toks = file.tokens();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "thread"
            && toks[i + 1].text == "::"
            && (toks[i + 2].text == "spawn" || toks[i + 2].text == "scope")
        {
            let message = if in_svc {
                format!(
                    "`thread::{}` in fec-svc without a reasoned allow: daemon \
                     transport threads (stdio reader, socket acceptor, per-client \
                     readers) are permitted only with an explicit \
                     `// fec-lint: allow(no-thread-spawn, <reason>)` stating that \
                     decode fan-out still goes through the shared WorkPool",
                    toks[i + 2].text
                )
            } else {
                format!(
                    "`thread::{}` outside fec-sched: ad-hoc threads bypass the \
                     WorkPool's index-order merge and its determinism guarantee; \
                     schedule the work as WorkPool tasks instead",
                    toks[i + 2].text
                )
            };
            push(out, "no-thread-spawn", file, &toks[i], message);
        }
    }
}

/// determinism: no `Instant`/`SystemTime` outside `crates/bench` and the
/// single audited wall-clock module of fec-obs.  The exemption is an exact
/// path — `crates/obs/src/clock.rs` is where `WallClock` wraps `Instant`
/// behind the injectable `Clock` trait; wall-clock reads anywhere else in
/// fec-obs (or any other crate) still fire.
fn check_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_dir.as_deref() == Some("bench") || file.path == "crates/obs/src/clock.rs" {
        return;
    }
    for t in file.tokens() {
        if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            push(
                out,
                "no-wall-clock",
                file,
                t,
                format!(
                    "`{}` outside crates/bench and crates/obs/src/clock.rs: \
                     wall-clock reads make results depend on machine load; \
                     timing belongs in the bench crate or behind fec-obs's \
                     audited Clock trait",
                    t.text
                ),
            );
        }
    }
}

/// determinism: no entropy-seeded RNG construction anywhere.
fn check_entropy_rng(file: &SourceFile, out: &mut Vec<Finding>) {
    for t in file.tokens() {
        if t.kind == TokenKind::Ident && ENTROPY_RNG_IDENTS.contains(&t.text.as_str()) {
            push(
                out,
                "no-entropy-rng",
                file,
                t,
                format!(
                    "`{}` constructs an entropy-seeded RNG: every RNG in this \
                     workspace must take an explicit seed \
                     (SeedableRng::seed_from_u64) so runs are reproducible",
                    t.text
                ),
            );
        }
    }
}

/// fixed-point safety: bare narrowing casts and bare i16/i8 arithmetic in
/// the quantized datapath, outside the audited helpers and test modules.
fn check_fixed_point(file: &SourceFile, out: &mut Vec<Finding>) {
    if !is_fixed_point_file(file) {
        return;
    }
    let toks = file.tokens();
    let audited = |i: usize| -> bool {
        file.enclosing_fn[i]
            .as_deref()
            .is_some_and(|f| AUDITED_FNS.contains(&f))
    };

    // --- fixed-narrowing-cast: `as i16` / `as i8` ---------------------------
    for i in 0..toks.len().saturating_sub(1) {
        if file.in_test[i] || audited(i) {
            continue;
        }
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "as"
            && toks[i + 1].kind == TokenKind::Ident
            && (toks[i + 1].text == "i16" || toks[i + 1].text == "i8")
        {
            push(
                out,
                "fixed-narrowing-cast",
                file,
                &toks[i],
                format!(
                    "bare `as {}` narrowing cast outside the audited helpers \
                     ({}): truncation silently wraps; clamp to the target range \
                     first or add `// fec-lint: allow(fixed-narrowing-cast, \
                     <why the value is in range>)`",
                    toks[i + 1].text,
                    AUDITED_FNS.join(", "),
                ),
            );
        }
    }

    // --- fixed-bare-arith ---------------------------------------------------
    // Track identifiers explicitly annotated i16/i8 (params, lets, struct
    // fields; `&[i16]`, `Vec<i16>` etc. count — indexing yields the narrow
    // element type).
    let narrow: std::collections::BTreeSet<&str> = {
        let mut set = std::collections::BTreeSet::new();
        for i in 0..toks.len().saturating_sub(2) {
            // Annotations inside #[cfg(test)] must not leak names into the
            // production tracked set (test fixtures reuse parameter names).
            if toks[i].kind != TokenKind::Ident || file.in_test[i] {
                continue;
            }
            if toks[i + 1].text != ":" || toks[i + 1].kind != TokenKind::Punct {
                continue;
            }
            // Scan the annotation until a terminator at angle-depth 0.
            let mut angle = 0i32;
            let mut j = i + 2;
            while let Some(t) = toks.get(j) {
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Punct, "<") => angle += 1,
                    (TokenKind::Punct, ">") => angle -= 1,
                    (TokenKind::Punct, ">>") => angle -= 2,
                    (TokenKind::Punct, "=" | ";" | "{" | "}") => break,
                    // `,`/`)` end the annotation; `(` at depth 0 means we
                    // left it (e.g. `<const B: usize>(…`); a negative angle
                    // depth means the generic list closed over us.
                    (TokenKind::Punct, "," | ")" | "(") if angle <= 0 => break,
                    (TokenKind::Ident, "i16" | "i8") => {
                        set.insert(toks[i].text.as_str());
                        break;
                    }
                    _ => {}
                }
                if angle < 0 || j > i + 24 {
                    break;
                }
                j += 1;
            }
        }
        set
    };

    // An operand resolves to a narrow value when it is a tracked identifier
    // or a tracked identifier indexed with `[...]`.
    let operand_is_narrow_left = |op_idx: usize| -> bool {
        let prev = op_idx.checked_sub(1);
        let Some(p) = prev else { return false };
        match toks[p].kind {
            TokenKind::Ident => narrow.contains(toks[p].text.as_str()),
            TokenKind::Punct if toks[p].text == "]" => {
                let open = file.matching[p];
                if open == usize::MAX || open == 0 {
                    return false;
                }
                let base = &toks[open - 1];
                base.kind == TokenKind::Ident && narrow.contains(base.text.as_str())
            }
            _ => false,
        }
    };
    let operand_is_narrow_right = |op_idx: usize| -> bool {
        toks.get(op_idx + 1).is_some_and(|t| {
            t.kind == TokenKind::Ident
                && narrow.contains(t.text.as_str())
                // `x + lambda.len()` — a following `.` means a method/field
                // result of unknown type, skip.
                && toks.get(op_idx + 2).is_none_or(|n| n.text != ".")
        })
    };
    // Binary (not unary/deref): the token before the operator must end an
    // operand expression.
    let is_binary_position = |op_idx: usize| -> bool {
        op_idx > 0
            && matches!(
                (toks[op_idx - 1].kind, toks[op_idx - 1].text.as_str()),
                (TokenKind::Ident | TokenKind::Number, _) | (TokenKind::Punct, ")" | "]")
            )
    };

    for (i, t) in toks.iter().enumerate() {
        if file.in_test[i] || audited(i) {
            continue;
        }
        if t.kind != TokenKind::Punct {
            continue;
        }
        let op = t.text.as_str();
        let compound = matches!(op, "+=" | "-=" | "*=");
        let plain = matches!(op, "+" | "-" | "*");
        if !(compound || plain) {
            continue;
        }
        if plain && !is_binary_position(i) {
            continue;
        }
        if operand_is_narrow_left(i) || operand_is_narrow_right(i) {
            push(
                out,
                "fixed-bare-arith",
                file,
                t,
                format!(
                    "bare `{op}` on an i16/i8 value in the fixed-point datapath: \
                     overflow wraps in release builds and breaks bit-exactness; \
                     use saturating_add/saturating_sub/saturating_mul, or widen \
                     to i32 and clamp"
                ),
            );
        }
    }
}

/// hygiene: every `crates/<x>/src/lib.rs` must carry the canonical header.
fn check_crate_headers(file: &SourceFile, out: &mut Vec<Finding>) {
    let is_crate_root = file.crate_dir.is_some()
        && file
            .path
            .strip_prefix("crates/")
            .and_then(|p| p.split_once('/'))
            .map(|(_, rest)| rest)
            == Some("src/lib.rs");
    if !is_crate_root {
        return;
    }
    // Collect inner attributes of the form `#![level(lint_name)]`.
    let toks = file.tokens();
    let mut present: Vec<(String, String)> = Vec::new();
    for i in 0..toks.len().saturating_sub(6) {
        if toks[i].text == "#"
            && toks[i + 1].text == "!"
            && toks[i + 2].text == "["
            && toks[i + 3].kind == TokenKind::Ident
            && toks[i + 4].text == "("
            && toks[i + 5].kind == TokenKind::Ident
            && toks[i + 6].text == ")"
        {
            present.push((toks[i + 3].text.clone(), toks[i + 5].text.clone()));
        }
    }
    let has = |level: &[&str], lint: &str| {
        present
            .iter()
            .any(|(l, n)| level.contains(&l.as_str()) && n == lint)
    };
    let anchor = Token {
        kind: TokenKind::Punct,
        text: String::new(),
        line: 1,
        col: 1,
    };
    if !has(&["forbid"], "unsafe_code") {
        push(
            out,
            "crate-lint-headers",
            file,
            &anchor,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    if !has(&["deny", "forbid"], "missing_debug_implementations") {
        push(
            out,
            "crate-lint-headers",
            file,
            &anchor,
            "crate root is missing `#![deny(missing_debug_implementations)]`".to_string(),
        );
    }
    if !has(&["warn", "deny", "forbid"], "missing_docs") {
        push(
            out,
            "crate-lint-headers",
            file,
            &anchor,
            "crate root is missing `#![warn(missing_docs)]` (or deny)".to_string(),
        );
    }
}

/// Validates the suppression comments themselves: a reasonless or
/// unknown-rule allow is a finding, never a silent no-op.
fn check_allow_comments(file: &SourceFile, out: &mut Vec<Finding>) {
    let known: Vec<&str> = all_rules().iter().map(|r| r.name).collect();
    for s in &file.suppressions {
        if s.rule.is_empty() {
            out.push(Finding {
                rule: "lint-allow-syntax",
                path: file.path.clone(),
                line: s.line,
                col: s.col,
                message: "malformed fec-lint comment: expected \
                          `// fec-lint: allow(<rule>, <reason>)`"
                    .to_string(),
            });
        } else if !known.contains(&s.rule.as_str()) {
            out.push(Finding {
                rule: "lint-allow-syntax",
                path: file.path.clone(),
                line: s.line,
                col: s.col,
                message: format!("fec-lint allow names unknown rule `{}`", s.rule),
            });
        } else if s.reason.is_empty() {
            out.push(Finding {
                rule: "lint-allow-syntax",
                path: file.path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "fec-lint allow({}) has no reason: suppressions must say why \
                     the invariant holds at this site",
                    s.rule
                ),
            });
        }
    }
}
