//! Per-file analysis context: lexed tokens plus the structural annotations
//! the rules need — enclosing-function names, `#[cfg(test)]` regions,
//! bracket matching and parsed suppression comments, all found through the
//! brace depth of each token.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// A parsed `// fec-lint: allow(<rule>, <reason>)` suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// Reason text after the comma (trimmed); empty when missing.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
}

/// One workspace source file, lexed and annotated, ready for rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/ldpc/src/sparse.rs`).
    pub path: String,
    /// Crate directory name under `crates/` (e.g. `ldpc`), or `None` for
    /// top-level `tests/` and `examples/` sources.
    pub crate_dir: Option<String>,
    /// Lexed tokens and comments.
    pub lexed: Lexed,
    /// Per-token name of the innermost enclosing `fn`, if any.
    pub enclosing_fn: Vec<Option<String>>,
    /// Per-token flag: inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// For each `[`/`(`/`{` token index, the index of its matching closer
    /// (and vice versa); `usize::MAX` when unmatched.
    pub matching: Vec<usize>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lexes and annotates `src` under the given workspace-relative path.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let crate_dir = crate_dir_of(path);
        let n = lexed.tokens.len();

        // Per-token brace depth *before* the token is applied (so an
        // opening `{` carries the depth outside the block it opens).
        let mut depth = vec![0u32; n];
        let mut matching = vec![usize::MAX; n];
        let mut enclosing_fn: Vec<Option<String>> = vec![None; n];
        let mut in_test = vec![false; n];

        // Bracket matching + brace depth.
        let mut stack: Vec<usize> = Vec::new();
        let mut d = 0u32;
        for (i, t) in lexed.tokens.iter().enumerate() {
            depth[i] = d;
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        d += 1;
                        stack.push(i);
                    }
                    "(" | "[" => stack.push(i),
                    "}" | ")" | "]" => {
                        d = d.saturating_sub(u32::from(t.text == "}"));
                        depth[i] = d; // closer sits at the outer depth
                        if let Some(open) = stack.pop() {
                            matching[open] = i;
                            matching[i] = open;
                        }
                    }
                    _ => {}
                }
            }
        }

        // Enclosing functions: `fn <name> … {` regions (by matched braces).
        // A `fn` keyword in type position (`fn(i32) -> i32`) is not followed
        // by an identifier, so it never opens a region.
        let mut fn_regions: Vec<(usize, usize, String)> = Vec::new();
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.kind == TokenKind::Ident && t.text == "fn" {
                let Some(name_tok) = lexed.tokens.get(i + 1) else {
                    continue;
                };
                if name_tok.kind != TokenKind::Ident {
                    continue;
                }
                // Find the body's opening brace: the first `{` at the depth
                // the `fn` keyword sits at (skips `{` inside const generics
                // or where-clause bounds, which stay bracket-balanced).
                // Parenthesized and bracketed groups are skipped whole, so
                // the `;` of an array type like `[i16; B]` in the signature
                // is not taken for the end of a body-less declaration.
                let fn_depth = depth[i];
                let mut j = i + 2;
                while j < n {
                    let tj = &lexed.tokens[j];
                    if tj.kind == TokenKind::Punct {
                        match tj.text.as_str() {
                            "(" | "[" if matching[j] != usize::MAX => j = matching[j],
                            ";" if depth[j] == fn_depth => break, // trait decl
                            "{" if depth[j] == fn_depth => {
                                let close = matching[j];
                                if close != usize::MAX {
                                    fn_regions.push((j, close, name_tok.text.clone()));
                                }
                                break;
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
            }
        }
        // Innermost region wins: apply outer regions first (they are pushed
        // in source order, and an inner fn starts later), overwriting.
        for (open, close, name) in &fn_regions {
            for slot in enclosing_fn
                .iter_mut()
                .take(close.saturating_add(1))
                .skip(*open)
            {
                *slot = Some(name.clone());
            }
        }

        // `#[cfg(test)]` regions: from the attribute to the end of the item
        // it gates (the matching `}` of the next `{` at the attribute's
        // depth) — covers `#[cfg(test)] mod tests { … }` and gated fns.
        let mut i = 0usize;
        while i < n {
            if is_cfg_test_attr(&lexed.tokens, i) {
                let attr_depth = depth[i];
                let mut j = i;
                let mut end = n;
                while j < n {
                    let tj = &lexed.tokens[j];
                    if tj.kind == TokenKind::Punct && tj.text == "{" && depth[j] == attr_depth {
                        if matching[j] != usize::MAX {
                            end = matching[j] + 1;
                        }
                        break;
                    }
                    if tj.kind == TokenKind::Punct && tj.text == ";" && depth[j] == attr_depth {
                        end = j + 1; // `#[cfg(test)] mod tests;`
                        break;
                    }
                    j += 1;
                }
                for slot in in_test.iter_mut().take(end).skip(i) {
                    *slot = true;
                }
            }
            i += 1;
        }

        let suppressions = parse_suppressions(&lexed.comments);

        SourceFile {
            path: path.to_string(),
            crate_dir,
            lexed,
            enclosing_fn,
            in_test,
            matching,
            suppressions,
        }
    }

    /// The code tokens.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// The comments.
    pub fn comments(&self) -> &[Comment] {
        &self.lexed.comments
    }

    /// True when a suppression for `rule` covers `line` (the comment's own
    /// line or the line directly below it) *and* carries a reason.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| {
            s.rule == rule && !s.reason.is_empty() && (s.line == line || s.line + 1 == line)
        })
    }
}

/// Extracts the crate directory name from a workspace-relative path.
fn crate_dir_of(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        parts.next().map(str::to_string)
    } else {
        None
    }
}

/// True when tokens starting at `i` spell `#[cfg(test)]` (possibly with
/// extra args such as `#[cfg(all(test, feature = "x"))]` — any `cfg`
/// attribute mentioning `test` counts).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let txt = |k: usize| tokens.get(i + k).map(|t| t.text.as_str());
    if txt(0) != Some("#") || txt(1) != Some("[") || txt(2) != Some("cfg") || txt(3) != Some("(") {
        return false;
    }
    // Scan to the closing `]` looking for a bare `test` ident.
    let mut k = i + 4;
    while let Some(t) = tokens.get(k) {
        if t.kind == TokenKind::Punct && t.text == "]" {
            return false;
        }
        if t.kind == TokenKind::Ident && t.text == "test" {
            return true;
        }
        k += 1;
        if k > i + 32 {
            return false;
        }
    }
    false
}

/// Parses `fec-lint: allow(rule, reason)` out of the comment stream.
///
/// Only plain comments (`//`, `/*`) are considered: doc comments (`///`,
/// `//!`, `/**`, `/*!`) are rendered documentation, which may legitimately
/// *describe* the suppression syntax without invoking it.
///
/// A malformed marker (missing `allow(`, unclosed paren) is recorded with an
/// empty rule name so the engine can flag it rather than silently ignore it.
fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(marker) = c.text.find("fec-lint:") else {
            continue;
        };
        let rest = c.text[marker + "fec-lint:".len()..].trim_start();
        let (rule, reason) = match rest.strip_prefix("allow(") {
            Some(body) => match body.find(')') {
                Some(close) => {
                    let inner = &body[..close];
                    match inner.split_once(',') {
                        Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
                        None => (inner.trim().to_string(), String::new()),
                    }
                }
                None => (String::new(), String::new()),
            },
            None => (String::new(), String::new()),
        };
        out.push(Suppression {
            rule,
            reason,
            line: c.line,
            col: c.col,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(
            crate_dir_of("crates/ldpc/src/sparse.rs"),
            Some("ldpc".to_string())
        );
        assert_eq!(crate_dir_of("tests/integration_engine.rs"), None);
    }

    #[test]
    fn enclosing_fn_tracking() {
        let src = "fn outer() { let a = 1; } fn inner_host() { fn inner() { let b = 2; } }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let tok_a = f.tokens().iter().position(|t| t.text == "a").unwrap();
        let tok_b = f.tokens().iter().position(|t| t.text == "b").unwrap();
        assert_eq!(f.enclosing_fn[tok_a].as_deref(), Some("outer"));
        assert_eq!(f.enclosing_fn[tok_b].as_deref(), Some("inner"));
    }

    #[test]
    fn enclosing_fn_tracking_sees_past_array_types_in_the_signature() {
        let src = "fn lanes<const B: usize>(q: [i16; B]) -> [i16; B] { let c = q; c }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let tok_c = f.tokens().iter().position(|t| t.text == "c").unwrap();
        assert_eq!(f.enclosing_fn[tok_c].as_deref(), Some("lanes"));
    }

    #[test]
    fn cfg_test_region_detection() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = 1; }\n}\nfn after() {}";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let tok_x = f.tokens().iter().position(|t| t.text == "x").unwrap();
        let tok_prod = f.tokens().iter().position(|t| t.text == "prod").unwrap();
        let tok_after = f.tokens().iter().position(|t| t.text == "after").unwrap();
        assert!(f.in_test[tok_x]);
        assert!(!f.in_test[tok_prod]);
        assert!(!f.in_test[tok_after]);
    }

    #[test]
    fn suppression_parsing_and_matching() {
        let src = "// fec-lint: allow(no-wall-clock, bench timing is the point)\nlet t = 1;\n// fec-lint: allow(no-wall-clock)\nlet u = 2;";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert!(f.is_suppressed("no-wall-clock", 1));
        assert!(f.is_suppressed("no-wall-clock", 2));
        // Reasonless allow never suppresses.
        assert!(!f.is_suppressed("no-wall-clock", 3));
        assert!(!f.is_suppressed("no-wall-clock", 4));
        assert_eq!(f.suppressions[1].reason, "");
    }

    #[test]
    fn bracket_matching() {
        let f = SourceFile::parse("crates/x/src/lib.rs", "let a = b[c + d];");
        let open = f.tokens().iter().position(|t| t.text == "[").unwrap();
        let close = f.tokens().iter().position(|t| t.text == "]").unwrap();
        assert_eq!(f.matching[open], close);
        assert_eq!(f.matching[close], open);
    }
}
