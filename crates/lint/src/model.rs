//! Structural view of one lexed file: function extents, `#[cfg(test)]`
//! regions, directive scopes, and hash-collection-typed names.
//!
//! This is deliberately *not* an AST. The rules need four structural
//! facts a token stream alone doesn't give: which function a token is in
//! (and whether it is `// chm-lint: hot`), whether a line sits inside a
//! `#[cfg(test)]` module, which lines an `allow` directive covers, and
//! which identifiers name `HashMap`/`HashSet` values. All four fall out
//! of one linear pass with brace matching.

use crate::directives::{self, Directive};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// One `fn` item: name, token extent of its body, line extent, hot flag.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, inclusive of both braces
    /// (`None` for bodyless trait-method declarations).
    pub body: Option<(usize, usize)>,
    /// First/last line covered by the item (leading comments excluded).
    pub lines: (u32, u32),
    /// Marked `// chm-lint: hot` in its leading comments.
    pub hot: bool,
}

/// One `allow` directive with its resolved line scope.
#[derive(Debug, Clone)]
pub struct AllowScope {
    /// The rule id being allowed (verbatim; may be unknown).
    pub rule: String,
    /// The mandatory justification (`None` = violation).
    pub reason: Option<String>,
    /// Line the directive itself is on.
    pub line: u32,
    /// Inclusive line range the allow covers.
    pub lines: (u32, u32),
}

/// The analyzed structure of one file.
#[derive(Debug)]
pub struct FileModel {
    /// Every function item, in source order.
    pub fns: Vec<FnInfo>,
    /// Inclusive line ranges inside `#[cfg(test)]` items.
    pub test_lines: Vec<(u32, u32)>,
    /// Every `allow` directive with its scope.
    pub allows: Vec<AllowScope>,
    /// Lines carrying a malformed `chm-lint:` directive, with a snippet.
    pub malformed: Vec<(u32, String)>,
    /// Identifiers declared (anywhere in this file) with a
    /// `HashMap`/`HashSet` type or constructed from one.
    pub hash_names: BTreeSet<String>,
    /// The subset of [`hash_names`](Self::hash_names) worth exporting
    /// workspace-wide: struct fields and fn params (type-annotated, not
    /// `let`-bound). `let` locals stay file-scoped so a local named
    /// `flows` in one crate cannot taint a `Vec` field named `flows`
    /// elsewhere.
    pub hash_exports: BTreeSet<String>,
}

impl FileModel {
    /// True when `line` falls inside a `#[cfg(test)]` region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// The innermost function whose body covers token index `i`.
    pub fn fn_at(&self, i: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .rfind(|f| f.body.is_some_and(|(a, b)| (a..=b).contains(&i)))
    }
}

/// Builds the [`FileModel`] for a token stream.
pub fn build(toks: &[Tok]) -> FileModel {
    let mut m = FileModel {
        fns: Vec::new(),
        test_lines: Vec::new(),
        allows: Vec::new(),
        malformed: Vec::new(),
        hash_names: BTreeSet::new(),
        hash_exports: BTreeSet::new(),
    };
    find_fns_and_directives(toks, &mut m);
    find_test_regions(toks, &mut m);
    find_hash_names(toks, &mut m);
    m
}

/// Scans for `fn` items, binds leading-comment directives to them, and
/// resolves line-scoped directives everywhere else.
fn find_fns_and_directives(toks: &[Tok], m: &mut FileModel) {
    // First: every fn item with its body extent.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            // Find the body `{` or the declaration-terminating `;`.
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                if toks[j].is_punct(';') {
                    break;
                }
                if toks[j].is_punct('{') {
                    body = Some((j, match_brace(toks, j)));
                    break;
                }
                j += 1;
            }
            let end_line = match body {
                Some((_, e)) => toks.get(e).map(|t| t.line).unwrap_or(line),
                None => toks.get(j).map(|t| t.line).unwrap_or(line),
            };
            // Leading comments: walk back over comments and attribute
            // tokens until real code.
            let (hot, fn_allows) = leading_directives(toks, i);
            for (rule, reason, dline) in fn_allows {
                m.allows.push(AllowScope {
                    rule,
                    reason,
                    line: dline,
                    lines: (line.min(dline), end_line),
                });
            }
            m.fns.push(FnInfo {
                name,
                line,
                body,
                lines: (line, end_line),
                hot,
            });
            // Advance only past `fn name` so functions nested inside this
            // body are discovered too.
            i += 2;
            continue;
        }
        i += 1;
    }
    // Second: directives not bound to a fn header (line-scoped), plus
    // malformed ones.
    for (k, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        for d in directives::parse(&t.text) {
            match d {
                Directive::Allow { rule, reason } => {
                    if bound_to_fn(toks, k) {
                        continue; // already scoped to the fn above
                    }
                    // Scope: this line through the next code line.
                    let next_code = toks[k + 1..]
                        .iter()
                        .find(|t| !t.is_comment())
                        .map(|t| t.line)
                        .unwrap_or(t.line);
                    m.allows.push(AllowScope {
                        rule,
                        reason,
                        line: t.line,
                        lines: (t.line, next_code.max(t.line)),
                    });
                }
                Directive::Malformed(s) => m.malformed.push((t.line, s)),
                Directive::Hot => {} // consumed by leading_directives
            }
        }
    }
}

/// Is the comment at token index `k` part of a fn item's leading comment
/// block (comments/attributes only between it and the `fn` keyword)?
fn bound_to_fn(toks: &[Tok], k: usize) -> bool {
    let mut j = k + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        if t.is_punct('#') {
            // Skip an attribute `#[…]`.
            if j + 1 < toks.len() && toks[j + 1].is_punct('[') {
                j = match_bracket(toks, j + 1) + 1;
                continue;
            }
            return false;
        }
        // Qualifiers that may precede `fn`.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "pub" | "const" | "unsafe" | "extern" | "async" | "crate")
        {
            j += 1;
            continue;
        }
        if t.is_punct('(') {
            // `pub(crate)` etc.
            j = match_paren(toks, j) + 1;
            continue;
        }
        return t.is_ident("fn");
    }
    false
}

/// Collects `hot` and `allow` directives from the comment block directly
/// above the `fn` keyword at token index `fi`.
fn leading_directives(
    toks: &[Tok],
    fi: usize,
) -> (bool, Vec<(String, Option<String>, u32)>) {
    let mut hot = false;
    let mut allows = Vec::new();
    let mut j = fi;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_comment() {
            for d in directives::parse(&t.text) {
                match d {
                    Directive::Hot => hot = true,
                    Directive::Allow { rule, reason } => allows.push((rule, reason, t.line)),
                    Directive::Malformed(_) => {}
                }
            }
            j -= 1;
            continue;
        }
        // Attributes and qualifiers between comments and `fn`.
        if t.is_punct(']') {
            // Walk back to the matching `[` and its `#`.
            let mut depth = 1;
            let mut k = j - 1;
            while k > 0 && depth > 0 {
                k -= 1;
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                }
            }
            j = k.saturating_sub(1);
            if j == 0 {
                break;
            }
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "pub" | "const" | "unsafe" | "extern" | "async" | "crate")
        {
            j -= 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct('(') {
            j -= 1; // inside `pub(crate)` etc.
            continue;
        }
        break;
    }
    (hot, allows)
}

/// Marks the line ranges of `#[cfg(test)]`-gated items (typically the
/// in-file `mod tests`).
fn find_test_regions(toks: &[Tok], m: &mut FileModel) {
    let code: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut i = 0usize;
    while i + 6 < code.len() {
        let w = &code[i..];
        if w[0].1.is_punct('#')
            && w[1].1.is_punct('[')
            && w[2].1.is_ident("cfg")
            && w[3].1.is_punct('(')
            && w[4].1.is_ident("test")
            && w[5].1.is_punct(')')
            && w[6].1.is_punct(']')
        {
            // The gated item runs to the matching `}` of its first `{`.
            let mut j = i + 7;
            while j < code.len() && !code[j].1.is_punct('{') {
                if code[j].1.is_punct(';') {
                    break; // `#[cfg(test)] use …;`
                }
                j += 1;
            }
            if j < code.len() && code[j].1.is_punct('{') {
                let open = code[j].0;
                let close = match_brace(toks, open);
                m.test_lines.push((
                    toks[code[i].0].line,
                    toks.get(close).map(|t| t.line).unwrap_or(u32::MAX),
                ));
                // Skip past the region.
                while i < code.len() && code[i].0 <= close {
                    i += 1;
                }
                continue;
            }
        }
        i += 1;
    }
}

/// Records names declared with a hash-collection type or constructor:
/// `name: HashMap<…>`, `name: &HashSet<…>`, and
/// `let [mut] name = HashMap::new()/with_capacity/from…`.
fn find_hash_names(toks: &[Tok], m: &mut FileModel) {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // `name :  [&] [mut] [std::collections::] HashMap`
        let mut j = i;
        while j > 0 {
            let p = code[j - 1];
            if p.is_ident("collections") || p.is_ident("std") || p.is_punct(':')
                || p.is_ident("mut") || p.is_punct('&')
            {
                j -= 1;
                continue;
            }
            break;
        }
        // After unwinding the path/ref prefix, `code[j]` is the first
        // consumed token; a type annotation looks like `name : <prefix>`.
        if j >= 1 && j < code.len() && code[j].is_punct(':') && code[j - 1].kind == TokKind::Ident {
            let name = &code[j - 1].text;
            if name != "Option" && name != "Some" {
                m.hash_names.insert(name.clone());
                // `let [mut] name: HashMap…` is a local; everything else
                // (field, param) is a cross-file fact.
                let k = j - 1;
                let let_bound = (k >= 1 && code[k - 1].is_ident("let"))
                    || (k >= 2 && code[k - 1].is_ident("mut") && code[k - 2].is_ident("let"));
                if !let_bound {
                    m.hash_exports.insert(name.clone());
                }
            }
        }
        // `let [mut] name = HashMap::…`
        if j >= 2 && code[j - 1].is_punct('=') && code[j - 2].kind == TokKind::Ident {
            let k = j - 2;
            let is_let = (k >= 1 && code[k - 1].is_ident("let"))
                || (k >= 2 && code[k - 1].is_ident("mut") && code[k - 2].is_ident("let"));
            if is_let {
                m.hash_names.insert(code[k].text.clone());
            }
        }
    }
}

/// Returns the index of the `}` matching the `{` at `open` (or the last
/// token index if unbalanced).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    match_delim(toks, open, '{', '}')
}

fn match_bracket(toks: &[Tok], open: usize) -> usize {
    match_delim(toks, open, '[', ']')
}

fn match_paren(toks: &[Tok], open: usize) -> usize {
    match_delim(toks, open, '(', ')')
}

fn match_delim(toks: &[Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_fns_and_hot_marker() {
        let src = "
/// Docs.
// chm-lint: hot
#[inline]
pub fn fast(x: u64) -> u64 { x }

fn slow() {}
";
        let m = build(&lex(src));
        assert_eq!(m.fns.len(), 2);
        assert!(m.fns[0].hot);
        assert_eq!(m.fns[0].name, "fast");
        assert!(!m.fns[1].hot);
    }

    #[test]
    fn fn_scoped_allow_covers_whole_body() {
        let src = r#"
// chm-lint: allow(unwrap, "demo covers body")
fn f() {
    let x: Option<u8> = None;
    x.unwrap();
}
"#;
        let m = build(&lex(src));
        assert_eq!(m.allows.len(), 1);
        let a = &m.allows[0];
        assert!(a.lines.0 <= 3 && a.lines.1 >= 5, "scope {:?}", a.lines);
    }

    #[test]
    fn line_scoped_allow_covers_next_line() {
        let src = r#"
fn f() {
    // chm-lint: allow(unwrap, "bounded above")
    foo.unwrap();
    bar.unwrap();
}
"#;
        let m = build(&lex(src));
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].lines, (3, 4));
    }

    #[test]
    fn cfg_test_region_found() {
        let src = "
fn lib() {}

#[cfg(test)]
mod tests {
    fn t() {}
}
";
        let m = build(&lex(src));
        assert_eq!(m.test_lines.len(), 1);
        assert!(m.in_test(6));
        assert!(!m.in_test(2));
    }

    #[test]
    fn hash_names_from_annotations_and_ctors() {
        let src = "
struct S { lost: HashMap<u32, u64>, ok: BTreeMap<u32, u64> }
fn f(seen: &std::collections::HashSet<u8>) {
    let mut acc = HashMap::new();
    let sorted: Vec<u8> = vec![];
}
";
        let m = build(&lex(src));
        assert!(m.hash_names.contains("lost"));
        assert!(m.hash_names.contains("seen"));
        assert!(m.hash_names.contains("acc"));
        assert!(!m.hash_names.contains("ok"));
        assert!(!m.hash_names.contains("sorted"));
    }
}
