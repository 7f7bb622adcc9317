//! The rule set: the invariants only a token-level pass can check.
//!
//! | id              | invariant enforced                                             |
//! |-----------------|----------------------------------------------------------------|
//! | `map-iter-order`| no unordered `HashMap`/`HashSet` iteration on output surfaces  |
//! | `hot-path-mod`  | no `%` reduction inside `// chm-lint: hot` functions           |
//! | `hot-path-alloc`| no allocation-prone calls inside hot functions                 |
//! | `unwrap`        | no bare `.unwrap()` / empty `.expect("")` in library code      |
//! | `bad-allow`     | `allow` directives must name a known rule and give a reason    |
//!
//! The other determinism invariants live where the compiler checks them
//! with types resolved: wall-clock reads in `clippy.toml`, entropy RNGs
//! in the vendored `rand` (which has none, so rustc refuses them),
//! `unsafe` in `[workspace.lints]` (forbidden everywhere but
//! `crates/counting_alloc`), and metric names in `chm_obs`'s registry,
//! which panics on a bad one at registration.
//!
//! Each rule is a pure function of the token stream, the file's
//! [`FileModel`], its [`Role`], and the workspace-wide set of
//! hash-collection-typed names.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::FileModel;
use crate::roles::Role;
use std::collections::BTreeSet;

/// Every rule id the analyzer can emit (also the vocabulary `allow`
/// directives may name).
pub const RULE_IDS: &[&str] = &[
    "map-iter-order",
    "hot-path-mod",
    "hot-path-alloc",
    "unwrap",
    "bad-allow",
];

/// Iterator-producing methods on hash collections whose order is
/// instance-randomized.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys",
    "into_values", "drain",
];

/// Chain terminals whose result cannot depend on iteration order.
const ORDER_FREE_TERMINALS: &[&str] = &[
    "count", "len", "is_empty", "all", "any", "contains", "contains_key", "min", "max",
];

/// Functions known (and unit-pinned) to be order-independent consumers of
/// hash-collection iterators.
const ORDER_FREE_SINKS: &[&str] = &["detection_score"];

/// Sort-family calls: their presence in the enclosing function marks the
/// sorted-accumulation pattern (collect → sort → fold, the PR 3 fix).
const SORT_CALLS: &[&str] = &[
    "sort", "sort_by", "sort_unstable", "sort_unstable_by", "sort_by_key",
    "sort_unstable_by_key", "sort_by_cached_key",
];

/// Allocation-prone method calls forbidden in hot functions.
const HOT_ALLOC_METHODS: &[&str] = &[
    "clone", "to_vec", "to_owned", "to_string", "collect", "push_str",
];

/// Allocation-prone macros forbidden in hot functions.
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Allocation-prone `Type::ctor` paths forbidden in hot functions.
const HOT_ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
];

/// Everything the rules need about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Role from [`crate::roles::classify`].
    pub role: Role,
    /// Full token stream (comments included).
    pub toks: &'a [Tok],
    /// Structural model.
    pub model: &'a FileModel,
    /// Hash-collection-typed names across the whole workspace (struct
    /// fields travel between files; `report.lost` must be recognized in
    /// `runner.rs` even though `lost` is declared in `sim.rs`).
    pub ws_hash_names: &'a BTreeSet<String>,
}

impl FileCtx<'_> {
    fn diag(&self, line: u32, tok_idx: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.rel.to_string(),
            line,
            rule,
            function: self.model.fn_at(tok_idx).map(|f| f.name.clone()),
            message,
        }
    }
}

/// Runs every rule over one file; returns unsuppressed-yet diagnostics
/// (allow application happens in the caller).
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Code view: (original token index, token), comments stripped.
    let code: Vec<(usize, &Tok)> = ctx
        .toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();

    rule_unwrap(ctx, &code, &mut out);
    rule_map_iter_order(ctx, &code, &mut out);
    rule_hot_path(ctx, &code, &mut out);
    rule_bad_allow(ctx, &mut out);
    out
}

/// D5: bare `.unwrap()` / empty `.expect("")` in audited roles.
fn rule_unwrap(ctx: &FileCtx<'_>, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    if !ctx.role.audits_unwrap() {
        return;
    }
    for i in 0..code.len() {
        let (oi, t) = code[i];
        if ctx.model.in_test(t.line) {
            continue;
        }
        if t.is_punct('.') && matches_seq(code, i + 1, &["unwrap", "(", ")"]) {
            out.push(ctx.diag(
                code[i + 1].1.line,
                oi,
                "unwrap",
                "bare `.unwrap()` in library code: use `.expect(\"invariant…\")` \
                 to document why this cannot fail, or allow with a reason"
                    .into(),
            ));
        }
        if t.is_punct('.')
            && i + 2 < code.len()
            && code[i + 1].1.is_ident("expect")
            && code[i + 2].1.is_punct('(')
        {
            if let Some((_, s)) = code.get(i + 3) {
                if s.kind == TokKind::Str && s.text.trim_matches(|c| c == '"').trim().is_empty() {
                    out.push(ctx.diag(
                        s.line,
                        oi,
                        "unwrap",
                        "`.expect(\"\")` documents nothing; state the invariant".into(),
                    ));
                }
            }
        }
    }
}

/// D1: unordered hash-collection iteration on output surfaces.
fn rule_map_iter_order(ctx: &FileCtx<'_>, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    if !ctx.role.is_output_surface() {
        return;
    }
    let is_hash = |name: &str| {
        ctx.ws_hash_names.contains(name) || ctx.model.hash_names.contains(name)
    };
    for i in 0..code.len() {
        let (oi, t) = code[i];
        if ctx.model.in_test(t.line) {
            continue;
        }
        // Pattern (a): `X.iter()` / `X.keys()` / … with X hash-typed.
        if t.kind == TokKind::Ident
            && is_hash(&t.text)
            && i + 2 < code.len()
            && code[i + 1].1.is_punct('.')
            && code[i + 2].1.kind == TokKind::Ident
            && ITER_METHODS.contains(&code[i + 2].1.text.as_str())
            && code.get(i + 3).is_some_and(|(_, p)| p.is_punct('('))
        {
            if !iteration_is_order_free(ctx, code, i) {
                out.push(ctx.diag(
                    t.line,
                    oi,
                    "map-iter-order",
                    format!(
                        "iterating `{}` (a hash collection) feeds an output surface: \
                         hash iteration order is instance-randomized — sort first, \
                         use a BTreeMap, or end in an order-free reduction",
                        t.text
                    ),
                ));
            }
            continue;
        }
        // Pattern (b): `for … in &X {` with X hash-typed and no explicit
        // iterator method (that case is pattern (a)).
        if t.is_ident("for") {
            if let Some(in_idx) = find_forward(code, i, 12, "in") {
                if let Some(body_idx) = find_block_open(code, in_idx) {
                    // `for &(a, b) in xs` only type-checks against a slice of
                    // tuples (a map's iterator yields `(&K, &V)`, which the
                    // `&(…)` pattern cannot match) — so the receiver is a Vec
                    // or array whatever its name says elsewhere.
                    let slice_pattern = code.get(i + 1).is_some_and(|(_, t)| t.is_punct('&'))
                        && code.get(i + 2).is_some_and(|(_, t)| t.is_punct('('));
                    if slice_pattern {
                        continue;
                    }
                    let seg = &code[in_idx + 1..body_idx];
                    let has_iter_call = seg
                        .iter()
                        .any(|(_, t)| t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str()));
                    let hash_recv = seg
                        .iter()
                        .rev()
                        .find(|(_, t)| t.kind == TokKind::Ident)
                        .filter(|(_, t)| is_hash(&t.text))
                        .filter(|(roi, t)| {
                            // A non-hash annotation in the enclosing fn's own
                            // signature shadows the workspace-wide name set.
                            ctx.model.hash_names.contains(&t.text)
                                || !signature_annotates_nonhash(ctx, code, *roi, &t.text)
                        });
                    if let (false, Some(&(roi, rt))) = (has_iter_call, hash_recv) {
                        if !fn_sorts(ctx, code, roi) {
                            out.push(ctx.diag(
                                rt.line,
                                roi,
                                "map-iter-order",
                                format!(
                                    "`for … in {}` iterates a hash collection on an \
                                     output surface in instance-random order",
                                    rt.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// Decides whether the hash-iteration chain starting at code index `i`
/// (the receiver ident) is provably order-independent.
fn iteration_is_order_free(ctx: &FileCtx<'_>, code: &[(usize, &Tok)], i: usize) -> bool {
    // The enclosing function uses the sorted-accumulation pattern.
    if fn_sorts(ctx, code, code[i].0) {
        return true;
    }
    let (start, end) = statement_bounds(code, i);
    let stmt = &code[start..end];
    let recv = i - start;
    let mut saw_collect = false;
    let mut saw_hash_target = false;
    // Bracket depth before each token, and the receiver's: a terminal ends
    // the chain only as a method call at the chain's own level — after the
    // receiver, at its depth, before that depth closes. A `max` inside a
    // closure argument (`.map(|w| w.max(0))`) reduces one item, not the
    // iteration.
    let mut depth = 0i64;
    let mut recv_depth = None;
    let mut chain_open = false;
    for (k, (_, t)) in stmt.iter().enumerate() {
        let here = depth;
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
        if k == recv {
            recv_depth = Some(here);
            chain_open = true;
        }
        if recv_depth.is_some_and(|r| here < r) {
            chain_open = false;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        let chain_call = chain_open
            && k > recv
            && recv_depth == Some(here)
            && stmt[k - 1].1.is_punct('.')
            && stmt.get(k + 1).is_some_and(|(_, n)| n.is_punct('(') || n.is_punct(':'));
        if s == "BTreeMap" || s == "BTreeSet" {
            return true; // re-collected into an ordered container
        }
        if chain_call && ORDER_FREE_TERMINALS.contains(&s) {
            return true;
        }
        if ORDER_FREE_SINKS.contains(&s) {
            return true;
        }
        if chain_call && s == "sum" {
            // Integer sums are exact and commutative; float sums are not.
            let turbofish: Vec<&str> = stmt[k + 1..]
                .iter()
                .take(5)
                .map(|(_, t)| t.text.as_str())
                .collect();
            if turbofish.len() >= 4
                && turbofish[..3] == [":", ":", "<"]
                && matches!(turbofish[3], "u8" | "u16" | "u32" | "u64" | "u128" | "usize"
                    | "i8" | "i16" | "i32" | "i64" | "i128" | "isize")
            {
                return true;
            }
        }
        if s == "collect" {
            saw_collect = true;
        }
        if s == "HashMap" || s == "HashSet" {
            saw_hash_target = true;
        }
    }
    // Re-collecting into another hash container is order-independent as a
    // value (equality is set-wise); its own iteration is checked at its
    // own use sites.
    saw_collect && saw_hash_target
}

/// True when the signature of the function enclosing original-token-index
/// `oi` annotates `name` with a type that is *not* a hash container —
/// e.g. `flows: impl Iterator<…>` — in which case the parameter shadows
/// any same-named hash-typed struct field elsewhere in the workspace.
fn signature_annotates_nonhash(
    ctx: &FileCtx<'_>,
    code: &[(usize, &Tok)],
    oi: usize,
    name: &str,
) -> bool {
    let Some(f) = ctx.model.fn_at(oi) else { return false };
    let Some((open, _)) = f.body else { return false };
    // Signature tokens: walk back from the body-open brace to the `fn`
    // keyword that introduces this function.
    let end = match code.iter().position(|(k, _)| *k >= open) {
        Some(e) => e,
        None => return false,
    };
    let start = code[..end]
        .iter()
        .rposition(|(_, t)| t.is_ident("fn"))
        .unwrap_or(0);
    let sig = &code[start..end];
    for j in 0..sig.len().saturating_sub(1) {
        if sig[j].1.is_ident(name) && sig[j + 1].1.is_punct(':') {
            // First meaningful type token after the `:`.
            let mut k = j + 2;
            while k < sig.len()
                && (sig[k].1.is_punct('&')
                    || sig[k].1.is_punct('\'')
                    || sig[k].1.is_punct(':')
                    || sig[k].1.is_ident("mut")
                    || sig[k].1.is_ident("std")
                    || sig[k].1.is_ident("collections")
                    || sig[k].1.kind == crate::lexer::TokKind::Char)
            {
                k += 1;
            }
            let is_hash_ty = sig
                .get(k)
                .is_some_and(|(_, t)| t.is_ident("HashMap") || t.is_ident("HashSet"));
            return !is_hash_ty;
        }
    }
    false
}

/// Does the function enclosing original-token-index `oi` call a
/// sort-family method anywhere? (The collect → sort → fold pattern.)
fn fn_sorts(ctx: &FileCtx<'_>, code: &[(usize, &Tok)], oi: usize) -> bool {
    let Some(f) = ctx.model.fn_at(oi) else { return false };
    let Some((a, b)) = f.body else { return false };
    code.iter()
        .filter(|(k, _)| (a..=b).contains(k))
        .any(|(_, t)| t.kind == TokKind::Ident && SORT_CALLS.contains(&t.text.as_str()))
}

/// D4: hot-function hygiene — no `%`, no allocation-prone calls.
fn rule_hot_path(ctx: &FileCtx<'_>, code: &[(usize, &Tok)], out: &mut Vec<Diagnostic>) {
    for f in ctx.model.fns.iter().filter(|f| f.hot) {
        let Some((a, b)) = f.body else { continue };
        let body: Vec<&(usize, &Tok)> =
            code.iter().filter(|(k, _)| (a..=b).contains(k)).collect();
        for (w, &&(oi, t)) in body.iter().enumerate() {
            if t.is_punct('%') {
                out.push(ctx.diag(
                    t.line,
                    oi,
                    "hot-path-mod",
                    format!(
                        "`%` reduction in hot function `{}`: use the precomputed \
                         `FastRange` multiply-shift instead",
                        f.name
                    ),
                ));
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let s = t.text.as_str();
            let prev_dot = w > 0 && body[w - 1].1.is_punct('.');
            let next = body.get(w + 1).map(|&&(_, t)| t);
            if prev_dot
                && HOT_ALLOC_METHODS.contains(&s)
                && next.is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
            {
                out.push(ctx.diag(
                    t.line,
                    oi,
                    "hot-path-alloc",
                    format!("`.{s}(…)` allocates; hot function `{}` must stay allocation-free", f.name),
                ));
            }
            if HOT_ALLOC_MACROS.contains(&s) && next.is_some_and(|t| t.is_punct('!')) {
                out.push(ctx.diag(
                    t.line,
                    oi,
                    "hot-path-alloc",
                    format!("`{s}!` allocates; hot function `{}` must stay allocation-free", f.name),
                ));
            }
            for &(ty, ctor) in HOT_ALLOC_PATHS {
                if s == ty && matches_seq_refs(&body, w + 1, &[":", ":", ctor]) {
                    out.push(ctx.diag(
                        t.line,
                        oi,
                        "hot-path-alloc",
                        format!(
                            "`{ty}::{ctor}` allocates; hot function `{}` must stay \
                             allocation-free",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// The meta-rule: `allow` without a reason, naming an unknown rule, or a
/// malformed directive.
fn rule_bad_allow(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for a in &ctx.model.allows {
        if a.reason.is_none() {
            out.push(Diagnostic {
                file: ctx.rel.to_string(),
                line: a.line,
                rule: "bad-allow",
                function: None,
                message: format!(
                    "`allow({})` without a reason: write \
                     `// chm-lint: allow({}, \"why this is sound\")`",
                    a.rule, a.rule
                ),
            });
        } else if !crate::directives::is_known_rule(&a.rule) {
            out.push(Diagnostic {
                file: ctx.rel.to_string(),
                line: a.line,
                rule: "bad-allow",
                function: None,
                message: format!("`allow({})` names an unknown rule", a.rule),
            });
        }
    }
    for (line, snippet) in &ctx.model.malformed {
        out.push(Diagnostic {
            file: ctx.rel.to_string(),
            line: *line,
            rule: "bad-allow",
            function: None,
            message: format!("unparseable `chm-lint:` directive: `{snippet}`"),
        });
    }
}

/// True when the code tokens starting at `i` match `pat` textually.
fn matches_seq(code: &[(usize, &Tok)], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| code.get(i + k).is_some_and(|(_, t)| t.text == *p))
}

/// [`matches_seq`] over a pre-filtered `Vec<&(usize, &Tok)>` body view.
fn matches_seq_refs(body: &[&(usize, &Tok)], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| body.get(i + k).is_some_and(|(_, t)| t.text == *p))
}

/// Finds ident `what` within the next `window` code tokens after `i`.
fn find_forward(code: &[(usize, &Tok)], i: usize, window: usize, what: &str) -> Option<usize> {
    (i + 1..(i + 1 + window).min(code.len())).find(|&k| code[k].1.is_ident(what))
}

/// Finds the `{` opening the block after a `for … in` header, skipping
/// struct-literal-free expression tokens (tracks nesting so closures or
/// index expressions don't fool it).
fn find_block_open(code: &[(usize, &Tok)], from: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &(_, t)) in code.iter().enumerate().skip(from + 1) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            return Some(k);
        } else if t.is_punct(';') {
            return None;
        }
    }
    None
}

/// Inclusive-exclusive code-index bounds of the statement containing `i`:
/// from just after the previous `;`/`{`/`}` to the next `;` or
/// block-opening `{` at the same nesting depth.
fn statement_bounds(code: &[(usize, &Tok)], i: usize) -> (usize, usize) {
    let mut start = i;
    while start > 0 {
        let t = code[start - 1].1;
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        start -= 1;
    }
    let mut depth = 0i64;
    let mut end = i;
    while end < code.len() {
        let t = code[end].1;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break; // statement was a call argument — stop at its edge
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            break;
        }
        end += 1;
    }
    (start, end.min(code.len()))
}
