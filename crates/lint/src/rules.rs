//! The determinism & unsafety rules, matched over the token stream.
//!
//! Every rule has a stable id, a one-line invariant, and a pragma
//! escape: `// cxlg-lint: allow(<rule>) -- <reason>` on the finding's
//! line or the line above suppresses it, and the reason is mandatory —
//! an allow without one is itself a finding (`P0`). The rule table
//! (id → invariant → rationale → escape) is mirrored in DESIGN.md
//! "Determinism invariants & lint rules".
//!
//! Rules `D1`–`D4` and `D6` skip *test context* (files under `tests/`,
//! `benches/` or `examples/`, and `#[cfg(test)] mod` bodies): tests may
//! time themselves or hash-iterate freely because nothing they print
//! lands in result JSON. `D5` applies everywhere — an unsafe block in a
//! test still needs its safety argument written down.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::pragma::{parse_pragmas, Pragma};

/// Rule ids in report order. `P0` is the meta-rule for malformed
/// pragmas and is not escapable.
pub const RULE_IDS: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D6", "P0"];

/// Short human label per rule, used in the report legend.
pub fn rule_label(id: &str) -> &'static str {
    match id {
        "D1" => "hash-order iteration",
        "D2" => "wall-clock read",
        "D3" => "unseeded RNG",
        "D4" => "unpinned float accumulation",
        "D5" => "unsafe without SAFETY comment",
        "D6" => "env-dependent output",
        "P0" => "malformed lint pragma",
        _ => "unknown rule",
    }
}

/// One lint finding (suppressed or not).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`D1`…`D6`, `P0`).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was matched and why it matters.
    pub message: String,
    /// `Some(reason)` when a pragma suppressed this finding.
    pub suppressed: Option<String>,
}

/// Where a file sits, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileClass {
    /// Library/binary source: all rules apply.
    Source,
    /// Tests, benches, examples: only `D5` applies.
    TestContext,
}

/// Classify a workspace-relative path.
fn classify(path: &str) -> FileClass {
    let test_dirs = ["/tests/", "/benches/", "/examples/"];
    if test_dirs.iter().any(|d| path.contains(d))
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
    {
        FileClass::TestContext
    } else {
        FileClass::Source
    }
}

/// Files where rule `D2` (wall-clock) is allowed: the annotated
/// wall-clock modules. `runner::timed` feeds operator telemetry only
/// (manifest and CAS-manifest wall-clock, never result payloads);
/// `mem` reads the kernel's RSS high water.
const D2_ALLOWED: &[&str] = &["crates/core/src/runner.rs", "crates/core/src/mem.rs"];

/// Files where rule `D4` (float accumulation) is allowed: the approved
/// merge/stat helpers whose accumulation orders are pinned by tests
/// (`metrics` fixed-order merges, `OnlineStats` ordered Welford fold,
/// `interp_series` in `runner`).
const D4_ALLOWED: &[&str] = &[
    "crates/core/src/metrics.rs",
    "crates/sim/src/stats.rs",
    "crates/core/src/runner.rs",
];

/// Files where rule `D6` (env-dependent reads) is allowed: the CLI and
/// the env-config surface (`bench::lib` reads `CXLG_*` once into the
/// context; every result JSON records the values in its header).
const D6_ALLOWED: &[&str] = &[
    "crates/core/src/runner.rs",
    "crates/bench/src/cli.rs",
    "crates/bench/src/lib.rs",
];

/// Methods whose call on a hash-typed value observes hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// RNG constructors that take entropy from the environment instead of
/// an explicit seed.
const BANNED_RNG: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "getrandom",
    "from_os_rng",
];

/// `std::env` readers whose value depends on the host environment.
const BANNED_ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "args", "args_os", "temp_dir"];

/// Free functions that report host parallelism.
const BANNED_PARALLELISM: &[&str] = &["available_parallelism", "current_num_threads", "num_cpus"];

/// Analyze one file's source. `path` must be workspace-relative with
/// `/` separators — rule allowlists and the report both key on it.
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let class = classify(path);
    let test_regions = cfg_test_regions(&lexed.tokens);
    let in_test = |idx: usize| {
        class == FileClass::TestContext
            || test_regions.iter().any(|&(a, b)| idx >= a && idx < b)
    };
    let (pragmas, mut findings) = parse_pragmas(path, &lexed.comments);

    let allowed = |list: &[&str]| list.iter().any(|a| path == *a);

    d1_hash_iteration(path, &lexed.tokens, &in_test, &mut findings);
    if !allowed(D2_ALLOWED) {
        d2_wall_clock(path, &lexed.tokens, &in_test, &mut findings);
    }
    d3_unseeded_rng(path, &lexed.tokens, &in_test, &mut findings);
    if !allowed(D4_ALLOWED) {
        d4_float_accumulation(path, &lexed.tokens, &in_test, &mut findings);
    }
    d5_unsafe_safety(path, &lexed.tokens, &lexed.comments, &mut findings);
    if !allowed(D6_ALLOWED) {
        d6_env_reads(path, &lexed.tokens, &in_test, &mut findings);
    }

    apply_pragmas(&pragmas, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Mark findings covered by an allow pragma on their line or the line
/// directly above as suppressed (carrying the pragma's reason).
fn apply_pragmas(pragmas: &[Pragma], findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        if f.rule == "P0" {
            continue; // a malformed pragma can't excuse itself
        }
        for p in pragmas {
            let covers_line = f.line == p.applies_to || f.line == p.line;
            if covers_line && p.rules.iter().any(|r| r == f.rule) {
                f.suppressed = Some(p.reason.clone());
                break;
            }
        }
    }
}

/// Token index ranges (half-open) of `#[cfg(test)] mod … { … }` bodies.
fn cfg_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_seq(toks, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            // Skip any further attributes between the cfg and the item.
            let mut j = i + 7;
            while is_tok(toks, j, "#") && is_tok(toks, j + 1, "[") {
                j = match skip_balanced(toks, j + 1, "[", "]") {
                    Some(n) => n,
                    None => break,
                };
            }
            if is_tok(toks, j, "mod") {
                // Find the module's opening brace, then its close.
                let mut k = j;
                while k < toks.len() && !is_tok(toks, k, "{") {
                    k += 1;
                }
                if let Some(end) = skip_balanced(toks, k, "{", "}") {
                    regions.push((i, end));
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    regions
}

fn is_tok(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

fn is_seq(toks: &[Tok], i: usize, seq: &[&str]) -> bool {
    seq.iter().enumerate().all(|(k, s)| is_tok(toks, i + k, s))
}

/// From `toks[open_idx]` == `open`, return the index one past the
/// matching `close`.
fn skip_balanced(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    if !is_tok(toks, open_idx, open) {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    None
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        message,
        suppressed: None,
    });
}

// ---------------------------------------------------------------- D1

/// D1: iteration over `HashMap`/`HashSet` observes hash order, which is
/// seeded per-process — any output derived from it is nondeterministic.
/// Keyed lookup (`get`/`insert`/`remove`/`entry`/`contains_key`) is
/// fine; ordering must come from `BTreeMap`/`BTreeSet` or sorted `Vec`s.
fn d1_hash_iteration(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let hash_names = collect_typed_idents(toks, |t| t == "HashMap" || t == "HashSet");
    let mut i = 0usize;
    while i < toks.len() {
        if in_test(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !hash_names.contains(&t.text) {
            i += 1;
            continue;
        }
        // Skip the declaration site itself (`name: HashMap<…>`).
        if is_tok(toks, i + 1, ":") && !is_tok(toks, i + 2, ":") {
            i += 1;
            continue;
        }
        // Walk the method chain rooted at this identifier; any
        // hash-order-observing method on the way flags.
        let name = t.text.clone();
        let mut j = i + 1;
        while is_tok(toks, j, ".") {
            let Some(m) = toks.get(j + 1) else { break };
            if m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str()) {
                push(
                    findings,
                    "D1",
                    path,
                    m.line,
                    format!(
                        "`{name}.{}()` iterates a HashMap/HashSet in hash order; \
                         use BTreeMap/BTreeSet or sort first",
                        m.text
                    ),
                );
            }
            j += 2;
            if is_tok(toks, j, "(") {
                j = skip_balanced(toks, j, "(", ")").unwrap_or(j + 1);
            }
            if is_tok(toks, j, "?") {
                j += 1;
            }
        }
        // `for x in [&[mut]] name {` — direct iteration.
        let prev = |n: usize| {
            i.checked_sub(n)
                .and_then(|k| toks.get(k))
                .map_or("", |x| x.text.as_str())
        };
        let for_target = prev(1) == "in"
            || (prev(1) == "&" && prev(2) == "in")
            || (prev(1) == "mut" && prev(2) == "&" && prev(3) == "in");
        if for_target && is_tok(toks, i + 1, "{") {
            push(
                findings,
                "D1",
                path,
                t.line,
                format!("`for … in {name}` iterates a HashMap/HashSet in hash order"),
            );
        }
        i = j.max(i + 1);
    }
}

/// Identifiers whose declared type (or `let` initializer) mentions a
/// type matching `is_target`: catches struct fields (`name: T<…>,`),
/// fn params (`name: T…)`) and annotated or constructor-initialized
/// locals (`let name: T…`, `let name = T::new()`).
fn collect_typed_idents(toks: &[Tok], is_target: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `name :` starting a type annotation (not `::`).
        if t.kind == TokKind::Ident
            && is_tok(toks, i + 1, ":")
            && !is_tok(toks, i + 2, ":")
            && !(i >= 1 && is_tok(toks, i - 1, ":"))
        {
            let end = annotation_end(toks, i + 2);
            if toks[i + 2..end]
                .iter()
                .any(|x| x.kind == TokKind::Ident && is_target(&x.text))
            {
                out.push(t.text.clone());
            }
            i = end;
            continue;
        }
        // `let [mut] name = … ;` whose initializer mentions the type.
        if t.text == "let" {
            let mut j = i + 1;
            if is_tok(toks, j, "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|x| x.kind == TokKind::Ident) && is_tok(toks, j + 1, "=") {
                let end = statement_end(toks, j + 2);
                if toks[j + 2..end]
                    .iter()
                    .any(|x| x.kind == TokKind::Ident && is_target(&x.text))
                {
                    out.push(toks[j].text.clone());
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out.sort();
    out.dedup();
    out
}

/// Index just past a type annotation starting at `i`: stop at `,` `;`
/// `=` `)` `{` at angle/paren/bracket depth 0 (`->`'s `>` is ignored).
fn annotation_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut k = i;
    while k < toks.len() {
        let s = toks[k].text.as_str();
        match s {
            "<" | "(" | "[" => depth += 1,
            ">" if k >= 1 && toks[k - 1].text == "-" => {} // `->`
            ">" | ")" | "]" => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            "," | ";" | "=" | "{" if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    k
}

/// Index just past the `;` ending the statement starting at `i`
/// (brace/paren/bracket-balanced).
fn statement_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut k = i;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    k
}

// ---------------------------------------------------------------- D2

/// D2: `Instant::now`/`SystemTime` outside the annotated wall-clock
/// modules — host time must never reach simulated results.
fn d2_wall_clock(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant" && is_seq(toks, i + 1, &[":", ":", "now"]) {
            push(
                findings,
                "D2",
                path,
                t.line,
                "`Instant::now()` outside core::runner::timed / core::mem \
                 (wall-clock must stay out of result paths)"
                    .to_string(),
            );
        } else if t.text == "SystemTime" {
            push(
                findings,
                "D2",
                path,
                t.line,
                "`SystemTime` outside core::runner::timed / core::mem \
                 (wall-clock must stay out of result paths)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- D3

/// D3: RNG construction without an explicit seed — every random stream
/// must be reproducible from the printed run configuration.
fn d3_unseeded_rng(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        if BANNED_RNG.contains(&t.text.as_str()) {
            push(
                findings,
                "D3",
                path,
                t.line,
                format!(
                    "`{}` constructs an unseeded RNG; derive every stream from an \
                     explicit seed (e.g. Xoshiro256StarStar::seed_from_u64)",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- D4

/// D4: float accumulation outside the approved helpers. `f64` addition
/// is non-associative, so `+=` folds and `.sum::<f64>()` bake the
/// iteration order into the result; only helpers whose orders are
/// pinned by tests may accumulate.
fn d4_float_accumulation(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let float_names = collect_f64_idents(toks);
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        // `name += …` on a known-f64 identifier (`+=` lexes as `+` `=`).
        if t.kind == TokKind::Ident
            && float_names.contains(&t.text)
            && is_tok(toks, i + 1, "+")
            && is_tok(toks, i + 2, "=")
        {
            push(
                findings,
                "D4",
                path,
                t.line,
                format!(
                    "`{} +=` accumulates f64 outside the approved helpers \
                     (metrics / sim::stats::OnlineStats / interp_series)",
                    t.text
                ),
            );
        }
        // `.sum::<f64>()`.
        if t.text == "sum"
            && i >= 1
            && is_tok(toks, i - 1, ".")
            && is_seq(toks, i + 1, &[":", ":", "<", "f64", ">"])
        {
            push(
                findings,
                "D4",
                path,
                t.line,
                "`.sum::<f64>()` bakes iteration order into a float result \
                 outside the approved helpers"
                    .to_string(),
            );
        }
        // `let name: f64 = … .sum();` — untyped turbofish via annotation.
        if t.text == "let" {
            let mut j = i + 1;
            if is_tok(toks, j, "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|x| x.kind == TokKind::Ident)
                && is_seq(toks, j + 1, &[":", "f64", "="])
            {
                let end = statement_end(toks, j + 4);
                for (k, x) in toks[j + 4..end].iter().enumerate() {
                    let k = k + j + 4;
                    if x.text == "sum" && is_tok(toks, k - 1, ".") && is_tok(toks, k + 1, "(") {
                        push(
                            findings,
                            "D4",
                            path,
                            x.line,
                            format!(
                                "`let {}: f64 = ….sum()` bakes iteration order into a float \
                                 result outside the approved helpers",
                                toks[j].text
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Identifiers known to be `f64`/`f32`: annotated (`name: f64`) or
/// initialized from a float literal (`let name = 0.0;`).
fn collect_f64_idents(toks: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if is_tok(toks, i + 1, ":")
            && !is_tok(toks, i + 2, ":")
            && (is_tok(toks, i + 2, "f64") || is_tok(toks, i + 2, "f32"))
        {
            out.push(t.text.clone());
        }
        if t.text == "let" {
            let mut j = i + 1;
            if is_tok(toks, j, "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|x| x.kind == TokKind::Ident)
                && is_tok(toks, j + 1, "=")
                && toks.get(j + 2).is_some_and(|x| x.kind == TokKind::Num && is_float_literal(&x.text))
            {
                out.push(toks[j].text.clone());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Is this numeric literal a float? (`0.0`, `1e-3`, `2f64` — but not
/// `0x1E`, `1_000` or `0usize`, whose suffix contains an `e`.)
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
        return false;
    }
    if text.contains('.') || text.ends_with("f64") || text.ends_with("f32") {
        return true;
    }
    // An exponent `e`/`E` must be followed by a digit or sign; `0usize`'s
    // `e` is part of an integer suffix, not an exponent.
    text.bytes().zip(text.bytes().skip(1)).any(|(c, n)| {
        matches!(c, b'e' | b'E') && (n.is_ascii_digit() || n == b'+' || n == b'-')
    })
}

// ---------------------------------------------------------------- D5

/// D5: every `unsafe` (block or impl) must carry a `// SAFETY:` comment
/// on the same line or within the three lines above it.
fn d5_unsafe_safety(
    path: &str,
    toks: &[Tok],
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `unsafe fn`/`unsafe trait` *declarations* shift the obligation
        // to callers/implementors; blocks and impls need the argument.
        if is_tok(toks, i + 1, "fn") || is_tok(toks, i + 1, "trait") {
            continue;
        }
        let line = t.line;
        // Merge runs of consecutive `//` lines into blocks first, so a
        // multi-line SAFETY comment counts from its *last* line.
        let documented = comment_blocks(comments).iter().any(|&(text_has_safety, end)| {
            text_has_safety && end <= line && end + 3 >= line
        });
        if !documented {
            push(
                findings,
                "D5",
                path,
                line,
                "`unsafe` without a `// SAFETY:` comment on or directly above it".to_string(),
            );
        }
    }
}

/// Collapse consecutive-line comments into `(contains SAFETY:, last
/// line)` blocks; block comments stand alone.
fn comment_blocks(comments: &[Comment]) -> Vec<(bool, u32)> {
    let mut blocks: Vec<(bool, u32)> = Vec::new();
    for c in comments {
        let has = c.text.contains("SAFETY:");
        match blocks.last_mut() {
            Some(b) if b.1 + 1 == c.line => {
                b.0 |= has;
                b.1 = c.end_line;
            }
            _ => blocks.push((has, c.end_line)),
        }
    }
    blocks
}

// ---------------------------------------------------------------- D6

/// D6: host-environment reads (`std::env::*`, parallelism probes)
/// outside `runner`/`cli`/the env-config surface — output must be a
/// function of the recorded configuration, not of the machine.
fn d6_env_reads(
    path: &str,
    toks: &[Tok],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "env"
            && is_tok(toks, i + 1, ":")
            && is_tok(toks, i + 2, ":")
            && toks
                .get(i + 3)
                .is_some_and(|m| BANNED_ENV_READS.contains(&m.text.as_str()))
        {
            push(
                findings,
                "D6",
                path,
                t.line,
                format!(
                    "`env::{}` reads the host environment outside runner/cli; thread \
                     configuration through ExperimentCtx instead",
                    toks[i + 3].text
                ),
            );
        }
        if BANNED_PARALLELISM.contains(&t.text.as_str()) {
            push(
                findings,
                "D6",
                path,
                t.line,
                format!(
                    "`{}` makes output depend on host parallelism outside runner/cli; \
                     results must be thread-count invariant",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        analyze_source("crates/x/src/f.rs", src)
    }

    fn unsuppressed(src: &str) -> Vec<Finding> {
        run(src).into_iter().filter(|f| f.suppressed.is_none()).collect()
    }

    #[test]
    fn d1_flags_iteration_but_not_lookup() {
        let src = "
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32> }
            fn f(s: &S) -> Vec<u32> { s.m.keys().copied().collect() }
            fn g(s: &S) -> Option<&u32> { s.m.get(&1) }
        ";
        let fs = unsuppressed(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "D1");
        assert!(fs[0].message.contains("m.keys()"), "{}", fs[0].message);
    }

    #[test]
    fn d1_flags_for_loop_and_chained_iteration() {
        let src = "
            fn f() {
                let mut seen = std::collections::HashSet::new();
                seen.insert(1u32);
                for v in &seen { let _ = v; }
                let guarded: std::sync::Mutex<std::collections::HashMap<u32, u32>> =
                    Default::default();
                let _: Vec<u32> = guarded.lock().unwrap().values().copied().collect();
            }
        ";
        let fs = unsuppressed(src);
        assert_eq!(fs.iter().filter(|f| f.rule == "D1").count(), 2, "{fs:?}");
    }

    #[test]
    fn d1_ignores_btreemap_and_test_modules() {
        let src = "
            use std::collections::BTreeMap;
            fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let mut s = std::collections::HashSet::new();
                    s.insert(1);
                    for v in &s { let _ = v; }
                }
            }
        ";
        assert!(unsuppressed(src).is_empty());
    }

    #[test]
    fn d2_flags_instant_and_systemtime_except_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); let s = std::time::SystemTime::now(); }";
        let fs = unsuppressed(src);
        assert_eq!(fs.iter().filter(|f| f.rule == "D2").count(), 2, "{fs:?}");
        let ok = analyze_source("crates/core/src/runner.rs", src);
        assert!(ok.iter().all(|f| f.rule != "D2"), "{ok:?}");
    }

    #[test]
    fn d3_flags_entropy_rngs() {
        let fs = unsuppressed("fn f() { let r = rand::thread_rng(); }");
        assert_eq!(fs.iter().filter(|f| f.rule == "D3").count(), 1);
        assert!(unsuppressed("fn f() { let r = Xoshiro256StarStar::seed_from_u64(1); }").is_empty());
    }

    #[test]
    fn d4_flags_accumulation_forms() {
        let fs = unsuppressed(
            "fn f(xs: &[f64]) -> f64 {
                let mut acc = 0.0;
                for x in xs { acc += *x; }
                let t: f64 = xs.iter().sum();
                t + acc + xs.iter().sum::<f64>()
            }",
        );
        assert_eq!(fs.iter().filter(|f| f.rule == "D4").count(), 3, "{fs:?}");
    }

    #[test]
    fn d4_ignores_integer_accumulation() {
        assert!(unsuppressed(
            "fn f(xs: &[u64]) -> u64 {
                let mut acc = 0u64;
                for x in xs { acc += *x; }
                acc + xs.iter().sum::<u64>()
            }"
        )
        .is_empty());
    }

    #[test]
    fn d5_requires_safety_comment_even_in_tests() {
        let src = "fn f(p: *mut u8) { unsafe { *p = 1 }; }";
        let fs = analyze_source("crates/x/tests/t.rs", src);
        assert_eq!(fs.iter().filter(|f| f.rule == "D5").count(), 1);
        let ok = "fn f(p: *mut u8) {
            // SAFETY: p is valid for writes by contract.
            unsafe { *p = 1 };
        }";
        assert!(analyze_source("crates/x/tests/t.rs", ok).is_empty());
    }

    #[test]
    fn d5_skips_unsafe_fn_declarations() {
        assert!(run("unsafe fn f() {} unsafe trait T {}").is_empty());
    }

    #[test]
    fn d6_flags_env_and_parallelism_reads() {
        let src = "fn f() -> usize {
            let _ = std::env::var(\"X\");
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }";
        let fs = unsuppressed(src);
        assert_eq!(fs.iter().filter(|f| f.rule == "D6").count(), 2, "{fs:?}");
        let ok = analyze_source("crates/bench/src/cli.rs", src);
        assert!(ok.iter().all(|f| f.rule != "D6"), "{ok:?}");
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f() {
            // cxlg-lint: allow(D2) -- progress display only, never serialized
            let t = std::time::Instant::now();
            let _ = t;
        }";
        let fs = run(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(
            fs[0].suppressed.as_deref(),
            Some("progress display only, never serialized")
        );
    }

    #[test]
    fn pragma_without_reason_is_a_finding() {
        let src = "fn f() {
            // cxlg-lint: allow(D2)
            let t = std::time::Instant::now();
            let _ = t;
        }";
        let fs = run(src);
        assert!(fs.iter().any(|f| f.rule == "P0"), "{fs:?}");
        // And the D2 finding stays unsuppressed.
        assert!(fs.iter().any(|f| f.rule == "D2" && f.suppressed.is_none()));
    }

    #[test]
    fn trailing_pragma_on_the_same_line_works() {
        let src =
            "fn f() { let t = std::time::Instant::now(); } // cxlg-lint: allow(D2) -- demo only";
        let fs = run(src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].suppressed.is_some());
    }
}
