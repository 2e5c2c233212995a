//! The rule registry and the checkers themselves.
//!
//! Every rule works on the stripped token stream from [`crate::tokenizer`],
//! so comments, strings, and char literals can never trigger (or hide) a
//! finding. Diagnostics carry workspace-relative `path:line` positions.
//! Nothing suppresses one: a `// clash-lint: ...` comment is itself a
//! finding, and an exemption is a registered site in [`crate::policy`].

use crate::policy;
use crate::tokenizer::{Lexed, Token};
use std::collections::BTreeSet;

/// One finding, anchored to a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

pub const NO_WALL_CLOCK: &str = "no-wall-clock";
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
pub const DET_COLLECTIONS: &str = "det-collections";
pub const THREAD_CONTAINMENT: &str = "thread-containment";
pub const ENV_DISCIPLINE: &str = "env-discipline";
pub const EXHAUSTIVE_CHARGING: &str = "exhaustive-charging";
/// Meta-rule: a `clash-lint:` comment, which suppresses nothing.
pub const ALLOW_DIRECTIVE: &str = "allow-directive";

/// `(id, one-line summary)` for every rule, in report order.
pub const RULES: &[(&str, &str)] = &[
    (
        NO_WALL_CLOCK,
        "Instant/SystemTime only in registered wall-clock crates (sim, lint, obs); \
         protocol time is virtual (SimTime)",
    ),
    (
        NO_AMBIENT_RNG,
        "thread_rng/from_entropy/rand::random/OsRng forbidden everywhere; draw from DetRng",
    ),
    (
        DET_COLLECTIONS,
        "default-hasher HashMap/HashSet forbidden in protocol crates; use DetBuildHasher or BTree*",
    ),
    (
        THREAD_CONTAINMENT,
        "std::thread / Mutex / RwLock / atomics only at registered sites",
    ),
    (
        ENV_DISCIPLINE,
        "process environment reads/writes only in src/bin/ entry points",
    ),
    (
        EXHAUSTIVE_CHARGING,
        "every MessageClass variant must be charged in clash-core, and a transport's \
         send/send_batch/send_chains called only from cluster/accounting.rs",
    ),
    (
        ALLOW_DIRECTIVE,
        "no `// clash-lint:` comments: nothing is suppressed; register an exemption in policy.rs",
    ),
];

/// A lexed source file ready for rule checks.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub lexed: &'a Lexed,
}

fn tok_is(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

/// True if tokens starting at `i` match `pat` exactly.
fn seq(toks: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| tok_is(toks, i + k, p))
}

/// Counts top-level generic arguments of the list opened by the `<` at
/// `lt`. Returns `None` when the list does not terminate in bounds (then
/// the site is not treated as a type usage).
fn generic_args(toks: &[Token], lt: usize) -> Option<usize> {
    debug_assert!(tok_is(toks, lt, "<"));
    let mut depth = 1i32;
    let mut paren = 0i32;
    let mut brack = 0i32;
    let mut commas = 0usize;
    let limit = (lt + 512).min(toks.len());
    let mut j = lt + 1;
    while j < limit {
        let t = toks[j].text.as_str();
        let prev = toks[j - 1].text.as_str();
        match t {
            "<" => depth += 1,
            // `->` and `=>` end in `>` but close nothing.
            ">" if prev != "-" && prev != "=" => {
                depth -= 1;
                if depth == 0 {
                    return Some(commas + 1);
                }
            }
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => brack += 1,
            "]" => brack -= 1,
            "," if depth == 1 && paren == 0 && brack == 0 => commas += 1,
            // A statement boundary means this `<` was a comparison.
            ";" | "{" => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Per-file rules: appends the file's diagnostics to `out`.
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let path = ctx.path;
    let protocol = policy::is_protocol(path);
    let crate_src = policy::is_crate_source(path);
    let diag = |out: &mut Vec<Diagnostic>, rule: &'static str, line: u32, message: String| {
        out.push(Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        let line = toks[i].line;
        match t {
            // ---- no-wall-clock -------------------------------------------
            // Allowlist, not protocol-list: any crate source outside the
            // registered wall-clock crates is held to virtual time, so a
            // new crate is covered the day it is added to the workspace.
            "Instant" | "SystemTime" if crate_src && !policy::may_read_wall_clock(path) => {
                diag(
                    out,
                    NO_WALL_CLOCK,
                    line,
                    format!(
                        "`{t}` reads the wall clock outside the registered wall-clock crates \
                         ({}); use virtual time (clash_simkernel::time) so same seed => \
                         identical RunResult",
                        policy::WALL_CLOCK_CRATES.join(", ")
                    ),
                );
            }
            // ---- no-ambient-rng (applies everywhere) ---------------------
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => {
                diag(
                    out,
                    NO_AMBIENT_RNG,
                    line,
                    format!(
                        "`{t}` draws OS entropy; all randomness must flow from DetRng substreams"
                    ),
                );
            }
            "rand" if seq(toks, i, &["rand", ":", ":", "random"]) => {
                diag(
                    out,
                    NO_AMBIENT_RNG,
                    line,
                    "`rand::random` draws from the ambient thread RNG; use DetRng".to_string(),
                );
                i += 4;
                continue;
            }
            // ---- det-collections -----------------------------------------
            "RandomState" if protocol => {
                diag(
                    out,
                    DET_COLLECTIONS,
                    line,
                    "`RandomState` seeds per-process hash order from OS entropy; \
                     use DetBuildHasher"
                        .to_string(),
                );
            }
            "HashMap" | "HashSet" if protocol => {
                let default_args = if t == "HashMap" { 2 } else { 1 };
                let hashed = t;
                let report = |out: &mut Vec<Diagnostic>| {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line,
                        rule: DET_COLLECTIONS,
                        message: format!(
                            "`{hashed}` with the default RandomState hasher iterates in \
                             per-process order; use a DetBuildHasher hasher or BTreeMap/BTreeSet"
                        ),
                    });
                };
                if tok_is(toks, i + 1, "<") {
                    if generic_args(toks, i + 1) == Some(default_args) {
                        report(out);
                    }
                } else if seq(toks, i + 1, &[":", ":"]) {
                    if tok_is(toks, i + 3, "<") {
                        if generic_args(toks, i + 3) == Some(default_args) {
                            report(out);
                        }
                    } else if tok_is(toks, i + 3, "new") || tok_is(toks, i + 3, "with_capacity") {
                        // `new`/`with_capacity` only exist for RandomState.
                        report(out);
                    }
                }
            }
            // ---- thread-containment --------------------------------------
            "std" if crate_src && seq(toks, i, &["std", ":", ":", "thread"]) => {
                if !policy::is_registered_thread_site(path) {
                    diag(
                        out,
                        THREAD_CONTAINMENT,
                        line,
                        "`std::thread` outside the registered fan-out site \
                         (crates/sim/src/experiments/mod.rs)"
                            .to_string(),
                    );
                }
                i += 4;
                continue;
            }
            "thread"
                if crate_src
                    && !tok_is(toks, i.wrapping_sub(1), ":")
                    && (seq(toks, i, &["thread", ":", ":", "spawn"])
                        || seq(toks, i, &["thread", ":", ":", "scope"])) =>
            {
                if !policy::is_registered_thread_site(path) {
                    diag(
                        out,
                        THREAD_CONTAINMENT,
                        line,
                        format!(
                            "`thread::{}` outside the registered fan-out site",
                            toks[i + 3].text
                        ),
                    );
                }
                i += 4;
                continue;
            }
            "Mutex" | "RwLock" | "Condvar" if crate_src => {
                diag(
                    out,
                    THREAD_CONTAINMENT,
                    line,
                    format!(
                        "`{t}` introduces schedule-dependent state; protocol state is \
                         single-threaded and harness threads share nothing mutable"
                    ),
                );
            }
            "AtomicBool" | "AtomicU8" | "AtomicU16" | "AtomicU32" | "AtomicU64" | "AtomicUsize"
            | "AtomicI8" | "AtomicI16" | "AtomicI32" | "AtomicI64" | "AtomicIsize"
            | "AtomicPtr"
                if crate_src =>
            {
                diag(
                    out,
                    THREAD_CONTAINMENT,
                    line,
                    format!("`{t}` introduces schedule-dependent state; keep shared data frozen"),
                );
            }
            // ---- env-discipline ------------------------------------------
            "env"
                if crate_src
                    && !policy::is_env_entry_point(path)
                    && (seq(toks, i, &["env", ":", ":", "var"])
                        || seq(toks, i, &["env", ":", ":", "var_os"])
                        || seq(toks, i, &["env", ":", ":", "set_var"])
                        || seq(toks, i, &["env", ":", ":", "remove_var"])) =>
            {
                diag(
                    out,
                    ENV_DISCIPLINE,
                    line,
                    format!(
                        "`env::{}` outside a src/bin/ entry point; thread \
                         environment through ClashConfig so runs stay reproducible",
                        toks[i + 3].text
                    ),
                );
                i += 4;
                continue;
            }
            // ---- exhaustive-charging: the one send site --------------
            "." if path.starts_with(policy::CHARGING_ROOT)
                && path != policy::SEND_SITE
                && ["send", "send_batch", "send_chains"]
                    .iter()
                    .any(|send| seq(toks, i + 1, &[send, "("])) =>
            {
                diag(
                    out,
                    EXHAUSTIVE_CHARGING,
                    line,
                    format!(
                        "`.{}(` outside {}: a protocol message must be laid out as a Wire \
                         chain so the partition cut rule and latency accounting apply to it",
                        toks[i + 1].text,
                        policy::SEND_SITE
                    ),
                );
            }
            _ => {}
        }
        i += 1;
    }
}

/// `exhaustive-charging`: every `MessageClass` variant must appear at a
/// charge site under `crates/core/src/` (that the charge goes through
/// [`policy::SEND_SITE`] is the per-file half of the rule, in
/// [`check_file`]). Variants are read from the enum
/// definition in `crates/transport/src/lib.rs`; if that file is part of
/// the run but holds no such enum, that is itself a finding (the rule has
/// lost its anchor).
pub fn check_charging(files: &[(String, Lexed)], out: &mut Vec<Diagnostic>) {
    let Some((def_path, def_lexed)) = files
        .iter()
        .find(|(p, _)| p == policy::MESSAGE_CLASS_DEF)
        .map(|(p, l)| (p.as_str(), l))
    else {
        return; // fixture runs without the transport crate skip this rule
    };
    let variants = message_class_variants(&def_lexed.tokens);
    if variants.is_empty() {
        out.push(Diagnostic {
            path: def_path.to_string(),
            line: 1,
            rule: EXHAUSTIVE_CHARGING,
            message: "no `enum MessageClass` found; the exhaustive-charging rule lost its anchor"
                .to_string(),
        });
        return;
    }
    let mut charged: BTreeSet<String> = BTreeSet::new();
    for (path, lexed) in files {
        if !path.starts_with(policy::CHARGING_ROOT) {
            continue;
        }
        let toks = &lexed.tokens;
        for i in 0..toks.len() {
            if seq(toks, i, &["MessageClass", ":", ":"]) {
                if let Some(v) = toks.get(i + 3) {
                    charged.insert(v.text.clone());
                }
            }
        }
    }
    for (variant, line) in variants {
        if !charged.contains(&variant) {
            out.push(Diagnostic {
                path: def_path.to_string(),
                line,
                rule: EXHAUSTIVE_CHARGING,
                message: format!(
                    "`MessageClass::{variant}` is never charged in clash-core; new message \
                     types must be laid out as a Wire chain so latency accounting stays honest"
                ),
            });
        }
    }
}

/// Extracts `(variant, line)` pairs from the first `enum MessageClass`
/// definition in the token stream. Only unit variants are expected.
fn message_class_variants(toks: &[Token]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if seq(toks, i, &["enum", "MessageClass", "{"]) {
            let mut depth = 1i32;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {
                        if depth == 1
                            && toks[j].text.chars().next().is_some_and(char::is_alphabetic)
                            && (tok_is(toks, j + 1, ",") || tok_is(toks, j + 1, "}"))
                        {
                            out.push((toks[j].text.clone(), toks[j].line));
                        }
                    }
                }
                j += 1;
            }
            break;
        }
    }
    out
}

/// Runs every rule over the lexed files, reports each `clash-lint:`
/// comment as an [`ALLOW_DIRECTIVE`] finding, and returns the diagnostics
/// sorted. `files` must carry workspace-relative `/`-separated paths.
pub fn run_lexed(files: &[(String, Lexed)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, lexed) in files {
        check_file(&FileCtx { path, lexed }, &mut out);
        for directive in &lexed.directives {
            out.push(Diagnostic {
                path: path.clone(),
                line: directive.line,
                rule: ALLOW_DIRECTIVE,
                message: "`clash-lint:` comments suppress nothing; exempt a site by \
                          registering it in crates/lint/src/policy.rs"
                    .to_string(),
            });
        }
    }
    check_charging(files, &mut out);
    out.sort();
    out
}
