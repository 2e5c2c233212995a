//! `clash-lint`: determinism & concurrency static analysis for this repo.
//!
//! Every safety rail in the workspace — the window-equivalence harness, the
//! transport pins, the `BENCH_scale.json` trajectory — rests on one
//! contract: protocol crates draw randomness only from `DetRng`
//! substreams, never read the wall clock or OS entropy, never iterate a
//! `RandomState`-hashed map, spawn threads only at the one registered
//! `std::thread::scope` site, and read the process environment only in
//! `src/bin/` entry points. This crate makes that contract
//! machine-checked: a small comment/string-stripping Rust tokenizer, a
//! rule registry ([`rules::RULES`]), and per-crate path policies
//! ([`policy`]).
//!
//! Run it over the workspace with `cargo run -p clash-lint` (add `--json`
//! for machine-readable output). No comment suppresses a finding: a
//! `// clash-lint: ...` comment is itself one (`allow-directive`), and a
//! site that may do what a rule forbids is registered in [`policy`].
//!
//! The checks are token-level by design (no type resolution, no new
//! dependencies): precise enough to catch every form the contract cares
//! about, simple enough to audit in one sitting. `clippy.toml`
//! `disallowed-methods`/`disallowed-types` back up the subset clippy can
//! express with a second, independent checker.

pub mod policy;
pub mod rules;
pub mod tokenizer;

pub use rules::{Diagnostic, RULES};

use std::fs;
use std::io;
use std::path::Path;

/// One source file to lint: a workspace-relative `/`-separated path plus
/// its text. Fixture tests construct these inline; the walker reads them
/// from disk.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(path: &str, text: &str) -> Self {
        SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }
}

/// Lints a set of in-memory files and returns sorted diagnostics.
pub fn run_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let lexed: Vec<(String, tokenizer::Lexed)> = files
        .iter()
        .map(|f| (f.path.clone(), tokenizer::lex(&f.text)))
        .collect();
    rules::run_lexed(&lexed)
}

/// The directories under the workspace root that are linted. `vendor/`
/// (third-party stand-ins) and `target/` are deliberately outside the
/// contract.
pub const LINT_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Collects every `.rs` file under the lint roots, sorted by path so runs
/// are deterministic.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for top in LINT_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked paths live under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel,
                text: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Renders diagnostics as a stable JSON report (no dependencies, so the
/// serializer is hand-rolled; the shape is pinned by a unit test).
pub fn to_json(root: &str, files_scanned: usize, diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"root\": \"{}\",\n", escape(root)));
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"diagnostic_count\": {},\n", diags.len()));
    s.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(d.rule),
            escape(&d.path),
            d.line,
            escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let diags = vec![Diagnostic {
            path: "crates/core/src/x.rs".to_string(),
            line: 3,
            rule: rules::NO_WALL_CLOCK,
            message: "msg with \"quotes\"".to_string(),
        }];
        let j = to_json("/repo", 12, &diags);
        assert!(j.contains("\"files_scanned\": 12"));
        assert!(j.contains("\"diagnostic_count\": 1"));
        assert!(j.contains("\"rule\": \"no-wall-clock\""));
        assert!(j.contains("\\\"quotes\\\""));
    }

    #[test]
    fn empty_report_is_valid() {
        let j = to_json("/repo", 0, &[]);
        assert!(j.contains("\"diagnostics\": []"));
    }
}
