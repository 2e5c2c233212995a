//! `clash-lint` CLI: lint the workspace, print `path:line` diagnostics.
//!
//! Exit code 0 when the tree is clean, 1 when any diagnostic fires, 2 on
//! usage or I/O errors. With `--json`, the report goes to stdout and the
//! human summary to stderr, so CI can redirect the report to an artifact.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "clash-lint: determinism & concurrency static analysis for this workspace\n\
     \n\
     USAGE: cargo run -p clash-lint [-- OPTIONS]\n\
     \n\
     OPTIONS:\n\
       --json         emit a JSON report on stdout (summary on stderr)\n\
       --root <PATH>  workspace root to lint (default: this repo)\n\
       --list-rules   print the rule registry and exit\n\
       --help         this text\n\
     \n\
     Nothing suppresses a finding: a `// clash-lint:` comment is itself\n\
     one. Register an exempt site in crates/lint/src/policy.rs."
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: PathBuf = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("error: --root needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for (id, summary) in clash_lint::RULES {
                    println!("{id:20} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = root.canonicalize().unwrap_or(root);
    let files = match clash_lint::workspace_files(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = clash_lint::run_files(&files);
    if json {
        print!(
            "{}",
            clash_lint::to_json(&root.display().to_string(), files.len(), &diags)
        );
        eprintln!(
            "clash-lint: {} diagnostic(s) in {} files",
            diags.len(),
            files.len()
        );
    } else {
        for d in &diags {
            println!("{}:{}: [{}] {}", d.path, d.line, d.rule, d.message);
        }
        println!(
            "clash-lint: {} diagnostic(s) in {} files",
            diags.len(),
            files.len()
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
