//! Self-test: the committed workspace is clean under every rule.
//!
//! This is the enforcement backstop — `cargo test` fails the moment a
//! stray `HashMap::new()`, `Instant::now()`, ambient RNG draw, rogue
//! thread, or uncharged `MessageClass` variant lands in a protocol crate,
//! even if nobody runs the `clash-lint` binary or the CI job.

use std::path::Path;

#[test]
fn committed_workspace_is_clean() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let files = clash_lint::workspace_files(root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "walker found only {} files; lint roots moved?",
        files.len()
    );
    // The rule anchors must actually be in the walked set, otherwise the
    // whole pass could be green by scanning nothing.
    for anchor in [
        "crates/transport/src/lib.rs",
        "crates/core/src/cluster/mod.rs",
        "crates/simkernel/src/rng.rs",
    ] {
        assert!(
            files.iter().any(|f| f.path == anchor),
            "anchor file {anchor} missing from walk"
        );
    }
    let diags = clash_lint::run_files(&files);
    assert!(
        diags.is_empty(),
        "workspace has {} clash-lint diagnostic(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| format!("  {}:{}: [{}] {}", d.path, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
