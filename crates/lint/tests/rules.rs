//! Fixture-driven tests: inline source snippets asserting that each rule
//! fires where it must, stays quiet where it must, and that the
//! `clash-lint: allow` escape hatch suppresses only when it carries a
//! written reason.

use clash_lint::{run_files, Diagnostic, SourceFile};

/// Lints one in-memory file.
fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
    run_files(&[SourceFile::new(path, src)])
}

/// The rules that fired, in report order.
fn fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- no-wall-clock

#[test]
fn wall_clock_fires_in_protocol_crate() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "fn t() { let t0 = std::time::Instant::now(); }",
    );
    assert_eq!(fired(&diags), vec!["no-wall-clock"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn system_time_fires_in_protocol_crate() {
    let diags = lint_one(
        "crates/chord/src/net.rs",
        "use std::time::SystemTime;\nfn t() -> SystemTime { SystemTime::now() }",
    );
    assert!(diags.iter().all(|d| d.rule == "no-wall-clock"));
    assert_eq!(diags.len(), 3); // import + return type + call
    assert_eq!(diags[1].line, 2);
}

#[test]
fn wall_clock_allowed_in_sim() {
    let diags = lint_one(
        "crates/sim/src/driver.rs",
        "fn t() { let t0 = std::time::Instant::now(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_allowed_in_obs_and_lint() {
    // `obs` hosts the one profiling clock reader (WallProfiler); `lint`
    // times its own runs. Both are registered wall-clock crates.
    for path in ["crates/obs/src/profile.rs", "crates/lint/src/main.rs"] {
        let diags = lint_one(path, "fn t() { let t0 = std::time::Instant::now(); }");
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn wall_clock_fires_in_unregistered_crates_and_facade() {
    // The rule is an allowlist, not a protocol list: a future crate that
    // is neither protocol nor registered is covered from day one, and
    // the root facade stays on virtual time. `bench` is not a registered
    // harness crate.
    for path in [
        "src/lib.rs",
        "crates/newthing/src/lib.rs",
        "crates/bench/src/lib.rs",
    ] {
        let diags = lint_one(path, "fn t() { let t0 = std::time::Instant::now(); }");
        assert_eq!(fired(&diags), vec!["no-wall-clock"], "{path}");
    }
}

#[test]
fn wall_clock_unchecked_in_root_tests() {
    // Root tests/ and examples/ are harness entry points, outside crate
    // sources: they may time themselves.
    let diags = lint_one(
        "tests/scale_perf.rs",
        "fn t() { let t0 = std::time::Instant::now(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn sim_instant_ident_is_not_wall_clock() {
    let diags = lint_one(
        "crates/simkernel/src/time.rs",
        "pub struct SimInstant(u64); fn f(t: SimInstant) {}",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_in_comment_or_string_is_ignored() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// Instant::now would be wrong here\nfn f() { let s = \"SystemTime\"; }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_allow_with_reason_suppresses() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-wall-clock) -- fixture exercising the escape hatch\n\
         fn t() { let t0 = std::time::Instant::now(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_trailing_allow_suppresses() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "fn t() { let t0 = std::time::Instant::now(); } \
         // clash-lint: allow(no-wall-clock) -- same-line form",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_allow_without_reason_is_rejected() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-wall-clock)\n\
         fn t() { let t0 = std::time::Instant::now(); }",
    );
    // The finding still fires AND the reason-less directive is reported.
    let rules = fired(&diags);
    assert!(rules.contains(&"no-wall-clock"), "{diags:?}");
    assert!(rules.contains(&"allow-directive"), "{diags:?}");
}

// -------------------------------------------------------------- no-ambient-rng

#[test]
fn ambient_rng_fires_everywhere() {
    for path in [
        "crates/core/src/cluster/mod.rs",
        "crates/sim/src/driver.rs",
        "tests/shard_equivalence.rs",
        "examples/quickstart.rs",
    ] {
        let diags = lint_one(path, "fn f() { let mut r = rand::thread_rng(); }");
        assert_eq!(fired(&diags), vec!["no-ambient-rng"], "{path}");
    }
}

#[test]
fn from_entropy_and_rand_random_fire() {
    let diags = lint_one(
        "crates/workload/src/skew.rs",
        "fn f() { let r = SmallRng::from_entropy(); let x: u8 = rand::random(); }",
    );
    assert_eq!(fired(&diags), vec!["no-ambient-rng", "no-ambient-rng"]);
}

#[test]
fn det_rng_does_not_fire() {
    let diags = lint_one(
        "crates/workload/src/skew.rs",
        "fn f() { let mut r = DetRng::new(7); let x = r.uniform_f64(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn ambient_rng_allow_with_reason_suppresses() {
    let diags = lint_one(
        "crates/sim/src/driver.rs",
        "fn f() { let r = rand::thread_rng(); } // clash-lint: allow(no-ambient-rng) -- fixture",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- det-collections

#[test]
fn default_hasher_map_type_fires() {
    let diags = lint_one(
        "crates/core/src/table.rs",
        "struct S { m: std::collections::HashMap<u64, String> }",
    );
    assert_eq!(fired(&diags), vec!["det-collections"]);
}

#[test]
fn default_hasher_constructors_fire() {
    let diags = lint_one(
        "crates/keyspace/src/prefix.rs",
        "fn f() { let m = HashMap::new(); let s = HashSet::with_capacity(4); }",
    );
    assert_eq!(fired(&diags), vec!["det-collections", "det-collections"]);
}

#[test]
fn det_build_hasher_map_is_clean() {
    let diags = lint_one(
        "crates/transport/src/link.rs",
        "struct S { links: HashMap<(u64, u64), LinkState, DetBuildHasher> }\n\
         fn f() -> HashSet<u64, DetBuildHasher> { HashSet::default() }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn btree_collections_are_clean() {
    let diags = lint_one(
        "crates/core/src/table.rs",
        "use std::collections::{BTreeMap, BTreeSet};\nstruct S { m: BTreeMap<u64, u64> }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_collections_fine_outside_protocol_crates() {
    let diags = lint_one(
        "crates/sim/src/report.rs",
        "fn f() { let m: std::collections::HashMap<u64, u64> = HashMap::new(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn random_state_fires() {
    let diags = lint_one(
        "crates/core/src/table.rs",
        "use std::collections::hash_map::RandomState;",
    );
    assert_eq!(fired(&diags), vec!["det-collections"]);
}

#[test]
fn turbofish_default_hasher_fires() {
    let diags = lint_one(
        "crates/core/src/table.rs",
        "fn f() { let m = HashMap::<u64, u64>::default(); }",
    );
    assert_eq!(fired(&diags), vec!["det-collections"]);
}

#[test]
fn det_collections_allow_with_reason_suppresses() {
    let diags = lint_one(
        "crates/core/src/table.rs",
        "// clash-lint: allow(det-collections) -- fixture\nfn f() { let m = HashMap::new(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------- thread-containment

#[test]
fn thread_fires_outside_registered_sites() {
    let diags = lint_one(
        "crates/core/src/server.rs",
        "fn f() { std::thread::spawn(|| {}); }",
    );
    assert_eq!(fired(&diags), vec!["thread-containment"]);
}

#[test]
fn thread_scope_ok_at_registered_sites() {
    let diags = lint_one(
        "crates/sim/src/experiments/mod.rs",
        "fn f() { std::thread::scope(|s| {}); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn thread_scope_fires_at_the_deregistered_protocol_sites() {
    for path in [
        "crates/core/src/cluster/mod.rs",
        "crates/chord/src/net.rs",
        "crates/transport/src/link.rs",
    ] {
        let diags = lint_one(path, "fn f() { std::thread::scope(|s| {}); }");
        assert_eq!(fired(&diags), vec!["thread-containment"], "{path}");
    }
}

#[test]
fn locks_and_atomics_fire_even_at_registered_sites() {
    let diags = lint_one(
        "crates/sim/src/experiments/mod.rs",
        "use std::sync::Mutex;\nstatic N: std::sync::atomic::AtomicU64 = AtomicU64::new(0);",
    );
    let rules = fired(&diags);
    assert!(
        rules.iter().all(|r| *r == "thread-containment"),
        "{diags:?}"
    );
    assert_eq!(rules.len(), 3); // Mutex + 2× AtomicU64
}

#[test]
fn rwlock_fires_in_harness_crates_too() {
    let diags = lint_one(
        "crates/sim/src/driver.rs",
        "struct S { inner: std::sync::RwLock<u64> }",
    );
    assert_eq!(fired(&diags), vec!["thread-containment"]);
}

#[test]
fn threads_unchecked_in_root_tests() {
    let diags = lint_one(
        "tests/shard_equivalence.rs",
        "fn f() { std::thread::scope(|s| {}); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn thread_allow_with_reason_suppresses() {
    let diags = lint_one(
        "crates/core/src/server.rs",
        "// clash-lint: allow(thread-containment) -- fixture\nfn f() { std::thread::spawn(|| {}); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// -------------------------------------------------------------- env-discipline

#[test]
fn env_var_fires_outside_entry_points() {
    // Only `src/bin/` entry points may read the environment: a config
    // knob or a report switch must be a flag or a `ClashConfig` field.
    for path in [
        "crates/core/src/cluster/mod.rs",
        "crates/core/src/config.rs",
        "crates/sim/src/report.rs",
    ] {
        let diags = lint_one(path, "fn f() { let v = std::env::var(\"CLASH_X\"); }");
        assert_eq!(fired(&diags), vec!["env-discipline"], "{path}");
    }
}

#[test]
fn env_var_ok_in_entry_points() {
    let diags = lint_one(
        "crates/sim/src/bin/scale.rs",
        "fn f() { let v = std::env::var(\"CLASH_X\"); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn env_var_fires_in_obs() {
    // `obs` may read the wall clock, but it gets no env-var privileges:
    // telemetry must stay flag-driven like everything else.
    let diags = lint_one(
        "crates/obs/src/telemetry.rs",
        "fn f() { let v = std::env::var(\"CLASH_TRACE\"); }",
    );
    assert_eq!(fired(&diags), vec!["env-discipline"]);
}

#[test]
fn env_args_is_not_env_var() {
    let diags = lint_one(
        "crates/sim/src/driver.rs",
        "fn f() { let a: Vec<String> = std::env::args().collect(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn env_set_var_fires_in_library_code() {
    let diags = lint_one(
        "crates/workload/src/churn.rs",
        "fn f() { std::env::set_var(\"CLASH_X\", \"1\"); }",
    );
    assert_eq!(fired(&diags), vec!["env-discipline"]);
}

#[test]
fn env_allow_with_reason_suppresses() {
    let diags = lint_one(
        "crates/core/src/cluster/mod.rs",
        "fn f() { let v = std::env::var(\"X\"); } // clash-lint: allow(env-discipline) -- fixture",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --------------------------------------------------------- exhaustive-charging

/// A minimal transport lib defining two variants.
const MINI_TRANSPORT: &str = "pub enum MessageClass {\n    Probe,\n    Handoff,\n}\n";

#[test]
fn uncharged_variant_fires_at_its_definition_line() {
    let diags = run_files(&[
        SourceFile::new("crates/transport/src/lib.rs", MINI_TRANSPORT),
        SourceFile::new(
            "crates/core/src/cluster/mod.rs",
            "fn f(w: &mut Wire) { w.lay_out(&[(a, b, MessageClass::Probe)]); }",
        ),
    ]);
    assert_eq!(fired(&diags), vec!["exhaustive-charging"]);
    assert_eq!(diags[0].path, "crates/transport/src/lib.rs");
    assert_eq!(diags[0].line, 3); // Handoff's line
    assert!(diags[0].message.contains("Handoff"), "{diags:?}");
}

#[test]
fn fully_charged_enum_is_clean() {
    let diags = run_files(&[
        SourceFile::new("crates/transport/src/lib.rs", MINI_TRANSPORT),
        SourceFile::new(
            "crates/core/src/cluster/mod.rs",
            "fn f(w: &mut Wire) {\n\
             w.lay_out(&[(a, b, MessageClass::Probe)]);\n\
             w.send_chain(&[(a, b, MessageClass::Handoff)], &mut lat);\n}",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn transport_send_outside_the_send_site_fires() {
    let diags = lint_one(
        "crates/core/src/cluster/load_check.rs",
        "fn f(w: &mut Wire) {\n\
         w.transport.send(1, 2, MessageClass::LoadReport);\n\
         w.transport.send_batch(&specs, &mut out);\n\
         w.transport.send_chains(&legs, &chains, &mut out);\n}",
    );
    assert_eq!(
        fired(&diags),
        vec![
            "exhaustive-charging",
            "exhaustive-charging",
            "exhaustive-charging"
        ]
    );
    assert_eq!((diags[0].line, diags[1].line, diags[2].line), (2, 3, 4));
    assert!(diags[0].message.contains("`.send(`"), "{diags:?}");
    assert!(diags[1].message.contains("`.send_batch(`"), "{diags:?}");
    assert!(diags[2].message.contains("`.send_chains(`"), "{diags:?}");
}

#[test]
fn transport_send_at_the_send_site_or_outside_core_is_clean() {
    let src = "fn f(t: &mut T) {\n\
               t.send(1, 2, c);\n\
               t.send_batch(&specs, &mut out);\n\
               t.send_chains(&legs, &chains, &mut out);\n}";
    for path in [
        "crates/core/src/cluster/accounting.rs",
        "crates/transport/src/link.rs",
        "crates/sim/src/driver.rs",
    ] {
        let diags = lint_one(path, src);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn charging_in_transport_itself_does_not_count() {
    // Mentions inside the defining crate (index tables, unit tests) must
    // not satisfy the rule — only clash-core charge sites do.
    let diags = run_files(&[SourceFile::new(
        "crates/transport/src/lib.rs",
        "pub enum MessageClass { Probe }\nfn f() { let c = MessageClass::Probe; }",
    )]);
    assert_eq!(fired(&diags), vec!["exhaustive-charging"]);
}

#[test]
fn missing_enum_in_transport_is_itself_a_finding() {
    let diags = run_files(&[SourceFile::new(
        "crates/transport/src/lib.rs",
        "pub struct NotAnEnum;",
    )]);
    assert_eq!(fired(&diags), vec!["exhaustive-charging"]);
    assert!(diags[0].message.contains("anchor"), "{diags:?}");
}

#[test]
fn charging_rule_skipped_without_transport_file() {
    let diags = lint_one("crates/core/src/cluster/mod.rs", "fn f() {}");
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- allow-directive

#[test]
fn unknown_rule_in_allow_is_reported() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-such-rule) -- oops\nfn f() {}",
    );
    assert_eq!(fired(&diags), vec!["allow-directive", "allow-directive"]);
    assert!(diags.iter().any(|d| d.message.contains("unknown rule")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("suppresses nothing")));
}

#[test]
fn unused_allow_is_reported() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-wall-clock) -- stale\nfn f() {}",
    );
    assert_eq!(fired(&diags), vec!["allow-directive"]);
    assert!(diags[0].message.contains("suppresses nothing"));
}

#[test]
fn malformed_directive_is_reported() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: disable(no-wall-clock) -- wrong verb\nfn f() {}",
    );
    assert_eq!(fired(&diags), vec!["allow-directive"]);
}

#[test]
fn multi_rule_allow_suppresses_both() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-wall-clock, det-collections) -- fixture\n\
         fn f() { let t = std::time::Instant::now(); let m = HashMap::new(); }",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_does_not_reach_past_next_line() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(no-wall-clock) -- only covers the next line\n\
         fn a() { let t = std::time::Instant::now(); }\n\
         fn b() { let t = std::time::Instant::now(); }",
    );
    assert_eq!(fired(&diags), vec!["no-wall-clock"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn allow_for_wrong_rule_does_not_suppress() {
    let diags = lint_one(
        "crates/core/src/load.rs",
        "// clash-lint: allow(det-collections) -- wrong rule named\n\
         fn f() { let t = std::time::Instant::now(); }",
    );
    let rules = fired(&diags);
    assert!(rules.contains(&"no-wall-clock"), "{diags:?}");
    assert!(rules.contains(&"allow-directive"), "{diags:?}"); // unused
}
