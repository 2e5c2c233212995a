//! Per-crate path policies: which rules apply where.
//!
//! Paths are workspace-relative with `/` separators (the walker and the
//! fixture tests both produce that form). The policy encodes the repo's
//! determinism contract:
//!
//! * **Protocol crates** (`core`, `chord`, `keyspace`, `transport`,
//!   `streamquery`, `workload`, `simkernel`, `chaos`) and the root facade
//!   `src/` carry the full contract — their behavior is pinned bit-for-bit
//!   by the window-equivalence harness and the transport pins, and the
//!   chaos shrinker depends on replay determinism.
//! * **Wall-clock crates** (`sim`, `lint`, `obs`) may measure
//!   wall-clock time — the harness crates because they time real runs,
//!   `obs` because it is where the profiling clock reader
//!   (`WallProfiler`) lives — but still may not draw ambient randomness
//!   or spawn unregistered threads.
//! * Root `tests/` and `examples/` are harness entry points: only the
//!   everywhere-rules (ambient RNG) apply.

/// Crates whose behavior is covered by the bit-for-bit determinism pins.
/// `chaos` is here because schedule shrinking is only sound if a
/// campaign is a pure function of `(options, seed)` — the engine is
/// clock-free, env-free, and thread-free.
pub const PROTOCOL_CRATES: &[&str] = &[
    "core",
    "chord",
    "keyspace",
    "transport",
    "streamquery",
    "workload",
    "simkernel",
    "chaos",
];

/// Crates whose sources may read the wall clock (`Instant`,
/// `SystemTime`): the harness crates that time real runs, plus `obs`,
/// home of the only profiling clock reader (`WallProfiler`). Every
/// other crate source — protocol crates and the root facade — must use
/// virtual time.
pub const WALL_CLOCK_CRATES: &[&str] = &["sim", "lint", "obs"];

/// The only file allowed to use `std::thread`: the experiment harness
/// runs independent scenario drivers side by side under
/// `std::thread::scope` — no protocol state crosses a thread.
pub const REGISTERED_THREAD_SITES: &[&str] = &["crates/sim/src/experiments/mod.rs"];

/// Where the `MessageClass` enum lives and where its variants must be
/// charged. `exhaustive-charging` reads variants from the first, call
/// sites from under the second.
pub const MESSAGE_CLASS_DEF: &str = "crates/transport/src/lib.rs";
pub const CHARGING_ROOT: &str = "crates/core/src/";
/// The one file under [`CHARGING_ROOT`] that may call a transport's
/// `send` / `send_batch` / `send_chains`: `Wire`'s dispatch routine lives
/// there.
pub const SEND_SITE: &str = "crates/core/src/cluster/accounting.rs";

/// True for files inside one of the protocol crates' `src/` trees, or the
/// root facade `src/`.
pub fn is_protocol(path: &str) -> bool {
    if path.starts_with("src/") {
        return true;
    }
    PROTOCOL_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// True for any workspace crate source (protocol or harness) plus the root
/// facade — i.e. everything except root `tests/` and `examples/`.
pub fn is_crate_source(path: &str) -> bool {
    path.starts_with("crates/") || path.starts_with("src/")
}

/// True if `path` belongs to a registered wall-clock crate.
pub fn may_read_wall_clock(path: &str) -> bool {
    WALL_CLOCK_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// True if `path` is one of the registered `std::thread` sites.
pub fn is_registered_thread_site(path: &str) -> bool {
    REGISTERED_THREAD_SITES.contains(&path)
}

/// True if `path` may read the process environment: only binary entry points
/// (`src/bin/...`), so experiment behavior stays flag-driven.
pub fn is_env_entry_point(path: &str) -> bool {
    path.contains("/bin/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_classification() {
        assert!(is_protocol("crates/core/src/cluster/mod.rs"));
        assert!(is_protocol("crates/simkernel/src/rng.rs"));
        assert!(is_protocol("crates/chaos/src/engine.rs"));
        assert!(is_protocol("src/lib.rs"));
        assert!(!is_protocol("crates/sim/src/driver.rs"));
        assert!(!is_protocol("crates/lint/src/lib.rs"));
        assert!(!is_protocol("tests/shard_equivalence.rs"));
    }

    #[test]
    fn wall_clock_classification() {
        assert!(may_read_wall_clock("crates/sim/src/driver.rs"));
        assert!(!may_read_wall_clock("crates/bench/src/lib.rs"));
        assert!(may_read_wall_clock("crates/obs/src/profile.rs"));
        assert!(may_read_wall_clock("crates/lint/src/main.rs"));
        assert!(!may_read_wall_clock("crates/core/src/cluster/mod.rs"));
        assert!(!may_read_wall_clock("crates/simkernel/src/time.rs"));
        assert!(!may_read_wall_clock("src/lib.rs"));
    }

    #[test]
    fn env_entry_points() {
        assert!(!is_env_entry_point("crates/core/src/config.rs"));
        assert!(!is_env_entry_point("crates/sim/src/report.rs"));
        assert!(is_env_entry_point("crates/sim/src/bin/scale.rs"));
        assert!(!is_env_entry_point("crates/core/src/cluster/mod.rs"));
    }

    #[test]
    fn registered_sites() {
        assert!(is_registered_thread_site(
            "crates/sim/src/experiments/mod.rs"
        ));
        assert!(!is_registered_thread_site("crates/core/src/cluster/mod.rs"));
    }
}
