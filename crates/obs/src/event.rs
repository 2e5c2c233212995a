//! The flight recorder's event vocabulary.
//!
//! Every event is stamped with the *virtual* time at which the protocol
//! acted and a monotone sequence number that orders events emitted at
//! the same instant (a load check happens at one sim time but makes many
//! decisions). Events carry raw numbers only — no references into
//! cluster state, no strings built on the hot path — so recording is a
//! bounded memcpy and never draws from any RNG.
//!
//! Server and group identities are plain `u64`s (a server's Chord ring
//! id, a group's key bits); the emitting layer owns the conversion.

use clash_simkernel::time::SimTime;

/// One recorded protocol decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the decision was made.
    pub at: SimTime,
    /// Monotone per-recorder sequence number (orders same-instant events).
    pub seq: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event taxonomy. See `docs/ARCHITECTURE.md` § Observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// One hop of a locate's depth search, charged to `server`.
    LocateProbe {
        /// The key being located (raw bits).
        key: u64,
        /// Depth probed at this hop.
        depth: u32,
        /// Server that received the ACCEPT_OBJECT probe.
        server: u64,
        /// Whether this hop accepted the object (ends the search).
        accepted: bool,
        /// Hop index within this locate (1-based).
        hop: u32,
    },
    /// A hot group was split one binary level (paper §4).
    Split {
        /// Server that performed the split.
        server: u64,
        /// Bits of the group that split (left-aligned in `u64`).
        group_bits: u64,
        /// Depth of the group that split.
        group_depth: u32,
        /// Measured load that triggered the split (fraction of capacity).
        load: f64,
        /// Load attributed to the left child at decision time.
        left_load: f64,
        /// Load attributed to the right child at decision time.
        right_load: f64,
        /// Server the right child landed on.
        right_child_server: u64,
    },
    /// Two sibling groups merged back to their parent.
    Merge {
        /// Server that initiated the merge.
        server: u64,
        /// Bits of the resulting parent group.
        parent_bits: u64,
        /// Depth of the resulting parent group.
        parent_depth: u32,
        /// Initiator's measured load at decision time.
        load: f64,
        /// Whether the sibling lived on the same server (no network round trip).
        local: bool,
    },
    /// A merge attempt was refused by the sibling's owner (stale report).
    MergeRefused {
        /// Server that initiated the merge.
        server: u64,
        /// Sibling owner that refused.
        sibling_server: u64,
        /// Depth of the parent that would have formed.
        parent_depth: u32,
    },
    /// A crashed server's group was promoted onto a replica holder.
    ReplicaPromoted {
        /// The failed server.
        failed: u64,
        /// Bits of the recovered group.
        group_bits: u64,
        /// Depth of the recovered group.
        group_depth: u32,
        /// The replica holder that took ownership.
        new_owner: u64,
    },
    /// No live replica holder yet — recovery parked for a later check.
    RecoveryDeferred {
        /// The failed server.
        failed: u64,
        /// Bits of the deferred group.
        group_bits: u64,
        /// Depth of the deferred group.
        group_depth: u32,
    },
    /// A group's state was lost (no replicas configured or available).
    RecoveryLost {
        /// The failed server.
        failed: u64,
        /// Bits of the lost group.
        group_bits: u64,
        /// Depth of the lost group.
        group_depth: u32,
        /// Clients dropped with the state.
        clients_dropped: u64,
    },
    /// A deferred recovery was retried during a load check but stayed
    /// blocked — distinguishable in traces from a fresh deferral, and
    /// carrying the partition islands that block it.
    RecoveryRetryBlocked {
        /// The failed server whose group is still waiting.
        failed: u64,
        /// Bits of the still-deferred group.
        group_bits: u64,
        /// Depth of the still-deferred group.
        group_depth: u32,
        /// Partition island of the failed (old owner) server's address,
        /// `u64::MAX` when the network is not partitioned.
        owner_island: u64,
        /// Partition island of the retrying coordinator's address,
        /// `u64::MAX` when the network is not partitioned.
        coordinator_island: u64,
        /// Load checks this entry has waited since it was deferred.
        waited_checks: u64,
    },
    /// A previously deferred group was re-promoted during a load check.
    RecoveryRetried {
        /// Bits of the recovered group.
        group_bits: u64,
        /// Depth of the recovered group.
        group_depth: u32,
        /// The replica holder that finally took ownership.
        new_owner: u64,
    },
    /// A locate window closed and its flush began (route, send, replay).
    /// `probes` tells which closing rule ran: 1 under a partition or for
    /// the fixed-depth baseline, the window bound, or whatever a barrier
    /// found planned.
    FlushBegin {
        /// Monotone flush sequence number.
        flush_seq: u64,
        /// Probes planned in this window.
        probes: u64,
    },
    /// The matching flush window closed; all probes charged in plan order.
    FlushEnd {
        /// Monotone flush sequence number.
        flush_seq: u64,
    },
    /// A periodic load check started.
    LoadCheckBegin {
        /// 1-based load-check ordinal.
        ordinal: u64,
        /// Servers flagged dirty going in.
        dirty_servers: u64,
    },
    /// The matching load check finished.
    LoadCheckEnd {
        /// 1-based load-check ordinal.
        ordinal: u64,
        /// Splits performed during this check.
        splits: u64,
        /// Merges performed during this check.
        merges: u64,
    },
    /// A server joined the ring.
    ServerJoined {
        /// The new server.
        server: u64,
    },
    /// A server drained and left gracefully.
    ServerLeft {
        /// The departed server.
        server: u64,
    },
    /// A server crashed (state recoverable only via replicas).
    ServerCrashed {
        /// The crashed server.
        server: u64,
    },
}

impl TraceEventKind {
    /// Stable short name, used as the Chrome trace event name and in
    /// dump-on-failure output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::LocateProbe { .. } => "locate_probe",
            TraceEventKind::Split { .. } => "split",
            TraceEventKind::Merge { .. } => "merge",
            TraceEventKind::MergeRefused { .. } => "merge_refused",
            TraceEventKind::ReplicaPromoted { .. } => "replica_promoted",
            TraceEventKind::RecoveryDeferred { .. } => "recovery_deferred",
            TraceEventKind::RecoveryLost { .. } => "recovery_lost",
            TraceEventKind::RecoveryRetryBlocked { .. } => "recovery_retry_blocked",
            TraceEventKind::RecoveryRetried { .. } => "recovery_retried",
            TraceEventKind::FlushBegin { .. } => "flush_begin",
            TraceEventKind::FlushEnd { .. } => "flush_end",
            TraceEventKind::LoadCheckBegin { .. } => "load_check_begin",
            TraceEventKind::LoadCheckEnd { .. } => "load_check_end",
            TraceEventKind::ServerJoined { .. } => "server_joined",
            TraceEventKind::ServerLeft { .. } => "server_left",
            TraceEventKind::ServerCrashed { .. } => "server_crashed",
        }
    }

    /// The server a Chrome trace viewer should file this event under
    /// (its `tid` lane), if the event is attributable to one.
    #[must_use]
    pub fn server(&self) -> Option<u64> {
        match *self {
            TraceEventKind::LocateProbe { server, .. }
            | TraceEventKind::Split { server, .. }
            | TraceEventKind::Merge { server, .. }
            | TraceEventKind::MergeRefused { server, .. }
            | TraceEventKind::ServerJoined { server }
            | TraceEventKind::ServerLeft { server }
            | TraceEventKind::ServerCrashed { server } => Some(server),
            TraceEventKind::ReplicaPromoted { new_owner, .. }
            | TraceEventKind::RecoveryRetried { new_owner, .. } => Some(new_owner),
            TraceEventKind::RecoveryDeferred { failed, .. }
            | TraceEventKind::RecoveryLost { failed, .. }
            | TraceEventKind::RecoveryRetryBlocked { failed, .. } => Some(failed),
            TraceEventKind::FlushBegin { .. }
            | TraceEventKind::FlushEnd { .. }
            | TraceEventKind::LoadCheckBegin { .. }
            | TraceEventKind::LoadCheckEnd { .. } => None,
        }
    }

    /// The event's payload as `(key, value)` pairs for structured export.
    /// Each value displays as a JSON value (see [`ArgValue`]).
    #[must_use]
    pub fn args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{Bool, Float, Int};
        match *self {
            TraceEventKind::LocateProbe {
                key,
                depth,
                server,
                accepted,
                hop,
            } => vec![
                ("key", Int(key)),
                ("depth", Int(u64::from(depth))),
                ("server", Int(server)),
                ("accepted", Bool(accepted)),
                ("hop", Int(u64::from(hop))),
            ],
            TraceEventKind::Split {
                server,
                group_bits,
                group_depth,
                load,
                left_load,
                right_load,
                right_child_server,
            } => vec![
                ("server", Int(server)),
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
                ("load", Float(load)),
                ("left_load", Float(left_load)),
                ("right_load", Float(right_load)),
                ("right_child_server", Int(right_child_server)),
            ],
            TraceEventKind::Merge {
                server,
                parent_bits,
                parent_depth,
                load,
                local,
            } => vec![
                ("server", Int(server)),
                ("parent_bits", Int(parent_bits)),
                ("parent_depth", Int(u64::from(parent_depth))),
                ("load", Float(load)),
                ("local", Bool(local)),
            ],
            TraceEventKind::MergeRefused {
                server,
                sibling_server,
                parent_depth,
            } => vec![
                ("server", Int(server)),
                ("sibling_server", Int(sibling_server)),
                ("parent_depth", Int(u64::from(parent_depth))),
            ],
            TraceEventKind::ReplicaPromoted {
                failed,
                group_bits,
                group_depth,
                new_owner,
            } => vec![
                ("failed", Int(failed)),
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
                ("new_owner", Int(new_owner)),
            ],
            TraceEventKind::RecoveryDeferred {
                failed,
                group_bits,
                group_depth,
            } => vec![
                ("failed", Int(failed)),
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
            ],
            TraceEventKind::RecoveryLost {
                failed,
                group_bits,
                group_depth,
                clients_dropped,
            } => vec![
                ("failed", Int(failed)),
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
                ("clients_dropped", Int(clients_dropped)),
            ],
            TraceEventKind::RecoveryRetryBlocked {
                failed,
                group_bits,
                group_depth,
                owner_island,
                coordinator_island,
                waited_checks,
            } => vec![
                ("failed", Int(failed)),
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
                ("owner_island", Int(owner_island)),
                ("coordinator_island", Int(coordinator_island)),
                ("waited_checks", Int(waited_checks)),
            ],
            TraceEventKind::RecoveryRetried {
                group_bits,
                group_depth,
                new_owner,
            } => vec![
                ("group_bits", Int(group_bits)),
                ("group_depth", Int(u64::from(group_depth))),
                ("new_owner", Int(new_owner)),
            ],
            TraceEventKind::FlushBegin { flush_seq, probes } => {
                vec![("flush_seq", Int(flush_seq)), ("probes", Int(probes))]
            }
            TraceEventKind::FlushEnd { flush_seq } => vec![("flush_seq", Int(flush_seq))],
            TraceEventKind::LoadCheckBegin {
                ordinal,
                dirty_servers,
            } => vec![
                ("ordinal", Int(ordinal)),
                ("dirty_servers", Int(dirty_servers)),
            ],
            TraceEventKind::LoadCheckEnd {
                ordinal,
                splits,
                merges,
            } => vec![
                ("ordinal", Int(ordinal)),
                ("splits", Int(splits)),
                ("merges", Int(merges)),
            ],
            TraceEventKind::ServerJoined { server }
            | TraceEventKind::ServerLeft { server }
            | TraceEventKind::ServerCrashed { server } => vec![("server", Int(server))],
        }
    }
}

/// A structured-export argument value. Its `Display` is its JSON
/// rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer (ids, counts, bits).
    Int(u64),
    /// A float (loads).
    Float(f64),
    /// A flag.
    Bool(bool),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_names_itself_and_lists_args() {
        let kinds = [
            TraceEventKind::LocateProbe {
                key: 1,
                depth: 2,
                server: 3,
                accepted: true,
                hop: 1,
            },
            TraceEventKind::Split {
                server: 1,
                group_bits: 0b10,
                group_depth: 2,
                load: 1.5,
                left_load: 0.9,
                right_load: 0.6,
                right_child_server: 7,
            },
            TraceEventKind::Merge {
                server: 1,
                parent_bits: 0,
                parent_depth: 1,
                load: 0.1,
                local: false,
            },
            TraceEventKind::MergeRefused {
                server: 1,
                sibling_server: 2,
                parent_depth: 1,
            },
            TraceEventKind::ReplicaPromoted {
                failed: 9,
                group_bits: 0,
                group_depth: 1,
                new_owner: 4,
            },
            TraceEventKind::RecoveryDeferred {
                failed: 9,
                group_bits: 0,
                group_depth: 1,
            },
            TraceEventKind::RecoveryLost {
                failed: 9,
                group_bits: 0,
                group_depth: 1,
                clients_dropped: 12,
            },
            TraceEventKind::RecoveryRetryBlocked {
                failed: 9,
                group_bits: 0,
                group_depth: 1,
                owner_island: 1,
                coordinator_island: 0,
                waited_checks: 3,
            },
            TraceEventKind::RecoveryRetried {
                group_bits: 0,
                group_depth: 1,
                new_owner: 4,
            },
            TraceEventKind::FlushBegin {
                flush_seq: 1,
                probes: 64,
            },
            TraceEventKind::FlushEnd { flush_seq: 1 },
            TraceEventKind::LoadCheckBegin {
                ordinal: 1,
                dirty_servers: 3,
            },
            TraceEventKind::LoadCheckEnd {
                ordinal: 1,
                splits: 2,
                merges: 0,
            },
            TraceEventKind::ServerJoined { server: 5 },
            TraceEventKind::ServerLeft { server: 5 },
            TraceEventKind::ServerCrashed { server: 5 },
        ];
        let mut names = std::collections::BTreeSet::new();
        for k in &kinds {
            assert!(!k.args().is_empty(), "{} must carry payload", k.name());
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn server_attribution_covers_decision_events() {
        let split = TraceEventKind::Split {
            server: 11,
            group_bits: 0,
            group_depth: 1,
            load: 2.0,
            left_load: 1.0,
            right_load: 1.0,
            right_child_server: 12,
        };
        assert_eq!(split.server(), Some(11));
        assert_eq!(TraceEventKind::FlushEnd { flush_seq: 0 }.server(), None);
        let promoted = TraceEventKind::ReplicaPromoted {
            failed: 1,
            group_bits: 0,
            group_depth: 1,
            new_owner: 2,
        };
        assert_eq!(promoted.server(), Some(2));
    }
}
