//! The load check (§4–5): leaves report to parents, overloaded servers
//! shed their hottest groups by binary splitting, underloaded servers
//! consolidate cold children — driven by the dirty-tracked candidate
//! indices in [`Candidates`].

use std::collections::BTreeSet;

use clash_keyspace::hash::KeyHasher;
use clash_keyspace::prefix::Prefix;
use clash_obs::{CheckPhase, TraceEventKind};
use clash_simkernel::time::SimDuration;
use clash_transport::MessageClass;

use super::ClashCluster;
use crate::arena::ServerArena;
use crate::error::ClashError;
use crate::latency::ms;
use crate::load::{GroupLoad, LoadLevel};
use crate::messages::ReleaseResponse;
use crate::server::ClashServer;
use crate::ServerId;

/// Safety cap on splits per server per load check.
const MAX_SPLITS_PER_CHECK: u32 = 64;
/// Safety cap on merges per server per load check.
const MAX_MERGES_PER_CHECK: u32 = 64;

/// One split performed during a load check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRecord {
    /// The server that shed load.
    pub server: ServerId,
    /// The group that was split.
    pub group: Prefix,
    /// The server that accepted the right child.
    pub right_child_server: ServerId,
}

/// One merge performed during a load check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRecord {
    /// The server that consolidated.
    pub server: ServerId,
    /// The parent group that became active again.
    pub parent: Prefix,
}

/// Outcome of one cluster-wide load check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadCheckReport {
    /// Splits performed, in order.
    pub splits: Vec<SplitRecord>,
    /// Merges performed, in order.
    pub merges: Vec<MergeRecord>,
    /// Merge attempts refused by the child (stale report).
    pub refusals: u64,
    /// Partition-deferred crash recoveries completed this check (the
    /// replicas became reachable again and were promoted).
    pub recoveries_completed: u64,
    /// Deferred recoveries abandoned this check because every replica
    /// holder has since died: the groups were re-rooted empty.
    pub recoveries_lost: u64,
    /// Subset of [`LoadCheckReport::recoveries_lost`] whose originating
    /// crash was a *single*-server failure (availability experiments pin
    /// this at 0 for any replication factor ≥ 1).
    pub recoveries_lost_single: u64,
    /// Sources dropped while resolving deferred recoveries this check
    /// (stranded by an abandoned group, or reconciled away because a
    /// partition starved the promoted replica's write-through).
    pub recovery_sources_lost: u64,
    /// Queries dropped while resolving deferred recoveries this check.
    pub recovery_queries_lost: u64,
}

enum MergeOutcome {
    Merged(MergeRecord),
    Refused,
    NoCandidate,
}

/// Dirty-tracked load-check state. The load check used to sweep every
/// server every period. These incrementally-maintained candidate sets
/// make its cost scale with what changed instead: every cluster path
/// that mutates a server's table or load marks it dirty, and
/// [`Candidates::refresh`] folds the dirty set into the three candidate
/// indices using the *same* classification a full sweep would — so
/// candidate membership (and therefore every protocol decision) is
/// bit-for-bit identical to a from-scratch scan. [`Candidates::verify`]
/// asserts exactly that in debug builds, and the test twins pin it
/// against a from-scratch reference after every call (under
/// `#[cfg(test)]`, `ClashCluster::sweep_all_next` marks every server
/// dirty before a call).
#[derive(Debug, Default)]
pub(super) struct Candidates {
    /// Servers whose load/table state changed since their last
    /// classification.
    dirty: BTreeSet<u64>,
    /// Servers currently classified overloaded (split candidates).
    overloaded: BTreeSet<u64>,
    /// Servers currently underloaded *and* holding at least one split
    /// (inactive) entry — the only servers that can possibly merge.
    mergeable: BTreeSet<u64>,
    /// Servers owing at least one load report.
    reporters: BTreeSet<u64>,
}

impl Candidates {
    /// Marks a server's classification stale. Every cluster path that
    /// mutates a server's table or load calls this; missing a site is a
    /// bug that [`Candidates::verify`] (debug builds) and the
    /// from-scratch reference twins catch.
    pub(super) fn mark_dirty(&mut self, sid_value: u64) {
        self.dirty.insert(sid_value);
    }

    /// Drops a departed server from every candidate index.
    pub(super) fn forget(&mut self, sid_value: u64) {
        self.dirty.remove(&sid_value);
        self.overloaded.remove(&sid_value);
        self.mergeable.remove(&sid_value);
        self.reporters.remove(&sid_value);
    }

    /// `(overloaded, mergeable, owes reports)` for one server, from
    /// scratch: [`ClashServer::load_level`] (recomputed, so float
    /// summation order — and therefore every threshold comparison — is
    /// that of a full sweep) plus the cheap structural predicates for
    /// merge-ability and report-owing.
    fn classify(server: &ClashServer) -> [bool; 3] {
        let level = server.load_level();
        [
            level == LoadLevel::Overloaded,
            level == LoadLevel::Underloaded && server.table().has_split_entries(),
            server.owes_reports(),
        ]
    }

    /// Folds the dirty set into the candidate indices. A departed server
    /// leaves every index.
    fn refresh(&mut self, servers: &ServerArena) {
        for sid in std::mem::take(&mut self.dirty) {
            let member = servers.get(sid).map_or([false; 3], Self::classify);
            let indices = [
                &mut self.overloaded,
                &mut self.mergeable,
                &mut self.reporters,
            ];
            for (index, member) in indices.into_iter().zip(member) {
                if member {
                    index.insert(sid);
                } else {
                    index.remove(&sid);
                }
            }
        }
    }

    /// See [`ClashCluster::verify_candidate_indices`].
    fn verify(&self, servers: &ServerArena) {
        let indices = [
            (&self.overloaded, "overloaded"),
            (&self.mergeable, "mergeable"),
            (&self.reporters, "reporter"),
        ];
        for server in servers.iter_slots() {
            let sid = server.id().value();
            if self.dirty.contains(&sid) {
                continue;
            }
            for ((index, name), member) in indices.into_iter().zip(Self::classify(server)) {
                assert_eq!(
                    index.contains(&sid),
                    member,
                    "stale {name}-index entry for {sid:#x}"
                );
            }
        }
        for sid in indices.into_iter().flat_map(|(index, _)| index) {
            assert!(
                servers.contains(*sid) || self.dirty.contains(sid),
                "candidate index names departed server {sid:#x}"
            );
        }
    }
}

impl ClashCluster {
    /// Asserts that every *clean* (non-dirty) server's candidate-index
    /// membership matches a from-scratch classification — the invariant
    /// that makes the dirty-tracked load check equivalent to the
    /// historical full sweep. Dirty servers are exempt: their stale
    /// entries are refreshed before the next candidate is picked.
    ///
    /// # Panics
    ///
    /// Panics on any mismatch (a missed `mark_dirty` site).
    pub fn verify_candidate_indices(&self) {
        self.candidates.verify(&self.servers);
    }

    /// Test reference: the next load check reclassifies *all* servers
    /// and the next replica sync — the check's or a membership call's —
    /// is the whole lease-expiry + placement sweep, the historical
    /// O(cluster) semantics. A twin that calls this before every load
    /// check and membership call must match the dirty-tracked path bit
    /// for bit; the reference twins of the cluster tests pin that after
    /// every call.
    #[cfg(test)]
    pub(super) fn sweep_all_next(&mut self) {
        let ids = self.net.node_ids().into_iter().map(|id| id.value());
        self.candidates.dirty.extend(ids);
        self.replica_work.full_sync = true;
    }

    /// Chaos-only fault hook: when enabled, merges skip the parent
    /// group's replica re-seed, silently dropping the merged group out
    /// of the replication protocol. Exists so the fault-injection
    /// campaigns can prove they catch a real protocol bug (the
    /// `clash-chaos` injected-bug test); never enable it elsewhere.
    pub fn set_chaos_skip_merge_reseed(&mut self, on: bool) {
        self.chaos_skip_merge_reseed = on;
    }

    /// Runs one cluster-wide load check: leaves report to parents, every
    /// overloaded server sheds its hottest groups by binary splitting, and
    /// underloaded servers consolidate cold children bottom-up.
    ///
    /// # Errors
    ///
    /// Propagates protocol invariant violations (none occur in correct
    /// operation; the tests rely on this).
    pub fn run_load_check(&mut self) -> Result<LoadCheckReport, ClashError> {
        self.flush_batch()?;
        self.obs.load_checks_run += 1;
        let ordinal = self.obs.load_checks_run;
        self.obs.trace(|| TraceEventKind::LoadCheckBegin {
            ordinal,
            dirty_servers: self.candidates.dirty.len() as u64,
        });
        let mut report = LoadCheckReport::default();
        if self.replication_enabled() {
            self.obs.phase_begin(CheckPhase::Recovery);
            let recovery_result = self.retry_deferred_recoveries(&mut report);
            self.obs.phase_end(CheckPhase::Recovery);
            recovery_result?;
        }
        if !self.config.splitting_enabled {
            self.obs.phase_begin(CheckPhase::ReplicaSync);
            self.sync_replicas();
            self.obs.phase_end(CheckPhase::ReplicaSync);
            self.obs.trace(|| TraceEventKind::LoadCheckEnd {
                ordinal,
                splits: 0,
                merges: 0,
            });
            return Ok(report);
        }
        self.obs.phase_begin(CheckPhase::CandidateRefresh);
        self.candidates.refresh(&self.servers);
        self.obs.phase_end(CheckPhase::CandidateRefresh);
        self.obs.phase_begin(CheckPhase::Reports);
        self.deliver_load_reports();
        self.obs.phase_end(CheckPhase::Reports);
        self.obs.phase_begin(CheckPhase::Splits);
        // Split phase. The historical sweep walked every server in
        // ascending id order, splitting while overloaded; walking the
        // overloaded candidate set behind an ascending cursor visits
        // exactly the same servers in the same order — a server that
        // becomes overloaded mid-phase is picked up iff its id is still
        // ahead of the cursor, just as the full walk would have.
        let mut cursor = 0u64;
        loop {
            self.candidates.refresh(&self.servers);
            let Some(&sid_value) = self.candidates.overloaded.range(cursor..).next() else {
                break;
            };
            let mut splits_done = 0;
            while splits_done < MAX_SPLITS_PER_CHECK {
                let server = self.servers.live(sid_value);
                if server.load_level() != LoadLevel::Overloaded {
                    break;
                }
                match self.try_split(sid_value)? {
                    Some(record) => {
                        report.splits.push(record);
                        splits_done += 1;
                    }
                    None => break,
                }
            }
            let Some(next) = sid_value.checked_add(1) else {
                break;
            };
            cursor = next;
        }
        self.obs.phase_end(CheckPhase::Splits);
        self.obs.phase_begin(CheckPhase::Merges);
        // Merge phase, same cursor discipline over the mergeable set
        // (underloaded servers holding at least one split entry — the
        // only ones the full walk could have done anything with).
        let mut cursor = 0u64;
        loop {
            self.candidates.refresh(&self.servers);
            let Some(&sid_value) = self.candidates.mergeable.range(cursor..).next() else {
                break;
            };
            let mut merges_done = 0;
            while merges_done < MAX_MERGES_PER_CHECK {
                let server = self.servers.live(sid_value);
                if server.load_level() != LoadLevel::Underloaded {
                    break;
                }
                match self.try_merge(sid_value)? {
                    MergeOutcome::Merged(record) => {
                        report.merges.push(record);
                        merges_done += 1;
                    }
                    MergeOutcome::Refused => {
                        // The stale report was cleared by try_merge, so
                        // this candidate is gone; keep going — the next
                        // candidate may still be mergeable. The loop
                        // terminates because every refusal permanently
                        // removes one candidate within this check.
                        report.refusals += 1;
                    }
                    MergeOutcome::NoCandidate => break,
                }
            }
            let Some(next) = sid_value.checked_add(1) else {
                break;
            };
            cursor = next;
        }
        self.obs.phase_end(CheckPhase::Merges);
        self.obs.phase_begin(CheckPhase::ReplicaSync);
        self.sync_replicas();
        self.obs.phase_end(CheckPhase::ReplicaSync);
        self.debug_verify();
        self.obs.trace(|| TraceEventKind::LoadCheckEnd {
            ordinal,
            splits: report.splits.len() as u64,
            merges: report.merges.len() as u64,
        });
        Ok(report)
    }

    fn deliver_load_reports(&mut self) {
        // Only servers in the reporter candidate set are visited — the
        // others would have contributed nothing to the historical full
        // sweep.
        let mut deliveries = Vec::new();
        for &sid_value in &self.candidates.reporters {
            let server = self.servers.live(sid_value);
            let own_id = server.id();
            server.for_each_pending_report(|dest, group, load, is_leaf| {
                deliveries.push((own_id, dest, group, load, is_leaf));
            });
        }
        // All remote reports in one dispatch, then each applied in order:
        // applying a report sends nothing, so no delivery depends on it.
        self.wire.open();
        for &(src, dest, ..) in deliveries.iter().filter(|(src, dest, ..)| src != dest) {
            self.wire.lay_out(&[(src, dest, MessageClass::LoadReport)]);
        }
        self.wire.dispatch();
        for (src, dest, group, load, is_leaf) in deliveries {
            if dest != src {
                let mut latency = SimDuration::ZERO;
                if self.wire.next_chain(&mut latency).is_err() {
                    // Reports are soft state: one lost to a partition is
                    // simply re-sent (and re-counted) next check period.
                    continue;
                }
                self.wire.msgs.report_messages += 1;
                self.wire.latency.report.observe(ms(latency));
            }
            if let Some(server) = self.servers.get_mut(dest.value()) {
                server.handle_load_report(group, load, is_leaf);
            }
        }
    }

    /// Splits the hottest group of `sid_value`, placing the right child via
    /// the DHT with the self-map retry of §5. Returns `None` when the
    /// server has nothing left to split, or when a network partition makes
    /// the *first* placement undeliverable (the split is abandoned before
    /// any state changes and retried at a later load check). If earlier
    /// self-mapped retry iterations already committed their (purely local)
    /// splits when the cut is hit, the operation completes as a local
    /// split instead — the right child stays on this server, exactly as a
    /// terminal self-map would leave it — so every committed split is
    /// reported.
    fn try_split(&mut self, sid_value: u64) -> Result<Option<SplitRecord>, ClashError> {
        let splitter = self.servers.live(sid_value);
        let server_id = splitter.id();
        let Some(hot) = splitter.hottest_splittable() else {
            return Ok(None);
        };
        // The load that triggered this split, for the flight recorder
        // (only read when tracing — the protocol itself re-reads live).
        let trigger_load = if self.obs.tracing() {
            splitter.current_load()
        } else {
            0.0
        };
        let mut group = hot;
        let mut op_latency = SimDuration::ZERO;
        let mut committed_splits = false;
        let right_child_server = loop {
            // Resolve the right child's placement via the DHT *first* (§5)
            // and require every hop plus the eventual ACCEPT_KEYGROUP to be
            // deliverable before this iteration mutates any state. An
            // aborted placement still counts as a lookup in `NetStats` —
            // the routing hops up to the cut were genuinely attempted.
            let (_, right_prefix) = group.split()?;
            let h = self.hasher.hash_key(right_prefix.virtual_key());
            let wire = &mut self.wire;
            wire.open();
            let lookup = wire.route(&self.net, server_id, h);
            self.net.record_routed_lookup(lookup.hops);
            let target = lookup.owner;
            let self_mapped = target == server_id;
            let accept = [(server_id, target, MessageClass::AcceptKeygroup)];
            wire.lay_out(if self_mapped { &[] } else { &accept });
            wire.dispatch();
            if wire.next_chain(&mut op_latency).is_err() {
                // If self-mapped iterations already committed, the last
                // right child is active locally: a valid terminal state,
                // seeded like every other terminal placement.
                if !committed_splits {
                    return Ok(None);
                }
                self.ensure_replicas(group, server_id);
                break server_id;
            }

            let splitter = self.servers.live_mut(sid_value);
            let (left, right) = splitter.split_group(group)?;
            self.candidates.mark_dirty(sid_value);
            debug_assert_eq!(right, right_prefix);
            self.wire.msgs.splits += 1;
            self.wire.msgs.split_messages += u64::from(lookup.hops);
            let (left_load, right_load) = self.data.split(group, left, right);
            // One event per committed binary split (self-mapped retry
            // iterations each count), matching `msgs.splits`.
            self.obs.trace(|| TraceEventKind::Split {
                server: server_id.value(),
                group_bits: group.pattern(),
                group_depth: group.depth(),
                load: trigger_load,
                left_load: left_load.data_rate,
                right_load: right_load.data_rate,
                right_child_server: target.value(),
            });
            self.oracle.remove(group);
            self.oracle.insert(left, server_id);
            splitter.set_group_load(left, left_load)?;
            splitter.set_right_child(group, target)?;
            // The parent entry went inactive: retire its replicas and
            // protect the freshly active left child. The right child is
            // seeded once its placement is terminal (a retry splits it
            // again immediately).
            self.invalidate_replicas(group, server_id);
            self.ensure_replicas(left, server_id);

            if self_mapped {
                // The right child maps back to us and stays here. No
                // ACCEPT_KEYGROUP is sent — the placement is local — so
                // it must not be charged as one.
                self.servers
                    .live_mut(sid_value)
                    .handle_accept_keygroup(right, server_id, right_load)?;
                self.oracle.insert(right, server_id);
                if right.depth() < self.config.max_depth {
                    // Split it again ("another randomized attempt to
                    // select a different server node", §5).
                    self.wire.msgs.self_mapped_retries += 1;
                    committed_splits = true;
                    group = right;
                    continue;
                }
                // At max depth and still self-mapped: keep the group.
            } else {
                self.wire.msgs.split_messages += 1; // the ACCEPT_KEYGROUP itself
                self.wire.msgs.accept_keygroups += 1;
                self.wire.count_group_move(&self.data.ledgers[&right]);
                self.servers
                    .get_mut(target.value())
                    .ok_or(ClashError::UnknownServer { server: target })?
                    .handle_accept_keygroup(right, server_id, right_load)?;
                self.candidates.mark_dirty(target.value());
                self.oracle.insert(right, target);
            }
            self.ensure_replicas(right, target);
            break target;
        };
        self.wire.latency.split.observe(ms(op_latency));
        Ok(Some(SplitRecord {
            server: server_id,
            group: hot,
            right_child_server,
        }))
    }

    fn try_merge(&mut self, sid_value: u64) -> Result<MergeOutcome, ClashError> {
        let merger = self.servers.live(sid_value);
        let server_id = merger.id();
        let Some((parent, right_holder, _combined)) = merger.merge_candidate() else {
            return Ok(MergeOutcome::NoCandidate);
        };
        // Flight-recorder context only (see `try_split`).
        let trigger_load = if self.obs.tracing() {
            merger.current_load()
        } else {
            0.0
        };
        let (left, right) = parent.split().expect("candidate parents were split");
        let released = if right_holder == server_id {
            // Both children local: no messages.
            GroupLoad::zero()
        } else {
            // The RELEASE_KEYGROUP round trip must be deliverable before
            // anything mutates; a partitioned child simply defers the
            // merge to a post-heal load check.
            let release = [
                (server_id, right_holder, MessageClass::ReleaseKeygroup),
                (right_holder, server_id, MessageClass::ReleaseKeygroup),
            ];
            let Some(op_latency) = self.wire.send_chain(&release) else {
                return Ok(MergeOutcome::NoCandidate);
            };
            self.wire.latency.merge.observe(ms(op_latency));
            self.wire.msgs.merge_messages += 2; // RELEASE_KEYGROUP + response
            let response = self
                .servers
                .get_mut(right_holder.value())
                .ok_or(ClashError::UnknownServer {
                    server: right_holder,
                })?
                .handle_release_keygroup(right);
            self.candidates.mark_dirty(right_holder.value());
            match response {
                ReleaseResponse::Released { load } => {
                    if let Some(right_ledger) = self.data.ledgers.get(&right) {
                        self.wire.count_group_move(right_ledger);
                    }
                    load
                }
                ReleaseResponse::Refused => {
                    // The report that motivated this merge is stale. Drop
                    // it: a live child re-reports next period, but a child
                    // orphaned by a crash (re-homed as a root) never will,
                    // and would otherwise be asked to release every period
                    // forever, starving this server's other merges.
                    self.servers
                        .live_mut(sid_value)
                        .table_mut()
                        .clear_child_report(parent);
                    self.obs.trace(|| TraceEventKind::MergeRefused {
                        server: server_id.value(),
                        sibling_server: right_holder.value(),
                        parent_depth: parent.depth(),
                    });
                    return Ok(MergeOutcome::Refused);
                }
            }
        };
        self.servers
            .live_mut(sid_value)
            .merge_group(parent, released)?;
        self.candidates.mark_dirty(sid_value);
        self.wire.msgs.merges += 1;
        self.obs.trace(|| TraceEventKind::Merge {
            server: server_id.value(),
            parent_bits: parent.pattern(),
            parent_depth: parent.depth(),
            load: trigger_load,
            local: right_holder == server_id,
        });
        // Merge the ledgers and update the oracle.
        self.data.merge(left, right, parent);
        self.oracle.remove(left);
        self.oracle.remove(right);
        self.oracle.insert(parent, server_id);
        // The children are gone; their replicas retire and the
        // re-activated parent gets its own set.
        self.invalidate_replicas(left, server_id);
        self.invalidate_replicas(right, right_holder);
        self.push_group_load(parent)?;
        if !self.chaos_skip_merge_reseed {
            self.ensure_replicas(parent, server_id);
        }
        Ok(MergeOutcome::Merged(MergeRecord {
            server: server_id,
            parent,
        }))
    }
}
