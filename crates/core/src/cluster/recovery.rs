//! Crash recovery: a failed server's groups come back from the oracle
//! (`r = 0`) or from a promoted successor replica (`r ≥ 1`); recoveries
//! whose replicas sit behind a partition defer into [`RecoveryState`]
//! and are retried at every load check.

use std::collections::{BTreeMap, BTreeSet};

use clash_keyspace::prefix::Prefix;
use clash_obs::TraceEventKind;

use super::data_plane::ClientMembership;
use super::{ClashCluster, LoadCheckReport};
use crate::error::ClashError;
use crate::replication::ReplicaRecord;
use crate::server::ClashServer;
use crate::ServerId;

/// Outcome of a server failure and recovery ([`ClashCluster::fail_server`]
/// / [`ClashCluster::fail_servers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureReport {
    /// The (first) server that crashed.
    pub failed: ServerId,
    /// How many servers crashed in this event (1 for a single crash,
    /// more for a correlated burst).
    pub servers_failed: usize,
    /// Active key groups re-homed onto ring successors (recovered plus
    /// re-rooted-empty, so the active cover stays a partition).
    pub groups_reassigned: usize,
    /// Groups recovered with their full ledger state — from the oracle
    /// when the replication factor is 0 (the historical crutch), from a
    /// promoted successor replica otherwise.
    pub groups_recovered: usize,
    /// Groups whose owner *and* every live replica died (or whose state
    /// drifted away behind a partition): re-rooted empty, with their
    /// attached sources and queries truthfully reported lost below.
    /// Always 0 when the replication factor is 0.
    pub groups_lost: usize,
    /// Groups whose replicas all sit behind an active network partition:
    /// recovery is deferred (the group leaves the active cover) and
    /// retried at each load check until the partition heals.
    pub groups_deferred: usize,
    /// Stream sources lost with unrecoverable groups (their clients must
    /// re-attach from scratch).
    pub sources_lost: usize,
    /// Continuous queries lost with unrecoverable groups.
    pub queries_lost: usize,
    /// Surviving entries whose parent pointer died and became roots.
    pub orphaned_parents: usize,
    /// Surviving split entries whose right-child pointer was re-pointed.
    pub repaired_right_children: usize,
}

impl FailureReport {
    /// A report with every tally at zero.
    fn new(failed: ServerId, servers_failed: usize) -> Self {
        FailureReport {
            failed,
            servers_failed,
            groups_reassigned: 0,
            groups_recovered: 0,
            groups_lost: 0,
            groups_deferred: 0,
            sources_lost: 0,
            queries_lost: 0,
            orphaned_parents: 0,
            repaired_right_children: 0,
        }
    }
}

/// A crash recovery deferred behind a partition: where the surviving
/// replicas were seeded from, and whether a single crash stranded it.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingRecovery {
    old_owner: ServerId,
    single_crash: bool,
    /// Load checks this entry has stayed blocked since it was deferred
    /// (0 = never retried yet). Feeds the
    /// `recovery.deferred_max_wait_checks` telemetry counter.
    waited_checks: u64,
}

/// Partition-deferred recoveries and their retry counters.
#[derive(Debug, Default)]
pub(super) struct RecoveryState {
    /// Crash recoveries deferred behind a network partition: the group
    /// (currently absent from the active cover) mapped to its dead owner
    /// and the kind of crash that stranded it, whose surviving replicas
    /// must become reachable before promotion. Retried at every load
    /// check; always empty without replication.
    pub(super) pending: BTreeMap<Prefix, PendingRecovery>,
    /// Deferred-recovery retry attempts since construction: every
    /// per-group attempt of `retry_deferred_recoveries` counts exactly
    /// once, so `retries == retries_blocked + completed + lost` (the
    /// conservation law `tests/replication_faults.rs` pins).
    pub(super) retries: u64,
    /// Subset of `retries` that stayed blocked behind the partition.
    pub(super) retries_blocked: u64,
    /// The longest any `pending` entry has waited, in load checks —
    /// stuck entries surface here instead of staying silent.
    pub(super) deferred_max_wait: u64,
}

impl ClashCluster {
    /// Oracle reads observed while crash recovery was in
    /// progress, cumulative since construction. With
    /// [`crate::config::ClashConfig::replication_factor`] `> 0` the
    /// replica-promotion recovery never touches the oracle, so this stays
    /// 0 — the no-crutch guarantee the replication tests and the
    /// availability experiment pin.
    pub fn recovery_oracle_reads(&self) -> u64 {
        self.oracle.reads_in_recovery()
    }

    /// Crash recoveries currently deferred behind a network partition.
    pub fn pending_recoveries(&self) -> usize {
        self.recovery.pending.len()
    }

    /// The groups of every deferred recovery, in key order. Together
    /// with [`ClashCluster::global_cover`] these partition the key space
    /// (the cover∪pending completeness invariant the chaos campaigns
    /// re-check without panicking).
    pub fn pending_recovery_groups(&self) -> Vec<Prefix> {
        self.recovery.pending.keys().copied().collect()
    }

    /// Cumulative deferred-recovery retry counters since construction:
    /// `(retries, retries_blocked)`. Every retry attempt lands in
    /// exactly one of blocked / completed / lost, so
    /// `retries == retries_blocked + recoveries_completed + recoveries_lost`
    /// summed over all load-check reports.
    pub fn recovery_retry_counters(&self) -> (u64, u64) {
        (self.recovery.retries, self.recovery.retries_blocked)
    }
    /// Kills a server (crash model) and recovers. The Chord ring repairs
    /// itself; what happens to the victim's active key groups depends on
    /// [`crate::config::ClashConfig::replication_factor`]:
    ///
    /// * **`r = 0`** (default) — the historical oracle crutch: groups are
    ///   re-bootstrapped onto their new `Map()` owners with ledgers read
    ///   from the simulation's global state, modeling unspecified
    ///   "DHT-level replication". Bit-for-bit identical to the
    ///   pre-replication behavior.
    /// * **`r ≥ 1`** — real recovery: the new `Map()` owner of each lost
    ///   group fetches state from the first live successor replica and
    ///   promotes it — ledger included, so stream clients reconnect to
    ///   real recovered state — without a single oracle read (counted by
    ///   [`ClashCluster::recovery_oracle_reads`]). Groups whose replicas
    ///   all sit behind a partition defer ([`FailureReport::groups_deferred`],
    ///   retried each load check); groups whose owner *and* replicas all
    ///   died are truthfully reported lost and re-rooted empty.
    ///
    /// Either way, re-homed groups become roots — their parent entries
    /// died with the victim, so their subtrees lose merge-ability above
    /// the new root — and every dangling parent/right-child pointer on
    /// the survivors is repaired.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::UnknownServer`] for unknown victims and
    /// [`ClashError::InvalidConfig`] when asked to fail the last server.
    pub fn fail_server(&mut self, victim: ServerId) -> Result<FailureReport, ClashError> {
        self.fail_servers(&[victim])
    }

    /// [`ClashCluster::fail_server`] for a *simultaneous* crash of several
    /// servers — the correlated-failure case (a rack, an availability
    /// zone) that successor-list replication exists to be measured
    /// against: a burst that takes out an owner together with all `r` of
    /// its replica holders genuinely loses state, and the report says so.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for an empty or duplicated
    /// victim list and when the crash would take the last server;
    /// [`ClashError::UnknownServer`] for unknown victims.
    pub fn fail_servers(&mut self, victims: &[ServerId]) -> Result<FailureReport, ClashError> {
        // Barrier: planned probes are charged on the ring they were planned on.
        self.flush_batch()?;
        if victims.is_empty() {
            return Err(ClashError::InvalidConfig {
                reason: "crash burst needs at least one victim",
            });
        }
        let mut seen = BTreeSet::new();
        for v in victims {
            if !seen.insert(v.value()) {
                return Err(ClashError::InvalidConfig {
                    reason: "duplicate victim in crash burst",
                });
            }
        }
        if self.servers.len() <= victims.len() {
            return Err(ClashError::InvalidConfig {
                reason: "cannot fail the last server",
            });
        }
        for v in victims {
            if !self.servers.contains(v.value()) {
                return Err(ClashError::UnknownServer { server: *v });
            }
        }
        let corpses: Vec<ClashServer> = victims
            .iter()
            .map(|v| self.servers.remove(v.value()).expect("membership checked"))
            .collect();
        for v in victims {
            self.candidates.forget(v.value());
            self.net.fail(*v);
            self.obs
                .trace(|| TraceEventKind::ServerCrashed { server: v.value() });
        }

        let mut report = FailureReport::new(victims[0], victims.len());
        self.oracle.recovery_active = true;
        let outcome = if self.replication_enabled() {
            self.recover_from_replicas(&corpses, &mut report)
        } else {
            self.recover_from_oracle(&corpses, &mut report)
        };
        self.oracle.recovery_active = false;
        outcome?;
        // Failure-triggered re-replication: survivors whose holders died
        // with the victims re-seed now, not a load-check period later —
        // this is what keeps *sequential* single crashes lossless.
        self.replica_work.resync_at.extend_from_slice(victims);
        self.sync_replicas();
        self.debug_verify();
        Ok(report)
    }

    /// The historical `r = 0` recovery: re-home every lost group onto its
    /// new `Map()` owner with ledgers read from the global state — the
    /// oracle crutch the paper's hand-wave about DHT replication amounts
    /// to. Kept verbatim (single-victim message accounting is bit-for-bit
    /// the pre-replication behavior); its oracle reads are counted.
    fn recover_from_oracle(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
    ) -> Result<(), ClashError> {
        for corpse in corpses {
            let victim = corpse.id();
            for group in corpse.table().active_groups().map(|e| e.group) {
                let new_owner = self.map_group(group);
                debug_assert_ne!(new_owner, victim);
                self.servers
                    .live_mut(new_owner.value())
                    .bootstrap_root(group)?;
                self.candidates.mark_dirty(new_owner.value());
                self.oracle.insert(group, new_owner);
                self.wire
                    .count_group_move(self.data.ledger_or_default(group));
                self.push_group_load(group)?;
                report.groups_reassigned += 1;
                report.groups_recovered += 1;
            }
        }
        // Right children resolve against the post-reassignment oracle.
        self.repair_pointers_at(corpses, report, None);
        Ok(())
    }

    /// Replica-based recovery (`r ≥ 1`): promote the first live successor
    /// replica of every lost group. The corpses' tables are consulted
    /// only for truthful post-mortem *accounting* (which groups existed —
    /// the harness keeps failed servers' state the way `SimNet` keeps
    /// failed nodes'); every byte of *recovered* state comes from the
    /// replicas, and the oracle-read counter proves the index is never
    /// consulted.
    fn recover_from_replicas(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
    ) -> Result<(), ClashError> {
        let mut lost: Vec<(Prefix, ServerId)> = Vec::new();
        for corpse in corpses {
            lost.extend(
                corpse
                    .table()
                    .active_groups()
                    .map(|e| (e.group, corpse.id())),
            );
        }
        lost.sort();
        let membership = self.data.membership(lost.iter().map(|&(g, _)| g));
        let single_crash = corpses.len() == 1;
        let mut promotions: BTreeMap<Prefix, ServerId> = BTreeMap::new();
        for &(group, old_owner) in &lost {
            if let Some(new_owner) =
                self.promote_or_defer(group, old_owner, single_crash, &membership, report)?
            {
                promotions.insert(group, new_owner);
            }
        }
        // Pointer repair resolves right children via the promotion
        // announcements — local knowledge from this recovery, never the
        // oracle. Deferred and vanished groups resolve to nothing, so the
        // dangling pointer clears.
        self.repair_pointers_at(corpses, report, Some(&promotions));
        Ok(())
    }

    /// Repairs every survivor's parent/right-child pointers at the
    /// crashed servers (see [`ServerTable::repair_after_peer_failure`]),
    /// visiting only the tables that can name an entry a corpse held.
    /// Right children resolve through `promotions`, or through the
    /// (counted) oracle when there are none.
    fn repair_pointers_at(
        &mut self,
        corpses: &[ClashServer],
        report: &mut FailureReport,
        promotions: Option<&BTreeMap<Prefix, ServerId>>,
    ) {
        for corpse in corpses {
            let victim = corpse.id();
            let namers = self.pointer_holders(corpse.table().entries().map(|e| e.group));
            debug_assert!(
                self.servers
                    .iter()
                    .all(|s| namers.contains(&s.id().value()) || !s.table().names_server(victim)),
                "a table outside the corpse's tree neighbourhood names {victim}"
            );
            let oracle = &mut self.oracle;
            let mut resolve = |g: Prefix| match promotions {
                Some(promoted) => promoted.get(&g).copied(),
                None => oracle.owner(g),
            };
            for sid in namers {
                let (orphans, repairs) = self
                    .servers
                    .live_mut(sid)
                    .table_mut()
                    .repair_after_peer_failure(victim, &mut resolve);
                report.orphaned_parents += orphans;
                report.repaired_right_children += repairs;
                if orphans > 0 {
                    // Orphaning turns `parent = victim` entries into
                    // roots, which stop owing reports.
                    self.candidates.mark_dirty(sid);
                }
            }
        }
    }

    /// Recovers one lost group from its successor replicas: the new
    /// `Map()` owner fetches state from the first live replica (in the
    /// dead owner's successor order) and promotes it as a new root. If
    /// every live holder is unreachable the recovery defers; if none
    /// exists the group is re-rooted empty and its clients are dropped,
    /// truthfully counted. Returns the group's new home, or `None` while
    /// deferred.
    fn promote_or_defer(
        &mut self,
        group: Prefix,
        old_owner: ServerId,
        single_crash: bool,
        membership: &ClientMembership,
        report: &mut FailureReport,
    ) -> Result<Option<ServerId>, ClashError> {
        let new_owner = self.map_group(group);
        // Candidates: survivors holding a replica whose owner is the dead
        // server that actively held the group. The owner filter is what
        // makes stale records (a split's invalidation deferred behind a
        // partition, a handoff's old copies) unpromotable: their owner is
        // never the crashed active holder. Ring distances from the dead
        // owner are distinct, so the sort fixes the order whatever order
        // the slots are visited in.
        let mask = self.config.hash_space.mask();
        let mut candidates: Vec<ServerId> = self
            .servers
            .iter_slots()
            .filter(|s| {
                s.replica_store()
                    .held(group)
                    .is_some_and(|r| r.owner == old_owner)
            })
            .map(ClashServer::id)
            .collect();
        candidates.sort_by_key(|h| h.value().wrapping_sub(old_owner.value()) & mask);
        let mut fetched: Option<ReplicaRecord> = None;
        for &holder in &candidates {
            // The new ring owner may already hold the replica — the
            // common single-crash case. Reading it crosses no network,
            // so nothing is charged (like every other local delivery in
            // the harness); any other holder costs a state fetch.
            if holder == new_owner || self.wire.replica_round_trip(new_owner, holder) {
                fetched = self
                    .servers
                    .live(holder.value())
                    .replica_store()
                    .held(group)
                    .cloned();
                break;
            }
        }
        let no_clients = Default::default();
        let live = membership.get(&group).unwrap_or(&no_clients);
        let (sources_lost, queries_lost) = match &fetched {
            Some(rec) => self.data.restore(group, Some(rec), live),
            None if !candidates.is_empty() => {
                // Replicas exist but every one sits behind the partition:
                // defer. The group leaves the active cover until a later
                // load check can reach a holder. A retry that stays
                // blocked (the entry already existed) bumps its wait
                // count and logs a distinct event carrying the blocking
                // partition's islands; a fresh deferral starts at zero.
                let prior = self.recovery.pending.get(&group).copied();
                let waited_checks = prior.map_or(0, |p| p.waited_checks + 1);
                self.recovery.deferred_max_wait =
                    self.recovery.deferred_max_wait.max(waited_checks);
                self.oracle.remove(group);
                self.recovery.pending.insert(
                    group,
                    PendingRecovery {
                        old_owner,
                        single_crash,
                        waited_checks,
                    },
                );
                report.groups_deferred += 1;
                if prior.is_some() {
                    self.recovery.retries_blocked += 1;
                    let islands = &self.wire.transport;
                    let island =
                        |id: ServerId| islands.island_of(id.value()).map_or(u64::MAX, u64::from);
                    self.obs.trace(|| TraceEventKind::RecoveryRetryBlocked {
                        failed: old_owner.value(),
                        group_bits: group.pattern(),
                        group_depth: group.depth(),
                        owner_island: island(old_owner),
                        coordinator_island: island(new_owner),
                        waited_checks,
                    });
                } else {
                    self.obs.trace(|| TraceEventKind::RecoveryDeferred {
                        failed: old_owner.value(),
                        group_bits: group.pattern(),
                        group_depth: group.depth(),
                    });
                }
                return Ok(None);
            }
            // The owner and every replica are gone: the state is
            // genuinely lost. Re-root the group empty so the cover stays
            // a partition, and truthfully drop the stranded clients — no
            // silent resurrection from the oracle.
            None => self.data.restore(group, None, live),
        };
        report.sources_lost += sources_lost;
        report.queries_lost += queries_lost;
        // The group comes back as a root on its new owner, with whatever
        // state survived.
        let ledger = self.data.ledger(group).expect("restored above");
        let load = ledger.load();
        self.wire.count_group_move(ledger);
        let server = self.servers.live_mut(new_owner.value());
        server.bootstrap_root(group)?;
        server.set_group_load(group, load)?;
        self.candidates.mark_dirty(new_owner.value());
        self.oracle.insert(group, new_owner);
        self.recovery.pending.remove(&group);
        // Re-protect immediately: the survivors of a burst must not
        // depend on the next sync period for their own cover.
        self.ensure_replicas(group, new_owner);
        report.groups_reassigned += 1;
        if fetched.is_some() {
            report.groups_recovered += 1;
            self.obs.trace(|| TraceEventKind::ReplicaPromoted {
                failed: old_owner.value(),
                group_bits: group.pattern(),
                group_depth: group.depth(),
                new_owner: new_owner.value(),
            });
        } else {
            report.groups_lost += 1;
            self.obs.trace(|| TraceEventKind::RecoveryLost {
                failed: old_owner.value(),
                group_bits: group.pattern(),
                group_depth: group.depth(),
                clients_dropped: (sources_lost + queries_lost) as u64,
            });
        }
        Ok(Some(new_owner))
    }

    /// Retries every partition-deferred recovery (run at each load
    /// check). A group whose replicas became reachable is promoted; one
    /// whose last holders have since died is re-rooted empty and counted
    /// lost.
    pub(super) fn retry_deferred_recoveries(
        &mut self,
        report: &mut LoadCheckReport,
    ) -> Result<(), ClashError> {
        if self.recovery.pending.is_empty() {
            return Ok(());
        }
        // Deferred recoveries change the pending set (which the lease
        // expiry predicate reads) and re-home groups: the sync riding
        // this load check must run the full sweep.
        self.replica_work.full_sync = true;
        let pending: Vec<(Prefix, PendingRecovery)> = self
            .recovery
            .pending
            .iter()
            .map(|(&g, &p)| (g, p))
            .collect();
        let membership = self.data.membership(pending.iter().map(|&(g, _)| g));
        self.oracle.recovery_active = true;
        let mut outcome = Ok(());
        for (group, rec) in pending {
            let mut tally = FailureReport::new(rec.old_owner, 0);
            self.recovery.retries += 1;
            match self.promote_or_defer(
                group,
                rec.old_owner,
                rec.single_crash,
                &membership,
                &mut tally,
            ) {
                Ok(Some(new_owner)) => {
                    if tally.groups_lost > 0 {
                        report.recoveries_lost += 1;
                        if rec.single_crash {
                            report.recoveries_lost_single += 1;
                        }
                    } else {
                        report.recoveries_completed += 1;
                        self.obs.trace(|| TraceEventKind::RecoveryRetried {
                            group_bits: group.pattern(),
                            group_depth: group.depth(),
                            new_owner: new_owner.value(),
                        });
                    }
                    // Client losses surface even on a successful promotion
                    // (a partition-starved replica reconciles them away).
                    report.recovery_sources_lost += tally.sources_lost as u64;
                    report.recovery_queries_lost += tally.queries_lost as u64;
                }
                Ok(None) => {} // still deferred
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.oracle.recovery_active = false;
        outcome
    }
}
