//! Client operations (§5): the depth search that locates a key's group,
//! the batched plan → route → charge pipeline that defers its routing to
//! the next barrier, and the attach / detach / move calls that put
//! sources and queries on the group the search found.

use std::collections::BTreeSet;
use std::sync::Arc;

use clash_chord::id::ChordId;
use clash_keyspace::hash::KeyHasher;
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_obs::{CheckPhase, TraceEventKind};
use clash_simkernel::time::SimDuration;
use clash_transport::{Delivery, MessageClass, SendSpec};

use super::{ClashCluster, GroupLedger, QueryRec, SourceRec};
use crate::client::{DepthSearch, SearchOutcome};
use crate::error::ClashError;
use crate::latency::ms;
use crate::ServerId;

/// Where an object (source or query) was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The server owning the object's key group.
    pub server: ServerId,
    /// The key group.
    pub group: Prefix,
    /// The group's depth (the `d_c` the client discovered).
    pub depth: u32,
    /// Probes the depth search needed (1 for the fixed-depth baseline).
    pub probes: u32,
}

/// Outcome of a distributed range query ([`ClashCluster::range_query`]).
#[derive(Debug, Clone)]
pub struct RangeQueryResult {
    /// The groups visited, with their owners, in key order.
    pub groups: Vec<(Prefix, ServerId)>,
    /// Number of distinct servers touched — the §7 clustering metric.
    pub distinct_servers: usize,
    /// Depth-search probes spent.
    pub probes: u32,
    /// Control messages spent (hop-inclusive).
    pub messages: u64,
}

/// One locate probe planned by the batched client path — everything the
/// charge phase needs to replay the sequential accounting bit-for-bit
/// (see [`LocateBatch`]).
#[derive(Debug, Clone, Copy)]
struct PlannedProbe {
    /// Client entry node (the `random_alive` draw, made at plan time so
    /// the cluster RNG advances in exact op order).
    start: ServerId,
    /// Hashed probe target `f(virtual key)`.
    target: u64,
    /// The owner the plan resolved by ground truth. Batch windows only
    /// exist between membership barriers, when the ring is converged, so
    /// the routed owner must agree (debug-asserted at route time).
    owner: ServerId,
    /// True when this probe completed its locate: the charge phase
    /// counts the locate and observes the op's accumulated latency here.
    /// For the adaptive protocol this is also the accepting probe.
    op_end: bool,
    /// The located key's bits — carried so the charge phase can emit the
    /// flight-recorder probe event in plan order (zero cost otherwise).
    key_bits: u64,
    /// The depth this probe guessed (see `key_bits`).
    depth: u32,
    /// Routed hop count: 0 until the flush's route phase fills it in.
    hops: u32,
}

/// Batched locate state. With `config.shards > 0` the client locate
/// path splits into three phases. **Plan** (at the op): draw the entry
/// node, resolve the probe's owner by ground truth (legal because batch
/// windows only exist between membership barriers, when routing and
/// ground truth agree), run the depth search against live server tables,
/// and queue a `PlannedProbe`; ledger mutations stay synchronous,
/// group-load pushes are coalesced into `touched`. **Route** (pure, at
/// the barrier): resolve each probe's DHT route, in plan order, against
/// the live ring — frozen in effect, because every ring mutation is a
/// barrier that flushes first. **Charge** (in plan order): resolve every
/// transport message of the flush in one `send_batch`, then replay hop
/// stats, message counters and latency observations exactly as the
/// unbatched path interleaves them. `flush_batch` runs at every barrier;
/// results are bit-for-bit identical to `shards = 0` (sequential) —
/// pinned by `tests/shard_equivalence.rs` and the
/// `sharded_batching_matches_sequential` proptest. Charging at the op
/// stays because batching steps aside under a partition and for the
/// fixed-depth baseline (see `batching_active`): on those inputs it is
/// the only way.
#[derive(Default)]
pub(super) struct LocateBatch {
    /// Probes planned but not yet routed/charged.
    probes: Vec<PlannedProbe>,
    /// Groups with a deferred (coalesced) load push.
    touched: BTreeSet<Prefix>,
    /// Monotone flush counter (the flight recorder's flush ordinal).
    flush_seq: u64,
    /// Debug builds: how many route phases passed the zero-cluster-RNG-draw
    /// cross-check (the runtime mirror of the clash-lint static rules).
    #[cfg(debug_assertions)]
    route_draw_checks: u64,
}

impl ClashCluster {
    /// Locates the server and depth for `key` using the client protocol:
    /// the modified binary search over `ACCEPT_OBJECT` probes, each routed
    /// through the DHT. For the fixed-depth baseline a single lookup
    /// suffices.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::SearchDiverged`] only on protocol invariant
    /// violations.
    pub fn locate(&mut self, key: Key) -> Result<Placement, ClashError> {
        self.locate_hinted(key, None)
    }

    /// [`ClashCluster::locate`] with a first-guess depth hint (clients
    /// cache the depth from their previous lookup).
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::locate`].
    pub fn locate_hinted(&mut self, key: Key, hint: Option<u32>) -> Result<Placement, ClashError> {
        // The fixed-depth baseline `DHT(x)` knows its depth: its one
        // probe is accepted without asking, and the group materializes
        // on first touch.
        let adaptive = self.config.splitting_enabled;
        let batched = self.batching_active();
        let width = self.config.key_width.get();
        let mut search = match hint {
            Some(h) => DepthSearch::with_hint(width, h),
            None => DepthSearch::new(width),
        };
        let mut op_latency = SimDuration::ZERO;
        let mut probes = 0;
        loop {
            let guess = if adaptive {
                search.next_guess()
            } else {
                self.config.initial_depth
            };
            let group_guess = Prefix::of_key(key, guess);
            let h = self.hasher.hash_key(group_guess.virtual_key());
            let start = self.net.random_alive(&mut self.rng);
            probes += 1;
            let owner = if batched {
                // Queue for flush: same control flow and RNG draws, but
                // DHT routing and all message/latency charging wait for
                // [`ClashCluster::flush_batch`]. The search itself runs
                // live against server tables (tables only change at
                // barriers), so the result is exactly the sequential one.
                self.net.owner_of(h).expect("ring is non-empty")
            } else {
                // Charge now.
                let lookup = (self.net).find_successor_path(start, h, &mut self.wire.hops);
                self.wire
                    .charge_probe_route(start, lookup.owner, &mut op_latency)?;
                self.wire.msgs.probes += 1;
                self.wire.msgs.probe_messages += u64::from(lookup.hops) + 1;
                lookup.owner
            };
            let found = if adaptive {
                let responder = self.servers.live_mut(owner.value());
                let response = responder.handle_accept_object(key, guess);
                match search.record(guess, response)? {
                    SearchOutcome::Found { depth, .. } => Some(depth),
                    SearchOutcome::Continue { .. } => None,
                }
            } else {
                Some(guess)
            };
            if batched {
                self.batch.probes.push(PlannedProbe {
                    start,
                    target: h,
                    owner,
                    op_end: found.is_some(),
                    key_bits: key.bits(),
                    depth: guess,
                    hops: 0,
                });
            } else if adaptive {
                self.obs.trace(|| TraceEventKind::LocateProbe {
                    key: key.bits(),
                    depth: guess,
                    server: owner.value(),
                    accepted: found.is_some(),
                    hop: probes,
                });
            }
            let Some(depth) = found else {
                continue;
            };
            if !batched {
                self.wire.msgs.locates += 1;
                self.wire.latency.locate.observe(ms(op_latency));
            }
            if !adaptive {
                self.materialize_baseline_group(group_guess, owner)?;
            }
            return Ok(Placement {
                server: owner,
                group: Prefix::of_key(key, depth),
                depth,
                probes,
            });
        }
    }

    /// Lazily installs a baseline group on its owner (the baseline has
    /// up to `2^x` groups; they materialize on first touch).
    fn materialize_baseline_group(
        &mut self,
        group: Prefix,
        owner: ServerId,
    ) -> Result<(), ClashError> {
        let server = self.servers.live_mut(owner.value());
        if server.table().entry(group).is_none() {
            server.bootstrap_root(group)?;
            self.candidates.mark_dirty(owner.value());
            self.oracle.insert(group, owner);
            self.data.ledgers.insert(group, GroupLedger::default());
            self.ensure_replicas(group, owner);
        }
        Ok(())
    }

    /// True while client locates should plan into the batch instead of
    /// routing synchronously. Requires `shards != 0` (opt-in), the
    /// adaptive protocol (the fixed-depth baseline lazily materializes
    /// groups mid-locate, which is inherently sequential), and an
    /// unpartitioned transport (charging at the op aborts an attach
    /// *before* its ledger mutation when a probe hits the cut — a
    /// divergence batching cannot reproduce, so it steps aside).
    pub(super) fn batching_active(&self) -> bool {
        self.config.shards > 0
            && self.config.splitting_enabled
            && !self.wire.transport.is_partitioned()
    }

    /// Routes and charges every planned probe and pushes every deferred
    /// group-load update. Runs automatically at every barrier (load
    /// check, membership change, partition, driver sample); a no-op when
    /// nothing is batched, so it is always safe to call before reading
    /// message stats, latency metrics or server loads.
    ///
    /// # Errors
    ///
    /// Propagates charging errors; none occur in correct operation
    /// (batch windows never span a partition).
    pub fn flush_batch(&mut self) -> Result<(), ClashError> {
        if !self.batch.probes.is_empty() {
            self.flush_batch_probes()?;
        }
        for group in std::mem::take(&mut self.batch.touched) {
            self.push_group_load(group)?;
        }
        Ok(())
    }

    /// Debug builds: how many route phases have passed the
    /// zero-cluster-RNG-draw cross-check. The regression test in this
    /// module uses it to prove the instrumented path actually ran.
    #[cfg(debug_assertions)]
    pub fn route_draw_checks(&self) -> u64 {
        self.batch.route_draw_checks
    }

    /// The route + charge phases of the batch (see [`LocateBatch`]).
    fn flush_batch_probes(&mut self) -> Result<(), ClashError> {
        let mut probes = std::mem::take(&mut self.batch.probes);
        let this_flush = self.batch.flush_seq;
        self.obs.trace(|| TraceEventKind::FlushBegin {
            flush_seq: this_flush,
            probes: probes.len() as u64,
            shards: u64::from(self.config.shards),
        });
        self.obs.phase_begin(CheckPhase::FlushPlan);
        // Runtime mirror of the clash-lint static rules: from here until
        // routing finishes, the cluster RNG must not advance — routing is
        // pure, so any draw here would make results depend on batch
        // timing.
        #[cfg(debug_assertions)]
        let draws_at_freeze = self.rng.draw_count();
        self.batch.flush_seq += 1;
        self.obs.phase_end(CheckPhase::FlushPlan);
        self.obs.phase_begin(CheckPhase::FlushRoute);
        // Route phase: resolve every probe, in plan order, and lay out
        // every transport message of the flush in that same order — each
        // probe's routing hops, then its owner→start response. The
        // message and delivery vectors live for this flush only: kept
        // between flushes they stay 1.4 GB resident in `scale`'s
        // 1M-server cell and buy no measurable time on any workload.
        let mut send_specs: Vec<SendSpec> = Vec::with_capacity(probes.len() * 2);
        for plan in &mut probes {
            let hops = &mut self.wire.hops;
            let lookup = self.net.route_path(plan.start, plan.target, hops);
            debug_assert_eq!(
                lookup.owner, plan.owner,
                "batch window spanned a ring change: routed owner diverged from plan"
            );
            plan.hops = lookup.hops;
            send_specs.extend(hops.iter().map(|&(from, to)| SendSpec {
                src: from.value(),
                dst: to.value(),
                class: MessageClass::Probe,
            }));
            send_specs.push(SendSpec {
                src: plan.owner.value(),
                dst: plan.start.value(),
                class: MessageClass::ProbeResponse,
            });
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.rng.draw_count(),
                draws_at_freeze,
                "route phase drew from the cluster RNG; results would depend on batch timing"
            );
            self.batch.route_draw_checks += 1;
        }
        self.obs.phase_end(CheckPhase::FlushRoute);
        self.obs.phase_begin(CheckPhase::FlushMerge);
        // Charge phase, pass 1: resolve the whole sequence in one
        // [`Transport::send_batch`]. The batch contract guarantees
        // the same deliveries, stats, and per-link draw order as the
        // equivalent `send` loop; pre-resolving ahead of the accounting
        // replay is safe because a flush only ever runs on a connected
        // transport (see `partition_network` / `heal_partition`), so
        // the sequential loop could never have aborted mid-probe and
        // skipped later sends.
        let mut deliveries: Vec<Delivery> = Vec::new();
        self.wire.transport.send_batch(&send_specs, &mut deliveries);
        // Pass 2: replay the per-op accounting over the resolved
        // deliveries in the same plan order — hop stats, probe
        // counters, and the locate latency observation at each op's
        // final probe. Unreachable deliveries surface the same error at
        // the same position the sequential loop would have raised it.
        let mut op_latency = SimDuration::ZERO;
        let mut op_hop = 0_u32;
        let mut cursor = 0usize;
        for plan in probes {
            self.net.record_routed_lookup(plan.hops);
            for _ in 0..=plan.hops {
                match deliveries[cursor] {
                    Delivery::Delivered { latency, .. } => op_latency += latency,
                    Delivery::Unreachable { .. } => {
                        let space = plan.start.space();
                        return Err(ClashError::NetworkUnreachable {
                            from: ChordId::new(send_specs[cursor].src, space),
                            to: ChordId::new(send_specs[cursor].dst, space),
                        });
                    }
                }
                cursor += 1;
            }
            self.wire.msgs.probes += 1;
            self.wire.msgs.probe_messages += u64::from(plan.hops) + 1;
            op_hop += 1;
            self.obs.trace(|| TraceEventKind::LocateProbe {
                key: plan.key_bits,
                depth: plan.depth,
                server: plan.owner.value(),
                accepted: plan.op_end,
                hop: op_hop,
            });
            if plan.op_end {
                self.wire.msgs.locates += 1;
                self.wire.latency.locate.observe(ms(op_latency));
                op_latency = SimDuration::ZERO;
                op_hop = 0;
            }
        }
        debug_assert_eq!(
            cursor,
            deliveries.len(),
            "charge replay must consume every delivery"
        );
        self.obs.phase_end(CheckPhase::FlushMerge);
        self.obs.trace(|| TraceEventKind::FlushEnd {
            flush_seq: this_flush,
        });
        Ok(())
    }

    /// Attaches a streaming data source: locates the key's group and adds
    /// the source's rate to it.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the source id is already
    /// attached; propagates locate errors.
    pub fn attach_source(
        &mut self,
        source_id: u64,
        key: Key,
        rate: f64,
    ) -> Result<Placement, ClashError> {
        self.attach_source_hinted(source_id, key, rate, None)
    }

    /// [`ClashCluster::attach_source`] with a depth hint.
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::attach_source`].
    pub fn attach_source_hinted(
        &mut self,
        source_id: u64,
        key: Key,
        rate: f64,
        hint: Option<u32>,
    ) -> Result<Placement, ClashError> {
        if self.data.sources.contains_key(&source_id) {
            return Err(ClashError::InvalidConfig {
                reason: "source id already attached",
            });
        }
        let placement = self.locate_hinted(key, hint)?;
        let ledger = self.data.ledgers.entry(placement.group).or_default();
        Arc::make_mut(&mut ledger.sources).push(source_id);
        ledger.rate += rate;
        self.data.sources.insert(
            source_id,
            SourceRec {
                key,
                rate,
                group: placement.group,
            },
        );
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a source (data-plane only; no protocol messages).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for unknown ids.
    pub fn detach_source(&mut self, source_id: u64) -> Result<(), ClashError> {
        let rec = self
            .data
            .sources
            .remove(&source_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })?;
        let ledger = self
            .data
            .ledgers
            .get_mut(&rec.group)
            .expect("attached source has a ledger");
        Arc::make_mut(&mut ledger.sources).retain(|&s| s != source_id);
        ledger.rate = (ledger.rate - rec.rate).max(0.0);
        self.push_group_load_batched(rec.group)?;
        self.cleanup_baseline_group(rec.group)?;
        Ok(())
    }

    /// In the fixed-depth baseline, groups materialize lazily on first
    /// touch; symmetrically, an emptied group is dematerialized so a long
    /// `DHT(24)` run does not accumulate millions of dead entries.
    fn cleanup_baseline_group(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.config.splitting_enabled {
            return Ok(());
        }
        let empty = self
            .data
            .ledgers
            .get(&group)
            .is_some_and(|l| l.sources.is_empty() && l.queries.is_empty());
        if !empty {
            return Ok(());
        }
        self.data.ledgers.remove(&group);
        if let Some(owner) = self.oracle.owner(group) {
            self.invalidate_replicas(group, owner);
            self.oracle.remove(group);
            let server = self
                .servers
                .get_mut(owner.value())
                .ok_or(ClashError::UnknownServer { server: owner })?;
            let _ = server.handle_release_keygroup(group);
            self.candidates.mark_dirty(owner.value());
        }
        Ok(())
    }

    /// Moves a source to a new key (the paper's "virtual stream" key
    /// change): detach, then re-locate with the previous depth as hint.
    ///
    /// # Errors
    ///
    /// Propagates detach/attach errors.
    pub fn move_source(&mut self, source_id: u64, new_key: Key) -> Result<Placement, ClashError> {
        self.move_source_with_rate(source_id, new_key, None)
    }

    /// [`ClashCluster::move_source`] with an optional new rate (workload
    /// phase changes alter per-source rates at the next key change).
    ///
    /// # Errors
    ///
    /// Propagates detach/attach errors.
    pub fn move_source_with_rate(
        &mut self,
        source_id: u64,
        new_key: Key,
        new_rate: Option<f64>,
    ) -> Result<Placement, ClashError> {
        let rec = self
            .data
            .sources
            .get(&source_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })?;
        let hint = rec.group.depth();
        let rate = new_rate.unwrap_or(rec.rate);
        self.detach_source(source_id)?;
        self.attach_source_hinted(source_id, new_key, rate, Some(hint))
    }

    /// Attaches a continuous query object to its key's group.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the query id is already
    /// attached; propagates locate errors.
    pub fn attach_query(&mut self, query_id: u64, key: Key) -> Result<Placement, ClashError> {
        if self.data.queries.contains_key(&query_id) {
            return Err(ClashError::InvalidConfig {
                reason: "query id already attached",
            });
        }
        let placement = self.locate(key)?;
        let ledger = self.data.ledgers.entry(placement.group).or_default();
        Arc::make_mut(&mut ledger.queries).push(query_id);
        self.data.queries.insert(
            query_id,
            QueryRec {
                key,
                group: placement.group,
            },
        );
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a query (e.g. its client's lifetime expired).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for unknown ids.
    pub fn detach_query(&mut self, query_id: u64) -> Result<(), ClashError> {
        let rec = self
            .data
            .queries
            .remove(&query_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown query id",
            })?;
        let ledger = self
            .data
            .ledgers
            .get_mut(&rec.group)
            .expect("attached query has a ledger");
        Arc::make_mut(&mut ledger.queries).retain(|&q| q != query_id);
        self.push_group_load_batched(rec.group)?;
        self.cleanup_baseline_group(rec.group)?;
        Ok(())
    }
    /// Defers the load report while a batch window is open (last write
    /// wins: only the final rate before a barrier is observable, and
    /// nothing reads owner loads between barriers), otherwise pushes
    /// immediately. Used at the four client-op sites only — split,
    /// merge and recovery push synchronously because their reports are
    /// part of a barrier.
    fn push_group_load_batched(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.batching_active() {
            self.batch.touched.insert(group);
            Ok(())
        } else {
            self.push_group_load(group)
        }
    }

    pub(super) fn push_group_load(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.recovery.pending.contains_key(&group) {
            // The group is waiting for a partition-deferred promotion: it
            // has no live owner to push to. The ledger update stands and
            // is reconciled when the group comes back.
            return Ok(());
        }
        let owner = self
            .oracle
            .owner(group)
            .ok_or(ClashError::UnknownGroup { group })?;
        let load = self.data.ledgers.get(&group).map(|l| l.load());
        self.servers
            .get_mut(owner.value())
            .ok_or(ClashError::UnknownServer { server: owner })?
            .set_group_load(group, load.unwrap_or_default())?;
        self.candidates.mark_dirty(owner.value());
        if self.replication_enabled() {
            self.refresh_replica_payloads(group, owner);
        }
        Ok(())
    }

    /// Distributed range query (the §7 extension): locates the group
    /// containing the range start, then walks right through consecutive
    /// groups until the range is covered, counting the protocol cost of
    /// each hop. Because CLASH clusters prefix ranges, the walk usually
    /// touches very few servers — the paper's argument for why range
    /// queries get *cheaper* under CLASH than under a scattering DHT.
    ///
    /// # Errors
    ///
    /// Propagates locate errors; returns [`ClashError::InvalidConfig`]
    /// if the walk exceeds 4096 groups (guard against mis-use on the
    /// fine-grained baseline).
    pub fn range_query(&mut self, range: Prefix) -> Result<RangeQueryResult, ClashError> {
        // Both snapshots are taken on a closed batch window, so the
        // difference is exactly this walk's probes whatever `shards` is.
        self.flush_batch()?;
        let before = self.wire.msgs;
        let mut groups: Vec<(Prefix, ServerId)> = Vec::new();
        let mut key = range.min_key();
        let range_end = range.max_key().bits();
        loop {
            if groups.len() >= 4096 {
                return Err(ClashError::InvalidConfig {
                    reason: "range query would visit more than 4096 groups",
                });
            }
            let placement = self.locate(key)?;
            groups.push((placement.group, placement.server));
            let group_end = placement.group.max_key().bits();
            // Done when the found group covers the rest of the range.
            if group_end >= range_end {
                break;
            }
            key = Key::new(group_end + 1, self.config.key_width)
                .expect("group end below range end is in range");
        }
        let mut servers: Vec<ServerId> = groups.iter().map(|&(_, s)| s).collect();
        servers.sort_unstable();
        servers.dedup();
        self.flush_batch()?;
        let after = self.wire.msgs;
        Ok(RangeQueryResult {
            distinct_servers: servers.len(),
            groups,
            probes: (after.probes - before.probes) as u32,
            messages: after.control_messages() - before.control_messages(),
        })
    }

    /// Server-assisted depth determination (§5's closing note: "this
    /// estimation of the correct depth can be performed … by a server
    /// that uses this algorithm to query its peer servers, rather than
    /// assigning the lookup burden to the client"). The client pays one
    /// round trip to a random proxy server; the proxy runs the search.
    ///
    /// # Errors
    ///
    /// See [`ClashCluster::locate`].
    pub fn locate_assisted(&mut self, key: Key) -> Result<Placement, ClashError> {
        // Client → proxy request and proxy → client response.
        self.wire.msgs.probe_messages += 2;
        // The proxy runs the standard search; probes route from the proxy
        // (already how locate() accounts its hops).
        self.locate(key)
    }
}
