//! Client operations (§5): the depth search that locates a key's group,
//! the locate window its probes are planned into and the one flush that
//! routes and charges them, and the attach / detach / move calls that
//! put sources and queries on the group the search found.

use clash_chord::id::ChordId;
use clash_chord::net::SimNet;
use clash_keyspace::hash::KeyHasher;
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_obs::{CheckPhase, TraceEventKind};
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::MessageClass;

use super::accounting::{Obs, Wire};
use super::ClashCluster;
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

/// One planned locate probe — everything the flush needs to route it,
/// send its hops and account it (see [`LocateBatch`]).
#[derive(Debug, Clone, Copy)]
struct PlannedProbe {
    /// Client entry node (the `random_alive` draw, made at plan time so
    /// the cluster RNG advances in exact op order).
    start: ServerId,
    /// Hashed probe target `f(virtual key)`.
    target: u64,
    /// The owner by ground truth. A window never spans a membership
    /// event, so the routed owner must agree (debug-asserted).
    owner: ServerId,
    /// True when this probe completed its locate (for the adaptive
    /// protocol, the accepting probe): the flush counts the locate and
    /// observes the op's accumulated latency here.
    op_end: bool,
    /// The located key's bits and the depth guessed, for the
    /// flight-recorder probe event the flush emits in plan order.
    key_bits: u64,
    depth: u32,
    /// Routed hop count: 0 until the flush's route phase fills it in.
    hops: u32,
    /// The probe's chain ordinal, taken at plan time so ordinals follow
    /// op order however the window closes (see [`Wire`]).
    ordinal: u64,
}

/// Probes a window holds before it closes itself: one
/// [`Wire::dispatch`]'s worth. Unbounded, a window held
/// `churn_wan_sharded` 20 % above its twin's `peak_rss_mb`; 512 reads
/// 4–8 % below 8 192-probe windows at events/s inside their spread
/// (ARCHITECTURE.md § Locate windows). A power of two, so `probes`
/// doubles onto exactly this capacity; [`Wire`] reserves its dispatch
/// buffers for it once.
pub(super) const WINDOW_PROBES: usize = 512;

/// The locate window. A client probe is priced in two steps. **Plan**
/// (at the op): draw the entry node, resolve the owner by ground truth,
/// read its answer off its live table, advance the depth search, queue a
/// `PlannedProbe`; ledger mutations stay synchronous, load pushes
/// coalesce into `touched`. **Flush** (`flush_batch_probes`, the only
/// code that routes a client probe, sends its hops or counts it): route
/// each probe in plan order against the live ring — frozen in effect,
/// every ring mutation being a barrier that flushes first — its hops
/// going straight into the dispatch ([`Wire::route`]), close its
/// [`Wire`] chain with its response, send the window in one dispatch,
/// replay the accounting from each chain's outcome. Only *when* the
/// window closes varies: at a barrier
/// ([`ClashCluster::flush_batch`]), at [`WINDOW_PROBES`], or per probe
/// (`window_may_stay_open`) — unobservably: `tests/window_equivalence.rs`
/// and the `windowed_locates_match_probe_by_probe` proptest pin it bit
/// for bit.
#[derive(Default)]
pub(super) struct LocateBatch {
    /// Probes planned but not yet routed/charged.
    probes: Vec<PlannedProbe>,
    /// Latency and probe ordinal of the op being replayed: its probes
    /// may be charged by several flushes.
    op_latency: SimDuration,
    op_hop: u32,
    /// Groups with a deferred (coalesced) load push, each once (its
    /// ledger's `queued` flag) — sorted only when the window closes.
    touched: Vec<Prefix>,
    /// Monotone flush counter (the flight recorder's flush ordinal).
    pub(super) flush_seq: u64,
    /// The most probes one flush has charged (1: all closed per probe).
    pub(super) window_probes_max: u64,
    /// Debug builds: how many route phases passed the zero-cluster-RNG-draw
    /// cross-check (the runtime mirror of the clash-lint static rules).
    #[cfg(debug_assertions)]
    route_draw_checks: u64,
}

impl LocateBatch {
    /// Routes the window's probes, sends them in one [`Wire::dispatch`]
    /// and charges them. On every return, the first severed hop's
    /// `NetworkUnreachable` included, the window is empty and every span
    /// opened here closed.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn flush_batch_probes(
        &mut self,
        net: &mut SimNet,
        wire: &mut Wire,
        obs: &mut Obs,
        rng: &DetRng,
    ) -> Result<(), ClashError> {
        let planned = self.probes.len();
        let this_flush = self.flush_seq;
        self.flush_seq += 1;
        self.window_probes_max = self.window_probes_max.max(planned as u64);
        obs.trace(|| TraceEventKind::FlushBegin {
            flush_seq: this_flush,
            probes: planned as u64,
        });
        obs.phase_begin(CheckPhase::FlushRoute);
        // Runtime mirror of the clash-lint static rules: routing is pure,
        // so a cluster RNG draw before it finishes would make results
        // depend on window timing.
        #[cfg(debug_assertions)]
        let draws_at_freeze = rng.draw_count();
        // Route phase: in plan order, lay out each probe's chain — its
        // routing hops, as the ring finds them, then its owner→start
        // response.
        wire.open();
        for plan in &mut self.probes {
            let lookup = wire.route(net, plan.start, plan.target);
            debug_assert_eq!(
                lookup.owner, plan.owner,
                "locate window spanned a ring change: routed owner diverged from plan"
            );
            plan.hops = lookup.hops;
            let response = (plan.owner, plan.start, MessageClass::ProbeResponse);
            wire.lay_out_as(plan.ordinal, &[response]);
        }
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                rng.draw_count(),
                draws_at_freeze,
                "route phase drew from the cluster RNG; results would depend on window timing"
            );
            self.route_draw_checks += 1;
        }
        obs.phase_end(CheckPhase::FlushRoute);
        obs.phase_begin(CheckPhase::FlushMerge);
        // Charge phase: one dispatch, then the accounting replayed in plan
        // order: hop stats, probe counters, each op's latency.
        wire.dispatch();
        let mut charged = Ok(());
        for plan in &self.probes {
            net.record_routed_lookup(plan.hops);
            if let Err(cut) = wire.next_chain(&mut self.op_latency) {
                let space = plan.start.space();
                charged = Err(ClashError::NetworkUnreachable {
                    from: ChordId::new(cut.src, space),
                    to: ChordId::new(cut.dst, space),
                });
                // The op died at the cut: its latency dies with it.
                self.op_latency = SimDuration::ZERO;
                self.op_hop = 0;
                break;
            }
            wire.msgs.probes += 1;
            wire.msgs.probe_messages += u64::from(plan.hops) + 1;
            self.op_hop += 1;
            obs.trace(|| TraceEventKind::LocateProbe {
                key: plan.key_bits,
                depth: plan.depth,
                server: plan.owner.value(),
                accepted: plan.op_end,
                hop: self.op_hop,
            });
            if plan.op_end {
                wire.msgs.locates += 1;
                let op_latency = std::mem::take(&mut self.op_latency);
                wire.latency.locate.observe(ms(op_latency));
                self.op_hop = 0;
            }
        }
        obs.phase_end(CheckPhase::FlushMerge);
        self.probes.clear();
        obs.trace(|| TraceEventKind::FlushEnd {
            flush_seq: this_flush,
        });
        charged
    }
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
        let per_probe = !self.window_may_stay_open();
        let width = self.config.key_width.get();
        let mut search = match hint {
            Some(h) => DepthSearch::with_hint(width, h),
            None => DepthSearch::new(width),
        };
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
            let owner = self.net.owner_of(h).expect("ring is non-empty");
            probes += 1;
            // Plan: the answer is read off the owner's live table (tables
            // only change at barriers); routing and charging wait.
            let responder = adaptive.then(|| self.servers.live_mut(owner.value()));
            let found = match &responder {
                Some(server) => {
                    let response = server.table().classify_object(key, guess);
                    match search.record(guess, response)? {
                        SearchOutcome::Found { depth, .. } => Some(depth),
                        SearchOutcome::Continue { .. } => None,
                    }
                }
                None => Some(guess),
            };
            self.batch.probes.push(PlannedProbe {
                start,
                target: h,
                owner,
                op_end: found.is_some(),
                key_bits: key.bits(),
                depth: guess,
                hops: 0,
                ordinal: self.wire.take_ordinal(),
            });
            if per_probe || self.batch.probes.len() >= WINDOW_PROBES {
                self.batch.flush_batch_probes(
                    &mut self.net,
                    &mut self.wire,
                    &mut self.obs,
                    &self.rng,
                )?;
            }
            // The probe arrives: just sent, or on a connected network.
            if let Some(server) = responder {
                server.count_probe_answered();
            }
            let Some(depth) = found else {
                continue;
            };
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
            self.data.open_group(group);
            self.ensure_replicas(group, owner);
        }
        Ok(())
    }

    /// True while the window may outlive its probe and defer load
    /// pushes: not for the fixed-depth baseline (it materializes and
    /// dematerializes groups around its locates) nor under a partition (a
    /// probe that hits the cut aborts its op ahead of any mutation).
    fn window_may_stay_open(&self) -> bool {
        self.config.splitting_enabled && !self.wire.transport.is_partitioned()
    }

    /// Closes the locate window: routes and charges every planned probe
    /// and pushes every deferred group-load update. Every barrier (load
    /// check, membership change, partition, policy change, stats reset,
    /// driver sample) runs it; a no-op on a closed window.
    ///
    /// **The rule:** message stats, latency metrics, transport stats,
    /// telemetry, `net().stats()` and server loads are as of the last
    /// flush — call this before reading them after a client operation
    /// (the `&self` accessors debug-assert it).
    ///
    /// # Errors
    ///
    /// Propagates charging errors; none occur in correct operation (a
    /// window that outlives its op never spans a partition).
    pub fn flush_batch(&mut self) -> Result<(), ClashError> {
        if !self.batch.probes.is_empty() {
            self.batch.flush_batch_probes(
                &mut self.net,
                &mut self.wire,
                &mut self.obs,
                &self.rng,
            )?;
        }
        // Pushed in ascending group order (`unqueue` sorts), so the push
        // sequence depends on which groups the ops touched, not on the
        // order they touched them in.
        let mut touched = std::mem::take(&mut self.batch.touched);
        self.data.unqueue(&mut touched);
        for &group in &touched {
            self.push_group_load(group)?;
        }
        touched.clear();
        self.batch.touched = touched;
        Ok(())
    }

    /// Debug builds: an open window would change what the caller reads.
    pub(super) fn debug_assert_window_closed(&self) {
        debug_assert!(
            self.batch.probes.is_empty() && self.batch.touched.is_empty(),
            "locate window is open: call `flush_batch()` first"
        );
    }

    /// Debug builds: how many route phases have passed the
    /// zero-cluster-RNG-draw cross-check (proof the check actually ran).
    #[cfg(debug_assertions)]
    pub fn route_draw_checks(&self) -> u64 {
        self.batch.route_draw_checks
    }

    /// Attaches a streaming data source: locates the key's group and adds
    /// the source's rate to it.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the source id is already
    /// attached or is `u64::MAX` (reserved; every other id is
    /// attachable); propagates locate errors.
    pub fn attach_source(
        &mut self,
        source_id: u64,
        key: Key,
        rate: f64,
    ) -> Result<Placement, ClashError> {
        if let Some(reason) = self.data.source_refusal(source_id) {
            return Err(ClashError::InvalidConfig { reason });
        }
        let placement = self.locate(key)?;
        self.data
            .attach_source(source_id, key, rate, placement.group);
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a source (data-plane only; no protocol messages).
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] for unknown ids.
    pub fn detach_source(&mut self, source_id: u64) -> Result<(), ClashError> {
        let group = self
            .data
            .detach_source(source_id)
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })?;
        self.left_group(group)
    }

    /// A member left `group`: push its load, and dematerialize it if that
    /// emptied a baseline group.
    fn left_group(&mut self, group: Prefix) -> Result<(), ClashError> {
        self.push_group_load_batched(group)?;
        self.cleanup_baseline_group(group)
    }

    /// In the fixed-depth baseline, groups materialize lazily on first
    /// touch; symmetrically, an emptied group is dematerialized so a long
    /// `DHT(24)` run does not accumulate millions of dead entries.
    fn cleanup_baseline_group(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.config.splitting_enabled {
            return Ok(());
        }
        if !self.data.close_group_if_empty(group) {
            return Ok(());
        }
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
    /// A failed re-locate leaves the source detached.
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
    /// Returns [`ClashError::InvalidConfig`] for unknown ids; propagates
    /// detach/attach errors.
    pub fn move_source_with_rate(
        &mut self,
        source_id: u64,
        new_key: Key,
        new_rate: Option<f64>,
    ) -> Result<Placement, ClashError> {
        self.rekey_source(source_id, new_rate, || new_key)?
            .ok_or(ClashError::InvalidConfig {
                reason: "unknown source id",
            })
    }

    /// [`ClashCluster::move_source_with_rate`] for a stream that may have
    /// ended: `Ok(None)` if `source_id` is not attached (its group was
    /// lost in an unrecoverable crash). `draw_key` is called only for a
    /// live source, so a driver that draws keys from its own random
    /// stream draws exactly as often as it re-keys.
    ///
    /// # Errors
    ///
    /// Propagates detach/attach errors.
    pub fn rekey_source(
        &mut self,
        source_id: u64,
        new_rate: Option<f64>,
        draw_key: impl FnOnce() -> Key,
    ) -> Result<Option<Placement>, ClashError> {
        // The record stays in the registry (nothing reads it before the
        // re-locate ends) and is rewritten in place.
        let Some((group, rate)) = self.data.unlink_source(source_id) else {
            return Ok(None);
        };
        let new_key = draw_key();
        let rate = new_rate.unwrap_or(rate);
        let placed = self
            .left_group(group)
            .and_then(|()| self.locate_hinted(new_key, Some(group.depth())));
        let placement = match placed {
            Ok(placement) => placement,
            Err(e) => {
                self.data.forget_source(source_id);
                return Err(e);
            }
        };
        self.data
            .relink_source(source_id, new_key, rate, placement.group);
        self.push_group_load_batched(placement.group)?;
        Ok(Some(placement))
    }

    /// Attaches a continuous query object to its key's group.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] if the query id is already
    /// attached or is `u64::MAX` (reserved; every other id is
    /// attachable); propagates locate errors.
    pub fn attach_query(&mut self, query_id: u64, key: Key) -> Result<Placement, ClashError> {
        if let Some(reason) = self.data.query_refusal(query_id) {
            return Err(ClashError::InvalidConfig { reason });
        }
        let placement = self.locate(key)?;
        self.data.attach_query(query_id, key, placement.group);
        self.push_group_load_batched(placement.group)?;
        Ok(placement)
    }

    /// Detaches a query (e.g. its client's lifetime expired). Returns
    /// `false` if `query_id` was not attached (it died with a group lost
    /// in an unrecoverable crash).
    ///
    /// # Errors
    ///
    /// Propagates the release of a group the query leaves empty.
    pub fn detach_query(&mut self, query_id: u64) -> Result<bool, ClashError> {
        let Some(group) = self.data.detach_query(query_id) else {
            return Ok(false);
        };
        self.left_group(group).map(|()| true)
    }

    /// Defers the load report while the window may stay open (last write
    /// wins: nothing reads owner loads between barriers), otherwise
    /// pushes immediately. For the four client ops only — split, merge
    /// and recovery push synchronously, inside a barrier.
    fn push_group_load_batched(&mut self, group: Prefix) -> Result<(), ClashError> {
        if self.window_may_stay_open() {
            self.data.queue_push(group, &mut self.batch.touched);
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
        let load = self.data.ledger(group).map(|l| l.load());
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
        // Both snapshots are taken on a closed window, so the difference
        // is exactly this walk's probes.
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
