//! The simulator: event loop, node hosting and fault injection.
//!
//! [`Simulator`] owns the nodes (each a [`Firmware`] plus a [`Radio`] and a
//! position), the shared [`Medium`] and the event queue, and advances
//! virtual time event by event. See the crate-level docs for the overall
//! model; this module implements the mechanics:
//!
//! * **Transmission** — a `Transmit` command registers an [`ActiveTx`] on
//!   the medium, schedules its end, and immediately decides which other
//!   nodes lock onto it (listening + audible) or suffer it as
//!   interference.
//! * **Reception** — at the frame's end each locked receiver asks the
//!   medium to judge the attempt against noise and the worst interference
//!   overlap; winners get `on_frame`, losers are counted by reason.
//! * **Capture** — a ≥6 dB stronger frame arriving during the preamble of
//!   the currently locked frame steals the receiver.
//! * **Timers** — firmware exposes `next_wake()`; the simulator keeps at
//!   most one live timer per node and ignores stale ones.
//! * **Faults** — nodes can be killed (radio off, mid-frame transmissions
//!   truncated) and revived at scheduled instants.
//!
//! [`ActiveTx`]: crate::medium::ActiveTx

use std::time::Duration;

use lora_phy::modulation::LoRaModulation;
use lora_phy::power::Dbm;
use lora_phy::propagation::Position;

use crate::event::{EventQueue, FrameId, SimEvent};
use crate::firmware::{Context, Firmware, NodeId, RadioCommand};
use crate::grid::Grid;
use crate::link_cache::{Link, LinkCache, LinkRow};
use crate::medium::{Medium, RfConfig, RxOutcome};
use crate::metrics::Metrics;
use crate::mobility::{Mobility, MobilityState};
use crate::par;
use crate::radio::{Radio, RadioState, Reception};
use crate::rng::SimRng;
use crate::shard::{self, Partitioner};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// Worker regions are only spun up when at least this many independent
/// items are queued; below it, spawn overhead dwarfs the work.
const PAR_MIN_ITEMS: usize = 64;

/// Minimum link-row prefetch items *per worker* before the fork-join
/// pays for itself. A compile-time constant measured offline with
/// `scripts/bench.sh` (runtime timing is banned in this crate — lint
/// `d2` — and would make the gate nondeterministic across hosts): row
/// fills are ~1 µs each, thread park/unpark costs tens of µs, so a
/// worker needs on the order of a hundred rows to win. Below the
/// threshold the coordinator fills rows inline, which is what fixed the
/// mobile 4096-node `threads > 1` throughput regression: its wake-gated
/// prefetch batches are usually far smaller than the node count.
const PREFETCH_MIN_PER_WORKER: usize = 128;

/// Simulation-wide configuration.
///
/// Besides RF and tracing settings it carries three engine knobs —
/// [`SimConfig::shards`], [`SimConfig::threads`] and
/// [`SimConfig::rng_streams`]. The link cache, the spatial grid and the
/// timer tombstones are not optional.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RF parameters shared by all nodes.
    pub rf: RfConfig,
    /// Duration of a CAD scan, in symbol times (SX127x: ~2).
    pub cad_symbols: u32,
    /// Capacity of the debug trace (0 disables tracing).
    pub trace_capacity: usize,
    /// Interval between mobility position updates.
    pub mobility_tick: Duration,
    /// Number of spatial shards the event engine partitions the world
    /// into (see [`crate::shard`]). `1` (the default) runs the classic
    /// sequential engine; `> 1` gives each spatial band its own calendar
    /// queue, range-scoped medium roster and range-scoped link-cache
    /// invalidation, merged under a conservative lookahead window.
    /// Behaviourally transparent — traces, metrics, RNG draws and
    /// firmware callbacks are byte-identical for every shard count; only
    /// the stale-timer drop *timing* differs (tests/shard_diff.rs) — so
    /// the sequential engine remains the differential reference.
    pub shards: usize,
    /// Number of worker threads for the evaluate regions: mobility
    /// stepping and link-row prefetch (see [`crate::par`]). Events are
    /// always dispatched one at a time on the coordinator thread; `1`
    /// (the default) also runs the evaluate regions there and never
    /// touches thread machinery. Behaviourally transparent for every
    /// value — each item is a pure function of its own inputs and
    /// results merge in item order — so traces, metrics and RNG draws
    /// are byte-identical across thread counts under either RNG
    /// derivation (tests/shard_diff.rs).
    pub threads: usize,
    /// Derive per-node RNG streams with the counter-keyed
    /// [`SimRng::stream`] derivation (pure in `(master seed, node id)`)
    /// instead of the classic [`SimRng::fork`] from the root generator's
    /// state. Both derivations are engine-invariant — streams are minted
    /// once per node at [`Simulator::add_mobile_node`], so shard and
    /// thread counts never touch them — but they produce different
    /// draws, so the fork derivation stays the default as the pinned
    /// differential reference; tests/shard_diff.rs runs the whole
    /// battery under both, and no engine configuration requires either.
    pub rng_streams: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rf: RfConfig::default(),
            cad_symbols: 2,
            trace_capacity: 0,
            mobility_tick: Duration::from_secs(1),
            shards: 1,
            threads: 1,
            rng_streams: false,
        }
    }
}

/// The dispatch half of a node: firmware, radio state machine and timer
/// bookkeeping. Only the coordinator thread touches it — every event is
/// dispatched there — so firmware never crosses threads.
struct NodeSlot<F> {
    firmware: F,
    radio: Radio,
    /// The firmware wake time for which a timer event is pending.
    scheduled_wake: Option<Duration>,
}

/// The per-node state the evaluate regions work on (positions for link
/// math and mobility, liveness gates), split out of [`NodeSlot`] so it
/// can cross worker threads without the firmware type: link-row
/// prefetch reads it by `&` reference, mobility stepping advances it
/// chunk by chunk.
struct NodeState {
    position: Position,
    mobility: MobilityState,
    alive: bool,
}

/// Runtime state of the sharded engine, built at [`Simulator::start`]
/// when [`SimConfig::shards`] > 1.
///
/// Each spatial band owns a calendar queue holding the *internal* events
/// (timers, `TxEnd`/`RxEnd`/CAD) of the nodes homed there; externally
/// injected events (app traffic, faults, mobility ticks) stay on the
/// coordinator queue ([`Simulator::queue`]), which also allocates every
/// sequence number so `(time, seq)` remains one global total order. The
/// run loop merges all queues in exactly that order — which is why the
/// sharded engine is byte-identical to the sequential one — and uses the
/// lookahead window to drain one band's queue in batches (see
/// [`crate::shard`] for the partitioning and lookahead arguments).
struct ShardState {
    /// The fixed spatial partition (band edges never move).
    parts: Partitioner,
    /// Each node's home queue: its band at the moment it was added.
    /// Fixed for the node's lifetime even if it migrates across band
    /// edges — routing is a pure load-balancing choice (the merge is
    /// global), and a fixed home keeps each queue's timer-generation
    /// table authoritative for its nodes.
    home: Vec<usize>,
    /// One calendar queue per band.
    queues: Vec<EventQueue>,
    /// δ: the conservative lookahead window (one preamble airtime).
    lookahead: Duration,
    /// Per band: in-flight transmissions visible there (every tx whose
    /// origin is within `r_max` of the band), ascending by frame id —
    /// frame ids are allocated monotonically, so pushes keep it sorted.
    active: Vec<Vec<(FrameId, NodeId, Position)>>,
    /// Scratch: bands touched by the current mobility tick.
    touched: Vec<bool>,
}

impl ShardState {
    /// Registers a transmission in every band it can reach.
    fn register(&mut self, frame: FrameId, sender: NodeId, origin: Position) {
        let (lo, hi) = self.parts.reach(origin.x);
        for band in lo..=hi {
            self.active[band].push((frame, sender, origin));
        }
    }

    /// Removes a transmission from every band it was registered in.
    /// Reach is recomputed from the (immutable) origin, so registration
    /// and removal always agree.
    fn unregister(&mut self, frame: FrameId, origin: Position) {
        let (lo, hi) = self.parts.reach(origin.x);
        for band in lo..=hi {
            if let Ok(pos) = self.active[band].binary_search_by_key(&frame, |e| e.0) {
                self.active[band].remove(pos);
            }
        }
    }
}

/// A deterministic discrete-event simulation of a LoRa network.
///
/// Generic over the hosted [`Firmware`] type; a run mixes protocols by
/// using an enum or trait-object firmware.
pub struct Simulator<F: Firmware> {
    config: SimConfig,
    medium: Medium,
    nodes: Vec<NodeSlot<F>>,
    /// Worker-visible per-node state, parallel to `nodes`.
    state: Vec<NodeState>,
    /// Per-node RNG streams, parallel to `nodes`. Kept out of
    /// [`NodeState`], which link-row prefetch shares across workers;
    /// mobility stepping zips the two slices chunk by chunk.
    rngs: Vec<SimRng>,
    queue: EventQueue,
    now: SimTime,
    metrics: Metrics,
    trace: Trace,
    root_rng: SimRng,
    started: bool,
    mobility_scheduled: bool,
    /// Injected per-link loss probabilities, keyed by unordered pair.
    /// A `BTreeMap` (meshlint rule D1): deterministic iteration order,
    /// so no observable behaviour can ever depend on hasher state.
    link_loss: std::collections::BTreeMap<(usize, usize), f64>,
    /// Cached link budgets for the current topology epoch.
    link_cache: LinkCache,
    /// Indices of nodes currently in [`RadioState::Rx`], kept sorted
    /// ascending. Interference sums are audibility-gated (sub-sensitivity
    /// power never enters one), so the culled fan-out no longer needs to
    /// visit receivers; this index powers the sharded engine's
    /// `TxEnd`/`kill` interferer sweeps, which visit only locked
    /// receivers instead of all N nodes. A sorted `Vec` rather than a
    /// `BTreeSet`: membership churn in the hot path must not allocate.
    rx_nodes: Vec<usize>,
    /// Reused fan-out buffer: `(node index, link)` pairs a transmission
    /// must visit, ascending (avoids a per-transmission alloc).
    fanout_scratch: Vec<(usize, Link)>,
    /// Reused firmware-command buffer for [`Simulator::fire`] (avoids a
    /// per-callback alloc).
    command_scratch: Vec<RadioCommand>,
    /// Reused in-flight-transmission snapshot for `lock_receiver`.
    interferer_scratch: Vec<(FrameId, NodeId, Position)>,
    /// Reused in-flight-transmission snapshot for `channel_busy`.
    active_scratch: Vec<(NodeId, Position)>,
    /// Events processed so far (throughput accounting for benches).
    events_processed: u64,
    /// Sharded-engine state ([`SimConfig::shards`] > 1), built at start.
    shard: Option<ShardState>,
    /// The master seed (stream derivation for [`SimConfig::rng_streams`]).
    seed: u64,
    /// Audibility bound the grid and partitioner are built with.
    audible_range: f64,
    /// Spatial candidate index bounding each link-row fill ([`crate::grid`]).
    grid: Grid,
    /// Whether `grid` must be rebuilt before its next use (positions
    /// changed: mobility tick, `set_position`, node addition).
    grid_dirty: bool,
    /// Reused candidate-index buffer for link-row fills.
    cand_scratch: Vec<usize>,
    /// Reused row-index buffer for parallel prefetch planning.
    prefetch_scratch: Vec<usize>,
    /// Reused old-x snapshot for mobility ticks.
    xs_scratch: Vec<f64>,
}

impl<F: Firmware> Simulator<F> {
    /// Creates an empty simulation with the given configuration and seed.
    #[must_use]
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let trace = Trace::new(config.trace_capacity);
        let audible_range = shard::max_audible_range(&config.rf);
        Simulator {
            medium: Medium::new(config.rf.clone()),
            trace,
            config,
            nodes: Vec::new(),
            state: Vec::new(),
            rngs: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            metrics: Metrics::new(),
            root_rng: SimRng::new(seed),
            started: false,
            mobility_scheduled: false,
            link_loss: std::collections::BTreeMap::new(),
            link_cache: LinkCache::new(),
            rx_nodes: Vec::new(),
            fanout_scratch: Vec::new(),
            command_scratch: Vec::new(),
            interferer_scratch: Vec::new(),
            active_scratch: Vec::new(),
            events_processed: 0,
            shard: None,
            seed,
            audible_range,
            grid: Grid::new(),
            grid_dirty: true,
            cand_scratch: Vec::new(),
            prefetch_scratch: Vec::new(),
            xs_scratch: Vec::new(),
        }
    }

    /// Adds a stationary node running `firmware` at `position`.
    pub fn add_node(&mut self, firmware: F, position: Position) -> NodeId {
        self.add_mobile_node(firmware, position, Mobility::Static)
    }

    /// Adds a node with the given mobility model.
    pub fn add_mobile_node(
        &mut self,
        firmware: F,
        position: Position,
        mobility: Mobility,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        // Both derivations are pure in (seed, node id), so adding a node
        // never perturbs another's stream; see `SimConfig::rng_streams`
        // for why two exist.
        let rng = if self.config.rng_streams {
            SimRng::stream(self.seed, id.0 as u64 + 1)
        } else {
            self.root_rng.fork(id.0 as u64 + 1)
        };
        self.nodes.push(NodeSlot {
            firmware,
            radio: Radio::new(),
            scheduled_wake: None,
        });
        self.state.push(NodeState {
            position,
            mobility: MobilityState::new(mobility),
            alive: true,
        });
        self.rngs.push(rng);
        self.link_cache.resize(self.nodes.len());
        self.grid_dirty = true;
        if let Some(sh) = &mut self.shard {
            // Late joiner: home it in the band it appears in.
            sh.home.push(sh.parts.band_of(position.x));
        }
        if self.started {
            self.fire(id.0, |fw, ctx| fw.on_start(ctx));
        }
        self.ensure_mobility_tick();
        id
    }

    /// Number of nodes in the simulation.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's firmware (for assertions/reports).
    #[must_use]
    pub fn node(&self, id: NodeId) -> &F {
        &self.nodes[id.0].firmware
    }

    /// Runs a closure against a node's firmware inside a proper callback
    /// context, processing any commands it issues — the way applications
    /// "call into" their protocol stack (e.g. to submit a datagram).
    pub fn with_node<R>(&mut self, id: NodeId, f: impl FnOnce(&mut F, &mut Context) -> R) -> R {
        self.fire(id.0, f)
    }

    /// A node's current position.
    #[must_use]
    pub fn position(&self, id: NodeId) -> Position {
        self.state[id.0].position
    }

    /// Moves a node instantly (tests and custom scenarios).
    pub fn set_position(&mut self, id: NodeId, position: Position) {
        self.state[id.0].position = position;
        self.link_cache.invalidate_all();
        self.grid_dirty = true;
    }

    /// A node's radio (state durations feed the energy model).
    #[must_use]
    pub fn radio(&self, id: NodeId) -> &Radio {
        &self.nodes[id.0].radio
    }

    /// Whether a node is currently alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.state[id.0].alive
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.now.as_duration()
    }

    /// PHY metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of events the simulator has processed (bench throughput).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Always zero: the parallel batch commit this counted was retired
    /// (DESIGN.md, "Parallel commit (retired)"). Kept so benchmark code
    /// that reports the count still compiles.
    #[must_use]
    pub fn commit_batches(&self) -> u64 {
        0
    }

    /// Number of link-cache row (re)builds so far — regression
    /// accounting for the sharded engine's scoped invalidation.
    #[must_use]
    pub fn link_rebuilds(&self) -> u64 {
        self.link_cache.rebuilds()
    }

    /// The debug trace (empty unless [`SimConfig::trace_capacity`] > 0).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared modulation.
    #[must_use]
    pub fn modulation(&self) -> &LoRaModulation {
        &self.medium.config().modulation
    }

    /// Transmit power configured for all nodes.
    #[must_use]
    pub fn tx_power(&self) -> Dbm {
        self.medium.config().tx_power
    }

    /// Injects a loss probability on the (bidirectional) link between
    /// `a` and `b`: each otherwise-successful reception over that link is
    /// additionally dropped with probability `p`. Set `p = 0.0` to clear.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn set_link_loss(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in 0..=1, got {p}"
        );
        let key = (a.0.min(b.0), a.0.max(b.0));
        if p == 0.0 {
            self.link_loss.remove(&key);
        } else {
            self.link_loss.insert(key, p);
        }
    }

    /// Schedules an application (workload) event for `node` at `at`.
    pub fn schedule_app(&mut self, at: Duration, node: NodeId, tag: u64) {
        self.queue
            .schedule(SimTime::from(at), SimEvent::App(node, tag));
    }

    /// Schedules `node` to fail at `at`.
    pub fn schedule_kill(&mut self, at: Duration, node: NodeId) {
        self.queue.schedule(SimTime::from(at), SimEvent::Kill(node));
    }

    /// Schedules `node` to restart at `at`.
    pub fn schedule_revive(&mut self, at: Duration, node: NodeId) {
        self.queue
            .schedule(SimTime::from(at), SimEvent::Revive(node));
    }

    /// Calls `on_start` on every node. Idempotent; run methods call this
    /// automatically.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if self.config.shards > 1 && self.shard.is_none() {
            let xs: Vec<f64> = self.state.iter().map(|s| s.position.x).collect();
            let r_max = self.audible_range;
            // Band edges balance expected *work*, not node count: a
            // node's weight is its audible-degree bound (fan-out,
            // interferer sums and row fills all scale with it). Edge
            // placement is pure load balancing — the merge stays in
            // global (time, seq) order either way.
            self.ensure_grid();
            let weights: Vec<usize> = self
                .state
                .iter()
                .map(|s| self.grid.degree(s.position))
                .collect();
            let parts = Partitioner::weighted(&xs, &weights, self.config.shards, r_max);
            let bands = parts.bands();
            let mut sh = ShardState {
                home: self
                    .state
                    .iter()
                    .map(|s| parts.band_of(s.position.x))
                    .collect(),
                queues: (0..bands).map(|_| EventQueue::new()).collect(),
                lookahead: shard::min_lookahead(self.medium.config()),
                active: vec![Vec::new(); bands],
                touched: vec![false; bands],
                parts,
            };
            // Transmissions begun before start (tests driving `with_node`
            // early) predate the rosters; enroll them now. `active()`
            // iterates ascending by frame id, preserving sortedness.
            for tx in self.medium.active() {
                sh.register(tx.frame, tx.sender, tx.origin);
            }
            self.shard = Some(sh);
        }
        // Warm the link cache in parallel before the on_start storm:
        // every alive node's row is a pure function of positions, so
        // workers can build them all while the coordinator waits.
        if self.config.threads > 1 {
            let mut rows = std::mem::take(&mut self.prefetch_scratch);
            rows.clear();
            rows.extend((0..self.state.len()).filter(|&i| self.state[i].alive));
            self.prefetch_rows(&rows);
            self.prefetch_scratch = rows;
        }
        for i in 0..self.nodes.len() {
            self.fire(i, |fw, ctx| fw.on_start(ctx));
        }
    }

    /// Advances the clock to `at` and handles one event.
    fn dispatch(&mut self, at: SimTime, event: SimEvent) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            SimEvent::Timer(node, _) => self.handle_timer(node),
            SimEvent::TxEnd(node, frame) => self.handle_tx_end(node, frame),
            SimEvent::RxEnd(node, frame) => self.handle_rx_end(node, frame),
            SimEvent::CadEnd(node) => self.handle_cad_end(node),
            SimEvent::CadBusyReport(node) => {
                if self.state[node.0].alive {
                    self.metrics.record_cad(node, true);
                    self.fire(node.0, |fw, ctx| fw.on_cad_done(true, ctx));
                }
            }
            SimEvent::App(node, tag) => {
                if self.state[node.0].alive {
                    self.fire(node.0, |fw, ctx| fw.on_app(tag, ctx));
                }
            }
            SimEvent::Kill(node) => self.kill(node),
            SimEvent::Revive(node) => self.revive(node),
            SimEvent::MobilityTick => self.mobility_tick(),
        }
    }

    /// Pops the globally next event across the coordinator queue and
    /// every shard queue — the single-step form of the sharded merge.
    fn pop_next_merged(&mut self) -> Option<(SimTime, SimEvent)> {
        let mut best = self.queue.peek_key();
        let mut from = usize::MAX;
        let sh = self.shard.as_mut().expect("sharded engine");
        for (qi, q) in sh.queues.iter_mut().enumerate() {
            let Some(k) = q.peek_key() else { continue };
            if best.is_none_or(|b| k < b) {
                best = Some(k);
                from = qi;
            }
        }
        best?;
        if from == usize::MAX {
            self.queue.pop()
        } else {
            sh.queues[from].pop()
        }
    }

    /// Stale-timer tombstone drops across every queue.
    fn stale_dropped_total(&self) -> u64 {
        let mut total = self.queue.stale_timers_dropped();
        if let Some(sh) = &self.shard {
            total += sh
                .queues
                .iter()
                .map(EventQueue::stale_timers_dropped)
                .sum::<u64>();
        }
        total
    }

    /// Finalises per-node radio accounting (call before reading state
    /// durations / energy at the end of a run).
    pub fn finish(&mut self) {
        for slot in &mut self.nodes {
            slot.radio.finish(self.now);
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Runs a firmware callback, then processes its commands and re-syncs
    /// its wake-up timer.
    fn fire<R>(&mut self, i: usize, f: impl FnOnce(&mut F, &mut Context) -> R) -> R {
        let now = self.now;
        let scratch = std::mem::take(&mut self.command_scratch);
        let slot = &mut self.nodes[i];
        let mut ctx = Context::with_buffer(now.as_duration(), scratch);
        let result = f(&mut slot.firmware, &mut ctx);
        let mut commands = ctx.take_requests();
        for cmd in commands.drain(..) {
            match cmd {
                RadioCommand::Transmit(bytes) => self.start_tx(i, bytes),
                RadioCommand::StartCad => self.start_cad(i),
            }
        }
        self.command_scratch = commands;
        self.sync_wake(i);
        result
    }

    /// Schedules an internal event owned by `node` — on the node's home
    /// shard queue when sharded (with a globally allocated sequence
    /// number, so the k-way merge reproduces insertion order), else on
    /// the global queue.
    fn schedule_for(&mut self, at: SimTime, node: usize, event: SimEvent) {
        match &mut self.shard {
            Some(sh) => {
                let seq = self.queue.alloc_seq();
                sh.queues[sh.home[node]].schedule_at_seq(at, seq, event);
            }
            None => self.queue.schedule(at, event),
        }
    }

    /// Tombstones any queued timer for `node` and schedules a fresh one
    /// in whichever queue owns the node.
    fn schedule_wake(&mut self, at: SimTime, node: NodeId) {
        match &mut self.shard {
            Some(sh) => {
                let seq = self.queue.alloc_seq();
                sh.queues[sh.home[node.0]].schedule_timer_seq(at, node, seq);
            }
            None => self.queue.schedule_timer(at, node),
        }
    }

    /// Cancels `node`'s pending timer in whichever queue owns it.
    fn cancel_wake(&mut self, node: NodeId) {
        match &mut self.shard {
            Some(sh) => sh.queues[sh.home[node.0]].cancel_timer(node),
            None => self.queue.cancel_timer(node),
        }
    }

    /// Keeps exactly one pending timer event aligned with the firmware's
    /// requested wake time.
    fn sync_wake(&mut self, i: usize) {
        if !self.state[i].alive {
            return;
        }
        let slot = &mut self.nodes[i];
        let wake = slot.firmware.next_wake();
        if let Some(t) = wake {
            if slot.scheduled_wake != Some(t) {
                slot.scheduled_wake = Some(t);
                // Tombstones any previously queued timer for this node
                // and stamps the new one with a fresh generation.
                self.schedule_wake(SimTime::from(t).max(self.now), NodeId(i));
            }
        } else if slot.scheduled_wake.take().is_some() {
            self.cancel_wake(NodeId(i));
        }
    }

    fn handle_timer(&mut self, node: NodeId) {
        if !self.state[node.0].alive {
            return;
        }
        // Every firmware mutation funnels through `fire` → `sync_wake`
        // (or `kill` → `cancel_wake`), so a timer that survived
        // tombstoning still matches the firmware's latest wake request
        // and is due by construction.
        debug_assert!(
            self.nodes[node.0]
                .firmware
                .next_wake()
                .is_some_and(|t| SimTime::from(t) <= self.now),
            "live timer fired before its firmware wake time"
        );
        self.nodes[node.0].scheduled_wake = None;
        self.fire(node.0, |fw, ctx| fw.on_timer(ctx));
    }

    /// Adds `i` to the sorted receiving-node index.
    fn rx_insert(&mut self, i: usize) {
        if let Err(pos) = self.rx_nodes.binary_search(&i) {
            self.rx_nodes.insert(pos, i);
        }
    }

    /// Removes `i` from the sorted receiving-node index.
    fn rx_remove(&mut self, i: usize) {
        if let Ok(pos) = self.rx_nodes.binary_search(&i) {
            self.rx_nodes.remove(pos);
        }
    }

    /// Rebuilds the spatial grid over the current positions if any have
    /// changed since the last build.
    fn ensure_grid(&mut self) {
        if self.grid_dirty {
            self.grid_dirty = false;
            let r_max = self.audible_range;
            let Self { grid, state, .. } = self;
            grid.rebuild_from(state.iter().map(|s| s.position), r_max);
        }
    }

    /// Makes sure row `i` of the link cache is filled for this epoch.
    /// Its candidates are the grid's 3×3 neighborhood, a superset of
    /// every node audible from `i` (see [`crate::grid`]).
    fn ensure_row(&mut self, i: usize) {
        if self.link_cache.has_row(i) {
            return;
        }
        let mut cands = std::mem::take(&mut self.cand_scratch);
        self.ensure_grid();
        self.grid
            .candidates_into(self.state[i].position, &mut cands);
        let (medium, state) = (&self.medium, &self.state);
        let _ = self
            .link_cache
            .row(i, &cands, |k| link_between(medium, state, i, k));
        self.cand_scratch = cands;
    }

    /// The (cached) link budget between nodes `i` and `j` at their
    /// current positions.
    fn link_for(&mut self, i: usize, j: usize) -> Link {
        self.ensure_row(i);
        self.link_cache
            .cached(i)
            .map_or_else(Link::silent, |row| row.get(j))
    }

    /// Received power (mW) at node `rx` of an active transmission by
    /// `sender` that started at `origin`. Uses the cache only when the
    /// sender has not moved since transmission start — after a mobility
    /// tick the cached (current-position) power would be wrong for a
    /// frame already on the air.
    fn active_tx_power_mw(&mut self, sender: usize, origin: Position, rx: usize) -> f64 {
        if self.state[sender].position == origin {
            self.link_for(sender, rx).power_mw
        } else {
            self.medium
                .received_power(
                    &origin,
                    &self.state[rx].position,
                    NodeId(sender),
                    NodeId(rx),
                )
                .to_milliwatts()
                .value()
        }
    }

    /// Like [`Self::active_tx_power_mw`] but answering the CAD question:
    /// is the transmission audible at `rx`?
    fn active_tx_audible(&mut self, sender: usize, origin: Position, rx: usize) -> bool {
        if self.state[sender].position == origin {
            self.link_for(sender, rx).audible
        } else {
            let power = self.medium.received_power(
                &origin,
                &self.state[rx].position,
                NodeId(sender),
                NodeId(rx),
            );
            self.medium.audible(power)
        }
    }

    /// The CAD predicate: any other node's in-flight transmission
    /// audible at node `i`?
    fn channel_busy(&mut self, i: usize) -> bool {
        let mut active = std::mem::take(&mut self.active_scratch);
        active.clear();
        // The band roster is a superset of the transmissions audible at
        // `i` (audibility is distance-bounded), so scanning it instead of
        // the global registry yields the same boolean.
        match &self.shard {
            Some(sh) => {
                let band = sh.parts.band_of(self.state[i].position.x);
                active.extend(sh.active[band].iter().map(|&(_, s, origin)| (s, origin)));
            }
            None => active.extend(self.medium.active().map(|tx| (tx.sender, tx.origin))),
        }
        let mut busy = false;
        for &(sender, origin) in &active {
            if sender.0 == i {
                continue;
            }
            if self.active_tx_audible(sender.0, origin, i) {
                busy = true;
                break;
            }
        }
        self.active_scratch = active;
        busy
    }

    /// Builds the given link-cache rows on worker threads and installs
    /// them in row order ([`crate::par`]). Purely a warm-up: every row is
    /// a value the coordinator's lazy fill would compute bit-identically
    /// anyway ([`LinkCache::compute_row`] reads only rows cached *before*
    /// the region starts, and link budgets are symmetric bit-for-bit), so
    /// thread count and scheduling stay invisible to the simulation.
    fn prefetch_rows(&mut self, rows: &[usize]) {
        // Adaptive inline gate: prefetching is purely a warm-up, so the
        // only question is whether the fork-join is *profitable*. Cap
        // the worker count by the hardware (on a single-core host a
        // spawned worker just timeslices against the coordinator) and
        // require a measured minimum of rows per worker; otherwise let
        // the coordinator fill rows lazily inline. Never affects
        // outcomes — only where the identical row values are computed.
        let threads = self
            .config
            .threads
            .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
        if threads <= 1 || rows.len() < PREFETCH_MIN_PER_WORKER * threads {
            return;
        }
        self.ensure_grid();
        let Self {
            medium,
            state,
            link_cache,
            grid,
            ..
        } = self;
        let cache: &LinkCache = link_cache;
        let computed: Vec<(usize, LinkRow)> = par::map_chunks(threads, rows, |_, &i| {
            let mut cands = Vec::new();
            grid.candidates_into(state[i].position, &mut cands);
            let row = cache.compute_row(i, &cands, |k| link_between(medium, state, i, k));
            (i, row)
        });
        for (i, row) in computed {
            link_cache.install(i, row);
        }
    }

    fn start_tx(&mut self, i: usize, bytes: std::sync::Arc<[u8]>) {
        if bytes.len() > LoRaModulation::MAX_PHY_PAYLOAD {
            self.metrics.tx_oversized += 1;
            return;
        }
        if !self.state[i].alive {
            self.metrics.tx_while_dead += 1;
            return;
        }
        match self.nodes[i].radio.state() {
            RadioState::Idle => {}
            RadioState::Rx { .. } => {
                // Real transceivers abort an ongoing reception when
                // commanded to transmit (ALOHA-style protocols rely on
                // this). The pending RxEnd event goes stale.
                self.metrics.rx_aborted_by_tx += 1;
                self.nodes[i].radio.to_idle(self.now);
                self.rx_remove(i);
            }
            RadioState::Tx { .. } | RadioState::Cad { .. } | RadioState::Off => {
                self.metrics.tx_while_busy += 1;
                return;
            }
        }
        let sender = NodeId(i);
        let origin = self.state[i].position;
        let tx = self.medium.begin_tx(sender, origin, self.now, bytes);
        let frame = tx.frame;
        let end = self.now + tx.airtime;
        self.nodes[i].radio.begin_tx(self.now, frame, end);
        self.schedule_for(end, i, SimEvent::TxEnd(sender, frame));
        if let Some(sh) = &mut self.shard {
            sh.register(frame, sender, origin);
        }
        self.metrics.record_tx(sender, tx.airtime);
        self.trace.push(
            self.now,
            TraceEvent::TxStart {
                node: sender,
                frame,
                len: tx.len,
            },
        );

        // Decide how every other node experiences this frame. The
        // fan-out is `i`'s audible-neighbor list: an inaudible node
        // would see no lock, no CAD note and — since interference sums
        // are audibility-gated — no interference entry either.
        let mut fanout = std::mem::take(&mut self.fanout_scratch);
        fanout.clear();
        self.ensure_row(i);
        if let Some(row) = self.link_cache.cached(i) {
            fanout.extend(row.entries().filter(|&(_, link)| link.audible));
        }
        for &(j, link) in &fanout {
            if j == i || !self.state[j].alive {
                continue;
            }
            let receiver = NodeId(j);

            match *self.nodes[j].radio.state() {
                RadioState::Idle => {
                    if link.audible {
                        self.lock_receiver(j, frame, link.power, link.power_mw, end);
                    }
                }
                RadioState::Rx { frame: current, .. } => {
                    // The new frame interferes with the ongoing reception
                    // — when audible. Sub-sensitivity power is orders of
                    // magnitude below both the noise floor already inside
                    // `judge` and any signal worth locking onto, so
                    // gating it out of the sum cannot move a judgement
                    // that matters; it is what makes range-scoped rosters
                    // and scoped cache invalidation exact (DESIGN.md,
                    // "Sharded engine").
                    let steal = link.audible && {
                        let rec = self.nodes[j]
                            .radio
                            .reception
                            .as_mut()
                            .expect("Rx state implies a reception");
                        rec.add_interferer(frame, link.power_mw);
                        link.power_mw >= rec.signal_mw * self.medium.capture_ratio_linear()
                            && self
                                .medium
                                .get(current)
                                .is_some_and(|tx| self.medium.in_preamble(tx, self.now))
                    };
                    if steal {
                        // The stronger late frame wins the receiver.
                        self.metrics
                            .record_loss(receiver, crate::medium::LossReason::Truncated);
                        self.trace.push(
                            self.now,
                            TraceEvent::Lost {
                                node: receiver,
                                frame: current,
                                reason: crate::medium::LossReason::Truncated,
                            },
                        );
                        self.lock_receiver(j, frame, link.power, link.power_mw, end);
                    }
                }
                RadioState::Cad { .. } => {
                    if link.audible {
                        self.nodes[j].radio.note_cad_activity();
                    }
                }
                RadioState::Tx { .. } | RadioState::Off => {}
            }
        }
        self.fanout_scratch = fanout;
    }

    /// Locks receiver `j` onto `frame`, seeding its interference set with
    /// every other transmission already on the air. `power`/`power_mw`
    /// are the received power `start_tx` already computed for this link.
    fn lock_receiver(&mut self, j: usize, frame: FrameId, power: Dbm, power_mw: f64, end: SimTime) {
        let receiver = NodeId(j);
        let quality = self.medium.quality(power);
        let tx = self.medium.get(frame).expect("frame just registered");
        let sender = tx.sender;
        let payload = tx.payload.clone(); // Arc bump, not a byte copy
        let mut reception = Reception::new(frame, sender, quality, power_mw, payload);
        let mut interferers = std::mem::take(&mut self.interferer_scratch);
        interferers.clear();
        // The sharded engine reads the receiver's band roster instead of
        // the global registry: every audible transmission is registered
        // there (coverage ∈ reach of its origin), and rosters are kept
        // ascending by frame id, so the audibility filter below yields
        // the same interferer set in the same order — bit-identical
        // float sums — as the sequential scan.
        match &self.shard {
            Some(sh) => {
                let band = sh.parts.band_of(self.state[j].position.x);
                interferers.extend(
                    sh.active[band]
                        .iter()
                        .filter(|&&(f, s, _)| f != frame && s != receiver)
                        .copied(),
                );
            }
            None => interferers.extend(
                self.medium
                    .active()
                    .filter(|a| a.frame != frame && a.sender != receiver)
                    .map(|a| (a.frame, a.sender, a.origin)),
            ),
        }
        for &(f, s, origin) in &interferers {
            if self.active_tx_audible(s.0, origin, j) {
                let p = self.active_tx_power_mw(s.0, origin, j);
                reception.add_interferer(f, p);
            }
        }
        self.interferer_scratch = interferers;
        self.nodes[j].radio.begin_rx(self.now, reception, end);
        self.rx_insert(j);
        self.schedule_for(end, j, SimEvent::RxEnd(receiver, frame));
    }

    fn handle_tx_end(&mut self, node: NodeId, frame: FrameId) {
        let Some(tx) = self.medium.end_tx(frame) else {
            // Aborted earlier (sender killed mid-frame).
            return;
        };
        debug_assert_eq!(tx.sender, node);
        // The frame stops interfering with ongoing receptions. The
        // sharded engine visits only locked receivers (the rx-node
        // index) instead of all N: a node outside it either has no
        // reception or a stale one left behind by an rx-abort, whose
        // contents are never read again (receptions are only consulted
        // under a matching `Rx` radio state and are overwritten by the
        // next lock).
        if let Some(sh) = &mut self.shard {
            sh.unregister(frame, tx.origin);
            let Self {
                nodes, rx_nodes, ..
            } = self;
            for &j in rx_nodes.iter() {
                if let Some(rec) = nodes[j].radio.reception.as_mut() {
                    rec.remove_interferer(frame);
                }
            }
        } else {
            for slot in &mut self.nodes {
                if let Some(rec) = slot.radio.reception.as_mut() {
                    rec.remove_interferer(frame);
                }
            }
        }
        self.trace.push(self.now, TraceEvent::TxEnd { node, frame });
        let slot = &self.nodes[node.0];
        if self.state[node.0].alive
            && matches!(slot.radio.state(), RadioState::Tx { frame: f, .. } if *f == frame)
        {
            self.nodes[node.0].radio.to_idle(self.now);
            self.fire(node.0, |fw, ctx| fw.on_tx_done(ctx));
        }
    }

    fn handle_rx_end(&mut self, node: NodeId, frame: FrameId) {
        let slot = &mut self.nodes[node.0];
        if !self.state[node.0].alive
            || !matches!(slot.radio.state(), RadioState::Rx { frame: f, .. } if *f == frame)
        {
            return; // stale: the lock moved on
        }
        let reception = slot
            .radio
            .reception
            .take()
            .expect("Rx state implies a reception");
        slot.radio.to_idle(self.now);
        self.rx_remove(node.0);
        let Self {
            rngs,
            medium,
            link_loss,
            ..
        } = &mut *self;
        let rng = &mut rngs[node.0];
        let mut outcome = medium.judge(&reception, rng);
        if matches!(outcome, RxOutcome::Delivered(_)) {
            let key = (
                reception.sender.0.min(node.0),
                reception.sender.0.max(node.0),
            );
            if let Some(&p) = link_loss.get(&key) {
                if rng.gen_bool(p) {
                    outcome = RxOutcome::Lost(crate::medium::LossReason::Injected);
                }
            }
        }
        match outcome {
            RxOutcome::Delivered(quality) => {
                self.metrics.record_delivery(node);
                self.trace
                    .push(self.now, TraceEvent::Delivered { node, frame });
                let payload = reception.payload;
                self.fire(node.0, |fw, ctx| fw.on_frame(&payload, quality, ctx));
            }
            RxOutcome::Lost(reason) => {
                self.metrics.record_loss(node, reason);
                self.trace.push(
                    self.now,
                    TraceEvent::Lost {
                        node,
                        frame,
                        reason,
                    },
                );
            }
        }
    }

    fn start_cad(&mut self, i: usize) {
        if !self.state[i].alive {
            return;
        }
        if !self.nodes[i].radio.is_idle() {
            // The radio is receiving or transmitting: the scan cannot run,
            // but the protocol still needs an answer — real CAD during
            // channel activity reports "busy". Keep the radio state
            // untouched and deliver the result after the scan duration.
            let duration = self
                .medium
                .config()
                .modulation
                .symbol_time()
                .mul_f64(f64::from(self.config.cad_symbols));
            let at = self.now + duration;
            self.schedule_for(at, i, SimEvent::CadBusyReport(NodeId(i)));
            return;
        }
        let node = NodeId(i);
        let busy_now = self.channel_busy(i);
        let duration = self
            .medium
            .config()
            .modulation
            .symbol_time()
            .mul_f64(f64::from(self.config.cad_symbols));
        let until = self.now + duration;
        self.nodes[i].radio.begin_cad(self.now, until, busy_now);
        self.schedule_for(until, i, SimEvent::CadEnd(node));
    }

    fn handle_cad_end(&mut self, node: NodeId) {
        if !self.state[node.0].alive {
            return;
        }
        let slot = &self.nodes[node.0];
        let RadioState::Cad { until, busy_seen } = *slot.radio.state() else {
            return; // stale (killed+revived mid-scan)
        };
        if until != self.now {
            return;
        }
        let busy = busy_seen || self.channel_busy(node.0);
        self.nodes[node.0].radio.to_idle(self.now);
        self.metrics.record_cad(node, busy);
        self.fire(node.0, |fw, ctx| fw.on_cad_done(busy, ctx));
    }

    fn kill(&mut self, node: NodeId) {
        let i = node.0;
        if !self.state[i].alive {
            return;
        }
        self.state[i].alive = false;
        // A transmission in progress is truncated: receivers locked to it
        // can no longer decode it, and it stops interfering.
        if let RadioState::Tx { frame, .. } = *self.nodes[i].radio.state() {
            let ended = self.medium.end_tx(frame);
            if let Some(sh) = &mut self.shard {
                // Same rx-node-scoped sweep as `handle_tx_end`.
                let origin = ended.expect("Tx state implies an active frame").origin;
                sh.unregister(frame, origin);
                let Self {
                    nodes, rx_nodes, ..
                } = self;
                for &j in rx_nodes.iter() {
                    if let Some(rec) = nodes[j].radio.reception.as_mut() {
                        if rec.frame == frame {
                            rec.corrupted = true;
                        } else {
                            rec.remove_interferer(frame);
                        }
                    }
                }
            } else {
                for slot in &mut self.nodes {
                    if let Some(rec) = slot.radio.reception.as_mut() {
                        if rec.frame == frame {
                            rec.corrupted = true;
                        } else {
                            rec.remove_interferer(frame);
                        }
                    }
                }
            }
        }
        self.nodes[i].radio.power_off(self.now);
        self.nodes[i].scheduled_wake = None;
        self.cancel_wake(node);
        self.rx_remove(i);
        self.trace.push(self.now, TraceEvent::Killed { node });
    }

    fn revive(&mut self, node: NodeId) {
        let i = node.0;
        if self.state[i].alive {
            return;
        }
        self.state[i].alive = true;
        self.nodes[i].radio.power_on(self.now);
        self.trace.push(self.now, TraceEvent::Revived { node });
        self.fire(i, |fw, ctx| fw.on_start(ctx));
    }

    fn ensure_mobility_tick(&mut self) {
        if self.mobility_scheduled {
            return;
        }
        if self.state.iter().any(|s| s.mobility.is_mobile()) {
            self.mobility_scheduled = true;
            self.queue
                .schedule(self.now + self.config.mobility_tick, SimEvent::MobilityTick);
        }
    }

    /// Advances every mobile node by `dt` — on worker threads when
    /// configured. Thread-count invisible: each node's step is a pure
    /// function of its own mobility state and its own RNG stream, and
    /// [`par::run_chunks`] partitions deterministically.
    fn step_positions(&mut self, dt: Duration) {
        let threads = if self.state.len() >= PAR_MIN_ITEMS {
            self.config.threads
        } else {
            1
        };
        par::run_chunks_zip(
            threads,
            &mut self.state,
            &mut self.rngs,
            |_, chunk, rngs| {
                for (s, rng) in chunk.iter_mut().zip(rngs) {
                    if s.alive && s.mobility.is_mobile() {
                        s.position = s.mobility.step(s.position, dt, rng);
                    }
                }
            },
        );
    }

    fn mobility_tick(&mut self) {
        let dt = self.config.mobility_tick;
        if let Some(mut sh) = self.shard.take() {
            // Scoped invalidation: a move can only change links touching
            // nodes within audible range of the mover's old or new
            // position. Rows of nodes outside every such interval keep
            // correct audibility flags and bit-fresh audible powers —
            // their stale entries are all sub-sensitivity (distance
            // > r_max before *and* after the move, and distance ≥ |Δx|),
            // which gated interference never reads.
            for t in &mut sh.touched {
                *t = false;
            }
            let mut xs = std::mem::take(&mut self.xs_scratch);
            xs.clear();
            xs.extend(self.state.iter().map(|s| s.position.x));
            self.step_positions(dt);
            for (i, &old_x) in xs.iter().enumerate() {
                let s = &self.state[i];
                if s.alive && s.mobility.is_mobile() {
                    let (lo, hi) = sh
                        .parts
                        .reach_interval(old_x.min(s.position.x), old_x.max(s.position.x));
                    for band in lo..=hi {
                        sh.touched[band] = true;
                    }
                }
            }
            for i in 0..self.state.len() {
                if sh.touched[sh.parts.band_of(self.state[i].position.x)] {
                    self.link_cache.invalidate_row(i);
                }
            }
            self.xs_scratch = xs;
            self.shard = Some(sh);
        } else {
            self.step_positions(dt);
            // Positions changed: every cached link budget is now stale.
            self.link_cache.invalidate_all();
        }
        self.grid_dirty = true;
        // Wake-gated warm-up: refill, on worker threads, the rows of
        // nodes whose firmware will act before the next tick (their
        // transmissions/CADs would fill those rows on the coordinator
        // otherwise). Purely a prefetch — see `prefetch_rows`.
        if self.config.threads > 1 {
            let horizon = self.now.as_duration() + dt;
            let mut rows = std::mem::take(&mut self.prefetch_scratch);
            rows.clear();
            rows.extend((0..self.state.len()).filter(|&i| {
                self.state[i].alive
                    && !self.link_cache.has_row(i)
                    && self.nodes[i].scheduled_wake.is_some_and(|w| w <= horizon)
            }));
            self.prefetch_rows(&rows);
            self.prefetch_scratch = rows;
        }
        self.queue.schedule(self.now + dt, SimEvent::MobilityTick);
    }

    /// Runs until simulated time `until` (an offset from the start),
    /// processing every event scheduled before it.
    pub fn run_until(&mut self, until: Duration) {
        self.start();
        let until = SimTime::from(until);
        if self.shard.is_some() {
            self.run_merged(until);
        } else {
            while let Some(at) = self.queue.peek_time() {
                if at > until {
                    break;
                }
                self.step();
            }
        }
        // Peeking may have discarded stale tombstones after the last step.
        self.metrics.stale_timers_dropped = self.stale_dropped_total();
        if until > self.now {
            self.now = until;
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now.as_duration() + d);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let popped = if self.shard.is_some() {
            self.pop_next_merged()
        } else {
            self.queue.pop()
        };
        let Some((at, event)) = popped else {
            return false;
        };
        self.dispatch(at, event);
        self.metrics.stale_timers_dropped = self.stale_dropped_total();
        true
    }

    /// The sharded run loop: a k-way merge of the coordinator queue and
    /// every shard queue by `(time, seq)` — exactly the global order the
    /// sequential engine processes, which is why both engines are
    /// byte-identical. The winning shard queue is drained in a *batch*
    /// while its head is provably still the global minimum:
    ///
    /// * internal events only create cross-queue work (an `RxEnd` at a
    ///   receiver homed elsewhere) at `now + airtime ≥ t0 + lookahead`
    ///   (see [`crate::shard`]), bounding the batch by the lookahead
    ///   horizon;
    /// * nothing in a batch inserts into the coordinator queue (faults,
    ///   app traffic and mobility ticks are injected externally), and
    ///   coordinator events are processed one at a time because they
    ///   *can* create immediate work anywhere (a revive fires
    ///   `on_start` now);
    /// * same-queue insertions (timers clamped to now, CAD endings) are
    ///   handled by re-peeking the head every iteration;
    /// * the pre-batch second-best head caps the batch from the side of
    ///   the *existing* contents of the other queues.
    fn run_merged(&mut self, until: SimTime) {
        loop {
            let mut best = self.queue.peek_key();
            let mut from = usize::MAX;
            let mut second: Option<(SimTime, u64)> = None;
            {
                let sh = self.shard.as_mut().expect("sharded engine");
                for (qi, q) in sh.queues.iter_mut().enumerate() {
                    let Some(k) = q.peek_key() else { continue };
                    if best.is_none_or(|b| k < b) {
                        second = best;
                        best = Some(k);
                        from = qi;
                    } else if second.is_none_or(|s| k < s) {
                        second = Some(k);
                    }
                }
            }
            let Some((t0, _)) = best else { return };
            if t0 > until {
                return;
            }
            if from == usize::MAX {
                let (at, event) = self.queue.pop().expect("peeked");
                self.dispatch(at, event);
                continue;
            }
            let horizon = t0 + self.shard.as_ref().expect("sharded engine").lookahead;
            loop {
                let sh = self.shard.as_mut().expect("sharded engine");
                let Some(k) = sh.queues[from].peek_key() else {
                    break;
                };
                if k.0 > until || k.0 >= horizon || second.is_some_and(|s| k >= s) {
                    break;
                }
                let (at, event) = sh.queues[from].pop().expect("peeked");
                self.dispatch(at, event);
            }
        }
    }
}

/// The link budget between nodes `i` and `j`, computed directly from
/// their current positions — the cache's fill function. A free function
/// over the worker-visible [`NodeState`] slice so parallel prefetch can
/// evaluate it without the firmware type or the coordinator's `&mut`
/// access.
fn link_between(medium: &Medium, state: &[NodeState], i: usize, j: usize) -> Link {
    let power = medium.received_power(&state[i].position, &state[j].position, NodeId(i), NodeId(j));
    Link {
        power,
        power_mw: power.to_milliwatts().value(),
        audible: medium.audible(power),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::link::SignalQuality;

    /// The sweep engine runs one simulator per worker thread, so the
    /// simulator (with any Send firmware) must stay Send. Compile-time
    /// check: fails to build if someone introduces Rc/RefCell state.
    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimConfig>();
        assert_send::<Simulator<Probe>>();
    }

    /// The parallel evaluate regions share these by reference across
    /// worker threads; none may grow interior mutability. Compile-time
    /// check, like `simulator_is_send`.
    #[test]
    fn worker_shared_state_is_sync() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<Medium>();
        assert_sync::<LinkCache>();
        assert_sync::<Grid>();
        assert_sync::<NodeState>();
        assert_send::<NodeState>();
        assert_send::<Metrics>();
    }

    /// Test firmware: transmits a configured frame at a scheduled time and
    /// records everything it observes.
    #[derive(Default)]
    struct Probe {
        tx_at: Option<(Duration, Vec<u8>)>,
        sent: bool,
        received: Vec<(Vec<u8>, f64)>, // payload, rssi
        tx_done: u32,
        cad_results: Vec<bool>,
        start_cad_at: Option<Duration>,
        cad_done_time: Option<Duration>,
    }

    impl Firmware for Probe {
        fn on_timer(&mut self, ctx: &mut Context) {
            let now = ctx.now();
            if let Some((at, bytes)) = &self.tx_at {
                if !self.sent && now >= *at {
                    self.sent = true;
                    ctx.transmit(bytes.clone());
                    return;
                }
            }
            if let Some(at) = self.start_cad_at.take() {
                if now >= at {
                    ctx.start_cad();
                }
            }
        }
        fn on_frame(&mut self, bytes: &[u8], q: SignalQuality, _ctx: &mut Context) {
            self.received.push((bytes.to_vec(), q.rssi.value()));
        }
        fn on_tx_done(&mut self, _ctx: &mut Context) {
            self.tx_done += 1;
        }
        fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
            self.cad_results.push(busy);
            self.cad_done_time = Some(ctx.now());
        }
        fn next_wake(&self) -> Option<Duration> {
            if self.sent {
                self.start_cad_at
            } else {
                match (&self.tx_at, self.start_cad_at) {
                    (Some((t, _)), Some(c)) => Some((*t).min(c)),
                    (Some((t, _)), None) => Some(*t),
                    (None, c) => c,
                }
            }
        }
    }

    fn sender_at(at: Duration, payload: Vec<u8>) -> Probe {
        Probe {
            tx_at: Some((at, payload)),
            ..Probe::default()
        }
    }

    fn sim() -> Simulator<Probe> {
        Simulator::new(SimConfig::default(), 1)
    }

    #[test]
    fn frame_delivered_to_near_listener() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![1, 2, 3]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(a).tx_done, 1);
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(b).received[0].0, vec![1, 2, 3]);
        assert_eq!(s.metrics().frames_transmitted, 1);
        assert_eq!(s.metrics().frames_delivered, 1);
    }

    #[test]
    fn far_listener_hears_nothing() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_millis(10), vec![9]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100_000.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty());
        // Not even counted as a loss: the node never locked on.
        assert_eq!(s.metrics().total_losses(), 0);
    }

    #[test]
    fn concurrent_equal_frames_collide() {
        let mut s = sim();
        // Two senders equidistant from the listener transmit simultaneously.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 20]),
            Position::new(-100.0, 0.0),
        );
        s.add_node(
            sender_at(Duration::from_millis(10), vec![2; 20]),
            Position::new(100.0, 0.0),
        );
        let c = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(c).received.is_empty());
        assert_eq!(s.metrics().lost_collision, 1);
    }

    #[test]
    fn capture_lets_much_stronger_frame_steal_the_lock() {
        let mut s = sim();
        // Weak sender A (110 m from the listener, ~-123.6 dBm) starts
        // first; strong sender B (30 m, ~-113.4 dBm) starts 5 ms later,
        // inside A's 12.5 ms preamble, 10 dB stronger. A and B are 140 m
        // apart so they cannot hear (and thus lock onto) each other.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 20]),
            Position::new(110.0, 0.0),
        );
        s.add_node(
            sender_at(Duration::from_millis(15), vec![2; 20]),
            Position::new(-30.0, 0.0),
        );
        let c = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        // The strong frame steals the lock and survives A's interference.
        assert_eq!(s.node(c).received.len(), 1);
        assert_eq!(s.node(c).received[0].0, vec![2; 20]);
        assert_eq!(s.metrics().lost_truncated, 1);
    }

    #[test]
    fn half_duplex_sender_misses_other_frame() {
        let mut s = sim();
        // Both transmit at the same time; they are out of range of each
        // other anyway, so neither hears the other's frame.
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![1; 30]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            sender_at(Duration::from_millis(10), vec![2; 30]),
            Position::new(5000.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert!(s.node(a).received.is_empty());
        assert!(s.node(b).received.is_empty());
        assert_eq!(s.node(a).tx_done, 1);
        assert_eq!(s.node(b).tx_done, 1);
    }

    #[test]
    fn cad_detects_ongoing_transmission() {
        let mut s = sim();
        // B starts its CAD scan just before A's frame begins, so the frame
        // appears during the scan window (a listening B would otherwise
        // lock onto the frame instead of scanning).
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_micros(9500)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![true]);
    }

    #[test]
    fn cad_reports_clear_channel() {
        let mut s = sim();
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_millis(50)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![false]);
        // CAD takes 2 symbol times (SF7: 2.048 ms).
        let done = s.node(b).cad_done_time.unwrap();
        assert_eq!(
            done,
            Duration::from_millis(50) + Duration::from_micros(2048)
        );
    }

    #[test]
    fn cad_requested_while_receiving_reports_busy() {
        let mut s = sim();
        // A long frame starts at t=10ms; b locks onto it. At t=50ms b's
        // timer asks for a CAD: the radio is mid-reception, so the scan
        // cannot run — but the firmware still gets on_cad_done(true).
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            Probe {
                start_cad_at: Some(Duration::from_millis(50)),
                ..Probe::default()
            },
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).cad_results, vec![true]);
        // The reception itself still completed.
        assert_eq!(s.node(b).received.len(), 1);
        // The busy report arrived one CAD duration after the request.
        assert_eq!(
            s.node(b).cad_done_time.unwrap(),
            Duration::from_millis(50) + Duration::from_micros(2048)
        );
    }

    #[test]
    fn transmit_preempts_ongoing_reception() {
        let mut s = sim();
        // A long frame from node 0 starts at t=10ms; node 1 locks on.
        // At t=50ms node 1 transmits (ALOHA-style): its reception is
        // aborted, its own frame goes out and is heard by node 2.
        s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(
            sender_at(Duration::from_millis(50), vec![7; 10]),
            Position::new(100.0, 0.0),
        );
        let _c = s.add_node(Probe::default(), Position::new(190.0, 0.0));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().rx_aborted_by_tx, 1);
        assert!(
            s.node(b).received.is_empty(),
            "aborted reception must not deliver"
        );
        assert_eq!(
            s.node(b).tx_done,
            1,
            "the preempting transmission completes"
        );
        // Node 2 is out of range of node 0 (190 m) but in range of node 1
        // (90 m): it hears exactly the preempting frame... unless node
        // 0's continuing transmission interferes. Either way the frame
        // was sent and judged.
        assert_eq!(s.metrics().frames_transmitted, 2);
    }

    #[test]
    fn injected_link_loss_drops_fraction_of_frames() {
        let mut s = sim();
        // 50 senders' worth of traffic approximated by one sender firing
        // repeatedly via app events would need protocol logic; instead
        // run many single-frame sims... simpler: one sim where the sender
        // transmits once per second via repeated probes.
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.set_link_loss(a, b, 0.5);
        s.start();
        for k in 0..200u64 {
            s.run_until(Duration::from_secs(k));
            s.with_node(a, |_fw, ctx| ctx.transmit(vec![k as u8; 4]));
        }
        s.run_for(Duration::from_secs(2));
        let delivered = s.node(b).received.len();
        assert!((60..140).contains(&delivered), "got {delivered}/200");
        assert_eq!(s.metrics().lost_injected, 200 - delivered as u64);
        // Clearing restores full delivery.
        s.set_link_loss(a, b, 0.0);
        let before = s.node(b).received.len();
        for k in 0..20u64 {
            s.run_until(Duration::from_secs(300 + k));
            s.with_node(a, |_fw, ctx| ctx.transmit(vec![k as u8; 4]));
        }
        s.run_for(Duration::from_secs(2));
        assert_eq!(s.node(b).received.len(), before + 20);
    }

    #[test]
    fn link_loss_is_directionless_and_per_pair() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        let c = s.add_node(Probe::default(), Position::new(-100.0, 0.0));
        // Kill the a<->b link entirely; a<->c stays perfect.
        s.set_link_loss(b, a, 1.0);
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![1; 4]));
        s.run_for(Duration::from_secs(1));
        s.with_node(b, |_fw, ctx| ctx.transmit(vec![2; 4]));
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty(), "a->b must be dead");
        assert!(s.node(a).received.is_empty(), "b->a must be dead");
        assert_eq!(s.node(c).received.len(), 1, "a->c unaffected");
    }

    #[test]
    fn killed_sender_truncates_frame() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(10), vec![0; 200]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        // Kill A mid-frame (a 200-byte SF7 frame lasts ~290 ms).
        s.schedule_kill(Duration::from_millis(100), a);
        s.run_for(Duration::from_secs(1));
        assert!(s.node(b).received.is_empty());
        assert_eq!(s.metrics().lost_truncated, 1);
        assert!(!s.is_alive(a));
    }

    #[test]
    fn revived_node_hears_again() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_secs(10), vec![7; 5]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.schedule_kill(Duration::from_secs(1), b);
        s.schedule_revive(Duration::from_secs(5), b);
        s.run_for(Duration::from_secs(20));
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(a).tx_done, 1);
    }

    #[test]
    fn dead_node_hears_nothing() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_secs(2), vec![7; 5]),
            Position::new(0.0, 0.0),
        );
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.schedule_kill(Duration::from_secs(1), b);
        s.run_for(Duration::from_secs(20));
        assert!(s.node(b).received.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut cfg = SimConfig::default();
            cfg.rf.grey_zone = true;
            cfg.trace_capacity = 4096;
            let mut s = Simulator::new(cfg, seed);
            for k in 0..6 {
                s.add_node(
                    sender_at(Duration::from_millis(10 * k as u64), vec![k; 10]),
                    Position::new(f64::from(k) * 100.0, 0.0),
                );
            }
            s.run_for(Duration::from_secs(2));
            let trace: Vec<_> = s.trace().entries().cloned().collect();
            (
                s.metrics().frames_delivered,
                s.metrics().total_losses(),
                trace,
            )
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        let c = run(78);
        // Different seed may differ (grey zone coin flips); at minimum the
        // run must still complete and produce trace activity. (Deliveries
        // can legitimately be zero: a node that starts transmitting
        // aborts its own ongoing reception.)
        assert!(!c.2.is_empty());
    }

    #[test]
    fn with_node_processes_commands() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        let b = s.add_node(Probe::default(), Position::new(100.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![5; 4]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.node(b).received.len(), 1);
        assert_eq!(s.node(b).received[0].0, vec![5; 4]);
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![0; 300]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_oversized, 1);
        assert_eq!(s.metrics().frames_transmitted, 0);
    }

    #[test]
    fn tx_while_busy_is_counted() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.start();
        s.with_node(a, |_fw, ctx| {
            ctx.transmit(vec![0; 10]);
            ctx.transmit(vec![1; 10]); // radio already transmitting
        });
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_while_busy, 1);
        assert_eq!(s.metrics().tx_while_dead, 0);
        assert_eq!(s.metrics().frames_transmitted, 1);
    }

    #[test]
    fn tx_while_dead_is_counted_separately() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.schedule_kill(Duration::from_millis(10), a);
        s.run_for(Duration::from_secs(1));
        s.with_node(a, |_fw, ctx| ctx.transmit(vec![0; 10]));
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.metrics().tx_while_dead, 1);
        assert_eq!(s.metrics().tx_while_busy, 0);
        assert_eq!(s.metrics().frames_transmitted, 0);
    }

    #[test]
    fn events_processed_counts_steps() {
        let mut s = sim();
        s.add_node(
            sender_at(Duration::from_millis(10), vec![1, 2, 3]),
            Position::new(0.0, 0.0),
        );
        s.add_node(Probe::default(), Position::new(100.0, 0.0));
        assert_eq!(s.events_processed(), 0);
        s.run_for(Duration::from_secs(1));
        // At least: sender timer, TxEnd, RxEnd.
        assert!(s.events_processed() >= 3, "{}", s.events_processed());
    }

    /// A mobile, chatty 80-node run — large enough (> `PAR_MIN_ITEMS`)
    /// that the parallel stepping and prefetch regions genuinely fire.
    fn mobile_fingerprint(mut cfg: SimConfig) -> (Metrics, Vec<(SimTime, TraceEvent)>) {
        cfg.rf.grey_zone = true;
        cfg.trace_capacity = 1 << 14;
        let mut s = Simulator::new(cfg, 4242);
        for k in 0..80u8 {
            let mobility = if k % 3 == 0 {
                Mobility::RandomWaypoint {
                    width_m: 800.0,
                    height_m: 500.0,
                    min_speed: 1.0,
                    max_speed: 8.0,
                    pause: Duration::from_secs(1),
                }
            } else {
                Mobility::Static
            };
            s.add_mobile_node(
                sender_at(Duration::from_millis(13 * u64::from(k)), vec![k; 12]),
                Position::new(f64::from(k % 10) * 85.0, f64::from(k / 10) * 60.0),
                mobility,
            );
        }
        s.run_for(Duration::from_secs(6));
        let mut m = s.metrics().clone();
        // Tombstone drop timing differs across engines by design.
        m.stale_timers_dropped = 0;
        (m, s.trace().entries().cloned().collect())
    }

    /// Spot check: thread count is behaviourally invisible under both
    /// RNG derivations (the exhaustive battery lives in
    /// tests/shard_diff.rs).
    #[test]
    fn threads_do_not_change_outcomes() {
        for rng_streams in [false, true] {
            let seq = SimConfig {
                rng_streams,
                ..SimConfig::default()
            };
            let base = mobile_fingerprint(seq.clone());
            for threads in [2usize, 4] {
                let cfg = SimConfig {
                    threads,
                    ..seq.clone()
                };
                assert_eq!(
                    mobile_fingerprint(cfg),
                    base,
                    "threads = {threads}, rng_streams = {rng_streams}"
                );
            }
        }
    }

    /// Per-node stream derivation is engine-invariant — shard and thread
    /// counts cannot perturb any node's draws — while still producing
    /// different draws than the fork derivation (it is a genuinely
    /// distinct stream family, which is why the fork stays the pinned
    /// differential reference).
    #[test]
    fn rng_streams_are_engine_invariant() {
        let cfg = SimConfig {
            rng_streams: true,
            ..SimConfig::default()
        };
        let seq = mobile_fingerprint(cfg.clone());
        let sharded = SimConfig {
            shards: 2,
            threads: 2,
            ..cfg
        };
        assert_eq!(mobile_fingerprint(sharded), seq);
        let forked = mobile_fingerprint(SimConfig::default());
        assert_ne!(seq.1, forked.1, "stream derivation must change draws");
    }

    #[test]
    fn radio_durations_account_airtime() {
        let mut s = sim();
        let a = s.add_node(
            sender_at(Duration::from_millis(0), vec![0; 100]),
            Position::new(0.0, 0.0),
        );
        s.run_for(Duration::from_secs(10));
        s.finish();
        let expected = s.modulation().time_on_air(100);
        assert_eq!(s.radio(a).durations.tx, expected);
        assert_eq!(
            s.radio(a).durations.tx + s.radio(a).durations.rx,
            Duration::from_secs(10)
        );
    }

    #[test]
    fn mobile_node_moves_during_run() {
        let mut s = sim();
        let m = s.add_mobile_node(
            Probe::default(),
            Position::new(0.0, 0.0),
            Mobility::RandomWaypoint {
                width_m: 1000.0,
                height_m: 1000.0,
                min_speed: 5.0,
                max_speed: 10.0,
                pause: Duration::ZERO,
            },
        );
        let before = s.position(m);
        s.run_for(Duration::from_secs(30));
        let after = s.position(m);
        assert!(before.distance(&after) > 1.0, "node did not move");
    }

    #[test]
    fn late_added_node_is_started() {
        let mut s = sim();
        let a = s.add_node(Probe::default(), Position::new(0.0, 0.0));
        s.run_for(Duration::from_secs(1));
        let b = s.add_node(
            sender_at(Duration::from_secs(2), vec![3; 3]),
            Position::new(100.0, 0.0),
        );
        s.run_for(Duration::from_secs(5));
        assert_eq!(s.node(a).received.len(), 1);
        assert_eq!(s.node(b).tx_done, 1);
    }
}
