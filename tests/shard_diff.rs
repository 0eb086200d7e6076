//! Differential tests proving the PR 6 sharded event engine and the
//! PR 7 parallel evaluate regions are behaviourally transparent: with
//! `SimConfig::shards` at 1 (the classic sequential engine) or any
//! larger value (per-band calendar queues, range-scoped medium rosters,
//! scoped link-cache invalidation, lookahead-batched k-way merge), and
//! with `SimConfig::threads` at 1 (coordinator only) or any larger
//! value (worker-thread mobility stepping and link-row prefetch), a
//! simulation produces byte-identical traces, identical metrics,
//! identical firmware state and identical routing tables — across
//! seeds, shard counts, thread counts, node churn, mobility and a full
//! LoRaMesher mesh. The `SimConfig::rng_streams` derivation gets the
//! same battery: engine-invariant under every (shards, threads) pair,
//! while remaining a genuinely different stream family than the pinned
//! fork derivation.
//!
//! The only allowed difference is the bookkeeping counter
//! `stale_timers_dropped`: the merge settles queue heads at slightly
//! different moments, so a superseded timer may be discarded before or
//! after the run's horizon depending on the engine. The fingerprint
//! deliberately zeroes it, exactly as `tests/engine_diff.rs` does for
//! the tombstone toggle.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{Position, Shadowing};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::time::SimTime;
use radio_sim::trace::TraceEvent;
use radio_sim::{SimConfig, Simulator};
use scenario::workload;
use scenario::{seed_list, NetworkBuilder, Target};

/// Shard counts every scenario is checked at. 1 is the sequential
/// reference; 2/4/8 exercise narrow bands (including bands narrower
/// than the audible range, where rosters overlap heavily).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker-thread counts the parallel evaluate regions are checked at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Timer- and channel-churning firmware (same shape as
/// `tests/engine_diff.rs`): CAD-busy verdicts move the next wake by an
/// RNG-jittered delay, so every engine divergence — event order, CAD
/// verdicts, interference sums — snowballs into a different timeline.
struct Chatty {
    next: Duration,
    interval: Duration,
    len: usize,
    heard: u64,
    rng: radio_sim::SimRng,
}

impl Chatty {
    fn new(phase_ms: u64, len: usize) -> Self {
        Chatty {
            next: Duration::from_millis(phase_ms),
            interval: Duration::from_millis(800),
            len,
            heard: 0,
            rng: radio_sim::SimRng::new(phase_ms ^ 0x54A8),
        }
    }
}

impl Firmware for Chatty {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += self.interval;
            ctx.start_cad();
        }
    }
    fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
        if busy {
            self.next = ctx.now() + Duration::from_millis(20 + self.rng.gen_range(60));
        } else {
            ctx.transmit(vec![0x6D; self.len]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Everything observable about a finished run, minus the one counter
/// the sharded engine is allowed to time differently.
type Fingerprint = (Vec<(SimTime, TraceEvent)>, Metrics, Vec<u64>);

fn fingerprint(s: &Simulator<Chatty>) -> Fingerprint {
    let mut metrics = s.metrics().clone();
    metrics.stale_timers_dropped = 0;
    (
        s.trace().entries().cloned().collect(),
        metrics,
        (0..s.node_count())
            .map(|i| s.node(radio_sim::NodeId(i)).heard)
            .collect(),
    )
}

fn config(shards: usize) -> SimConfig {
    config_with(shards, 1, false)
}

fn config_with(shards: usize, threads: usize, rng_streams: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg.trace_capacity = 1 << 16;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.rng_streams = rng_streams;
    cfg
}

/// Static line + churn: the kill truncates a possibly-in-flight frame
/// (roster unregistration), cancels timers in the victim's home queue,
/// and the revive fires `on_start` from the coordinator queue mid-run.
fn run_static(seed: u64, shards: usize) -> (Fingerprint, u64) {
    run_static_cfg(seed, config(shards))
}

fn run_static_cfg(seed: u64, cfg: SimConfig) -> (Fingerprint, u64) {
    let mut s = Simulator::new(cfg, seed);
    for k in 0..10u64 {
        s.add_node(
            Chatty::new(40 * k + 5, 10 + k as usize),
            Position::new(k as f64 * 95.0, (k % 3) as f64 * 40.0),
        );
    }
    s.schedule_kill(Duration::from_secs(3), radio_sim::NodeId(4));
    s.schedule_revive(Duration::from_secs(7), radio_sim::NodeId(4));
    s.run_for(Duration::from_secs(12));
    let events = s.events_processed();
    (fingerprint(&s), events)
}

/// Mobile scenario: nodes cross band edges (homes stay fixed), scoped
/// invalidation runs every tick, and a late joiner grows the home table.
fn run_mobile(seed: u64, shards: usize) -> (Fingerprint, u64) {
    run_mobile_cfg(seed, config(shards))
}

fn run_mobile_cfg(seed: u64, cfg: SimConfig) -> (Fingerprint, u64) {
    let mut s = Simulator::new(cfg, seed);
    let waypoint = Mobility::RandomWaypoint {
        width_m: 600.0,
        height_m: 600.0,
        min_speed: 10.0,
        max_speed: 30.0,
        pause: Duration::ZERO,
    };
    for k in 0..8u64 {
        s.add_mobile_node(
            Chatty::new(37 * k + 3, 60),
            Position::new(k as f64 * 70.0, k as f64 * 50.0),
            waypoint.clone(),
        );
    }
    s.run_for(Duration::from_secs(2));
    s.add_node(Chatty::new(11, 24), Position::new(300.0, 300.0));
    s.run_for(Duration::from_secs(10));
    let events = s.events_processed();
    (fingerprint(&s), events)
}

/// Dense cluster: every node hears every other, so each transmission
/// lands in every band roster and interference sums have many terms —
/// any float-ordering difference between engines shows up here.
fn run_full_mesh(seed: u64, shards: usize) -> (Fingerprint, u64) {
    let mut s = Simulator::new(config(shards), seed);
    for k in 0..12u64 {
        s.add_node(
            Chatty::new(29 * k + 7, 20),
            Position::new((k % 4) as f64 * 30.0, (k / 4) as f64 * 30.0),
        );
    }
    s.run_for(Duration::from_secs(8));
    let events = s.events_processed();
    (fingerprint(&s), events)
}

#[test]
fn static_churn_runs_identical_for_every_shard_count() {
    for seed in [1u64, 2, 3, 999] {
        let (reference, ref_events) = run_static(seed, 1);
        assert!(
            reference.1.frames_transmitted > 0 && reference.1.frames_delivered > 0,
            "seed {seed} produced no traffic — the test proves nothing"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run_static(seed, *shards);
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(
                ref_events, events,
                "event count drift at seed {seed}, {shards} shards"
            );
        }
    }
}

#[test]
fn mobile_runs_identical_for_every_shard_count() {
    for seed in [5u64, 6, 7] {
        let (reference, ref_events) = run_mobile(seed, 1);
        assert!(
            reference.1.frames_transmitted > 0,
            "seed {seed} produced no traffic"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run_mobile(seed, *shards);
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(ref_events, events, "event count drift at seed {seed}");
        }
    }
}

#[test]
fn full_mesh_runs_identical_for_every_shard_count() {
    for seed in [21u64, 22] {
        let (reference, ref_events) = run_full_mesh(seed, 1);
        assert!(
            reference.1.frames_delivered > 0,
            "seed {seed} delivered nothing"
        );
        for shards in &SHARD_COUNTS[1..] {
            let (sharded, events) = run_full_mesh(seed, *shards);
            assert_eq!(
                reference, sharded,
                "divergence at seed {seed}, {shards} shards"
            );
            assert_eq!(ref_events, events, "event count drift at seed {seed}");
        }
    }
}

/// Scoped invalidation must actually be scoped: a mobile run on several
/// shards must rebuild strictly fewer link-cache rows than the
/// sequential engine's wholesale invalidation — while producing the
/// same output (asserted above; re-asserted here on the same runs).
#[test]
fn scoped_invalidation_rebuilds_fewer_rows() {
    let run = |shards: usize| {
        let mut s = Simulator::new(config(shards), 5);
        let walk = Mobility::RandomWaypoint {
            width_m: 150.0,
            height_m: 150.0,
            min_speed: 5.0,
            max_speed: 15.0,
            pause: Duration::ZERO,
        };
        // Two clusters far outside audible range of each other: moves in
        // one cluster must not invalidate the other's rows.
        for k in 0..6u64 {
            s.add_mobile_node(
                Chatty::new(31 * k + 3, 16),
                Position::new(k as f64 * 20.0, k as f64 * 15.0),
                walk.clone(),
            );
        }
        for k in 0..6u64 {
            s.add_node(
                Chatty::new(41 * k + 9, 16),
                Position::new(1.0e6 + k as f64 * 20.0, k as f64 * 15.0),
            );
        }
        s.run_for(Duration::from_secs(10));
        (fingerprint(&s), s.link_rebuilds())
    };
    let (reference, seq_rebuilds) = run(1);
    let (sharded, shard_rebuilds) = run(4);
    assert_eq!(reference, sharded, "scoped invalidation changed behaviour");
    assert!(
        shard_rebuilds < seq_rebuilds,
        "scoped invalidation saved nothing: {shard_rebuilds} vs {seq_rebuilds} rebuilds"
    );
}

/// Full-stack check: a LoRaMesher network (hello cache, routing tables,
/// reliable transfers) yields the same traffic report, PHY metrics and
/// per-node routing state at every shard count.
#[test]
fn mesh_scenario_identical_for_every_shard_count() {
    let run = |shards: usize| {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let spacing = radio_sim::topology::radio_range_m(&cfg.rf) * 0.8;
        let mut runner = NetworkBuilder::mesh(radio_sim::topology::line(5, spacing), 31)
            .sim_config(cfg)
            .build();
        runner.apply(&workload::periodic(
            0,
            Target::Node(4),
            12,
            Duration::from_secs(60),
            Duration::from_secs(20),
            10,
        ));
        runner.run_until(Duration::from_secs(400));
        let r = runner.report();
        let mut metrics = runner.phy_metrics().clone();
        metrics.stale_timers_dropped = 0;
        let routes: Vec<String> = (0..runner.len())
            .filter_map(|i| runner.mesh_node(i))
            .map(|m| format!("{}", m.routing_table()))
            .collect();
        (
            metrics,
            r.sent,
            r.delivered,
            r.latencies,
            r.frames_transmitted,
            r.collisions,
            routes,
        )
    };
    let reference = run(1);
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            reference,
            run(*shards),
            "mesh divergence at {shards} shards"
        );
    }
}

/// Sweep aggregates must be bit-identical for any (jobs, shards) pair:
/// parallel workers and spatial shards are orthogonal and neither may
/// leak into results.
#[test]
fn sweep_aggregates_identical_across_jobs_and_shards() {
    let aggregate = |shards: usize, jobs: usize| {
        let seeds = seed_list(42, 4);
        scenario::run_parallel(&seeds, jobs, |&seed| {
            let (f, _) = run_static(seed, shards);
            (
                f.1.frames_delivered,
                f.1.total_losses(),
                f.1.frames_transmitted,
                f.2.iter().sum::<u64>(),
            )
        })
    };
    let reference = aggregate(1, 1);
    for (shards, jobs) in [(4, 1), (1, 4), (4, 4), (8, 2)] {
        assert_eq!(
            reference,
            aggregate(shards, jobs),
            "sweep drift at shards={shards}, jobs={jobs}"
        );
    }
}

/// Wide mixed scenario: enough nodes (above the simulator's parallel
/// region threshold) that worker threads genuinely spin up for the
/// start-of-run row prefetch, the mobility stepping and the wake-gated
/// post-tick prefetch.
fn run_wide(seed: u64, cfg: SimConfig) -> (Fingerprint, u64) {
    let mut s = Simulator::new(cfg, seed);
    let walk = Mobility::RandomWaypoint {
        width_m: 900.0,
        height_m: 500.0,
        min_speed: 5.0,
        max_speed: 20.0,
        pause: Duration::ZERO,
    };
    for k in 0..72u64 {
        let pos = Position::new((k % 12) as f64 * 80.0, (k / 12) as f64 * 70.0);
        if k % 3 == 0 {
            s.add_mobile_node(Chatty::new(23 * k + 5, 14), pos, walk.clone());
        } else {
            s.add_node(Chatty::new(23 * k + 5, 14), pos);
        }
    }
    s.run_for(Duration::from_secs(6));
    let events = s.events_processed();
    (fingerprint(&s), events)
}

/// The tentpole invariance: under both RNG families, every
/// (shards, threads) pair — including thread counts beyond the host's
/// core count — must reproduce the family's own sequential
/// single-threaded run byte for byte.
#[test]
fn wide_runs_identical_for_every_shard_and_thread_count() {
    for rng_streams in [false, true] {
        let (reference, ref_events) = run_wide(11, config_with(1, 1, rng_streams));
        assert!(
            reference.1.frames_transmitted > 0 && reference.1.frames_delivered > 0,
            "wide scenario produced no traffic — the test proves nothing"
        );
        for &shards in &SHARD_COUNTS {
            for &threads in &THREAD_COUNTS {
                if (shards, threads) == (1, 1) {
                    continue;
                }
                let (other, events) = run_wide(11, config_with(shards, threads, rng_streams));
                assert_eq!(
                    reference, other,
                    "divergence at shards={shards}, threads={threads}, rng_streams={rng_streams}"
                );
                assert_eq!(
                    ref_events, events,
                    "event count drift at shards={shards}, threads={threads}, \
                     rng_streams={rng_streams}"
                );
            }
        }
    }
}

/// Thread counts must also be invisible on scenarios *below* the
/// parallel thresholds (the gates themselves must not change
/// behaviour), with and without sharding, under both RNG families.
#[test]
fn small_runs_identical_for_every_thread_count() {
    for rng_streams in [false, true] {
        for seed in [1u64, 5] {
            let (st_ref, _) = run_static_cfg(seed, config_with(1, 1, rng_streams));
            let (mo_ref, _) = run_mobile_cfg(seed, config_with(1, 1, rng_streams));
            for &threads in &THREAD_COUNTS[1..] {
                for shards in [1usize, 4] {
                    let cfg = config_with(shards, threads, rng_streams);
                    let (st, _) = run_static_cfg(seed, cfg.clone());
                    assert_eq!(
                        st_ref, st,
                        "static divergence at seed {seed}, shards={shards}, \
                         threads={threads}, rng_streams={rng_streams}"
                    );
                    let (mo, _) = run_mobile_cfg(seed, cfg);
                    assert_eq!(
                        mo_ref, mo,
                        "mobile divergence at seed {seed}, shards={shards}, \
                         threads={threads}, rng_streams={rng_streams}"
                    );
                }
            }
        }
    }
}

/// The counter-keyed per-node stream derivation must be exactly as
/// engine-invariant as the fork derivation — and genuinely different
/// from it (otherwise it would not be a new stream family and the
/// pinned fork reference would be redundant).
#[test]
fn rng_stream_runs_identical_across_engines() {
    let (reference, ref_events) = run_wide(13, config_with(1, 1, true));
    assert!(
        reference.1.frames_transmitted > 0,
        "stream battery produced no traffic"
    );
    for &(shards, threads) in &[(2usize, 1usize), (4, 2), (8, 4)] {
        let (other, events) = run_wide(13, config_with(shards, threads, true));
        assert_eq!(
            reference, other,
            "stream divergence at shards={shards}, threads={threads}"
        );
        assert_eq!(ref_events, events, "stream event count drift");
    }
    let (forked, _) = run_wide(13, config_with(1, 1, false));
    assert_ne!(
        reference.0, forked.0,
        "stream derivation must draw differently than fork"
    );
}
