//! The static-grid beacon scenario behind the scaling benchmark.
//!
//! N nodes on a square grid, spaced at 0.8× the radio range (so each
//! node hears only its 4-neighborhood — the regime the link cache's
//! audible-neighbor culling targets), every node broadcasting a short
//! beacon on a fixed period with a deterministic per-node phase. The
//! scenario is pure PHY (no routing) so the measurement isolates the
//! simulator hot path: `start_tx` fan-out, receiver locking and
//! interference seeding.
//!
//! Shared by `src/bin/bench_scaling.rs` (the `BENCH_PR4.json` scaling
//! run), `benches/micro.rs` (hot-path benches) and perfbench.

use std::sync::Arc;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::Position;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::topology;
use radio_sim::{SimConfig, Simulator};

/// Beacon period of every node.
pub const BEACON_INTERVAL: Duration = Duration::from_secs(3);
/// Beacon payload length in bytes.
pub const BEACON_LEN: usize = 16;
/// Every `MOBILE_STRIDE`-th node moves in the mobile variant.
pub const MOBILE_STRIDE: usize = 3;

/// Fires a fixed-length broadcast every [`BEACON_INTERVAL`], phase-offset
/// per node; counts the beacons it hears.
pub struct Beacon {
    next: Duration,
    /// The beacon frame, built once: each transmission clones the `Arc`
    /// (a refcount bump), keeping the steady-state loop allocation-free
    /// — see `tests/alloc_regression.rs`.
    frame: Arc<[u8]>,
    /// Frames this node decoded.
    pub heard: u64,
}

impl Beacon {
    /// A beacon whose first transmission happens at `phase`.
    #[must_use]
    pub fn with_phase(phase: Duration) -> Self {
        Beacon {
            next: phase,
            frame: vec![0xB3; BEACON_LEN].into(),
            heard: 0,
        }
    }
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            ctx.transmit(self.frame.clone());
            self.next += BEACON_INTERVAL;
        }
    }
    fn on_frame(&mut self, _bytes: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Builds the n-node static-grid beacon simulation (n is rounded up to
/// the next perfect square). `shards` = 1 is the sequential engine;
/// larger values run the PR 6 sharded engine (behaviourally
/// transparent, asserted by the benchmark harness).
#[must_use]
pub fn build(n: usize, shards: usize, seed: u64) -> Simulator<Beacon> {
    let cfg = SimConfig {
        shards,
        ..SimConfig::default()
    };
    build_cfg(n, cfg, seed)
}

/// [`build`] with a caller-shaped [`SimConfig`] (threads, RNG streams,
/// …).
#[must_use]
pub fn build_cfg(n: usize, cfg: SimConfig, seed: u64) -> Simulator<Beacon> {
    let spacing = topology::radio_range_m(&cfg.rf) * 0.8;
    let side = (n as f64).sqrt().ceil() as usize;
    let mut sim = Simulator::new(cfg, seed);
    for (i, pos) in topology::grid(side, side, spacing).into_iter().enumerate() {
        // Deterministic pseudo-random phase spreads transmissions over
        // the beacon period without consuming simulator RNG draws.
        let phase = Duration::from_millis((i as u64).wrapping_mul(2971) % 3000);
        sim.add_node(Beacon::with_phase(phase), pos);
    }
    sim
}

/// The mobile variant: the same beacon grid, but every
/// [`MOBILE_STRIDE`]-th node walks a RandomWaypoint over the deployment
/// area. Mobility ticks invalidate link-cache rows band by band, so the
/// measurement covers row rebuilds, grid rebuilds and — with
/// `cfg.threads > 1` — the wake-gated parallel prefetch regions.
#[must_use]
pub fn build_mobile(n: usize, cfg: SimConfig, seed: u64) -> Simulator<Beacon> {
    let spacing = topology::radio_range_m(&cfg.rf) * 0.8;
    let side = (n as f64).sqrt().ceil() as usize;
    let extent = side as f64 * spacing;
    let walk = Mobility::RandomWaypoint {
        width_m: extent,
        height_m: extent,
        min_speed: 2.0,
        max_speed: 14.0,
        pause: Duration::from_secs(2),
    };
    let mut sim = Simulator::new(cfg, seed);
    for (i, pos) in topology::grid(side, side, spacing).into_iter().enumerate() {
        let phase = Duration::from_millis((i as u64).wrapping_mul(2971) % 3000);
        if i % MOBILE_STRIDE == 0 {
            sim.add_mobile_node(Beacon::with_phase(phase), pos, walk.clone());
        } else {
            sim.add_node(Beacon::with_phase(phase), pos);
        }
    }
    sim
}

/// Distance between cluster origins in [`build_clusters`] beyond the
/// clusters' own extent — far outside any audible range, so no cluster
/// hears another.
pub const CLUSTER_GAP_M: f64 = 1.0e5;

/// The clustered variant: `clusters` beacon grids of `n / clusters`
/// nodes each, pitched [`CLUSTER_GAP_M`] beyond audible range along x,
/// so the sharded engine's bands fall on range-isolated clusters. The
/// beacon phases cycle every 3 s across all clusters, so every
/// lookahead window carries several clusters' timers at once.
#[must_use]
pub fn build_clusters(n: usize, clusters: usize, cfg: SimConfig, seed: u64) -> Simulator<Beacon> {
    let spacing = topology::radio_range_m(&cfg.rf) * 0.8;
    let per = n.div_ceil(clusters.max(1));
    let side = (per as f64).sqrt().ceil() as usize;
    let pitch = side as f64 * spacing + CLUSTER_GAP_M;
    let mut sim = Simulator::new(cfg, seed);
    let mut i = 0u64;
    for c in 0..clusters.max(1) {
        let dx = c as f64 * pitch;
        for pos in topology::grid(side, side, spacing).into_iter().take(per) {
            let phase = Duration::from_millis(i.wrapping_mul(2971) % 3000);
            sim.add_node(Beacon::with_phase(phase), Position::new(pos.x + dx, pos.y));
            i += 1;
        }
    }
    sim
}

/// Runs the clustered scenario and returns the final PHY metrics plus
/// the number of events processed.
#[must_use]
pub fn run_clusters(
    n: usize,
    clusters: usize,
    cfg: SimConfig,
    sim_secs: u64,
    seed: u64,
) -> (Metrics, u64) {
    finish(build_clusters(n, clusters, cfg, seed), sim_secs)
}

/// Runs the scenario for `sim_secs` simulated seconds and returns the
/// final PHY metrics plus the number of events processed.
#[must_use]
pub fn run(n: usize, shards: usize, sim_secs: u64, seed: u64) -> (Metrics, u64) {
    finish(build(n, shards, seed), sim_secs)
}

/// [`run`] over a caller-shaped config, static or mobile topology.
#[must_use]
pub fn run_cfg(n: usize, cfg: SimConfig, mobile: bool, sim_secs: u64, seed: u64) -> (Metrics, u64) {
    let sim = if mobile {
        build_mobile(n, cfg, seed)
    } else {
        build_cfg(n, cfg, seed)
    };
    finish(sim, sim_secs)
}

fn finish(mut sim: Simulator<Beacon>, sim_secs: u64) -> (Metrics, u64) {
    sim.run_for(Duration::from_secs(sim_secs));
    let mut metrics = sim.metrics().clone();
    // The engines may time out superseded timers on different sides of
    // the horizon (see `tests/shard_diff.rs`); every other field must
    // match exactly.
    metrics.stale_timers_dropped = 0;
    (metrics, sim.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The beacon grid still reproduces the metrics and event count
    /// the retired uncached path (`SimConfig::link_cache = false`)
    /// produced: FNV-1a of their `Debug` rendering, captured from that
    /// path before it was deleted.
    #[test]
    fn run_matches_retired_uncached_pin() {
        let (metrics, events) = run(16, 1, 15, 42);
        assert!(
            metrics.frames_transmitted > 0,
            "scenario must generate load"
        );
        assert!(metrics.frames_delivered > 0, "neighbors must hear beacons");
        let text = format!("{:?}", (&metrics, events));
        assert_eq!(testkit::fnv1a(text.as_bytes()), 0x9401_a896_54c5_719f);
    }

    #[test]
    fn sequential_and_sharded_runs_agree() {
        let (seq, ev_s) = run(25, 1, 15, 42);
        for shards in [2, 4, 8] {
            let (sharded, ev) = run(25, shards, 15, 42);
            assert_eq!(seq, sharded, "{shards} shards changed behaviour");
            assert_eq!(ev_s, ev, "{shards} shards changed the event count");
        }
    }

    #[test]
    fn clustered_runs_agree_across_threads() {
        let cfg = |threads: usize| SimConfig {
            shards: 4,
            threads,
            rng_streams: true,
            ..SimConfig::default()
        };
        let (m1, e1) = run_clusters(48, 4, cfg(1), 15, 42);
        assert!(m1.frames_delivered > 0, "clusters must deliver beacons");
        for threads in [2, 4] {
            let (m, e) = run_clusters(48, 4, cfg(threads), 15, 42);
            assert_eq!(m1, m, "{threads} threads changed behaviour");
            assert_eq!(e1, e, "{threads} threads changed the event count");
        }
    }

    #[test]
    fn mobile_runs_agree_across_shards_and_threads() {
        // Either RNG family works with any thread count; the family must
        // only match across the legs being compared.
        for rng_streams in [false, true] {
            let cfg = |shards: usize, threads: usize| SimConfig {
                shards,
                threads,
                rng_streams,
                ..SimConfig::default()
            };
            let reference = run_cfg(81, cfg(1, 1), true, 15, 42);
            assert!(reference.0.frames_delivered > 0, "mobile grid must deliver");
            for (shards, threads) in [(1, 2), (4, 1), (4, 4)] {
                assert_eq!(
                    reference,
                    run_cfg(81, cfg(shards, threads), true, 15, 42),
                    "mobile run diverged at shards={shards}, threads={threads}, \
                     rng_streams={rng_streams}"
                );
            }
        }
    }
}
