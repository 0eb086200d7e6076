//! Property tests for the fork-join worker regions: thread scheduling
//! may change *when* a chunk finishes, never *what* the region computes.
//!
//! 1. **Scripted uneven durations** — chunks are artificially delayed
//!    (including a reverse staircase where chunk 0 finishes last), so
//!    completion order is maximally different from chunk order; results
//!    must still land in item order, byte-for-byte equal to the serial
//!    reference.
//! 2. **Randomised schedules** — `forall` draws item counts, thread
//!    counts and sleep scripts; `map_chunks` / `run_chunks` must match
//!    the pure serial computation every time.
//! 3. **Whole-simulator property** — random tiny topologies run at
//!    random (shards, threads) pairs fingerprint-identically to the
//!    sequential single-threaded reference.
//!
//! Timing here is *injected* (`thread::sleep` with fixed durations),
//! never *measured* — the determinism lint (d2) bans clock reads in
//! this crate, tests included.

use std::thread;
use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::Position;
use radio_sim::firmware::{Context, Firmware};
use radio_sim::mobility::Mobility;
use radio_sim::par::{map_chunks, run_chunks};
use radio_sim::{NodeId, SimConfig, SimRng, Simulator};
use testkit::forall;

/// The adversarial schedule: chunk 0 (the calling thread's chunk)
/// sleeps longest, the last spawned chunk returns instantly. Completion
/// order is the exact reverse of chunk order, yet concatenation must
/// restore item order.
#[test]
fn reverse_staircase_durations_cannot_reorder_results() {
    let items: Vec<u64> = (0..64).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
    for threads in [2usize, 4, 8] {
        let chunk = items.len().div_ceil(threads);
        let got = map_chunks(threads, &items, |i, &x| {
            let chunk_index = i / chunk;
            let rank = threads.saturating_sub(chunk_index);
            // Sleep once per chunk, on its first item.
            if i % chunk == 0 {
                // meshlint::allow(c1): rank <= threads <= 8
                thread::sleep(Duration::from_millis(3 * rank as u64));
            }
            x.wrapping_mul(31) ^ 7
        });
        assert_eq!(got, expected, "threads = {threads}");
    }
}

/// Same adversarial schedule for the in-place variant.
#[test]
fn run_chunks_with_reverse_staircase_matches_serial() {
    let mut expected: Vec<u64> = (0..60).collect();
    for v in &mut expected {
        *v = v.wrapping_mul(13) + 5;
    }
    for threads in [2usize, 4, 6] {
        let mut items: Vec<u64> = (0..60).collect();
        let chunk = items.len().div_ceil(threads);
        run_chunks(threads, &mut items, |start, slice| {
            let rank = threads.saturating_sub(start / chunk);
            // meshlint::allow(c1): rank <= threads <= 6
            thread::sleep(Duration::from_millis(2 * rank as u64));
            for v in slice.iter_mut() {
                *v = v.wrapping_mul(13) + 5;
            }
        });
        assert_eq!(items, expected, "threads = {threads}");
    }
}

#[test]
fn scripted_random_durations_never_change_map_results() {
    forall(
        "scripted_random_durations_never_change_map_results",
        |g| {
            let n = g.len_in(0, 120);
            let threads = g.usize_in(1, 8);
            // Sparse sleep script: a handful of item indices pause for
            // a few hundred microseconds, everywhere the draw lands.
            let stride = g.usize_in(7, 23);
            let phase = g.usize_in(0, 6);
            let micros = g.int_in(50, 400);
            (n, threads, stride, phase, micros)
        },
        |&(n, threads, stride, phase, micros)| {
            let items: Vec<u64> = (0..n as u64).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x.rotate_left(9) ^ 0xA5).collect();
            let got = map_chunks(threads, &items, |i, &x| {
                if i % stride == phase {
                    thread::sleep(Duration::from_micros(micros));
                }
                x.rotate_left(9) ^ 0xA5
            });
            if got != expected {
                return Err(format!(
                    "map_chunks diverged: n={n}, threads={threads}, \
                     stride={stride}, phase={phase}"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn scripted_random_durations_never_change_in_place_results() {
    forall(
        "scripted_random_durations_never_change_in_place_results",
        |g| (g.len_in(0, 100), g.usize_in(1, 8), g.int_in(0, 300)),
        |&(n, threads, micros)| {
            let mut items: Vec<u64> = (0..n as u64).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x * 7 + 3).collect();
            run_chunks(threads, &mut items, |start, slice| {
                // Delay scales with the chunk's position so chunks
                // never finish in spawn order.
                thread::sleep(Duration::from_micros(micros + (start % 5) as u64 * 90));
                for v in slice.iter_mut() {
                    *v = *v * 7 + 3;
                }
            });
            if items != expected {
                return Err(format!("run_chunks diverged: n={n}, threads={threads}"));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Whole-simulator property
// ---------------------------------------------------------------------

/// Beacon firmware with CAD-jittered backoff: every divergence in event
/// order or channel verdicts snowballs into a different timeline.
struct Beacon {
    next: Duration,
    len: usize,
    heard: u64,
    rng: SimRng,
}

impl Firmware for Beacon {
    fn on_timer(&mut self, ctx: &mut Context) {
        if ctx.now() >= self.next {
            self.next += Duration::from_millis(400);
            ctx.start_cad();
        }
    }
    fn on_cad_done(&mut self, busy: bool, ctx: &mut Context) {
        if busy {
            self.next = ctx.now() + Duration::from_millis(10 + self.rng.gen_range(40));
        } else {
            ctx.transmit(vec![0xB7; self.len]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

fn run_case(
    seed: u64,
    nodes: usize,
    mobile_stride: usize,
    shards: usize,
    threads: usize,
) -> (Vec<u64>, u64, String) {
    let mut cfg = SimConfig::default();
    cfg.rf.grey_zone = true;
    cfg.shards = shards;
    cfg.threads = threads;
    let mut sim = Simulator::new(cfg, seed);
    let walk = Mobility::RandomWaypoint {
        width_m: 500.0,
        height_m: 400.0,
        min_speed: 4.0,
        max_speed: 18.0,
        pause: Duration::ZERO,
    };
    for k in 0..nodes {
        let fw = Beacon {
            next: Duration::from_millis(17 * k as u64 + 3),
            len: 8 + k % 9,
            heard: 0,
            rng: SimRng::new(seed ^ (k as u64) << 3),
        };
        let pos = Position::new((k % 6) as f64 * 90.0, (k / 6) as f64 * 75.0);
        if k % mobile_stride == 0 {
            sim.add_mobile_node(fw, pos, walk.clone());
        } else {
            sim.add_node(fw, pos);
        }
    }
    sim.run_for(Duration::from_millis(1_500));
    let heard = (0..sim.node_count())
        .map(|i| sim.node(NodeId(i)).heard)
        .collect();
    let mut metrics = sim.metrics().clone();
    metrics.stale_timers_dropped = 0;
    (heard, sim.events_processed(), format!("{metrics:?}"))
}

#[test]
fn threaded_simulations_match_the_sequential_reference() {
    forall(
        "threaded_simulations_match_the_sequential_reference",
        |g| {
            (
                u64::from(g.u16()),
                g.usize_in(6, 24),
                g.usize_in(2, 5),
                [1usize, 2, 4, 8][g.usize_in(0, 3)],
                [2usize, 3, 4][g.usize_in(0, 2)],
            )
        },
        |&(seed, nodes, stride, shards, threads)| {
            let reference = run_case(seed, nodes, stride, 1, 1);
            let threaded = run_case(seed, nodes, stride, shards, threads);
            if reference != threaded {
                return Err(format!(
                    "divergence at seed={seed}, nodes={nodes}, stride={stride}, \
                     shards={shards}, threads={threads}"
                ));
            }
            Ok(())
        },
    );
}
