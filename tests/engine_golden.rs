//! Pinned fingerprints for the three engine reference paths that left
//! `SimConfig`: the legacy wake-resync engine (every scheduled wake
//! popped and was re-checked against `next_wake` instead of being
//! tombstoned inside the queue), the uncached link path (every
//! transmission fanned out over all n nodes and every CAD asked the
//! medium directly) and the gridless row fill (every link-cache row
//! visited all n nodes and the shard partition counted nodes instead of
//! weighing them). DESIGN.md, "Retired engine reference paths", names
//! the toggles that selected them.
//!
//! Each path was a live differential reference: a test ran a scenario
//! under it and under the default engine and demanded equal
//! fingerprints. Every row below is one of those comparisons with the
//! reference side frozen. Its hash was captured by running the scenario
//! under the retired configuration, before the path was deleted, and is
//! the FNV-1a hash of the `Debug` rendering of exactly the fingerprint
//! the comparison used. `source` names the deleted test the comparison
//! came from. The default engine must reproduce every row bit-for-bit,
//! and `table_pins_every_retired_comparison` keeps the table from
//! shrinking below the comparisons those tests made.
//!
//! Two fingerprint shapes exist, as in the deleted tests. `Timer*` rows
//! leave out `events_processed` and zero `stale_timers_dropped`: the
//! legacy engine popped stale wakes as real events and never tombstoned.
//! Every other row keeps both counters.

use std::time::Duration;

use lora_phy::link::SignalQuality;
use lora_phy::propagation::{Position, Shadowing};
use radio_sim::firmware::{Context, Firmware};
use radio_sim::mobility::Mobility;
use radio_sim::{NodeId, SimConfig, Simulator};
use scenario::workload::{self, Target};
use scenario::{seed_list, NetworkBuilder, Runner};
use testkit::fnv1a;
use Case::*;

/// The scenario (and fingerprint shape) a row runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Case {
    /// Ten `Chatty` nodes on a line; node 4 dies at 3 s, returns at 7 s.
    TimerChurn,
    /// Eight walking `Chatty` nodes and a late joiner.
    TimerMobile,
    /// A five-node LoRaMesher line with periodic unicast traffic.
    TimerMesh,
    /// `TimerChurn` aggregates over `seed_list(seed, 4)`.
    TimerSweep,
    /// The churn line with the counters kept.
    Churn,
    /// The mobile scenario with the counters kept.
    Mobile,
    /// The mesh line with the counters kept.
    Mesh,
    /// `Churn` aggregates over `seed_list(seed, 4)`.
    Sweep,
    /// Eight one-shot senders on a line.
    ShotLine,
    /// Eighty one-shot senders, every third walking.
    ShotField,
}

const TIMER_CHURN: &str = "engine_diff::static_runs_identical_across_seeds";
const TIMER_MOBILE: &str = "engine_diff::mobile_runs_identical_across_seeds";
const TIMER_MESH: &str = "engine_diff::mesh_scenario_identical";
const TIMER_SWEEP: &str = "engine_diff::sweep_aggregates_identical";
const CACHE_CHURN: &str = "link_cache_diff::static_runs_identical_across_seeds";
const CACHE_MOBILE: &str = "link_cache_diff::mobile_runs_identical_across_seeds";
const CACHE_MESH: &str = "link_cache_diff::mesh_scenario_identical";
const CACHE_SWEEP: &str = "link_cache_diff::sweep_aggregates_identical";
const GRID: &str = "link_cache_diff: grid toggle in every cache combination";
const SPOT_CACHE: &str = "radio-sim sim.rs: cache-off spot check";
const SPOT_GRID: &str = "radio-sim sim.rs: grid-off spot check";

/// Comparisons each deleted test made: one per scenario × seed ×
/// retired configuration.
const COMPARISONS: &[(&str, usize)] = &[
    (TIMER_CHURN, 4),
    (TIMER_MOBILE, 3),
    (TIMER_MESH, 1),
    (TIMER_SWEEP, 1),
    (CACHE_CHURN, 4),
    (CACHE_MOBILE, 3),
    (CACHE_MESH, 1),
    (CACHE_SWEEP, 1),
    (GRID, 8),
    (SPOT_CACHE, 1),
    (SPOT_GRID, 1),
];

const LEGACY: &str = "legacy wake resync";
const UNCACHED: &str = "uncached links";
const GRIDLESS: &str = "gridless rows";
const BOTH: &str = "uncached links, gridless rows";

/// One pinned comparison: the deleted test that made it, the case and
/// seed it ran, the retired configuration the hash was captured under,
/// and the hash.
type Golden = (&'static str, Case, u64, &'static str, u64);

const GOLDENS: &[Golden] = &[
    (TIMER_CHURN, TimerChurn, 1, LEGACY, 0x9c0e06c33e071f5d),
    (TIMER_CHURN, TimerChurn, 2, LEGACY, 0xe360cd6feaeeee73),
    (TIMER_CHURN, TimerChurn, 3, LEGACY, 0x095483ffd9d4955b),
    (TIMER_CHURN, TimerChurn, 999, LEGACY, 0xef2de5b30182749a),
    (TIMER_MOBILE, TimerMobile, 5, LEGACY, 0x90b426273e14446a),
    (TIMER_MOBILE, TimerMobile, 6, LEGACY, 0x17ae1579c212a3af),
    (TIMER_MOBILE, TimerMobile, 7, LEGACY, 0xe7936e5cd32ec6d1),
    (TIMER_MESH, TimerMesh, 31, LEGACY, 0x2f39df05c7e6224a),
    (TIMER_SWEEP, TimerSweep, 42, LEGACY, 0x975edc5580997167),
    (CACHE_CHURN, Churn, 1, UNCACHED, 0xe0825a396a81fa9f),
    (CACHE_CHURN, Churn, 2, UNCACHED, 0xb297ced5b82edad7),
    (CACHE_CHURN, Churn, 3, UNCACHED, 0xe76dac9e8600f02f),
    (CACHE_CHURN, Churn, 999, UNCACHED, 0x3b24c700f908e788),
    (CACHE_MOBILE, Mobile, 5, UNCACHED, 0xa1a14dd4ccdd86a9),
    (CACHE_MOBILE, Mobile, 6, UNCACHED, 0xfcb57acf05917236),
    (CACHE_MOBILE, Mobile, 7, UNCACHED, 0xb3e008934d736477),
    (CACHE_MESH, Mesh, 31, UNCACHED, 0xf0c8de5675732541),
    (CACHE_SWEEP, Sweep, 42, UNCACHED, 0xeb2d3886a4e58ee9),
    (GRID, Churn, 2, GRIDLESS, 0xb297ced5b82edad7),
    (GRID, Churn, 2, UNCACHED, 0xb297ced5b82edad7),
    (GRID, Churn, 2, BOTH, 0xb297ced5b82edad7),
    (GRID, Mobile, 2, GRIDLESS, 0x3fc7fea51b2da5ce),
    (GRID, Churn, 7, GRIDLESS, 0x1fcfef1e674d664b),
    (GRID, Churn, 7, UNCACHED, 0x1fcfef1e674d664b),
    (GRID, Churn, 7, BOTH, 0x1fcfef1e674d664b),
    (GRID, Mobile, 7, GRIDLESS, 0xb3e008934d736477),
    (SPOT_CACHE, ShotLine, 99, UNCACHED, 0x434fd6ee95890dd1),
    (SPOT_GRID, ShotField, 4242, GRIDLESS, 0x9eff53bfbf258d01),
];

/// PHY-exercising firmware: periodically runs a CAD scan and transmits
/// when the channel is clear, with an RNG-jittered retry when busy, so
/// a run covers fan-out, receiver locking, interference seeding, CAD
/// scans, grey-zone RNG draws and constant timer rescheduling.
struct Chatty {
    next: Duration,
    interval: Duration,
    len: usize,
    fill: u8,
    heard: u64,
    rng: radio_sim::SimRng,
}

impl Chatty {
    fn new(phase_ms: u64, len: usize, fill: u8) -> Self {
        Chatty {
            next: Duration::from_millis(phase_ms),
            interval: Duration::from_millis(800),
            len,
            fill,
            heard: 0,
            rng: radio_sim::SimRng::new(phase_ms ^ 0xC4A7),
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
            ctx.transmit(vec![self.fill; self.len]);
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {
        self.heard += 1;
    }
    fn next_wake(&self) -> Option<Duration> {
        Some(self.next)
    }
}

/// Transmits one frame at a fixed time, then sleeps.
struct OneShot {
    at: Duration,
    payload: Vec<u8>,
    sent: bool,
}

impl Firmware for OneShot {
    fn on_timer(&mut self, ctx: &mut Context) {
        if !self.sent && ctx.now() >= self.at {
            self.sent = true;
            ctx.transmit(self.payload.clone());
        }
    }
    fn on_frame(&mut self, _b: &[u8], _q: SignalQuality, _ctx: &mut Context) {}
    fn next_wake(&self) -> Option<Duration> {
        (!self.sent).then_some(self.at)
    }
}

fn chatty_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg.trace_capacity = 1 << 16;
    cfg
}

/// The payload byte each deleted file's `Chatty` sent.
fn fill(case: Case) -> u8 {
    match case {
        TimerChurn | TimerMobile | TimerSweep => 0xE4,
        _ => 0xC7,
    }
}

fn run_churn(seed: u64, fill: u8) -> Simulator<Chatty> {
    let mut s = Simulator::new(chatty_config(), seed);
    for k in 0..10u64 {
        s.add_node(
            Chatty::new(40 * k + 5, 10 + k as usize, fill),
            Position::new(k as f64 * 95.0, (k % 3) as f64 * 40.0),
        );
    }
    s.schedule_kill(Duration::from_secs(3), NodeId(4));
    s.schedule_revive(Duration::from_secs(7), NodeId(4));
    s.run_for(Duration::from_secs(12));
    s
}

fn run_mobile(seed: u64, fill: u8) -> Simulator<Chatty> {
    let mut s = Simulator::new(chatty_config(), seed);
    let waypoint = Mobility::RandomWaypoint {
        width_m: 600.0,
        height_m: 600.0,
        min_speed: 10.0,
        max_speed: 30.0,
        pause: Duration::ZERO,
    };
    for k in 0..8u64 {
        s.add_mobile_node(
            Chatty::new(37 * k + 3, 60, fill),
            Position::new(k as f64 * 70.0, k as f64 * 50.0),
            waypoint.clone(),
        );
    }
    s.run_for(Duration::from_secs(2));
    s.add_node(Chatty::new(11, 24, fill), Position::new(300.0, 300.0));
    s.run_for(Duration::from_secs(10));
    s
}

fn run_mesh(seed: u64) -> Runner {
    let spacing = radio_sim::topology::radio_range_m(&SimConfig::default().rf) * 0.8;
    let mut runner = NetworkBuilder::mesh(radio_sim::topology::line(5, spacing), seed)
        .sim_config(SimConfig::default())
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
    runner
}

/// `n` one-shot senders `spacing_ms` apart in time, node `k` placed and
/// moved by `place(k)`.
fn run_shots(
    mut cfg: SimConfig,
    seed: u64,
    n: u8,
    spacing_ms: u64,
    place: impl Fn(u8) -> (Position, Mobility),
    secs: u64,
) -> Simulator<OneShot> {
    cfg.rf.grey_zone = true;
    let mut s = Simulator::new(cfg, seed);
    for k in 0..n {
        let (position, mobility) = place(k);
        let shot = OneShot {
            at: Duration::from_millis(spacing_ms * u64::from(k)),
            payload: vec![k; 12],
            sent: false,
        };
        s.add_mobile_node(shot, position, mobility);
    }
    s.run_for(Duration::from_secs(secs));
    s
}

fn heard(s: &Simulator<Chatty>) -> Vec<u64> {
    (0..s.node_count())
        .map(|i| s.node(NodeId(i)).heard)
        .collect()
}

/// The fingerprint a `Timer*` row hashes: trace, metrics without the
/// stale-drop counter, and per-node frames heard. Also makes the
/// comparison's non-reference assertions.
fn timer_print(s: &Simulator<Chatty>, what: &str) -> String {
    let mut metrics = s.metrics().clone();
    assert!(metrics.frames_transmitted > 0, "{what}: no traffic");
    assert!(
        metrics.stale_timers_dropped > 0,
        "{what}: no stale timers dropped, reschedule churn untested"
    );
    metrics.stale_timers_dropped = 0;
    let trace: Vec<_> = s.trace().entries().cloned().collect();
    format!("{:?}", (trace, metrics, heard(s)))
}

/// The fingerprint the other `Chatty` rows hash: trace, full metrics,
/// per-node frames heard and the event count.
fn cache_print(s: &Simulator<Chatty>) -> String {
    let trace: Vec<_> = s.trace().entries().cloned().collect();
    let fp = (trace, s.metrics().clone(), heard(s), s.events_processed());
    format!("{fp:?}")
}

fn mesh_print(runner: Runner, timer: bool) -> String {
    let r = runner.report();
    let mut metrics = runner.phy_metrics().clone();
    if !timer {
        let fp = (
            metrics,
            r.sent,
            r.delivered,
            r.latencies,
            r.frames_transmitted,
            r.collisions,
        );
        return format!("{fp:?}");
    }
    metrics.stale_timers_dropped = 0;
    let routes: Vec<String> = (0..runner.len())
        .filter_map(|i| runner.mesh_node(i))
        .map(|m| format!("{}", m.routing_table()))
        .collect();
    let fp = (
        metrics,
        r.sent,
        r.delivered,
        r.latencies,
        r.frames_transmitted,
        r.collisions,
        routes,
    );
    format!("{fp:?}")
}

/// Per-seed (delivered, losses, transmitted, last) over
/// `seed_list(base, 4)`, where `last` is the frames-heard total for
/// `TimerSweep` and the event count for `Sweep`. Asserts
/// jobs-invariance.
fn sweep_print(case: Case, base: u64) -> String {
    let timer = case == TimerSweep;
    let aggregate = |jobs: usize| {
        scenario::run_parallel(&seed_list(base, 4), jobs, |&seed| {
            let s = run_churn(seed, fill(case));
            let m = s.metrics();
            let last = if timer {
                heard(&s).iter().sum::<u64>()
            } else {
                s.events_processed()
            };
            (
                m.frames_delivered,
                m.total_losses(),
                m.frames_transmitted,
                last,
            )
        })
    };
    let serial = aggregate(1);
    assert_eq!(serial, aggregate(4), "sweep aggregates depend on jobs");
    format!("{serial:?}")
}

/// Runs `case` at `seed` on the default engine and renders the
/// fingerprint its rows pin.
fn observe(case: Case, seed: u64) -> String {
    let what = format!("{case:?} seed {seed}");
    match case {
        TimerChurn => {
            let s = run_churn(seed, fill(case));
            assert!(s.metrics().frames_delivered > 0, "{what}: no deliveries");
            timer_print(&s, &what)
        }
        TimerMobile => timer_print(&run_mobile(seed, fill(case)), &what),
        TimerMesh => mesh_print(run_mesh(seed), true),
        TimerSweep | Sweep => sweep_print(case, seed),
        Churn => {
            let s = run_churn(seed, fill(case));
            let m = s.metrics();
            assert!(
                m.frames_transmitted > 0 && m.frames_delivered > 0,
                "{what}: no traffic"
            );
            cache_print(&s)
        }
        Mobile => {
            let s = run_mobile(seed, fill(case));
            assert!(s.metrics().frames_transmitted > 0, "{what}: no traffic");
            cache_print(&s)
        }
        Mesh => mesh_print(run_mesh(seed), false),
        ShotLine => {
            let cfg = SimConfig {
                trace_capacity: 4096,
                ..SimConfig::default()
            };
            let place = |k: u8| (Position::new(f64::from(k) * 90.0, 0.0), Mobility::Static);
            let s = run_shots(cfg, seed, 8, 7, place, 2);
            let trace: Vec<_> = s.trace().entries().cloned().collect();
            format!("{:?}", (s.metrics().clone(), trace))
        }
        ShotField => {
            let cfg = SimConfig {
                trace_capacity: 1 << 14,
                ..SimConfig::default()
            };
            let place = |k: u8| {
                let mobility = if k.is_multiple_of(3) {
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
                let position = Position::new(f64::from(k % 10) * 85.0, f64::from(k / 10) * 60.0);
                (position, mobility)
            };
            let s = run_shots(cfg, seed, 80, 13, place, 6);
            let mut metrics = s.metrics().clone();
            metrics.stale_timers_dropped = 0;
            let trace: Vec<_> = s.trace().entries().cloned().collect();
            format!("{:?}", (metrics, trace))
        }
    }
}

/// Checks every row `source` pinned, running each distinct
/// (case, seed) once.
fn check(source: &str) {
    let mut seen: Vec<(Case, u64, u64)> = Vec::new();
    for &(_, case, seed, retired, want) in GOLDENS.iter().filter(|g| g.0 == source) {
        let got = match seen.iter().find(|s| (s.0, s.1) == (case, seed)) {
            Some(&(_, _, hash)) => hash,
            None => {
                let hash = fnv1a(observe(case, seed).as_bytes());
                seen.push((case, seed, hash));
                hash
            }
        };
        assert_eq!(
            got, want,
            "{source}: {case:?} seed {seed} diverged from its pin captured under {retired} \
             (got {got:#018x})"
        );
    }
    assert!(!seen.is_empty(), "no rows pinned for {source}");
}

#[test]
fn legacy_timer_churn_matches_pins() {
    check(TIMER_CHURN);
}

#[test]
fn legacy_timer_mobile_matches_pins() {
    check(TIMER_MOBILE);
}

#[test]
fn legacy_timer_mesh_matches_pin() {
    check(TIMER_MESH);
}

#[test]
fn legacy_timer_sweep_matches_pin() {
    check(TIMER_SWEEP);
}

#[test]
fn uncached_churn_matches_pins() {
    check(CACHE_CHURN);
}

#[test]
fn uncached_mobile_matches_pins() {
    check(CACHE_MOBILE);
}

#[test]
fn uncached_mesh_matches_pin() {
    check(CACHE_MESH);
}

#[test]
fn uncached_sweep_matches_pin() {
    check(CACHE_SWEEP);
}

#[test]
fn gridless_runs_match_pins() {
    check(GRID);
}

#[test]
fn spot_checks_match_pins() {
    check(SPOT_CACHE);
    check(SPOT_GRID);
}

#[test]
fn table_pins_every_retired_comparison() {
    let mut total = 0;
    for &(source, made) in COMPARISONS {
        let pinned = GOLDENS.iter().filter(|g| g.0 == source).count();
        assert!(
            pinned >= made,
            "{source} made {made} comparisons but only {pinned} are pinned"
        );
        total += made;
    }
    assert_eq!(total, 28);
    assert!(GOLDENS.len() >= total);
}
