//! Golden-fingerprint battery pinning the default LoRaMesher stack
//! byte-identical across the protocol-pluggability refactor (ISSUE 10:
//! `Protocol` abstraction + managed-flooding second stack).
//!
//! Unlike `tests/stack_refactor_diff.rs` (which pins the PR 5 layer
//! split on the sequential engine only), this battery pins the mesh
//! stack across the full engine matrix the refactor must not disturb:
//! seeds × shards {1, 4} × threads {1, 2}. Two fingerprint families
//! exist per seed because `SimConfig::rng_streams` selects a different
//! (but engine-invariant) per-node stream derivation:
//!
//! * `fork` — the default fork-chain RNG family;
//! * `streams` — the counter-keyed per-node stream family.
//!
//! Within a family every engine configuration must produce the same
//! dump; the pinned constant then freezes that dump across refactors.
//! The hashes below were captured on the pre-refactor tree (before the
//! `Protocol` trait existed). To regenerate after an *intentional*
//! behaviour change, run:
//!
//! ```text
//! PROTOCOL_DIFF_REGEN=1 cargo test --test protocol_refactor_diff -- --nocapture
//! ```
//!
//! and paste the printed table, with a review of why the behaviour
//! moved. Regen history: none — captured pre-refactor, never moved.

use std::fmt::Write as _;
use std::time::Duration;

use lora_phy::propagation::Shadowing;
use radio_sim::{topology, NodeId, SimConfig};
use scenario::runner::ProtocolChoice;
use scenario::workload::{self, Target, TrafficEvent};
use scenario::{seed_list, NetworkBuilder, Runner};
use testkit::fnv1a;

/// Serialises everything observable about a finished run: the
/// wire-level timeline, the PHY metrics, and each node's full
/// protocol-visible state plus the traffic report.
fn dump(runner: &mut Runner) -> String {
    runner.sim_mut().finish();
    let mut out = String::new();
    for entry in runner.sim().trace().entries() {
        let _ = writeln!(out, "trace {entry:?}");
    }
    let _ = writeln!(out, "metrics {:?}", runner.phy_metrics());
    for i in 0..runner.len() {
        let fw = runner.sim().node(runner.id(i));
        let _ = writeln!(out, "node {i} send_errors {}", fw.send_errors);
        for (t, event) in &fw.event_log {
            let _ = writeln!(out, "node {i} app {t:?} {event:?}");
        }
        if let Some(mesh) = runner.mesh_node(i) {
            let _ = writeln!(out, "node {i} stats {:?}", mesh.stats());
            let _ = writeln!(out, "node {i} txq {}", mesh.tx_queue_len());
            let _ = writeln!(
                out,
                "node {i} transfers out={:?} in={:?}",
                mesh.outbound_transfers(),
                mesh.inbound_transfers()
            );
            let _ = write!(out, "node {i} routes\n{}", mesh.routing_table());
        }
    }
    let report = runner.report();
    let _ = writeln!(
        out,
        "report sent={} delivered={} latencies={:?} frames={} collisions={} \
         reliable_attempted={} reliable_latencies={:?}",
        report.sent,
        report.delivered,
        report.latencies,
        report.frames_transmitted,
        report.collisions,
        report.reliable_attempted,
        report.reliable_latencies,
    );
    out
}

/// Shadowing + grey-zone reception keep the simulator RNG hot, so the
/// two stream families genuinely diverge (with a quiet RNG they would
/// collapse into one vacuous family).
fn traced_config(shards: usize, threads: usize, rng_streams: bool) -> SimConfig {
    let mut cfg = SimConfig {
        trace_capacity: 1 << 16,
        shards,
        threads,
        rng_streams,
        ..SimConfig::default()
    };
    cfg.rf.grey_zone = true;
    cfg.rf.shadowing = Shadowing::new(4.0, 7);
    cfg
}

/// The pinned scenario: a 3×2 mesh grid with multi-hop unicast streams,
/// a broadcast stream, a fragmented reliable transfer and relay churn —
/// every mesh layer (routing daemon, transport, app codec, MAC) leaves
/// a mark in the dump.
fn run_mesh(seed: u64, shards: usize, threads: usize, rng_streams: bool) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.8;
    let mut runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing), seed)
        .sim_config(traced_config(shards, threads, rng_streams))
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(5),
        12,
        Duration::from_secs(60),
        Duration::from_secs(15),
        10,
    ));
    runner.apply(&workload::periodic(
        5,
        Target::Broadcast,
        10,
        Duration::from_secs(75),
        Duration::from_secs(30),
        4,
    ));
    runner.schedule(TrafficEvent {
        at: Duration::from_secs(90),
        from: 1,
        to: Target::Node(4),
        payload_len: 200,
        reliable: true,
    });
    runner
        .sim_mut()
        .schedule_kill(Duration::from_secs(150), NodeId(2));
    runner
        .sim_mut()
        .schedule_revive(Duration::from_secs(230), NodeId(2));
    runner.run_until(Duration::from_secs(360));
    runner
}

/// The flooding counterpart of [`run_mesh`]: same grid, unicast and
/// broadcast streams (no reliable transfer — flooding has no transport
/// layer) and the same relay churn. Every flood mechanism leaves a
/// mark: dedup (densely meshed grid), hop-limit decrements, the
/// SNR/contention-weighted relay delay (grey zone + shadowing vary the
/// per-frame SNR) and the seen-cache FIFO.
fn run_flood(seed: u64, shards: usize, threads: usize, rng_streams: bool) -> Runner {
    let spacing = topology::radio_range_m(&SimConfig::default().rf) * 0.8;
    let mut runner = NetworkBuilder::mesh(topology::grid(3, 2, spacing), seed)
        .protocol(ProtocolChoice::Flooding { ttl: 5 })
        .sim_config(traced_config(shards, threads, rng_streams))
        .build();
    runner.apply(&workload::periodic(
        0,
        Target::Node(5),
        12,
        Duration::from_secs(10),
        Duration::from_secs(15),
        10,
    ));
    runner.apply(&workload::periodic(
        5,
        Target::Broadcast,
        10,
        Duration::from_secs(18),
        Duration::from_secs(30),
        4,
    ));
    runner
        .sim_mut()
        .schedule_kill(Duration::from_secs(80), NodeId(2));
    runner
        .sim_mut()
        .schedule_revive(Duration::from_secs(160), NodeId(2));
    runner.run_until(Duration::from_secs(280));
    runner
}

/// Appends each node's flooding-specific state to the dump (the shared
/// [`dump`] already covers the trace, PHY metrics and app events).
fn dump_flood(runner: &mut Runner) -> String {
    let mut out = dump(runner);
    for i in 0..runner.len() {
        if let Some(flood) = runner.flood_node(i) {
            let _ = writeln!(
                out,
                "node {i} flood {:?} txq={} pending={} seen={}/{}",
                flood.stats(),
                flood.tx_queue_len(),
                flood.pending_relays(),
                flood.seen_len(),
                flood.seen_capacity(),
            );
        }
    }
    out
}

/// Golden hashes captured on the pre-refactor tree. One row per
/// (seed, rng family); every engine configuration inside a family must
/// reproduce the row's hash bit-for-bit.
///
/// The `flood-*` rows pin the *new* flooding stack (there is no
/// pre-refactor recording to compare against — the baseline flooder it
/// replaces spoke the same wire format but drew no relay jitter): they
/// freeze `meshsim --protocol flooding`-equivalent runs across the
/// engine matrix so any future drift in the flood dispatch/RNG order
/// shows up as a diff here.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("fork", 21, 0x6672931df6c35bfd),
    ("fork", 22, 0xcfeea4909736e189),
    ("fork", 23, 0x1d48e2a2db8f58c0),
    ("streams", 21, 0xe03a0b893e452128),
    ("streams", 22, 0x782913300f3f1502),
    ("streams", 23, 0xc7d93e0a622113a0),
    ("sweep", 41, 0x71765483347c9b6c),
    ("flood-fork", 21, 0x1446063dcf6d2c64),
    ("flood-fork", 22, 0xe847b72aaac2fd4f),
    ("flood-streams", 21, 0x23465c0d568b731e),
    ("flood-streams", 22, 0xc4f503b93db3285b),
];

fn check(family: &str, seed: u64, actual: u64) {
    if std::env::var_os("PROTOCOL_DIFF_REGEN").is_some() {
        println!("    (\"{family}\", {seed}, {actual:#018x}),");
        return;
    }
    let expected = GOLDEN
        .iter()
        .find(|(s, n, _)| *s == family && *n == seed)
        .map(|(_, _, h)| *h)
        .unwrap_or_else(|| panic!("no golden entry for {family}/{seed}"));
    assert_eq!(
        actual, expected,
        "LoRaMesher stack diverged from the pre-refactor golden \
         fingerprint ({family}, seed {seed})"
    );
}

/// Hashes `run`'s dump for `seed` over the shards {1, 4} × threads
/// {1, 2} engine matrix, asserting every configuration agrees with the
/// sequential single-threaded one, and returns that shared hash.
fn engine_matrix_hash(seed: u64, run: impl Fn(usize, usize) -> String) -> u64 {
    let reference = fnv1a(run(1, 1).as_bytes());
    for (shards, threads) in [(1usize, 2usize), (4, 1), (4, 2)] {
        assert_eq!(
            fnv1a(run(shards, threads).as_bytes()),
            reference,
            "seed {seed}: shards={shards} threads={threads} diverged from the \
             sequential engine"
        );
    }
    reference
}

/// Fork-chain family: the full engine matrix must agree and match the
/// pinned constant.
#[test]
fn mesh_fork_family_matches_golden() {
    for seed in [21u64, 22, 23] {
        let hash = engine_matrix_hash(seed, |shards, threads| {
            let mut runner = run_mesh(seed, shards, threads, false);
            let text = dump(&mut runner);
            let report = runner.report();
            assert!(report.delivered > 0, "seed {seed}: nothing delivered");
            assert!(
                !report.reliable_latencies.is_empty(),
                "seed {seed}: reliable transfer never completed"
            );
            text
        });
        check("fork", seed, hash);
    }
}

/// Stream family: the full engine matrix must agree and match the
/// pinned constant.
#[test]
fn mesh_stream_family_matches_golden() {
    for seed in [21u64, 22, 23] {
        let hash = engine_matrix_hash(seed, |shards, threads| {
            let mut runner = run_mesh(seed, shards, threads, true);
            let text = dump(&mut runner);
            assert!(
                runner.report().delivered > 0,
                "seed {seed}: nothing delivered"
            );
            text
        });
        check("streams", seed, hash);
    }
}

/// Flooding, fork-chain family: the full engine matrix must agree and
/// match the pinned constant — `meshsim --protocol flooding` is
/// deterministic (same seed → same trace) on every engine.
#[test]
fn flood_fork_family_matches_golden() {
    for seed in [21u64, 22] {
        let hash = engine_matrix_hash(seed, |shards, threads| {
            let mut runner = run_flood(seed, shards, threads, false);
            let text = dump_flood(&mut runner);
            assert!(
                runner.report().delivered > 0,
                "seed {seed}: nothing delivered"
            );
            text
        });
        check("flood-fork", seed, hash);
    }
}

/// Flooding, stream family: the full engine matrix must agree and match
/// the pinned constant.
#[test]
fn flood_stream_family_matches_golden() {
    for seed in [21u64, 22] {
        let hash = engine_matrix_hash(seed, |shards, threads| {
            let mut runner = run_flood(seed, shards, threads, true);
            let text = dump_flood(&mut runner);
            assert!(
                runner.report().delivered > 0,
                "seed {seed}: nothing delivered"
            );
            text
        });
        check("flood-streams", seed, hash);
    }
}

/// Sweep aggregates over the scenario must be jobs-invariant and match
/// the pinned pre-refactor aggregate (run on the parallel engine).
#[test]
fn sweep_aggregates_match_golden() {
    let aggregate = |jobs: usize| -> Vec<(u64, usize)> {
        let seeds = seed_list(41, 3);
        scenario::run_parallel(&seeds, jobs, |&seed| {
            let mut runner = run_mesh(seed, 4, 2, true);
            (
                fnv1a(dump(&mut runner).as_bytes()),
                runner.report().delivered,
            )
        })
    };
    let serial = aggregate(1);
    assert_eq!(
        serial,
        aggregate(2),
        "sweep aggregates depend on jobs count"
    );
    let mut text = String::new();
    for (hash, delivered) in &serial {
        let _ = writeln!(text, "{hash:#018x} {delivered}");
    }
    check("sweep", 41, fnv1a(text.as_bytes()));
}
