//! Scaling benchmark for the simulator hot path, three sections:
//!
//! 1. **Static grid** — the static-grid beacon scenario at
//!    N ∈ {16, 64, 256, 1024} on the sequential engine (the uncached
//!    column of the PR 2/PR 4 trajectory stays in
//!    `BENCH_PR2/4/6/7/9.json`).
//! 2. **Sharded engine** — the same scenario at large N
//!    (4096 and 16384 nodes) with the event engine running sequentially
//!    (`shards = 1`) vs spatially sharded (4 and 8 bands), asserting
//!    identical metrics *and identical event counts* — the engines must
//!    process the exact same timeline, only faster. Since PR 7 the rows
//!    this section fills are sparse (spatial-grid candidates, not all
//!    n nodes) and the bands are occupancy-weighted.
//! 3. **Worker threads** — the mobile variant (every third node on a
//!    RandomWaypoint, so rows are re-filled all run long) at a fixed
//!    shard count with `threads` ∈ {1, 2, 4}: thread counts must leave
//!    metrics and event counts byte-identical while the wake-gated
//!    prefetch regions fan row construction out across workers.
//!
//! ```text
//! bench_scaling [--smoke] [--out PATH] [--secs N] [--seed N]
//! ```
//!
//! `--out PATH` writes a JSON report (`scripts/bench.sh` points it at
//! `BENCH_SCALING.json`; `BENCH_PR2/4/6/7/9.json` are earlier baselines);
//! `--smoke` shrinks the run to a CI-friendly correctness check.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bench::scaling;
use radio_sim::metrics::Metrics;
use radio_sim::SimConfig;

/// Wall-clock timings and outcome of one measurement.
struct Measurement {
    metrics: Metrics,
    events: u64,
    wall: Duration,
}

/// Runs one configuration `repeats` times and keeps the fastest wall
/// time (the usual bench practice: minimum is the least noisy estimator
/// of the true cost).
fn measure_cfg(
    n: usize,
    cfg: &SimConfig,
    mobile: bool,
    sim_secs: u64,
    seed: u64,
    repeats: usize,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let (metrics, events) = scaling::run_cfg(n, cfg.clone(), mobile, sim_secs, seed);
        let wall = start.elapsed();
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(Measurement {
                metrics,
                events,
                wall,
            });
        }
    }
    best.expect("at least one repeat")
}

fn per_sec(m: &Measurement) -> f64 {
    m.events as f64 / m.wall.as_secs_f64()
}

fn per_event_ns(m: &Measurement) -> f64 {
    m.wall.as_nanos() as f64 / m.events as f64
}

struct Row {
    nodes: usize,
    events: u64,
    events_per_sec: f64,
    ns_per_event: f64,
}

/// One shard count's timing at a fixed node count.
struct ShardCell {
    shards: usize,
    events_per_sec: f64,
    ns_per_event: f64,
    /// Sequential wall time / this wall time.
    speedup: f64,
}

struct ShardRow {
    nodes: usize,
    sim_secs: u64,
    events: u64,
    cells: Vec<ShardCell>,
}

/// One thread count's timing at a fixed (nodes, shards).
struct ThreadCell {
    threads: usize,
    events_per_sec: f64,
    ns_per_event: f64,
    /// threads = 1 wall time / this wall time.
    speedup: f64,
}

struct ThreadRow {
    nodes: usize,
    shards: usize,
    sim_secs: u64,
    events: u64,
    cells: Vec<ThreadCell>,
}

fn json_report(
    sim_secs: u64,
    seed: u64,
    rows: &[Row],
    shard_rows: &[ShardRow],
    thread_rows: &[ThreadRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"scaling_static_grid_beacon\",");
    let _ = writeln!(s, "  \"sim_seconds\": {sim_secs},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"nodes\": {}, \"events\": {}, \
             \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}}}",
            r.nodes, r.events, r.events_per_sec, r.ns_per_event
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"shard_rows\": [\n");
    for (i, r) in shard_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"nodes\": {}, \"sim_seconds\": {}, \"events\": {}, \"engines\": [",
            r.nodes, r.sim_secs, r.events
        );
        for (j, c) in r.cells.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"shards\": {}, \"events_per_sec\": {:.0}, \
                 \"ns_per_event\": {:.1}, \"speedup\": {:.2}}}",
                c.shards, c.events_per_sec, c.ns_per_event, c.speedup
            );
            if j + 1 < r.cells.len() {
                s.push_str(", ");
            }
        }
        s.push_str("]}");
        s.push_str(if i + 1 < shard_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"thread_rows\": [\n");
    for (i, r) in thread_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"nodes\": {}, \"shards\": {}, \"sim_seconds\": {}, \
             \"events\": {}, \"mobile\": true, \"engines\": [",
            r.nodes, r.shards, r.sim_secs, r.events
        );
        for (j, c) in r.cells.iter().enumerate() {
            let _ = write!(
                s,
                "{{\"threads\": {}, \"events_per_sec\": {:.0}, \
                 \"ns_per_event\": {:.1}, \"speedup\": {:.2}}}",
                c.threads, c.events_per_sec, c.ns_per_event, c.speedup
            );
            if j + 1 < r.cells.len() {
                s.push_str(", ");
            }
        }
        s.push_str("]}");
        s.push_str(if i + 1 < thread_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut sim_secs: Option<u64> = None;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let int = |v: Option<String>, flag: &str| -> u64 {
            v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} requires an integer");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }));
            }
            "--secs" => sim_secs = Some(int(args.next(), "--secs")),
            "--seed" => seed = int(args.next(), "--seed"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_scaling [--smoke] [--out PATH] [--secs N] [--seed N]");
                std::process::exit(2);
            }
        }
    }
    let sizes: &[usize] = if smoke { &[16] } else { &[16, 64, 256, 1024] };
    let sim_secs = sim_secs.unwrap_or(if smoke { 20 } else { 120 });
    let repeats = if smoke { 1 } else { 3 };

    println!("static-grid beacon scenario, {sim_secs} simulated seconds, seed {seed}");
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "nodes", "events", "events/s", "ns/event"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let m = measure_cfg(n, &SimConfig::default(), false, sim_secs, seed, repeats);
        assert!(m.metrics.frames_delivered > 0, "no beacons heard at n={n}");
        let row = Row {
            nodes: n,
            events: m.events,
            events_per_sec: per_sec(&m),
            ns_per_event: per_event_ns(&m),
        };
        println!(
            "{:>6} {:>10} {:>12.0} {:>10.1}",
            row.nodes, row.events, row.events_per_sec, row.ns_per_event
        );
        rows.push(row);
    }

    // Sharded engine at scale: big grids, one repeat
    // (the runs are long enough to be self-averaging). The 16384-node
    // grid keeps a shorter horizon so the sequential reference leg
    // stays affordable.
    let shard_sizes: &[(usize, u64)] = if smoke {
        &[(64, 20)]
    } else {
        &[(4096, 120), (16384, 30)]
    };
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };
    println!();
    println!(
        "{:>6} {:>8} {:>10} {:>6} {:>12} {:>10} {:>8}",
        "nodes", "sim s", "events", "shards", "events/s", "ns/event", "speedup"
    );
    let mut shard_rows = Vec::new();
    for &(n, secs) in shard_sizes {
        let mut cells = Vec::new();
        let mut reference: Option<Measurement> = None;
        for &shards in shard_counts {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let m = measure_cfg(n, &cfg, false, secs, seed, 1);
            if let Some(seq) = &reference {
                // The sharded engine must replay the sequential
                // timeline event for event.
                assert_eq!(
                    seq.metrics, m.metrics,
                    "{shards} shards changed behaviour at n={n}"
                );
                assert_eq!(
                    seq.events, m.events,
                    "{shards} shards changed the event count at n={n}"
                );
            }
            let speedup = reference
                .as_ref()
                .map_or(1.0, |seq| seq.wall.as_secs_f64() / m.wall.as_secs_f64());
            println!(
                "{:>6} {:>8} {:>10} {:>6} {:>12.0} {:>10.1} {:>7.2}x",
                n,
                secs,
                m.events,
                shards,
                per_sec(&m),
                per_event_ns(&m),
                speedup
            );
            cells.push(ShardCell {
                shards,
                events_per_sec: per_sec(&m),
                ns_per_event: per_event_ns(&m),
                speedup,
            });
            if reference.is_none() {
                reference = Some(m);
            }
        }
        shard_rows.push(ShardRow {
            nodes: n,
            sim_secs: secs,
            events: reference.expect("at least one shard count").events,
            cells,
        });
    }

    // Worker threads on the mobile variant: mobility keeps invalidating
    // rows, so the wake-gated prefetch regions run all simulation long.
    // Thread counts must be behaviourally invisible; wall-clock scaling
    // depends on the host's core count (a single-core host can at best
    // break even, trading lazy coordinator fills for batched prefetch).
    let thread_sizes: &[(usize, usize, u64)] = if smoke {
        &[(64, 4, 20)]
    } else {
        &[(4096, 4, 60)]
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    println!();
    println!(
        "{:>6} {:>6} {:>8} {:>10} {:>7} {:>12} {:>10} {:>8}",
        "nodes", "shards", "sim s", "events", "threads", "events/s", "ns/event", "speedup"
    );
    let mut thread_rows = Vec::new();
    for &(n, shards, secs) in thread_sizes {
        let mut cells = Vec::new();
        let mut reference: Option<Measurement> = None;
        for &threads in thread_counts {
            let cfg = SimConfig {
                shards,
                threads,
                ..SimConfig::default()
            };
            let m = measure_cfg(n, &cfg, true, secs, seed, 1);
            if let Some(one) = &reference {
                assert_eq!(
                    one.metrics, m.metrics,
                    "{threads} threads changed behaviour at n={n}"
                );
                assert_eq!(
                    one.events, m.events,
                    "{threads} threads changed the event count at n={n}"
                );
            }
            let speedup = reference
                .as_ref()
                .map_or(1.0, |one| one.wall.as_secs_f64() / m.wall.as_secs_f64());
            println!(
                "{:>6} {:>6} {:>8} {:>10} {:>7} {:>12.0} {:>10.1} {:>7.2}x",
                n,
                shards,
                secs,
                m.events,
                threads,
                per_sec(&m),
                per_event_ns(&m),
                speedup
            );
            cells.push(ThreadCell {
                threads,
                events_per_sec: per_sec(&m),
                ns_per_event: per_event_ns(&m),
                speedup,
            });
            if reference.is_none() {
                reference = Some(m);
            }
        }
        thread_rows.push(ThreadRow {
            nodes: n,
            shards,
            sim_secs: secs,
            events: reference.expect("at least one thread count").events,
            cells,
        });
    }

    if let Some(path) = out_path {
        let report = json_report(sim_secs, seed, &rows, &shard_rows, &thread_rows);
        std::fs::write(&path, &report).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
