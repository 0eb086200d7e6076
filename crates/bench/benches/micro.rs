//! Micro-benchmarks for the hot paths of the stack: wire codec,
//! routing-table updates, time-on-air math, the simulation PRNG, and
//! end-to-end simulator throughput.
//!
//! Self-contained: a [`std::time::Instant`] harness that calibrates a
//! batch size, times a handful of batches and reports the median
//! ns/iter — no external benchmark framework, so `cargo bench` works
//! fully offline. Pass a substring to run a subset:
//! `cargo bench --bench micro -- codec`.

use std::time::{Duration, Instant};

use lora_phy::modulation::{Bandwidth, CodingRate, LoRaModulation, SpreadingFactor};
use lora_phy::propagation::Position;
use loramesher::addr::Address;
use loramesher::codec;
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::routing::RoutingTable;
use radio_sim::rng::SimRng;
use radio_sim::topology;
use scenario::runner::NetworkBuilder;

/// Target wall time for one timed batch during calibration.
const BATCH_TARGET: Duration = Duration::from_millis(5);
/// Timed batches per benchmark; the median is reported.
const SAMPLES: usize = 5;
/// Upper bound on the calibrated batch size.
const MAX_ITERS: u64 = 1 << 20;

/// Times `f` and prints `name  <median> ns/iter` when `name` matches the
/// filter. Batch size is doubled until one batch reaches [`BATCH_TARGET`]
/// (so cheap operations amortise the clock overhead), then [`SAMPLES`]
/// batches are timed.
fn bench<R>(filter: &str, name: &str, mut f: impl FnMut() -> R) {
    if !name.contains(filter) {
        return;
    }
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if start.elapsed() >= BATCH_TARGET || iters >= MAX_ITERS {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!("{name:<34} {median:>14.1} ns/iter   ({iters} iters/batch, {SAMPLES} batches)");
}

fn data_packet(payload_len: usize) -> Packet {
    Packet::Data {
        dst: Address::new(2),
        src: Address::new(1),
        id: 7,
        fwd: Forwarding {
            via: Address::new(2),
            ttl: 10,
        },
        payload: vec![0xA5; payload_len],
    }
}

fn hello_packet(entries: usize) -> Packet {
    Packet::Hello {
        src: Address::new(1),
        id: 7,
        role: 0,
        entries: (0..entries)
            .map(|i| RouteEntry {
                address: Address::new(100 + i as u16),
                metric: (i % 15) as u8 + 1,
                role: 0,
            })
            .collect(),
    }
}

fn bench_codec(filter: &str) {
    for len in [16usize, 64, 200] {
        let packet = data_packet(len);
        let wire = codec::encode(&packet).unwrap();
        bench(filter, &format!("codec/encode_data_{len}B"), || {
            codec::encode(std::hint::black_box(&packet)).unwrap()
        });
        bench(filter, &format!("codec/decode_data_{len}B"), || {
            codec::decode(std::hint::black_box(&wire)).unwrap()
        });
    }
    let hello = hello_packet(30);
    let wire = codec::encode(&hello).unwrap();
    bench(filter, "codec/encode_hello_30_routes", || {
        codec::encode(std::hint::black_box(&hello)).unwrap()
    });
    bench(filter, "codec/decode_hello_30_routes", || {
        codec::decode(std::hint::black_box(&wire)).unwrap()
    });
}

fn bench_routing(filter: &str) {
    for n in [8usize, 32, 61] {
        let me = Address::new(1);
        let neighbour = Address::new(2);
        let entries: Vec<RouteEntry> = (0..n)
            .map(|i| RouteEntry {
                address: Address::new(100 + i as u16),
                metric: (i % 14) as u8 + 1,
                role: 0,
            })
            .collect();
        bench(filter, &format!("routing/apply_hello_{n}_entries"), || {
            let mut table = RoutingTable::new();
            table.apply_hello(me, neighbour, 0, &entries, 5.0, Duration::from_secs(1));
            table
        });
        let mut table = RoutingTable::new();
        table.apply_hello(me, neighbour, 0, &entries, 5.0, Duration::from_secs(1));
        bench(filter, &format!("routing/next_hop_of_{n}"), || {
            table.next_hop(std::hint::black_box(Address::new(100 + (n as u16) / 2)))
        });
    }
}

fn bench_airtime(filter: &str) {
    for sf in [SpreadingFactor::Sf7, SpreadingFactor::Sf12] {
        let m = LoRaModulation::new(sf, Bandwidth::Khz125, CodingRate::Cr4_5);
        bench(
            filter,
            &format!("airtime/time_on_air_SF{}", sf.value()),
            || m.time_on_air(std::hint::black_box(64)),
        );
    }
}

fn bench_rng(filter: &str) {
    let mut rng = SimRng::new(1);
    bench(filter, "rng/next_u64", || rng.next_u64());
    let mut rng = SimRng::new(1);
    bench(filter, "rng/gen_range_1000", || rng.gen_range(1000));
}

fn bench_simulator(filter: &str) {
    // Simulated minutes of a 9-node mesh per iteration: measures event
    // throughput of the whole stack.
    bench(filter, "simulator/grid9_mesh_60s_simulated", || {
        let spacing = topology::radio_range_m(&radio_sim::sim::SimConfig::default().rf) * 0.8;
        let mut runner = NetworkBuilder::mesh(topology::grid(3, 3, spacing), 42).build();
        runner.run_until(Duration::from_secs(60));
        runner.phy_metrics().frames_transmitted
    });
    bench(filter, "simulator/line4_convergence", || {
        let spacing = topology::radio_range_m(&radio_sim::sim::SimConfig::default().rf) * 0.8;
        let mut runner = NetworkBuilder::mesh(topology::line(4, spacing), 42).build();
        runner.run_until_converged(Duration::from_secs(2), Duration::from_secs(600))
    });
}

fn bench_medium(filter: &str) {
    use radio_sim::medium::{Medium, RfConfig};
    let medium = Medium::new(RfConfig::default());
    let a = Position::new(0.0, 0.0);
    let b = Position::new(250.0, 100.0);
    bench(filter, "medium/received_power", || {
        medium.received_power(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
            radio_sim::firmware::NodeId(0),
            radio_sim::firmware::NodeId(1),
        )
    });
    bench(filter, "medium/dbm_to_milliwatts", || {
        std::hint::black_box(lora_phy::power::Dbm::new(-87.3)).to_milliwatts()
    });
    bench(filter, "medium/capture_ratio_linear", || {
        std::hint::black_box(medium.config()).capture_ratio_linear()
    });
}

fn bench_queue(filter: &str) {
    use radio_sim::event::{EventQueue, SimEvent};
    use radio_sim::time::SimTime;
    use radio_sim::NodeId;

    // Schedule+pop through a queue pre-loaded with `pending` events, the
    // steady-state shape of an N-node run: cost of the calendar ring's
    // bucket lookup and cursor scan at several fill levels.
    for pending in [16usize, 256, 4096] {
        let mut q = EventQueue::new();
        let mut t: u64 = 0;
        for i in 0..pending {
            t += 11_311; // ≈11 µs apart: spread over a few buckets
            q.schedule(SimTime::from_micros(t / 1000), SimEvent::App(NodeId(i), 0));
        }
        let mut now = t;
        bench(
            filter,
            &format!("queue/schedule_pop_at_{pending}_pending"),
            || {
                now += 11_311;
                q.schedule(SimTime::from_micros(now / 1000), SimEvent::MobilityTick);
                q.pop()
            },
        );
    }
    // The timer churn path: reschedule (tombstoning the previous wake)
    // then pop — the O(1) stale-drop the generation stamps buy.
    let mut q = EventQueue::new();
    let mut now_us: u64 = 0;
    bench(filter, "queue/timer_reschedule_pop", || {
        now_us += 500;
        q.schedule_timer(SimTime::from_micros(now_us), NodeId(0));
        q.schedule_timer(SimTime::from_micros(now_us + 100), NodeId(0));
        q.pop()
    });
}

fn bench_beacon_grid(filter: &str) {
    // The PHY-only beacon workload on the start_tx / lock_receiver hot
    // path, sequential and sharded.
    bench(filter, "simulator/beacon_grid64_10s", || {
        bench::scaling::run(64, 1, 10, 42).1
    });
    bench(filter, "simulator/beacon_grid64_10s_sharded4", || {
        bench::scaling::run(64, 4, 10, 42).1
    });
}

fn main() {
    // `cargo bench` appends `--bench`; any other non-flag argument is a
    // substring filter on benchmark names.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    bench_codec(&filter);
    bench_routing(&filter);
    bench_airtime(&filter);
    bench_rng(&filter);
    bench_simulator(&filter);
    bench_medium(&filter);
    bench_queue(&filter);
    bench_beacon_grid(&filter);
}
