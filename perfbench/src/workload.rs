//! The four benchmark workloads and one timed leg of each.
//!
//! A *leg* sets a workload up from its seed, runs it to its end in
//! equal simulated-time slices and records host times, process
//! counters and the simulated outcome. Every leg of a workload runs the
//! same slice schedule, so untraced legs, traced legs and repeats are
//! the same simulation and their outcomes must be equal.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use lora_phy::modulation::LoRaModulation;
use lora_phy::propagation::Position;
use lora_phy::region::Region;
use loramesher::config::MeshConfig;
use loramesher::flood::{FloodConfig, FloodNode};
use loramesher::node::MeshNode;
use loramesher::routing::RoutingPolicy;
use radio_sim::firmware::{Firmware, NodeId};
use radio_sim::metrics::Metrics;
use radio_sim::mobility::Mobility;
use radio_sim::rng::SimRng;
use radio_sim::{topology, SimConfig, Simulator};
use scenario::adapter::AppAction;
use scenario::workload::{self, Target, TrafficEvent};
use scenario::{AppEvent, NetworkBuilder, ProtocolChoice, ProtocolFirmware, ProtocolNode, Runner};

use crate::host::{self, median};
use crate::timed::{Callbacks, TimedFirmware, TimedNode};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 512 LoRaMesher nodes reporting to a gateway (the paper's use case).
    MeshField,
    /// 1024 managed-flooding nodes on the Meshtastic LongFast preset.
    FloodLongfast,
    /// 4096 beacon nodes in 8 far-apart clusters, sharded engine.
    BeaconClusters,
    /// 1024 beacon nodes, every third walking, sharded engine.
    BeaconMobile,
    /// `BeaconClusters` on 2 threads: the parallel batch commit runs.
    BeaconClustersT2,
    /// `BeaconMobile` on 2 threads: the parallel evaluate regions run.
    BeaconMobileT2,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::MeshField,
        Workload::FloodLongfast,
        Workload::BeaconClusters,
        Workload::BeaconMobile,
        Workload::BeaconClustersT2,
        Workload::BeaconMobileT2,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshField => "mesh-field",
            Workload::FloodLongfast => "flood-longfast",
            Workload::BeaconClusters => "beacon-clusters",
            Workload::BeaconMobile => "beacon-mobile",
            Workload::BeaconClustersT2 => "beacon-clusters-t2",
            Workload::BeaconMobileT2 => "beacon-mobile-t2",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances per run: a run covers this many networks drawn from its
    /// seed, so its figure averages over placements instead of hanging
    /// on one (a single 512-node field's host time varies ~10 % with
    /// its placement).
    #[must_use]
    pub fn instances(self) -> usize {
        match self {
            Workload::MeshField => 8,
            Workload::FloodLongfast => 12,
            _ => 3,
        }
    }

    /// One leg of instance `instance` of the run seeded `seed`.
    #[must_use]
    pub fn leg(self, seed: u64, instance: usize, traced: bool) -> Leg {
        let seed = (seed << 8) ^ instance as u64;
        let leg = match self {
            Workload::MeshField => Field::mesh_field(seed, 512, 3).leg(traced),
            Workload::FloodLongfast => Field::flood_longfast(seed, 1024, 32, 6).leg(traced),
            // 1024 walking nodes keep the engine's working set within a
            // core's L2: at 4096 the run's speed followed other tenants'
            // cache traffic (sim_rate spread 0.24 over 10 seeds, against
            // 0.12 at 1024 in the same minutes).
            Workload::BeaconMobile | Workload::BeaconMobileT2 => {
                Beacons::new(self, seed, 1024).leg()
            }
            _ => Beacons::new(self, seed, 4096).leg(),
        };
        Leg { instance, ..leg }
    }

    /// The non-vacuity check: the run did the work this workload exists
    /// to measure.
    #[must_use]
    pub fn exercised(self, o: &Outcome) -> bool {
        match self {
            Workload::MeshField => o.delivered > 0 && o.mesh.forwarded > 0,
            Workload::FloodLongfast => o.delivered > 0 && o.flood.relayed > 0,
            Workload::BeaconClusters => o.metrics.frames_delivered > 0,
            Workload::BeaconClustersT2 => o.metrics.frames_delivered > 0 && o.commit_batches > 0,
            // Beyond each node's first row fill: walkers invalidated rows.
            Workload::BeaconMobile | Workload::BeaconMobileT2 => {
                o.metrics.frames_delivered > 0 && o.link_rebuilds > o.metrics.per_node.len() as u64
            }
        }
    }
}

/// LoRaMesher work and failure counts, summed over nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshCounts {
    pub hellos_sent: u64,
    pub hellos_received: u64,
    pub forwarded: u64,
    pub no_route_drops: u64,
    pub duty_deferrals: u64,
    pub cad_exhausted: u64,
    pub queue_refusals: u64,
}

/// Managed-flooding work counts, summed over nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FloodCounts {
    pub relayed: u64,
    pub dup_suppressed: u64,
    pub hop_limit_drops: u64,
    pub duty_deferrals: u64,
}

/// The simulated result of a leg: exact, and equal across legs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub events: u64,
    pub metrics: Metrics,
    pub commit_batches: u64,
    pub link_rebuilds: u64,
    /// Datagrams due by the end of the run.
    pub sent: usize,
    /// Unique datagram deliveries.
    pub delivered: usize,
    pub mesh: MeshCounts,
    pub flood: FloodCounts,
}

impl Outcome {
    fn from_sim<F: Firmware>(sim: &Simulator<F>) -> Outcome {
        Outcome {
            events: sim.events_processed(),
            metrics: sim.metrics().clone(),
            commit_batches: sim.commit_batches(),
            link_rebuilds: sim.link_rebuilds(),
            ..Outcome::default()
        }
    }

    fn add_protocol(&mut self, node: &ProtocolNode) {
        if let Some(m) = node.as_mesh() {
            let s = m.stats();
            let c = &mut self.mesh;
            c.hellos_sent += s.hellos_sent;
            c.hellos_received += s.hellos_received;
            c.forwarded += s.forwarded;
            c.no_route_drops += s.no_route_drops;
            c.duty_deferrals += s.duty_cycle_deferrals;
            c.cad_exhausted += s.cad_exhausted;
            c.queue_refusals += s.queue_refusals;
        }
        if let Some(f) = node.as_flood() {
            let s = f.stats();
            let c = &mut self.flood;
            c.relayed += s.relayed;
            c.dup_suppressed += s.duplicates_suppressed;
            c.hop_limit_drops += s.hop_limit_drops;
            c.duty_deferrals += s.duty_cycle_deferrals;
        }
    }
}

/// Firmware time of a traced leg's run phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirmwareTime {
    /// Outer-wrapper spans: the `scenario` adapter including the stack.
    pub adapter: Callbacks,
    /// Inner-wrapper spans: the protocol stack alone.
    pub core: Callbacks,
}

/// Host measurements and the simulated outcome of one leg.
#[derive(Clone, Debug, Default)]
pub struct Leg {
    /// Which of the run's instances this leg ran.
    pub instance: usize,
    /// Build, schedule the workload, `Simulator::start` (the beacon
    /// builders also place their nodes in this span).
    pub setup_s: f64,
    /// `NetworkBuilder::build` (0 on beacon workloads).
    pub build_s: f64,
    /// `Runner::apply` (0 on beacon workloads).
    pub apply_s: f64,
    /// `Runner::report` (0 on beacon workloads).
    pub report_s: f64,
    /// Host time of each run slice.
    pub slices_s: Vec<f64>,
    /// Simulated seconds covered by the run.
    pub sim_s: f64,
    /// Process CPU (user + system, every thread) during the run.
    pub cpu_s: f64,
    /// Resident set size right after set-up.
    pub rss_after_setup_mb: f64,
    /// Traced legs only.
    pub firmware: Option<FirmwareTime>,
    pub outcome: Outcome,
}

impl Leg {
    /// Wall time of the run slices (the span the firmware split covers).
    #[must_use]
    pub fn run_wall_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }

    /// Host time from the first run slice until the report returns.
    #[must_use]
    pub fn host_run_s(&self) -> f64 {
        self.run_wall_s() + self.report_s
    }
}

/// Runs `advance` to each of `slices` equal steps up to `end`,
/// returning the host time of each step.
fn run_sliced(end: Duration, slices: u32, mut advance: impl FnMut(Duration)) -> Vec<f64> {
    (1..=slices)
        .map(|k| {
            let t = Instant::now();
            advance(end * k / slices);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Set-ups per plain leg of a protocol-stack workload.
const SETUP_REPEATS: usize = 9;

/// E13's degree-scaled connected placement: the square is sized for a
/// mean degree of `ln n + 3`, so placements stay connected at hundreds
/// of nodes while density grows only logarithmically.
fn scaled_positions(n: usize, spacing: f64, seed: u64) -> Vec<Position> {
    let degree = (n as f64).ln() + 3.0;
    let area = spacing * (n as f64 * std::f64::consts::PI / degree).sqrt();
    let mut rng = SimRng::new(seed);
    topology::connected_random(n, area, area, spacing, &mut rng, 2000)
        .expect("a connected placement within the attempt budget")
}

/// The placement of a `nodes`-node field on `sim`'s radio: nodes are
/// spaced for links at 80 % of the radio range.
fn field_positions(sim: &SimConfig, nodes: usize, seed: u64) -> (Vec<Position>, f64) {
    let spacing = topology::radio_range_m(&sim.rf) * 0.8;
    let positions = scaled_positions(nodes, spacing, seed ^ (nodes as u64) << 8);
    (positions, spacing)
}

/// Unicast flows from `flows` sources spread over the node indices,
/// each to the node farthest in hops (links up to `link_m`) but at most
/// `reach` hops away, searching from the index half the field away.
/// Flows stay within a flood's hop limit: a random pair in a 1024-node
/// field is up to ~20 hops apart, and a placement whose flows all lie
/// beyond the limit delivers nothing.
fn flows_within(
    positions: &[Position],
    link_m: f64,
    flows: usize,
    reach: usize,
) -> Vec<(usize, usize)> {
    let n = positions.len();
    let neighbours: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            (0..n)
                .filter(|&v| v != u && positions[u].distance(&positions[v]) <= link_m)
                .collect()
        })
        .collect();
    (0..flows)
        .map(|f| {
            let src = f * n / flows;
            let mut hops = vec![usize::MAX; n];
            hops[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                if hops[u] == reach {
                    continue;
                }
                for &v in &neighbours[u] {
                    if hops[v] == usize::MAX {
                        hops[v] = hops[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let (_, far) = (0..n)
                .map(|k| (k, (src + n / 2 + k) % n))
                .filter(|&(_, v)| hops[v] != usize::MAX)
                .max_by_key(|&(k, v)| (hops[v], std::cmp::Reverse(k)))
                .expect("the source reaches itself");
            (src, far)
        })
        .collect()
}

/// A protocol-stack workload: a random field, a stack and its traffic.
pub struct Field {
    pub seed: u64,
    pub positions: Vec<Position>,
    pub protocol: ProtocolChoice,
    pub sim: SimConfig,
    pub region: Region,
    pub traffic: Vec<TrafficEvent>,
    pub end: Duration,
    pub slices: u32,
}

/// The traced network: both wrappers around the scenario adapter.
type TracedSim = Simulator<TimedFirmware<ProtocolFirmware<TimedNode<ProtocolNode>>>>;

impl Field {
    /// `nodes` LoRaMesher nodes on SF7 under the EU868 duty cycle with
    /// the firmware's own timers; after a 30 min warm-up every node
    /// reports 16 B to node 0 every 600 s, `reports` times.
    #[must_use]
    pub fn mesh_field(seed: u64, nodes: usize, reports: usize) -> Field {
        let warmup = Duration::from_secs(1800);
        let interval = Duration::from_secs(600);
        let sim = SimConfig::default();
        Field {
            seed,
            positions: field_positions(&sim, nodes, seed).0,
            protocol: ProtocolChoice::Mesh {
                hello_interval: Duration::from_secs(120),
                route_timeout: Duration::from_secs(600),
            },
            sim,
            region: Region::Eu868,
            traffic: workload::all_to_one(nodes, 0, 16, warmup, interval, reports),
            end: warmup + interval * reports as u32,
            slices: 1000,
        }
    }

    /// `nodes` managed-flooding nodes on LongFast under the EU868 duty
    /// cycle, hop limit 7; `flows` unicast flows, each to a node up to 5
    /// hops of 80 %-range links away, send `messages` 16 B datagrams,
    /// one every 1800 s.
    #[must_use]
    pub fn flood_longfast(seed: u64, nodes: usize, flows: usize, messages: usize) -> Field {
        let interval = Duration::from_secs(1800);
        let ttl = 7;
        let mut sim = SimConfig::default();
        sim.rf.modulation = LoRaModulation::long_fast();
        let (positions, link_m) = field_positions(&sim, nodes, seed);
        let traffic = flows_within(&positions, link_m, flows, usize::from(ttl) - 2)
            .into_iter()
            .enumerate()
            .flat_map(|(f, (src, dst))| {
                let start = interval * f as u32 / flows as u32;
                workload::periodic(src, Target::Node(dst), 16, start, interval, messages)
            })
            .collect();
        Field {
            seed,
            positions,
            protocol: ProtocolChoice::Flooding { ttl },
            sim,
            region: Region::Eu868,
            traffic,
            end: interval * messages as u32,
            slices: 1000,
        }
    }

    /// One leg: through the public `NetworkBuilder`/`Runner` API, or —
    /// traced — through a mirror of it that hosts the wrapped firmware.
    #[must_use]
    pub fn leg(&self, traced: bool) -> Leg {
        if traced {
            self.traced_leg()
        } else {
            self.plain_leg()
        }
    }

    /// Builds, schedules and starts the plain network on `positions`,
    /// returning it with its build, apply and whole set-up seconds.
    fn set_up(&self, positions: Vec<Position>) -> (Runner, [f64; 3]) {
        let t0 = Instant::now();
        let mut runner = NetworkBuilder::mesh(positions, self.seed)
            .sim_config(self.sim.clone())
            .protocol(self.protocol)
            .region(self.region)
            .build();
        let build_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        runner.apply(&self.traffic);
        let apply_s = t.elapsed().as_secs_f64();
        runner.sim_mut().start();
        (runner, [build_s, apply_s, t0.elapsed().as_secs_f64()])
    }

    fn plain_leg(&self) -> Leg {
        // The placement (drawn with the field) is the leg's input and
        // stays out of `setup_s`: its cost is the number of connectivity
        // redraws a seed needs.
        let positions = self.positions.clone();
        // One set-up takes a few milliseconds and varies by a third from
        // one to the next, so the leg sets the same network up several
        // times, reports the medians and runs the last one.
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut runner = None;
        for _ in 0..SETUP_REPEATS {
            drop(runner.take());
            let (r, t) = self.set_up(positions.clone());
            times.push(t);
            runner = Some(r);
        }
        let mut runner = runner.expect("at least one set-up");
        let med = |k: usize| median(&times.iter().map(|t| t[k]).collect::<Vec<_>>());
        let (build_s, apply_s, setup_s) = (med(0), med(1), med(2));
        let rss_after_setup_mb = host::rss_mb();

        let cpu0 = host::cpu_s();
        let slices_s = run_sliced(self.end, self.slices, |t| runner.run_until(t));
        let t = Instant::now();
        let report = runner.report();
        let report_s = t.elapsed().as_secs_f64();
        let cpu_s = host::cpu_s() - cpu0;

        let mut outcome = Outcome::from_sim(runner.sim());
        outcome.sent = report.sent;
        outcome.delivered = report.delivered;
        for i in 0..runner.len() {
            outcome.add_protocol(&runner.sim().node(runner.id(i)).node);
        }
        Leg {
            setup_s,
            build_s,
            apply_s,
            report_s,
            slices_s,
            sim_s: self.end.as_secs_f64(),
            cpu_s,
            rss_after_setup_mb,
            outcome,
            ..Leg::default()
        }
    }

    /// The protocol node `NetworkBuilder::build` creates at index `i`.
    fn protocol_node(&self, i: usize) -> ProtocolNode {
        let address = Runner::address_of(i);
        let modulation = self.sim.rf.modulation;
        let seed = self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9);
        match self.protocol {
            ProtocolChoice::Mesh {
                hello_interval,
                route_timeout,
            } => ProtocolNode::Mesh(MeshNode::new(
                MeshConfig::builder(address)
                    .modulation(modulation)
                    .role(0)
                    .region(self.region)
                    .hello_interval(hello_interval)
                    .route_timeout(route_timeout)
                    .csma(true)
                    .hello_jitter(true)
                    .routing_policy(RoutingPolicy::default())
                    .seed(seed)
                    .build(),
            )),
            ProtocolChoice::Flooding { ttl } => {
                let mut cfg = FloodConfig::new(address);
                cfg.modulation = modulation;
                cfg.region = self.region;
                cfg.hop_limit = ttl;
                cfg.csma = true;
                cfg.seed = seed;
                ProtocolNode::Flooding(FloodNode::new(cfg))
            }
            ProtocolChoice::Star { .. } => unreachable!("no benchmark workload runs the star"),
        }
    }

    /// Builds, schedules and starts the wrapped network the same way
    /// `NetworkBuilder::build`, `Runner::apply` and `Simulator::start`
    /// build the plain one.
    fn traced_network(&self, positions: &[Position]) -> TracedSim {
        let mut sim = Simulator::new(self.sim.clone(), self.seed);
        for (i, pos) in positions.iter().enumerate() {
            let fw = ProtocolFirmware::new(TimedNode::new(self.protocol_node(i)));
            sim.add_mobile_node(TimedFirmware::new(fw), *pos, Mobility::Static);
        }
        for (marker, e) in self.traffic.iter().enumerate() {
            let mut payload = vec![0xA5; e.payload_len.max(4)];
            payload[..4].copy_from_slice(&(marker as u32).to_le_bytes());
            let Target::Node(to) = e.to else {
                unreachable!("benchmark traffic is unicast");
            };
            let dst = Runner::address_of(to);
            let id = NodeId(e.from);
            let tag = sim.with_node(id, |fw, _| {
                fw.inner
                    .add_action(AppAction::SendDatagram { dst, payload })
            });
            sim.schedule_app(e.at, id, tag);
        }
        sim.start();
        sim
    }

    fn firmware_time(sim: &TracedSim) -> FirmwareTime {
        (0..sim.node_count()).fold(FirmwareTime::default(), |acc, i| {
            let fw = sim.node(NodeId(i));
            FirmwareTime {
                adapter: acc.adapter.plus(&fw.spans()),
                core: acc.core.plus(&fw.inner.node.spans()),
            }
        })
    }

    fn traced_leg(&self) -> Leg {
        let positions = &self.positions;
        let t0 = Instant::now();
        let mut sim = self.traced_network(positions);
        let setup_s = t0.elapsed().as_secs_f64();
        let rss_after_setup_mb = host::rss_mb();

        let before = Self::firmware_time(&sim);
        let cpu0 = host::cpu_s();
        let slices_s = run_sliced(self.end, self.slices, |t| sim.run_until(t));
        let cpu_s = host::cpu_s() - cpu0;
        let after = Self::firmware_time(&sim);

        let mut outcome = Outcome::from_sim(&sim);
        let now = sim.now();
        outcome.sent = self.traffic.iter().filter(|e| e.at <= now).count();
        let mut delivered: BTreeSet<(u32, usize)> = BTreeSet::new();
        for j in 0..sim.node_count() {
            let fw = &sim.node(NodeId(j)).inner;
            outcome.add_protocol(&fw.node.inner);
            for (_, event) in &fw.event_log {
                let AppEvent::Received { src, payload, .. } = event else {
                    continue;
                };
                let Some(marker) = payload.get(..4) else {
                    continue;
                };
                let marker = u32::from_le_bytes([marker[0], marker[1], marker[2], marker[3]]);
                let Some(rec) = self.traffic.get(marker as usize) else {
                    continue;
                };
                if Runner::address_of(rec.from) == *src && rec.to == Target::Node(j) {
                    delivered.insert((marker, j));
                }
            }
        }
        outcome.delivered = delivered.len();
        Leg {
            setup_s,
            slices_s,
            sim_s: self.end.as_secs_f64(),
            cpu_s,
            rss_after_setup_mb,
            firmware: Some(FirmwareTime {
                adapter: after.adapter.since(&before.adapter),
                core: after.core.since(&before.core),
            }),
            outcome,
            ..Leg::default()
        }
    }
}

/// A beacon workload from `bench::scaling`: the toy firmware costs
/// almost nothing, so the run measures the engine. On 2 threads the
/// engine runs firmware on worker threads, so it is not wrapped: a traced
/// leg is a plain leg, and firmware time counts as engine time.
pub struct Beacons {
    clustered: bool,
    threads: usize,
    seed: u64,
    nodes: usize,
    end: Duration,
    slices: u32,
}

impl Beacons {
    /// Shards 4 and per-node RNG streams (required by threads > 1, and
    /// kept on 1 thread so both thread counts run the same simulation).
    #[must_use]
    pub fn new(workload: Workload, seed: u64, nodes: usize) -> Beacons {
        use Workload::{BeaconClusters, BeaconClustersT2, BeaconMobileT2};
        let clustered = matches!(workload, BeaconClusters | BeaconClustersT2);
        let threads = if matches!(workload, BeaconClustersT2 | BeaconMobileT2) {
            2
        } else {
            1
        };
        // Clustered link-cache rows span a whole cluster, which makes
        // each simulated second several times dearer than on the walking
        // grid.
        let (secs, slices) = if clustered { (30, 60) } else { (120, 120) };
        Beacons {
            clustered,
            threads,
            seed,
            nodes,
            end: Duration::from_secs(secs),
            slices,
        }
    }

    #[must_use]
    pub fn leg(&self) -> Leg {
        let cfg = SimConfig {
            shards: 4,
            threads: self.threads,
            rng_streams: true,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let mut sim = if self.clustered {
            bench::scaling::build_clusters(self.nodes, 8, cfg, self.seed)
        } else {
            bench::scaling::build_mobile(self.nodes, cfg, self.seed)
        };
        sim.start();
        let setup_s = t0.elapsed().as_secs_f64();
        let rss_after_setup_mb = host::rss_mb();
        let cpu0 = host::cpu_s();
        let slices_s = run_sliced(self.end, self.slices, |t| sim.run_until(t));
        let cpu_s = host::cpu_s() - cpu0;
        Leg {
            setup_s,
            slices_s,
            sim_s: self.end.as_secs_f64(),
            cpu_s,
            rss_after_setup_mb,
            outcome: Outcome::from_sim(&sim),
            ..Leg::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_reach_as_far_as_the_hop_budget_allows() {
        // On a line with links to the next node only, hops are index gaps.
        let line = topology::line(20, 100.0);
        let flows = flows_within(&line, 100.0, 4, 3);
        assert_eq!(
            flows.iter().map(|f| f.0).collect::<Vec<_>>(),
            [0, 5, 10, 15]
        );
        for (src, dst) in flows {
            assert_eq!(src.abs_diff(dst), 3, "flow {src} -> {dst}");
        }
        // A budget beyond the field's diameter picks the farthest node.
        assert_eq!(flows_within(&line, 100.0, 1, 50), [(0, 19)]);
    }
}
