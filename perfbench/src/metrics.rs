//! The reported metrics, derived from timed legs.
//!
//! Layers are named after the repository's crates: `scenario` (the
//! experiment adapter and runner), `core` (the `loramesher` protocol
//! stacks) and `radio-sim` (the event engine and medium). `host` holds
//! process counters and `trace` the traced run itself.

use crate::host::{median, percentile, HostSpeed};
use crate::timed::{Span, SpanCost};
use crate::workload::Leg;

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics of plain legs. Each instance contributes the
/// median of its repeats: `sim_rate` is the instances' total simulated
/// time over their total host time, and `setup_s` the mean set-up time,
/// both in host seconds scaled to the reference host by `speed`.
/// `peak_rss_mb` is the process's peak resident memory once every
/// instance had run.
#[must_use]
pub fn end_to_end(legs: &[Leg], peak_rss_mb: f64, speed: &HostSpeed) -> Vec<Metric> {
    let instances = legs.iter().map(|l| l.instance + 1).max().unwrap_or(0);
    let (mut sim_s, mut host_s, mut setup_s) = (0.0, 0.0, 0.0);
    for i in 0..instances {
        let runs: Vec<&Leg> = legs.iter().filter(|l| l.instance == i).collect();
        let med = |f: fn(&Leg) -> f64| median(&runs.iter().map(|l| f(l)).collect::<Vec<_>>());
        sim_s += med(|l| l.sim_s);
        host_s += med(Leg::host_run_s);
        setup_s += med(|l| l.setup_s);
    }
    let scale = speed.scale();
    vec![
        metric("sim_rate", ratio(sim_s, host_s * scale), "s/s"),
        metric("setup_s", setup_s * scale / instances.max(1) as f64, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Per-layer metrics and whether the traced leg's time split is
/// consistent (every share non-negative).
pub struct PerLayer {
    pub metrics: Vec<Metric>,
    pub consistent: bool,
}

/// Per-layer metrics of a traced run: plain legs give the `scenario`
/// call times and the untraced wall time; the traced leg with the
/// median run wall gives the time split and the counts. `cost` is the
/// wrappers' own cost per timed call, taken out of the layers it lands
/// in and reported as `trace.wrapper_s`. Times are host seconds as
/// measured; `host.reference_ms` gives the host's speed during the run.
#[must_use]
pub fn per_layer(plain: &[Leg], traced: &[Leg], cost: SpanCost, speed: &HostSpeed) -> PerLayer {
    let med = |legs: &[Leg], f: fn(&Leg) -> f64| median(&legs.iter().map(f).collect::<Vec<_>>());
    let mut by_wall: Vec<&Leg> = traced.iter().collect();
    by_wall.sort_by(|a, b| a.run_wall_s().total_cmp(&b.run_wall_s()));
    let t = by_wall[(by_wall.len() - 1) / 2];
    let fw = t.firmware.unwrap_or_default();
    let o = &t.outcome;
    let m = &o.metrics;

    // Every timed call records `recorded_ns` of wrapper cost in its own
    // span and leaves the rest just outside: an inner dispatch span's
    // rest inside its outer span (adapter time), an outer span's and an
    // inner `next_wake` span's rest in engine time.
    let (rec, unrec) = (cost.recorded_ns, cost.unrecorded_ns());
    let (outer_n, inner_n) = (fw.adapter.dispatch_n() as f64, fw.core.dispatch_n() as f64);
    let wake_n = fw.core.next_wake.n as f64;
    let wall = t.run_wall_s();
    let core_s = (fw.core.total_ns() as f64 - rec * (inner_n + wake_n)) / 1e9;
    let outer_ns = fw.adapter.dispatch_ns() as f64;
    let adapter_s =
        (outer_ns - fw.core.dispatch_ns() as f64 - unrec * inner_n - rec * outer_n) / 1e9;
    // The inner `next_wake` span lies outside every outer span.
    let engine_s =
        wall - (outer_ns + fw.core.next_wake.ns as f64 + unrec * (outer_n + wake_n)) / 1e9;
    let wrapper_s = cost.wall_ns * (outer_n + inner_n + wake_n) / 1e9;
    let consistent = adapter_s >= 0.0 && engine_s >= 0.0;

    let mut out = vec![
        metric("scenario.build_s", med(plain, |l| l.build_s), "s"),
        metric("scenario.apply_s", med(plain, |l| l.apply_s), "s"),
        metric("scenario.report_s", med(plain, |l| l.report_s), "s"),
        metric("scenario.adapter_s", adapter_s, "s"),
        metric("scenario.sent", o.sent as f64, "count"),
        metric("scenario.delivered", o.delivered as f64, "count"),
        metric("core.self_s", core_s, "s"),
    ];
    let self_ns = |span: Span| span.ns as f64 - rec * span.n as f64;
    for (name, span) in fw.core.named() {
        out.push(metric(format!("core.{name}_s"), self_ns(span) / 1e9, "s"));
        out.push(metric(format!("core.{name}_n"), span.n as f64, "count"));
    }
    let frame = fw.core.on_frame;
    out.push(metric(
        "core.ns_per_frame",
        ratio(self_ns(frame), frame.n as f64),
        "ns",
    ));
    let mesh = o.mesh;
    for (name, v) in [
        ("hellos_sent", mesh.hellos_sent),
        ("hellos_received", mesh.hellos_received),
        ("forwarded", mesh.forwarded),
        ("no_route_drops", mesh.no_route_drops),
        ("duty_deferrals", mesh.duty_deferrals),
        ("cad_exhausted", mesh.cad_exhausted),
        ("queue_refusals", mesh.queue_refusals),
    ] {
        out.push(metric(format!("core.mesh.{name}"), v as f64, "count"));
    }
    let flood = o.flood;
    for (name, v) in [
        ("relayed", flood.relayed),
        ("dup_suppressed", flood.dup_suppressed),
        ("hop_limit_drops", flood.hop_limit_drops),
        ("duty_deferrals", flood.duty_deferrals),
    ] {
        out.push(metric(format!("core.flood.{name}"), v as f64, "count"));
    }
    let (relayed, suppressed) = (flood.relayed as f64, flood.dup_suppressed as f64);
    out.push(metric(
        "core.flood.dup_ratio",
        ratio(suppressed, relayed + suppressed),
        "ratio",
    ));

    let cad_scans: u64 = m.per_node.iter().map(|c| c.cad_scans).sum();
    let cad_busy: u64 = m.per_node.iter().map(|c| c.cad_busy).sum();
    let slices_ms: Vec<f64> = t.slices_s.iter().map(|s| s * 1e3).collect();
    out.extend([
        metric("radio-sim.engine_s", engine_s, "s"),
        metric("radio-sim.events", o.events as f64, "count"),
        metric(
            "radio-sim.ns_per_event",
            ratio(engine_s * 1e9, o.events as f64),
            "ns",
        ),
        metric("radio-sim.frames_tx", m.frames_transmitted as f64, "count"),
        metric(
            "radio-sim.frames_delivered",
            m.frames_delivered as f64,
            "count",
        ),
        metric("radio-sim.lost_collision", m.lost_collision as f64, "count"),
        metric(
            "radio-sim.lost_below_floor",
            m.lost_below_floor as f64,
            "count",
        ),
        metric("radio-sim.lost_truncated", m.lost_truncated as f64, "count"),
        metric(
            "radio-sim.rx_delivery_ratio",
            m.delivery_ratio().unwrap_or(0.0),
            "ratio",
        ),
        metric("radio-sim.cad_scans", cad_scans as f64, "count"),
        metric(
            "radio-sim.cad_busy_ratio",
            ratio(cad_busy as f64, cad_scans as f64),
            "ratio",
        ),
        metric(
            "radio-sim.stale_timers_dropped",
            m.stale_timers_dropped as f64,
            "count",
        ),
        metric("radio-sim.link_rebuilds", o.link_rebuilds as f64, "count"),
        metric("radio-sim.commit_batches", o.commit_batches as f64, "count"),
        metric("radio-sim.slice_ms_p50", percentile(&slices_ms, 0.5), "ms"),
        metric("radio-sim.slice_ms_p99", percentile(&slices_ms, 0.99), "ms"),
        // The first leg of the process runs on a fresh heap.
        metric(
            "radio-sim.rss_after_setup_mb",
            plain[0].rss_after_setup_mb,
            "MB",
        ),
        metric("host.cpu_s", t.cpu_s, "s"),
        metric("host.cpu_per_wall", ratio(t.cpu_s, wall), "ratio"),
        metric("host.reference_ms", median(&speed.samples) * 1e3, "ms"),
        metric(
            "trace_overhead",
            ratio(med(traced, Leg::run_wall_s), med(plain, Leg::run_wall_s)) - 1.0,
            "ratio",
        ),
        metric("trace.run_wall_s", wall, "s"),
        metric("trace.wrapper_s", wrapper_s, "s"),
        metric("trace.span_cost_ns", cost.wall_ns, "ns"),
    ]);
    PerLayer {
        metrics: out,
        consistent,
    }
}

/// The `metrics` object of the result line.
#[must_use]
pub fn to_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Beacons, Field, Workload};

    fn small_legs() -> Vec<(Vec<Leg>, Vec<Leg>)> {
        vec![
            (
                vec![Field::mesh_field(3, 24, 2).leg(false)],
                vec![Field::mesh_field(3, 24, 2).leg(true)],
            ),
            (
                vec![Field::flood_longfast(3, 32, 4, 2).leg(false)],
                vec![Field::flood_longfast(3, 32, 4, 2).leg(true)],
            ),
            (
                vec![Beacons::new(Workload::BeaconMobile, 3, 64).leg()],
                vec![Beacons::new(Workload::BeaconMobile, 3, 64).leg()],
            ),
        ]
    }

    /// Names in the result line must be the metrics `BENCHMARK.json`
    /// declares, with their units, and match `[A-Za-z0-9_.-]+`.
    #[test]
    fn emitted_names_are_valid_and_declared() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let (plain, traced) = &small_legs()[0];
        let e2e = end_to_end(plain, 1.0, &HostSpeed::default());
        let layer = per_layer(plain, traced, SpanCost::default(), &HostSpeed::default()).metrics;
        for (set, kind) in [(&e2e, "end_to_end"), (&layer, "per_layer")] {
            let section = declared
                .split(&format!("\"{kind}\""))
                .nth(1)
                .expect("section present")
                .split(']')
                .next()
                .unwrap();
            assert_eq!(
                section.matches("\"name\"").count(),
                set.len(),
                "{kind}: declared and emitted metric counts differ"
            );
            for m in set.iter() {
                assert!(
                    !m.name.is_empty()
                        && m.name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {:?}",
                    m.name
                );
                assert!(
                    section.contains(&format!(
                        "\"name\": \"{}\", \"unit\": \"{}\"",
                        m.name, m.unit
                    )),
                    "{} ({}) is not declared in {kind}",
                    m.name,
                    m.unit
                );
            }
        }
    }

    /// The wrappers change nothing in the simulation, and the traced
    /// time split (the layers and the wrappers' own cost) adds up to the
    /// run's wall time.
    #[test]
    fn traced_legs_reproduce_plain_legs_and_split_their_wall_time() {
        let cost = SpanCost::measure();
        assert!(cost.wall_ns > 0.0 && (0.0..cost.wall_ns).contains(&cost.recorded_ns));
        for (plain, traced) in small_legs() {
            let (p, t) = (&plain[0], &traced[0]);
            assert_eq!(p.outcome, t.outcome, "wrapping changed the simulation");
            assert!(p.outcome.metrics.frames_delivered > 0);
            let layer = per_layer(&plain, &traced, cost, &HostSpeed::default());
            assert!(layer.consistent);
            let get = |n: &str| layer.metrics.iter().find(|m| m.name == n).unwrap().value;
            let split = get("scenario.adapter_s")
                + get("core.self_s")
                + get("radio-sim.engine_s")
                + get("trace.wrapper_s");
            assert!((split - get("trace.run_wall_s")).abs() < 1e-9);
            let named: f64 = layer
                .metrics
                .iter()
                .filter(|m| m.name.starts_with("core.on_") || m.name == "core.next_wake_s")
                .filter(|m| m.name.ends_with("_s"))
                .map(|m| m.value)
                .sum();
            assert!((named - get("core.self_s")).abs() < 1e-9);
        }
    }

    #[test]
    fn small_stacks_deliver_and_count_protocol_work() {
        let legs = small_legs();
        let mesh = &legs[0].1[0];
        assert!(mesh.outcome.delivered > 0 && mesh.outcome.mesh.hellos_sent > 0);
        assert!(mesh.firmware.unwrap().core.on_frame.n > 0);
        let flood = &legs[1].1[0].outcome;
        assert!(flood.delivered > 0 && flood.flood.relayed > 0);
        assert_eq!(flood.mesh, Default::default());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        let json = to_json(&[
            metric("a.b", 0.123_456_789_012, "s"),
            metric("n", f64::NAN, "count"),
        ]);
        assert_eq!(
            json,
            "{\"a.b\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \"n\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }
}
