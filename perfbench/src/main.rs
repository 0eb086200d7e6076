//! Host-time benchmark of the simulator on its real protocol stacks and
//! its sharded/threaded engine.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs legs of one workload for about `S` seconds and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the end-to-end metrics over the run's instances, with
//! `--trace 1` the per-layer metrics of a traced leg set against plain
//! legs. Every leg is one attempt; a leg fails when its simulated
//! outcome differs from the first leg of the same instance (repeats,
//! and traced against plain, are the same simulation) or when it did
//! not exercise the layer its workload exists for. See `README.md` for
//! the workloads.

mod host;
mod metrics;
mod timed;
mod workload;

use std::time::Instant;

use workload::{Leg, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `leg(i)` for i = 0, 1, … until `seconds` have passed
/// (predicting from the mean leg time whether one more fits), at least
/// `min` times.
fn run_legs<T>(seconds: f64, min: usize, mut leg: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(leg(out.len()));
        let spent = start.elapsed().as_secs_f64();
        if out.len() >= min && spent + spent / out.len() as f64 > seconds {
            return out;
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let seed = args.seed;
    // A traced run compares traced and plain legs of the first instance;
    // a plain run cycles through every instance, at least once. The
    // host's speed is sampled after each leg once the peak memory has been
    // read, so that the reference job's buffers stay out of that peak.
    let mut speed = host::HostSpeed::default();
    let mut peak_rss_mb = 0.0;
    let (plain, traced): (Vec<Leg>, Vec<Leg>) = if args.trace {
        run_legs(args.seconds, 1, |_| {
            let pair = (w.leg(seed, 0, false), w.leg(seed, 0, true));
            speed.sample();
            pair
        })
        .into_iter()
        .unzip()
    } else {
        // Peak memory is read once every instance has run: repeats only
        // add heap fragmentation, so a peak read at the end would grow
        // with the number of legs, that is with the host's speed.
        let k = w.instances();
        let legs = run_legs(args.seconds, k, |i| {
            let leg = w.leg(seed, i % k, false);
            if i + 1 == k {
                peak_rss_mb = host::peak_rss_mb();
            }
            if i + 1 >= k {
                speed.sample();
            }
            leg
        });
        (legs, Vec::new())
    };
    let (report, split_failed) = if args.trace {
        let cost = timed::SpanCost::measure();
        let report = metrics::per_layer(&plain, &traced, cost, &speed);
        (report.metrics, !report.consistent)
    } else {
        (metrics::end_to_end(&plain, peak_rss_mb, &speed), false)
    };
    let all = || plain.iter().chain(&traced);
    let failed = all()
        .filter(|l| {
            let first = plain.iter().find(|p| p.instance == l.instance);
            let differs = first.is_some_and(|p| p.outcome != l.outcome);
            let vacuous = !w.exercised(&l.outcome);
            if differs || vacuous {
                eprintln!(
                    "failed leg: instance {}, differs from its first leg: {differs}, vacuous: {vacuous}, outcome: {:?}",
                    l.instance, l.outcome
                );
            }
            differs || vacuous
        })
        .count()
        + usize::from(split_failed);
    if split_failed {
        eprintln!("failed: the traced leg's time split has a negative share");
    }
    let attempted = plain.len() + traced.len();
    let correct = failed == 0;
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let list = |f: fn(&Leg) -> f64| {
        all()
            .map(|l| format!("{:.4}", f(l)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"legs\": {attempted}, \"leg_run_wall_s\": [{}], \"leg_setup_ms\": [{}], \"host_speed_scale\": {}, \"available_parallelism\": {parallelism}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        list(Leg::run_wall_s),
        list(|l| l.setup_s * 1e3),
        speed.scale(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics::to_json(&report)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = args("--workload mesh-field --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::MeshField);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mesh-field --seed x --seconds 1 --trace 0",
            "--workload mesh-field --seed 1 --seconds 0 --trace 0",
            "--workload mesh-field --seed 1 --seconds 1 --trace 2",
            "--workload mesh-field --seed 1 --seconds 1",
            "--workload mesh-field --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "accepted: {bad}");
        }
    }
}
