//! Process counters read from `/proc`, the host-speed reference and
//! order statistics.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fs;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A `kB` field of `/proc/self/status`, in MiB (0 when unreadable).
fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size in MiB.
#[must_use]
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process so far, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// User + system CPU seconds of this process, all threads included
/// (including threads that have exited). `/proc` reports clock ticks
/// of `USER_HZ`, which Linux fixes at 100.
#[must_use]
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; `rest` starts at 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host seconds are reported as seconds on a host where one run of the
/// reference job takes this long (about its time on the measuring VM).
pub const REFERENCE_S: f64 = 0.12;

/// Keys of the reference job's table; its queue holds half as many.
const REFERENCE_KEYS: u64 = 400_000;

/// Steps of the reference job's floating-point half.
const REFERENCE_FLOPS: u64 = 2_400_000;

/// A fixed job that tracks the host's speed. One half is priority-queue
/// and hash-table work on about 10 MB, the kind of work the simulator's
/// event queue and tables do; the other, taking about as long, is
/// floating-point math like the propagation model's. It uses `std`
/// alone, so no change to the simulator changes it. Timed between legs,
/// it measures how fast the shared host runs at the moment: on the
/// measuring VM a fixed loop's time drifts by ±15 % over minutes, and
/// the simulator's legs drift with it. Memory-bound stretches slow the
/// first half more, compute-bound ones the second; the stack workloads
/// followed the two halves together more closely than either alone.
#[derive(Default)]
pub struct HostSpeed {
    queue: BinaryHeap<Reverse<u64>>,
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    values: Vec<u64>,
    /// Seconds per timed run of the job.
    pub samples: Vec<f64>,
}

impl HostSpeed {
    /// Runs the job once, untimed the first time (it sizes its buffers,
    /// so that timed runs allocate nothing).
    pub fn sample(&mut self) {
        if self.values.capacity() == 0 {
            self.run();
        }
        let t = Instant::now();
        self.run();
        self.samples.push(t.elapsed().as_secs_f64());
    }

    fn run(&mut self) {
        self.queue.clear();
        self.table.clear();
        self.values.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for i in 0..REFERENCE_KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.queue.push(Reverse(x % 1_000_000));
            if self.queue.len() as u64 > REFERENCE_KEYS / 2 {
                acc ^= self.queue.pop().map_or(0, |Reverse(v)| v);
            }
            *self.table.entry(x % REFERENCE_KEYS).or_default() += i;
        }
        self.values.extend(self.table.values());
        self.values.sort_unstable();
        acc ^= self.values.get(self.values.len() / 2).copied().unwrap_or(0);
        let mut sum = 0.0f64;
        for _ in 0..REFERENCE_FLOPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = 100.0 + (x % 10_000) as f64;
            sum += 35.0 * d.log10() - (d / 1000.0).exp().sqrt();
        }
        std::hint::black_box((acc, sum));
    }

    /// The factor that turns host seconds measured now into seconds on
    /// the reference host: [`REFERENCE_S`] over the median timed run (1
    /// before any).
    #[must_use]
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_S / median(&self.samples)
        }
    }
}

/// The median of `v` (0 for an empty slice).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `p` quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => {
            let x = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = x.floor() as usize;
            let hi = x.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn process_counters_are_live() {
        // The peak, read later, bounds the current size read earlier.
        let rss = rss_mb();
        assert!(rss > 0.0);
        assert!(peak_rss_mb() >= rss);
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() > 0.0);
    }

    #[test]
    fn host_speed_allocates_only_on_its_first_run() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.scale(), 1.0);
        speed.sample();
        let sized = (
            speed.queue.capacity(),
            speed.table.capacity(),
            speed.values.capacity(),
        );
        speed.sample();
        let again = (
            speed.queue.capacity(),
            speed.table.capacity(),
            speed.values.capacity(),
        );
        assert_eq!(sized, again);
        assert_eq!(speed.samples.len(), 2);
        assert!(speed.scale() > 0.0);
    }
}
