//! Property test: the calendar [`EventQueue`] is observationally
//! equivalent to a deliberately naive reference model — a single global
//! `BinaryHeap` keyed on `(time, seq)` with the same timer-generation
//! rules. Random interleavings of schedules, timer reschedules,
//! cancellations, pops and peeks must agree on every observable:
//! popped events (FIFO within same-instant ties), peeked times, lengths
//! with and without tombstones, and the stale-drop counter. Times span
//! the ring horizon, so near-ring placement, overflow migration and
//! past-event clamping are all crossed repeatedly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use radio_sim::event::{EventQueue, SimEvent};
use radio_sim::time::SimTime;
use radio_sim::NodeId;
use testkit::{forall, Gen};

const NODES: usize = 5;

/// The reference: a global `(time, seq)` min-heap plus per-node timer
/// generations, dropping stale stamps lazily exactly like the real
/// queue claims to.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    events: Vec<(SimTime, SimEvent)>,
    gen: [u64; NODES],
    dropped: u64,
}

impl Model {
    fn is_live(&self, event: &SimEvent) -> bool {
        match event {
            SimEvent::Timer(n, g) => self.gen.get(n.0).copied() == Some(*g),
            _ => true,
        }
    }

    fn event_at(&self, seq: u64) -> (SimTime, SimEvent) {
        self.events
            .get(usize::try_from(seq).unwrap_or(usize::MAX))
            .cloned()
            .expect("model heap references a recorded event")
    }

    fn schedule(&mut self, at: SimTime, event: SimEvent) {
        let seq = self.events.len() as u64;
        self.events.push((at, event));
        self.heap.push(Reverse((at, seq)));
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId) {
        if let Some(g) = self.gen.get_mut(node.0) {
            *g = g.wrapping_add(1);
        }
        let stamp = self.gen.get(node.0).copied().unwrap_or(0);
        self.schedule(at, SimEvent::Timer(node, stamp));
    }

    fn cancel_timer(&mut self, node: NodeId) {
        if let Some(g) = self.gen.get_mut(node.0) {
            *g = g.wrapping_add(1);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        while let Some(Reverse((_, seq))) = self.heap.pop() {
            let (at, event) = self.event_at(seq);
            if self.is_live(&event) {
                return Some((at, event));
            }
            self.dropped += 1;
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            let (_, event) = self.event_at(seq);
            if self.is_live(&event) {
                return Some(at);
            }
            self.heap.pop();
            self.dropped += 1;
        }
        None
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn live_len(&self) -> usize {
        self.heap
            .iter()
            .filter(|Reverse((_, seq))| self.is_live(&self.event_at(*seq).1))
            .count()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// A non-timer event (never tombstoned).
    App {
        node: usize,
        at: SimTime,
    },
    /// The invalidate-and-restamp path.
    ScheduleTimer {
        node: usize,
        at: SimTime,
    },
    /// Invalidate without rescheduling.
    CancelTimer {
        node: usize,
    },
    /// Raw `schedule` of a timer with the node's *current* stamp (the
    /// legacy engine's path: live until the next invalidation).
    RawLiveTimer {
        node: usize,
        at: SimTime,
    },
    /// Raw `schedule` of a timer with an unreachable stamp: a tombstone
    /// from birth.
    RawStaleTimer {
        node: usize,
        at: SimTime,
    },
    Pop,
    Peek,
}

/// Times cluster on shared instants (to force FIFO ties), span several
/// ring-horizon multiples (≈4.3 s each) and occasionally jump a minute
/// ahead, so every insert path (near ring / overflow / clamped past)
/// gets traffic.
fn gen_time(g: &mut Gen) -> SimTime {
    let base = g.int_in(0, 4) * 5_000;
    let jitter = g.int_in(0, 8) * 400;
    let far = if g.bool(0.1) { 60_000 } else { 0 };
    SimTime::from_millis(base + jitter + far)
}

fn gen_op(g: &mut Gen) -> Op {
    let node = g.usize_in(0, NODES - 1);
    match g.int_in(0, 9) {
        0 | 1 => Op::App {
            node,
            at: gen_time(g),
        },
        2 | 3 => Op::ScheduleTimer {
            node,
            at: gen_time(g),
        },
        4 => Op::CancelTimer { node },
        5 => Op::RawLiveTimer {
            node,
            at: gen_time(g),
        },
        6 => Op::RawStaleTimer {
            node,
            at: gen_time(g),
        },
        7 | 8 => Op::Pop,
        _ => Op::Peek,
    }
}

#[test]
fn calendar_queue_matches_reference_model() {
    forall(
        "calendar_queue_matches_reference_model",
        |g| g.vec_of(1, 240, gen_op),
        |ops| {
            let mut q = EventQueue::new();
            let mut m = Model::default();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::App { node, at } => {
                        let ev = SimEvent::App(NodeId(node), step as u64);
                        q.schedule(at, ev.clone());
                        m.schedule(at, ev);
                    }
                    Op::ScheduleTimer { node, at } => {
                        q.schedule_timer(at, NodeId(node));
                        m.schedule_timer(at, NodeId(node));
                    }
                    Op::CancelTimer { node } => {
                        q.cancel_timer(NodeId(node));
                        m.cancel_timer(NodeId(node));
                    }
                    Op::RawLiveTimer { node, at } => {
                        // Stamped with the model's generation: a queue
                        // whose generation has skewed books it as a
                        // tombstone, which the live-length check below
                        // catches at this very step.
                        let stamp = m.gen.get(node).copied().unwrap_or(0);
                        q.schedule(at, SimEvent::Timer(NodeId(node), stamp));
                        m.schedule(at, SimEvent::Timer(NodeId(node), stamp));
                    }
                    Op::RawStaleTimer { node, at } => {
                        let stamp = m.gen.get(node).copied().unwrap_or(0).wrapping_add(100_000);
                        q.schedule(at, SimEvent::Timer(NodeId(node), stamp));
                        m.schedule(at, SimEvent::Timer(NodeId(node), stamp));
                    }
                    Op::Pop => {
                        let (got, want) = (q.pop(), m.pop());
                        if got != want {
                            return Err(format!("step {step}: pop {got:?}, model {want:?}"));
                        }
                    }
                    Op::Peek => {
                        let (got, want) = (q.peek_time(), m.peek_time());
                        if got != want {
                            return Err(format!("step {step}: peek {got:?}, model {want:?}"));
                        }
                    }
                }
                if q.len() != m.len() || q.live_len() != m.live_len() {
                    return Err(format!(
                        "step {step}: len {}/{} vs model {}/{}",
                        q.len(),
                        q.live_len(),
                        m.len(),
                        m.live_len()
                    ));
                }
                if q.stale_timers_dropped() != m.dropped {
                    return Err(format!(
                        "step {step}: stale drops {} vs model {}",
                        q.stale_timers_dropped(),
                        m.dropped
                    ));
                }
                if q.is_empty() != (m.len() == 0) {
                    return Err(format!("step {step}: is_empty disagrees"));
                }
            }
            // Drain both to the end: the full remaining order must match.
            loop {
                let (got, want) = (q.pop(), m.pop());
                if got != want {
                    return Err(format!("drain: pop {got:?}, model {want:?}"));
                }
                if got.is_none() {
                    break;
                }
            }
            if q.stale_timers_dropped() != m.dropped {
                return Err("drain: stale-drop counters disagree".into());
            }
            Ok(())
        },
    );
}
