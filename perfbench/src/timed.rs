//! Timing wrappers around the two firmware layers of a hosted stack.
//!
//! The simulator calls `TimedFirmware<ProtocolFirmware<TimedNode<ProtocolNode>>>`:
//! the outer wrapper spans every callback of the `scenario` adapter
//! (event draining, workload actions) *including* the protocol work it
//! calls into, and the inner wrapper spans only the protocol stack (the
//! `loramesher` crate). Adapter self time is therefore outer minus
//! inner, and engine time is the run's wall time minus both. Each node
//! owns its own counters, so nothing is shared and the wrappers add no
//! events, RNG draws or radio commands: a wrapped run is the same
//! simulation as an unwrapped one (checked on every traced run).
//!
//! The wrappers' own clock reads cost time too: each timed call records
//! part of that cost in its own span and leaves the rest just outside it,
//! in the enclosing layer. [`SpanCost`] measures both parts on an empty
//! span so the metrics can take them out of the layers and report them
//! as a share of their own.

use std::cell::Cell;
use std::time::{Duration, Instant};

use lora_phy::link::SignalQuality;
use loramesher::addr::Address;
use loramesher::error::SendError;
use radio_sim::firmware::{Context, Firmware};
use scenario::{AppEvent, HostedProtocol};

/// Accumulated host time and call count of one callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Host nanoseconds spent inside the callback.
    pub ns: u64,
    /// Number of calls.
    pub n: u64,
}

impl Span {
    fn add(&mut self, start: Instant) {
        self.ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.n += 1;
    }

    fn plus(self, other: Span) -> Span {
        Span {
            ns: self.ns + other.ns,
            n: self.n + other.n,
        }
    }
}

/// What timing one call costs, measured on an empty span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    /// Host nanoseconds one timed call adds to the run.
    pub wall_ns: f64,
    /// The part of `wall_ns` that the call's own span records.
    pub recorded_ns: f64,
}

impl SpanCost {
    /// Times rounds of empty spans and keeps the round of median cost.
    #[must_use]
    pub fn measure() -> SpanCost {
        const CALLS: u32 = 100_000;
        let mut rounds: Vec<SpanCost> = (0..9)
            .map(|_| {
                let mut span = Span::default();
                let start = Instant::now();
                for _ in 0..CALLS {
                    let t = Instant::now();
                    std::hint::black_box(&mut span).add(t);
                }
                SpanCost {
                    wall_ns: start.elapsed().as_nanos() as f64 / f64::from(CALLS),
                    recorded_ns: span.ns as f64 / f64::from(CALLS),
                }
            })
            .collect();
        rounds.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
        rounds[rounds.len() / 2]
    }

    /// The part of `wall_ns` left outside the call's own span.
    #[must_use]
    pub fn unrecorded_ns(&self) -> f64 {
        self.wall_ns - self.recorded_ns
    }
}

/// Per-callback spans of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Callbacks {
    /// `on_frame`: a decoded frame arrived.
    pub on_frame: Span,
    /// `on_timer`: the node's wake time came.
    pub on_timer: Span,
    /// `on_cad_done`: a channel-activity scan finished.
    pub on_cad_done: Span,
    /// `on_tx_done`: a transmission finished.
    pub on_tx_done: Span,
    /// `on_app`: a workload action (at the protocol: a send submission).
    pub on_app: Span,
    /// `next_wake`: the engine asked for the next wake time.
    pub next_wake: Span,
}

impl Callbacks {
    /// The callbacks by metric name, in a fixed order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, Span); 6] {
        [
            ("on_frame", self.on_frame),
            ("on_timer", self.on_timer),
            ("on_cad_done", self.on_cad_done),
            ("on_tx_done", self.on_tx_done),
            ("on_app", self.on_app),
            ("next_wake", self.next_wake),
        ]
    }

    /// Time spent inside callbacks that the engine dispatches as events
    /// (every span but `next_wake`).
    #[must_use]
    pub fn dispatch_ns(&self) -> u64 {
        self.named()
            .iter()
            .filter(|(name, _)| *name != "next_wake")
            .map(|(_, s)| s.ns)
            .sum()
    }

    /// Calls of the dispatched callbacks (every span but `next_wake`).
    #[must_use]
    pub fn dispatch_n(&self) -> u64 {
        self.named()
            .iter()
            .filter(|(name, _)| *name != "next_wake")
            .map(|(_, s)| s.n)
            .sum()
    }

    /// Time spent inside every span.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.dispatch_ns() + self.next_wake.ns
    }

    /// The field-wise sum of two span sets.
    #[must_use]
    pub fn plus(&self, o: &Callbacks) -> Callbacks {
        Callbacks {
            on_frame: self.on_frame.plus(o.on_frame),
            on_timer: self.on_timer.plus(o.on_timer),
            on_cad_done: self.on_cad_done.plus(o.on_cad_done),
            on_tx_done: self.on_tx_done.plus(o.on_tx_done),
            on_app: self.on_app.plus(o.on_app),
            next_wake: self.next_wake.plus(o.next_wake),
        }
    }

    /// The field-wise difference `self - earlier` of a later snapshot.
    #[must_use]
    pub fn since(&self, earlier: &Callbacks) -> Callbacks {
        let d = |a: Span, b: Span| Span {
            ns: a.ns - b.ns,
            n: a.n - b.n,
        };
        Callbacks {
            on_frame: d(self.on_frame, earlier.on_frame),
            on_timer: d(self.on_timer, earlier.on_timer),
            on_cad_done: d(self.on_cad_done, earlier.on_cad_done),
            on_tx_done: d(self.on_tx_done, earlier.on_tx_done),
            on_app: d(self.on_app, earlier.on_app),
            next_wake: d(self.next_wake, earlier.next_wake),
        }
    }
}

/// Inner wrapper: spans the protocol stack's callbacks, its
/// `next_wake` and its send submissions (which the adapter makes on
/// `on_app`). `on_start` runs during set-up and is not timed.
#[derive(Debug)]
pub struct TimedNode<P> {
    /// The wrapped protocol.
    pub inner: P,
    spans: Callbacks,
    /// `next_wake` takes `&self`.
    next_wake: Cell<Span>,
}

impl<P> TimedNode<P> {
    /// Wraps a protocol with zeroed spans.
    pub fn new(inner: P) -> Self {
        TimedNode {
            inner,
            spans: Callbacks::default(),
            next_wake: Cell::new(Span::default()),
        }
    }

    /// The spans accumulated so far.
    #[must_use]
    pub fn spans(&self) -> Callbacks {
        Callbacks {
            next_wake: self.next_wake.get(),
            ..self.spans
        }
    }
}

impl<P: Firmware> Firmware for TimedNode<P> {
    fn on_start(&mut self, io: &mut Context) {
        self.inner.on_start(io);
    }
    fn on_timer(&mut self, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_timer(io);
        self.spans.on_timer.add(t);
    }
    fn on_frame(&mut self, frame: &[u8], q: SignalQuality, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_frame(frame, q, io);
        self.spans.on_frame.add(t);
    }
    fn on_tx_done(&mut self, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_tx_done(io);
        self.spans.on_tx_done.add(t);
    }
    fn on_cad_done(&mut self, busy: bool, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_cad_done(busy, io);
        self.spans.on_cad_done.add(t);
    }
    fn on_app(&mut self, tag: u64, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_app(tag, io);
        self.spans.on_app.add(t);
    }
    fn next_wake(&self) -> Option<Duration> {
        let t = Instant::now();
        let wake = self.inner.next_wake();
        let mut s = self.next_wake.get();
        s.add(t);
        self.next_wake.set(s);
        wake
    }
}

impl<P: HostedProtocol> HostedProtocol for TimedNode<P> {
    fn drain(&mut self) -> Vec<AppEvent> {
        self.inner.drain()
    }
    fn submit_datagram(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        let t = Instant::now();
        let r = self.inner.submit_datagram(dst, payload, now);
        self.spans.on_app.add(t);
        r
    }
    fn submit_reliable(
        &mut self,
        dst: Address,
        payload: Vec<u8>,
        now: Duration,
    ) -> Result<u8, SendError> {
        let t = Instant::now();
        let r = self.inner.submit_reliable(dst, payload, now);
        self.spans.on_app.add(t);
        r
    }
}

/// Outer wrapper: spans every dispatched callback of the hosted
/// firmware. `next_wake` is a plain delegation and is not timed here,
/// so the inner wrapper's `next_wake` span lies outside every outer
/// span.
#[derive(Debug)]
pub struct TimedFirmware<F> {
    /// The wrapped firmware.
    pub inner: F,
    spans: Callbacks,
}

impl<F> TimedFirmware<F> {
    /// Wraps firmware with zeroed spans.
    pub fn new(inner: F) -> Self {
        TimedFirmware {
            inner,
            spans: Callbacks::default(),
        }
    }

    /// The spans accumulated so far.
    #[must_use]
    pub fn spans(&self) -> Callbacks {
        self.spans
    }
}

impl<F: Firmware> Firmware for TimedFirmware<F> {
    fn on_start(&mut self, io: &mut Context) {
        self.inner.on_start(io);
    }
    fn on_timer(&mut self, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_timer(io);
        self.spans.on_timer.add(t);
    }
    fn on_frame(&mut self, frame: &[u8], q: SignalQuality, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_frame(frame, q, io);
        self.spans.on_frame.add(t);
    }
    fn on_tx_done(&mut self, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_tx_done(io);
        self.spans.on_tx_done.add(t);
    }
    fn on_cad_done(&mut self, busy: bool, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_cad_done(busy, io);
        self.spans.on_cad_done.add(t);
    }
    fn on_app(&mut self, tag: u64, io: &mut Context) {
        let t = Instant::now();
        self.inner.on_app(tag, io);
        self.spans.on_app.add(t);
    }
    fn next_wake(&self) -> Option<Duration> {
        self.inner.next_wake()
    }
}
