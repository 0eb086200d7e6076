//! The shared radio channel.
//!
//! The [`Medium`] owns the set of in-flight transmissions and answers the
//! RF questions the simulator asks: *how strongly does node B hear node
//! A's frame?* and *does this reception survive its interference?* All
//! LoRaMesher traffic shares a single channel and modulation (the library
//! configures one radio profile for the whole mesh), so frames interfere
//! whenever they overlap in time.
//!
//! ## Reception model
//!
//! A frame is delivered to a receiver iff all of the following hold:
//!
//! 1. **Audibility** — the received power exceeds the SF/BW sensitivity,
//!    and the receiver was listening when the frame started (LoRa
//!    receivers lock onto the first audible preamble).
//! 2. **SNR** — the signal-to-noise ratio exceeds the spreading factor's
//!    demodulation floor; with the *grey zone* enabled, success near the
//!    floor is probabilistic following the measured waterfall curve.
//! 3. **SIR / capture** — the signal is at least
//!    [`lora_phy::link::CAPTURE_THRESHOLD_DB`] stronger than the worst
//!    instantaneous sum of overlapping same-channel transmissions.
//!    A *later* frame that is 6 dB stronger steals the receiver lock if it
//!    arrives while the first frame is still in its preamble.

use lora_phy::link::{
    noise_floor, packet_success_probability, sensitivity, snr_demodulation_floor, LinkBudget,
    SignalQuality, CAPTURE_THRESHOLD_DB,
};
use lora_phy::modulation::LoRaModulation;
use lora_phy::power::Dbm;
use lora_phy::propagation::{PathLossModel, Position, Shadowing};

use std::sync::Arc;

use crate::event::FrameId;
use crate::firmware::NodeId;
use crate::radio::Reception;
use crate::rng::SimRng;
use crate::time::SimTime;

/// RF parameters shared by the whole simulation.
#[derive(Clone, Debug)]
pub struct RfConfig {
    /// The single modulation used by every node (as in LoRaMesher).
    pub modulation: LoRaModulation,
    /// Path-loss model between node positions.
    pub path_loss: PathLossModel,
    /// Per-link log-normal shadowing (deterministic).
    pub shadowing: Shadowing,
    /// Transmit power used by every node.
    pub tx_power: Dbm,
    /// Antenna gain applied at both ends, in dBi.
    pub antenna_gain_db: f64,
    /// Minimum advantage for the capture effect, in dB.
    pub capture_threshold_db: f64,
    /// When true, reception near the SNR floor is probabilistic
    /// (logistic waterfall); when false it is a hard threshold.
    pub grey_zone: bool,
}

impl RfConfig {
    /// The capture threshold as a linear power ratio (`10^(dB/10)`).
    ///
    /// Hot paths compare linear powers against this; computing it here
    /// (and caching it in [`Medium`]) keeps the `powf` out of the
    /// per-interferer loop.
    #[must_use]
    pub fn capture_ratio_linear(&self) -> f64 {
        10f64.powf(self.capture_threshold_db / 10.0)
    }
}

impl Default for RfConfig {
    fn default() -> Self {
        RfConfig {
            modulation: LoRaModulation::default(),
            path_loss: PathLossModel::urban_868(),
            shadowing: Shadowing::none(),
            tx_power: Dbm::new(14.0),
            antenna_gain_db: 0.0,
            capture_threshold_db: CAPTURE_THRESHOLD_DB,
            grey_zone: false,
        }
    }
}

/// One transmission currently on the air.
#[derive(Clone, Debug)]
pub struct ActiveTx {
    /// The frame's identifier.
    pub frame: FrameId,
    /// The transmitting node.
    pub sender: NodeId,
    /// Position of the sender at transmission start.
    pub origin: Position,
    /// When the transmission began.
    pub start: SimTime,
    /// When it will end.
    pub end: SimTime,
    /// The frame contents, shared zero-copy with every locked receiver.
    pub payload: Arc<[u8]>,
}

/// What [`Medium::begin_tx`] hands back: the frame id plus the airtime
/// and length the medium already computed, so callers don't re-derive
/// (or re-look-up) either.
#[derive(Clone, Copy, Debug)]
pub struct TxHandle {
    /// The new frame's identifier.
    pub frame: FrameId,
    /// Time on air of the frame under the shared modulation.
    pub airtime: std::time::Duration,
    /// Payload length in bytes.
    pub len: usize,
}

/// Why a reception attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// The frame was too weak to demodulate (below the SNR floor, or the
    /// grey-zone coin came up tails).
    BelowFloor,
    /// Overlapping transmissions destroyed the frame.
    Collision,
    /// The sender stopped mid-frame (fault injection) or the lock was
    /// stolen by a stronger frame.
    Truncated,
    /// Dropped by an injected per-link loss probability
    /// ([`crate::Simulator::set_link_loss`]).
    Injected,
}

/// The outcome of a completed reception attempt.
#[derive(Clone, Debug)]
pub enum RxOutcome {
    /// The frame was decoded; deliver it to the firmware.
    Delivered(SignalQuality),
    /// The frame was lost.
    Lost(LossReason),
}

/// The shared channel: active transmissions plus the RF decision logic.
#[derive(Debug)]
pub struct Medium {
    config: RfConfig,
    /// In-flight transmissions, ascending by [`FrameId`]. Frame ids are
    /// assigned monotonically, so `begin_tx` appends in order and the
    /// iteration order matches the old `BTreeMap` exactly — without the
    /// per-transmission node allocations.
    active: Vec<ActiveTx>,
    next_frame: u64,
    /// [`RfConfig::capture_ratio_linear`], hoisted out of the hot loops.
    capture_ratio_linear: f64,
}

impl Medium {
    /// Creates an empty medium with the given RF configuration.
    #[must_use]
    pub fn new(config: RfConfig) -> Self {
        Medium {
            capture_ratio_linear: config.capture_ratio_linear(),
            config,
            active: Vec::new(),
            next_frame: 0,
        }
    }

    /// The RF configuration.
    #[must_use]
    pub fn config(&self) -> &RfConfig {
        &self.config
    }

    /// The precomputed linear capture ratio
    /// ([`RfConfig::capture_ratio_linear`]).
    #[inline]
    #[must_use]
    pub fn capture_ratio_linear(&self) -> f64 {
        self.capture_ratio_linear
    }

    /// The airtime of a frame of `len` bytes under the shared modulation.
    #[must_use]
    pub fn airtime(&self, len: usize) -> std::time::Duration {
        self.config.modulation.time_on_air(len)
    }

    /// Received power at `rx_pos` for a transmitter at `tx_pos`, with the
    /// deterministic per-link shadowing for the node pair `(a, b)`.
    #[must_use]
    pub fn received_power(
        &self,
        tx_pos: &Position,
        rx_pos: &Position,
        a: NodeId,
        b: NodeId,
    ) -> Dbm {
        let loss = self.config.path_loss.loss_db(tx_pos.distance(rx_pos))
            // meshlint::allow(c1): shadowing hash-mix input — node-id wraparound is deterministic and harmless.
            + self.config.shadowing.offset_db(a.0 as u16, b.0 as u16);
        LinkBudget {
            tx_power: self.config.tx_power,
            tx_antenna_gain_db: self.config.antenna_gain_db,
            rx_antenna_gain_db: self.config.antenna_gain_db,
            path_loss_db: loss,
        }
        .received_power()
    }

    /// Whether a signal of the given power is audible (above sensitivity)
    /// under the shared modulation.
    #[must_use]
    pub fn audible(&self, power: Dbm) -> bool {
        power
            >= sensitivity(
                self.config.modulation.spreading_factor,
                self.config.modulation.bandwidth,
            )
    }

    /// The signal quality a receiver would measure for `power`.
    #[must_use]
    pub fn quality(&self, power: Dbm) -> SignalQuality {
        SignalQuality {
            rssi: power,
            snr: power.value() - noise_floor(self.config.modulation.bandwidth).value(),
        }
    }

    /// Registers a new transmission, returning its frame id together with
    /// the airtime and payload length (so the caller needs no re-lookup).
    pub fn begin_tx(
        &mut self,
        sender: NodeId,
        origin: Position,
        start: SimTime,
        payload: impl Into<Arc<[u8]>>,
    ) -> TxHandle {
        let payload: Arc<[u8]> = payload.into();
        let len = payload.len();
        let airtime = self.airtime(len);
        let frame = FrameId(self.next_frame);
        self.next_frame += 1;
        self.active.push(ActiveTx {
            frame,
            sender,
            origin,
            start,
            end: start + airtime,
            payload,
        });
        TxHandle {
            frame,
            airtime,
            len,
        }
    }

    /// Removes a completed (or aborted) transmission, returning it.
    /// Order-preserving: the remaining transmissions stay ascending.
    pub fn end_tx(&mut self, frame: FrameId) -> Option<ActiveTx> {
        self.active
            .binary_search_by_key(&frame, |tx| tx.frame)
            .ok()
            .map(|pos| self.active.remove(pos))
    }

    /// Looks up an in-flight transmission.
    #[must_use]
    pub fn get(&self, frame: FrameId) -> Option<&ActiveTx> {
        self.active
            .binary_search_by_key(&frame, |tx| tx.frame)
            .ok()
            .and_then(|pos| self.active.get(pos))
    }

    /// Iterates over the in-flight transmissions in ascending frame order.
    pub fn active(&self) -> impl Iterator<Item = &ActiveTx> {
        self.active.iter()
    }

    /// Whether the preamble of `tx` is still being transmitted at `now`
    /// (the window during which a stronger frame may steal the lock).
    #[must_use]
    pub fn in_preamble(&self, tx: &ActiveTx, now: SimTime) -> bool {
        now.since(tx.start) < self.config.modulation.preamble_time()
    }

    /// Decides the fate of a completed reception attempt.
    ///
    /// `rng` supplies the grey-zone coin; it is only consulted when
    /// [`RfConfig::grey_zone`] is enabled.
    #[must_use]
    pub fn judge(&self, reception: &Reception, rng: &mut SimRng) -> RxOutcome {
        if reception.corrupted {
            return RxOutcome::Lost(LossReason::Truncated);
        }
        let sf = self.config.modulation.spreading_factor;
        let snr_margin = reception.quality.snr - snr_demodulation_floor(sf);

        // Interference: signal must beat the worst instantaneous
        // interference by the capture threshold.
        if let Some(sir) = reception.sir_db() {
            if sir < self.config.capture_threshold_db {
                return RxOutcome::Lost(LossReason::Collision);
            }
        }

        let ok = if self.config.grey_zone {
            rng.gen_bool(packet_success_probability(snr_margin))
        } else {
            snr_margin >= 0.0
        };
        if ok {
            RxOutcome::Delivered(reception.quality)
        } else {
            RxOutcome::Lost(LossReason::BelowFloor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Medium {
        Medium::new(RfConfig::default())
    }

    fn pos(x: f64) -> Position {
        Position::new(x, 0.0)
    }

    #[test]
    fn frame_ids_are_unique_and_increasing() {
        let mut m = medium();
        let a = m.begin_tx(NodeId(0), pos(0.0), SimTime::ZERO, vec![0; 10]);
        let b = m.begin_tx(NodeId(1), pos(1.0), SimTime::ZERO, vec![0; 10]);
        assert!(b.frame > a.frame);
        assert!(m.get(a.frame).is_some());
        assert_eq!(m.active().count(), 2);
        let ended = m.end_tx(a.frame).unwrap();
        assert_eq!(ended.sender, NodeId(0));
        assert!(m.get(a.frame).is_none());
    }

    #[test]
    fn tx_end_time_matches_airtime() {
        let mut m = medium();
        let h = m.begin_tx(NodeId(0), pos(0.0), SimTime::from_secs(1), vec![0; 20]);
        assert_eq!(h.airtime, m.airtime(20));
        assert_eq!(h.len, 20);
        let tx = m.get(h.frame).unwrap();
        assert_eq!(tx.end, SimTime::from_secs(1) + m.airtime(20));
    }

    #[test]
    fn near_node_is_audible_far_is_not() {
        let m = medium();
        let near = m.received_power(&pos(0.0), &pos(100.0), NodeId(0), NodeId(1));
        let far = m.received_power(&pos(0.0), &pos(60_000.0), NodeId(0), NodeId(1));
        assert!(m.audible(near), "rssi at 100 m: {near}");
        assert!(!m.audible(far), "rssi at 60 km: {far}");
    }

    #[test]
    fn received_power_is_symmetric() {
        let m = medium();
        let ab = m.received_power(&pos(0.0), &pos(500.0), NodeId(0), NodeId(1));
        let ba = m.received_power(&pos(500.0), &pos(0.0), NodeId(1), NodeId(0));
        assert_eq!(ab, ba);
    }

    #[test]
    fn judge_delivers_clean_strong_frame() {
        let m = medium();
        let q = m.quality(Dbm::new(-80.0));
        let rec = Reception::new(
            FrameId(0),
            crate::firmware::NodeId(0),
            q,
            Dbm::new(-80.0).to_milliwatts().value(),
            vec![],
        );
        match m.judge(&rec, &mut SimRng::new(1)) {
            RxOutcome::Delivered(quality) => assert_eq!(quality, q),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn judge_rejects_below_floor() {
        let m = medium();
        // SF7 floor is -7.5 dB SNR; -130 dBm is ~13 dB below the noise floor.
        let q = m.quality(Dbm::new(-130.0));
        let rec = Reception::new(
            FrameId(0),
            crate::firmware::NodeId(0),
            q,
            Dbm::new(-130.0).to_milliwatts().value(),
            vec![],
        );
        match m.judge(&rec, &mut SimRng::new(1)) {
            RxOutcome::Lost(LossReason::BelowFloor) => {}
            other => panic!("expected BelowFloor, got {other:?}"),
        }
    }

    #[test]
    fn judge_rejects_collision_without_capture_margin() {
        let m = medium();
        let q = m.quality(Dbm::new(-80.0));
        let signal = Dbm::new(-80.0).to_milliwatts().value();
        let mut rec = Reception::new(FrameId(0), crate::firmware::NodeId(0), q, signal, vec![]);
        // Interferer only 3 dB weaker: SIR 3 dB < 6 dB threshold.
        rec.add_interferer(FrameId(1), Dbm::new(-83.0).to_milliwatts().value());
        match m.judge(&rec, &mut SimRng::new(1)) {
            RxOutcome::Lost(LossReason::Collision) => {}
            other => panic!("expected Collision, got {other:?}"),
        }
    }

    #[test]
    fn judge_captures_over_weak_interferer() {
        let m = medium();
        let q = m.quality(Dbm::new(-80.0));
        let signal = Dbm::new(-80.0).to_milliwatts().value();
        let mut rec = Reception::new(FrameId(0), crate::firmware::NodeId(0), q, signal, vec![]);
        rec.add_interferer(FrameId(1), Dbm::new(-90.0).to_milliwatts().value());
        assert!(matches!(
            m.judge(&rec, &mut SimRng::new(1)),
            RxOutcome::Delivered(_)
        ));
    }

    #[test]
    fn judge_rejects_truncated() {
        let m = medium();
        let q = m.quality(Dbm::new(-80.0));
        let mut rec = Reception::new(FrameId(0), crate::firmware::NodeId(0), q, 1.0, vec![]);
        rec.corrupted = true;
        assert!(matches!(
            m.judge(&rec, &mut SimRng::new(1)),
            RxOutcome::Lost(LossReason::Truncated)
        ));
    }

    #[test]
    fn grey_zone_is_probabilistic_near_floor() {
        let m = Medium::new(RfConfig {
            grey_zone: true,
            ..RfConfig::default()
        });
        // Exactly at the floor: 50/50.
        let floor_rssi = Dbm::new(
            noise_floor(m.config().modulation.bandwidth).value()
                + snr_demodulation_floor(m.config().modulation.spreading_factor),
        );
        let q = m.quality(floor_rssi);
        let rec = Reception::new(
            FrameId(0),
            crate::firmware::NodeId(0),
            q,
            floor_rssi.to_milliwatts().value(),
            vec![],
        );
        let mut rng = SimRng::new(42);
        let delivered = (0..2000)
            .filter(|_| matches!(m.judge(&rec, &mut rng), RxOutcome::Delivered(_)))
            .count();
        assert!((800..1200).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn capture_ratio_linear_matches_threshold() {
        let m = medium();
        let expected = 10f64.powf(m.config().capture_threshold_db / 10.0);
        assert_eq!(m.capture_ratio_linear(), expected);
        assert_eq!(m.config().capture_ratio_linear(), expected);
    }

    #[test]
    fn preamble_window() {
        let mut m = medium();
        let f = m
            .begin_tx(NodeId(0), pos(0.0), SimTime::ZERO, vec![0; 10])
            .frame;
        let tx = m.get(f).unwrap().clone();
        let preamble = m.config().modulation.preamble_time();
        assert!(m.in_preamble(&tx, SimTime::ZERO + preamble / 2));
        assert!(!m.in_preamble(&tx, SimTime::ZERO + preamble * 2));
    }
}
