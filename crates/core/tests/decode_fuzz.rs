//! Fuzz-style properties over the wire codecs (meshlint rule R1's
//! runtime counterpart): the frame codec's `decode` and the flooding
//! stack's `FloodMessage::decode` must never panic on arbitrary bytes —
//! over-the-air input is untrusted — and encode/decode must be exact
//! inverses on every valid frame and message.
//!
//! Uses the in-repo `testkit` harness: failures print a replayable
//! `TESTKIT_SEED` and a shrunk counterexample.

use loramesher::codec::{decode, encode, encoded_len, MAX_FRAME_LEN};
use loramesher::packet::{Forwarding, Packet, RouteEntry};
use loramesher::{Address, FloodMessage};
use testkit::{forall, prop_assert, prop_assert_eq, Gen};

/// A random packet of a random kind with field values spanning the full
/// wire ranges, sized to always fit a frame.
fn arb_packet(g: &mut Gen) -> Packet {
    let dst = Address::new(g.u16());
    let src = Address::new(g.u16());
    let id = g.u8();
    let fwd = Forwarding {
        via: Address::new(g.u16()),
        ttl: g.u8(),
    };
    match g.usize_in(0, 5) {
        0 => Packet::Hello {
            src,
            id,
            role: g.u8(),
            entries: g.vec_of(0, 40, |g| RouteEntry {
                address: Address::new(g.u16()),
                metric: g.u8(),
                role: g.u8(),
            }),
        },
        1 => Packet::Data {
            dst,
            src,
            id,
            fwd,
            payload: g.bytes(0, 200),
        },
        2 => Packet::Sync {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            frag_count: g.u16(),
            total_len: g.u32(),
        },
        3 => Packet::Frag {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
            data: g.bytes(0, 200),
        },
        4 => Packet::Ack {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            index: g.u16(),
        },
        _ => Packet::Lost {
            dst,
            src,
            id,
            fwd,
            seq: g.u8(),
            missing: g.vec_of(0, 80, Gen::u16),
        },
    }
}

#[test]
fn decode_never_panics_on_random_bytes() {
    // The property body IS the assertion: a panic inside `decode` fails
    // the test with a replay seed. Either verdict is acceptable.
    forall(
        "decode_random_bytes",
        |g| g.bytes(0, 300),
        |bytes| {
            let _ = decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn decode_never_panics_on_mutated_valid_frames() {
    // Random single-byte corruption of a real frame explores the decode
    // branches that pure noise rarely reaches (valid kinds, near-valid
    // lengths).
    forall(
        "decode_mutated_frames",
        |g| {
            let mut wire = encode(&arb_packet(g)).unwrap_or_default();
            if !wire.is_empty() {
                let at = g.usize_in(0, wire.len() - 1);
                let flip = g.u8();
                if let Some(b) = wire.get_mut(at) {
                    *b ^= flip;
                }
                // Sometimes also truncate.
                if g.usize_in(0, 3) == 0 {
                    let keep = g.usize_in(0, wire.len());
                    wire.truncate(keep);
                }
            }
            wire
        },
        |bytes| {
            let _ = decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn encode_decode_round_trips_every_kind() {
    forall("codec_round_trip", arb_packet, |packet| {
        let wire = encode(packet).map_err(|e| format!("encode failed: {e}"))?;
        prop_assert!(wire.len() <= MAX_FRAME_LEN, "frame over PHY limit");
        prop_assert_eq!(wire.len(), encoded_len(packet));
        let back = decode(&wire).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(&back, packet);
        // And decode∘encode is the identity on the byte level too: no
        // field is silently dropped or defaulted.
        let rewire = encode(&back).map_err(|e| format!("re-encode failed: {e}"))?;
        prop_assert_eq!(rewire, wire);
        Ok(())
    });
}

#[test]
fn decoded_frames_reencode_to_the_same_bytes() {
    // For arbitrary bytes that happen to decode, encoding the result
    // must reproduce the input exactly — `decode` accepts no frame it
    // cannot faithfully represent (trailing garbage, ragged bodies).
    forall(
        "decode_then_encode_identity",
        |g| g.bytes(0, 120),
        |bytes| {
            if let Ok(packet) = decode(bytes) {
                let rewire = encode(&packet).map_err(|e| format!("re-encode failed: {e}"))?;
                prop_assert_eq!(&rewire, bytes);
            }
            Ok(())
        },
    );
}

/// A random string of up to `max_chars` characters drawn from the whole
/// Unicode range (so 1- to 4-byte UTF-8 sequences all occur).
fn arb_string(g: &mut Gen, max_chars: usize) -> String {
    g.vec_of(0, max_chars, |g| {
        let c = if g.bool(0.5) {
            g.int_in(0x20, 0x7E)
        } else {
            g.int_in(0x80, 0x10_FFFF)
        };
        char::from_u32(c as u32).unwrap_or('\u{FFFD}')
    })
    .into_iter()
    .collect()
}

/// A random flood message of a random kind. NodeInfo names stay within
/// the 255-byte wire cap (60 chars × ≤ 4 bytes), so every message is
/// exactly representable.
fn arb_flood_message(g: &mut Gen) -> FloodMessage {
    match g.usize_in(0, 3) {
        0 => FloodMessage::Text(arb_string(g, 120)),
        1 => FloodMessage::Position {
            latitude_i: g.u32() as i32,
            longitude_i: g.u32() as i32,
            altitude_m: g.u32() as i32,
        },
        2 => FloodMessage::NodeInfo {
            id: g.u32(),
            long_name: arb_string(g, 60),
            short_name: arb_string(g, 60),
            hw_model: g.u8(),
        },
        _ => FloodMessage::Telemetry {
            battery_pct: g.u8(),
            voltage_mv: g.u16(),
            channel_util_pct: g.u8(),
            uptime_s: g.u32(),
        },
    }
}

#[test]
fn flood_decode_never_panics_on_random_bytes() {
    forall(
        "flood_decode_random_bytes",
        |g| {
            let mut bytes = g.bytes(0, 300);
            // Known ports reach the per-kind body decoders.
            if let Some(port) = bytes.first_mut() {
                if g.bool(0.75) {
                    *port = g.choose(&[1, 3, 4, 67]);
                }
            }
            bytes
        },
        |bytes| {
            let _ = FloodMessage::decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn flood_decode_never_panics_on_mutated_valid_messages() {
    forall(
        "flood_decode_mutated_messages",
        |g| {
            let mut wire = arb_flood_message(g).encode();
            let at = g.usize_in(0, wire.len() - 1);
            let flip = g.u8();
            if let Some(b) = wire.get_mut(at) {
                *b ^= flip;
            }
            if g.usize_in(0, 3) == 0 {
                let keep = g.usize_in(0, wire.len());
                wire.truncate(keep);
            }
            wire
        },
        |bytes| {
            let _ = FloodMessage::decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn flood_encode_decode_round_trips_every_kind() {
    forall("flood_round_trip", arb_flood_message, |msg| {
        let wire = msg.encode();
        prop_assert_eq!(wire.first().copied(), Some(msg.port()));
        let back = FloodMessage::decode(&wire).map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(&back, msg);
        prop_assert_eq!(back.encode(), wire);
        Ok(())
    });
}
