//! RSN instruction packets and their byte-level encoding (§3.3).
//!
//! The program for a whole datapath is stored as a single sequence of RSN
//! instruction packets.  Each packet is a UDP-like unit with a **32-bit
//! header** and a payload of macro-operations (mOPs):
//!
//! * `opcode` — the targeted FU type,
//! * `mask` — which FU instances of that type are targeted,
//! * `last` — signals FU exit,
//! * `window` — number of mOPs in this packet,
//! * `reuse` — how many times the payload window is replayed.
//!
//! The `window`/`reuse` mechanism is what lets one short packet drive long,
//! repetitive uOP sequences ("send to FU1 then FU2, 128 times") and is the
//! source of the compression ratios reported in the paper's Fig. 9.

use crate::bytes::{Bytes, BytesMut};
use crate::error::RsnError;
use crate::uop::Uop;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bit widths of the packed 32-bit packet header.
pub mod header_bits {
    /// Bits for the FU-type opcode field.
    pub const OPCODE: u32 = 4;
    /// Bits for the FU-instance selection mask.
    pub const MASK: u32 = 8;
    /// Bits for the `last` flag.
    pub const LAST: u32 = 1;
    /// Bits for the window size.
    pub const WINDOW: u32 = 7;
    /// Bits for the reuse count.
    pub const REUSE: u32 = 12;
}

/// Maximum window size representable in the packed header.
pub const MAX_WINDOW: usize = (1 << header_bits::WINDOW) - 1;
/// Maximum reuse count representable in the packed header.
pub const MAX_REUSE: usize = (1 << header_bits::REUSE) - 1;
/// Maximum FU-type opcode value.
pub const MAX_OPCODE: u8 = (1 << header_bits::OPCODE) - 1;

/// The 32-bit RSN packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketHeader {
    /// FU-type opcode (index into the datapath's FU-type table).
    pub opcode: u8,
    /// Bitmask selecting FU instances of that type (bit *i* selects lane *i*).
    pub mask: u8,
    /// When set, the targeted FUs exit after draining this packet.
    pub last: bool,
    /// Number of mOPs in the payload window.
    pub window: u8,
    /// Number of times the window is replayed by the second-level decoder.
    pub reuse: u16,
}

impl PacketHeader {
    /// Packs the header into its 32-bit wire representation.
    ///
    /// # Errors
    ///
    /// Returns [`RsnError::Encoding`] when a field exceeds its bit width.
    pub fn pack(&self) -> Result<u32, RsnError> {
        if u32::from(self.opcode) > u32::from(MAX_OPCODE) {
            return Err(RsnError::Encoding {
                reason: format!(
                    "opcode {} exceeds {} bits",
                    self.opcode,
                    header_bits::OPCODE
                ),
            });
        }
        if usize::from(self.window) > MAX_WINDOW {
            return Err(RsnError::Encoding {
                reason: format!(
                    "window {} exceeds {} bits",
                    self.window,
                    header_bits::WINDOW
                ),
            });
        }
        if usize::from(self.reuse) > MAX_REUSE {
            return Err(RsnError::Encoding {
                reason: format!("reuse {} exceeds {} bits", self.reuse, header_bits::REUSE),
            });
        }
        let mut word: u32 = 0;
        let mut shift = 0;
        word |= u32::from(self.opcode) << shift;
        shift += header_bits::OPCODE;
        word |= u32::from(self.mask) << shift;
        shift += header_bits::MASK;
        word |= u32::from(self.last) << shift;
        shift += header_bits::LAST;
        word |= u32::from(self.window) << shift;
        shift += header_bits::WINDOW;
        word |= u32::from(self.reuse) << shift;
        Ok(word)
    }

    /// Unpacks a header from its 32-bit wire representation.
    pub fn unpack(word: u32) -> Self {
        let mut shift = 0;
        let opcode = ((word >> shift) & ((1 << header_bits::OPCODE) - 1)) as u8;
        shift += header_bits::OPCODE;
        let mask = ((word >> shift) & ((1 << header_bits::MASK) - 1)) as u8;
        shift += header_bits::MASK;
        let last = ((word >> shift) & 1) != 0;
        shift += header_bits::LAST;
        let window = ((word >> shift) & ((1 << header_bits::WINDOW) - 1)) as u8;
        shift += header_bits::WINDOW;
        let reuse = ((word >> shift) & ((1 << header_bits::REUSE) - 1)) as u16;
        PacketHeader {
            opcode,
            mask,
            last,
            window,
            reuse,
        }
    }
}

/// One RSN instruction packet: a header plus `window` mOPs.
///
/// In this reproduction an mOP is represented by the same neutral [`Uop`]
/// structure that third-level decoders hand to FUs; the second-level decoder
/// performs the window/reuse expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// The packed header fields.
    pub header: PacketHeader,
    /// Payload of `header.window` macro-operations.
    pub payload: Vec<Uop>,
}

impl Packet {
    /// Creates a packet, checking that the payload length matches the header
    /// window and that header fields are encodable.
    ///
    /// # Errors
    ///
    /// Returns [`RsnError::Encoding`] on any mismatch.
    pub fn new(header: PacketHeader, payload: Vec<Uop>) -> Result<Self, RsnError> {
        if payload.len() != usize::from(header.window) {
            return Err(RsnError::Encoding {
                reason: format!(
                    "payload length {} does not match window {}",
                    payload.len(),
                    header.window
                ),
            });
        }
        header.pack()?;
        Ok(Self { header, payload })
    }

    /// Number of uOPs this packet expands to (window × reuse) per selected FU.
    pub fn expanded_uop_count(&self) -> usize {
        self.payload.len() * usize::from(self.header.reuse)
    }

    /// Number of FU lanes selected by the mask.
    pub fn selected_lane_count(&self) -> usize {
        self.header.mask.count_ones() as usize
    }

    /// Encoded size of this packet in bytes: 4-byte header plus payload.
    pub fn encoded_len(&self) -> usize {
        4 + self.payload.iter().map(Uop::encoded_len).sum::<usize>()
    }
}

/// Maps uOP opcode mnemonics to stable numeric ids for byte-level encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpcodeRegistry {
    by_name: BTreeMap<String, u8>,
    names: Vec<String>,
}

impl OpcodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, registering it if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`RsnError::Encoding`] when more than 256 distinct opcodes
    /// are registered.
    pub fn intern(&mut self, name: &str) -> Result<u8, RsnError> {
        if let Some(id) = self.by_name.get(name) {
            return Ok(*id);
        }
        if self.names.len() >= 256 {
            return Err(RsnError::Encoding {
                reason: "opcode registry overflow (more than 256 opcodes)".to_string(),
            });
        }
        let id = self.names.len() as u8;
        self.by_name.insert(name.to_string(), id);
        self.names.push(name.to_string());
        Ok(id)
    }

    /// Looks up a previously interned opcode id.
    pub fn id_of(&self, name: &str) -> Option<u8> {
        self.by_name.get(name).copied()
    }

    /// Reverse lookup from id to mnemonic.
    pub fn name_of(&self, id: u8) -> Option<&str> {
        self.names.get(usize::from(id)).map(String::as_str)
    }

    /// Number of registered opcodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when no opcodes are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Serialises a sequence of packets to the byte stream stored in instruction
/// memory, interning uOP opcodes through `registry`.
///
/// # Errors
///
/// Returns [`RsnError::Encoding`] when a header field or field count exceeds
/// its representable range.
pub fn encode_packets(
    packets: &[Packet],
    registry: &mut OpcodeRegistry,
) -> Result<Bytes, RsnError> {
    let mut buf = BytesMut::new();
    for p in packets {
        buf.put_u32_le(p.header.pack()?);
        for mop in &p.payload {
            let id = registry.intern(mop.opcode())?;
            if mop.field_count() > 255 {
                return Err(RsnError::Encoding {
                    reason: format!("uOP `{}` has more than 255 fields", mop.opcode()),
                });
            }
            buf.put_u8(id);
            buf.put_u8(mop.field_count() as u8);
            for f in mop.fields() {
                let v = i32::try_from(*f).map_err(|_| RsnError::Encoding {
                    reason: format!("uOP field {f} does not fit in 32 bits"),
                })?;
                buf.put_i32_le(v);
            }
        }
    }
    Ok(buf.freeze())
}

/// Parses a byte stream produced by [`encode_packets`] back into packets.
///
/// # Errors
///
/// Returns [`RsnError::Encoding`] on truncated input or unknown opcode ids.
pub fn decode_packets(
    mut bytes: Bytes,
    registry: &OpcodeRegistry,
) -> Result<Vec<Packet>, RsnError> {
    let mut packets = Vec::new();
    while bytes.has_remaining() {
        if bytes.remaining() < 4 {
            return Err(RsnError::Encoding {
                reason: "truncated packet header".to_string(),
            });
        }
        let header = PacketHeader::unpack(bytes.get_u32_le());
        let mut payload = Vec::with_capacity(usize::from(header.window));
        for _ in 0..header.window {
            if bytes.remaining() < 2 {
                return Err(RsnError::Encoding {
                    reason: "truncated mOP header".to_string(),
                });
            }
            let id = bytes.get_u8();
            let nfields = usize::from(bytes.get_u8());
            let name = registry.name_of(id).ok_or_else(|| RsnError::Encoding {
                reason: format!("unknown opcode id {id}"),
            })?;
            if bytes.remaining() < 4 * nfields {
                return Err(RsnError::Encoding {
                    reason: "truncated mOP fields".to_string(),
                });
            }
            let mut fields = Vec::with_capacity(nfields);
            for _ in 0..nfields {
                fields.push(i64::from(bytes.get_i32_le()));
            }
            payload.push(Uop::new(name.to_string(), fields));
        }
        packets.push(Packet { header, payload });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> PacketHeader {
        PacketHeader {
            opcode: 3,
            mask: 0b0000_0011,
            last: false,
            window: 2,
            reuse: 128,
        }
    }

    #[test]
    fn header_bits_sum_to_32() {
        assert_eq!(
            header_bits::OPCODE
                + header_bits::MASK
                + header_bits::LAST
                + header_bits::WINDOW
                + header_bits::REUSE,
            32
        );
    }

    #[test]
    fn header_pack_unpack_roundtrip() {
        let h = header();
        let packed = h.pack().unwrap();
        assert_eq!(PacketHeader::unpack(packed), h);
    }

    #[test]
    fn header_rejects_out_of_range_fields() {
        let mut h = header();
        h.reuse = (MAX_REUSE + 1) as u16;
        assert!(h.pack().is_err());
        let mut h = header();
        h.window = (MAX_WINDOW + 1) as u8;
        assert!(h.pack().is_err());
    }

    #[test]
    fn packet_rejects_window_mismatch() {
        let err = Packet::new(header(), vec![Uop::new("a", [])]);
        assert!(err.is_err());
    }

    #[test]
    fn packet_expansion_counts() {
        let p = Packet::new(header(), vec![Uop::new("a", [1]), Uop::new("b", [2])]).unwrap();
        assert_eq!(p.expanded_uop_count(), 256);
        assert_eq!(p.selected_lane_count(), 2);
        assert_eq!(p.encoded_len(), 4 + 5 + 5);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let packets = vec![
            Packet::new(
                PacketHeader {
                    opcode: 1,
                    mask: 0b1,
                    last: false,
                    window: 2,
                    reuse: 3,
                },
                vec![Uop::new("load", [0, 96]), Uop::new("send", [1, 96])],
            )
            .unwrap(),
            Packet::new(
                PacketHeader {
                    opcode: 2,
                    mask: 0b11,
                    last: true,
                    window: 1,
                    reuse: 1,
                },
                vec![Uop::new("store", [5, -1, 64])],
            )
            .unwrap(),
        ];
        let mut reg = OpcodeRegistry::new();
        let bytes = encode_packets(&packets, &mut reg).unwrap();
        let decoded = decode_packets(bytes, &reg).unwrap();
        assert_eq!(decoded, packets);
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let packets = vec![Packet::new(
            PacketHeader {
                opcode: 0,
                mask: 1,
                last: false,
                window: 1,
                reuse: 1,
            },
            vec![Uop::new("x", [1, 2, 3])],
        )
        .unwrap()];
        let mut reg = OpcodeRegistry::new();
        let bytes = encode_packets(&packets, &mut reg).unwrap();
        let truncated = bytes.slice(0..bytes.len() - 3);
        assert!(decode_packets(truncated, &reg).is_err());
    }

    #[test]
    fn registry_interning_is_stable() {
        let mut reg = OpcodeRegistry::new();
        let a = reg.intern("load").unwrap();
        let b = reg.intern("send").unwrap();
        assert_eq!(reg.intern("load").unwrap(), a);
        assert_ne!(a, b);
        assert_eq!(reg.name_of(a), Some("load"));
        assert_eq!(reg.id_of("send"), Some(b));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
