//! Toeplitz hashing for receive-side scaling.
//!
//! RSS (§2.1, \[20\]) hashes the 5-tuple so all packets of a flow land on one
//! CPU core; Albatross reuses the same hash in PLB mode to pick the reorder
//! queue (`get_ordq_idx` in Fig. 3). The implementation is the standard
//! Toeplitz construction and is validated against Microsoft's published RSS
//! verification vectors, so it produces the exact same core assignments a
//! real NIC would.

use std::net::Ipv4Addr;

use crate::flow::FiveTuple;

/// The de-facto standard 40-byte RSS key from Microsoft's verification
/// suite (also the default in many NIC drivers).
pub const MICROSOFT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Longest input a 40-byte key hashes: every input bit needs a full 32-bit
/// key window.
const MAX_INPUT: usize = 36;

/// A Toeplitz hasher over a fixed key.
///
/// The hash is linear over GF(2): it XORs, for every set input bit, the
/// 32-bit key window starting at that bit. So the contribution of one input
/// byte depends only on its value and its position, and the hasher keeps
/// one 256-entry table per position, built once from the key. Hashing is
/// then one load and one XOR per input byte instead of eight conditional
/// XORs and shifts.
#[derive(Clone)]
pub struct ToeplitzHasher {
    key: [u8; 40],
    /// `tables[p][b]`: the hash contribution of byte value `b` at input
    /// position `p`.
    tables: Box<[[u32; 256]]>,
}

impl std::fmt::Debug for ToeplitzHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToeplitzHasher")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl Default for ToeplitzHasher {
    fn default() -> Self {
        Self::new(MICROSOFT_KEY)
    }
}

impl ToeplitzHasher {
    /// Creates a hasher with an explicit key.
    pub fn new(key: [u8; 40]) -> Self {
        let mut tables = vec![[0u32; 256]; MAX_INPUT].into_boxed_slice();
        for (pos, table) in tables.iter_mut().enumerate() {
            // The 40 key bits from bit 8·pos on hold the windows of all
            // eight bits of the byte at `pos`.
            let bits = key[pos..pos + 5]
                .iter()
                .fold(0u64, |bits, &k| bits << 8 | u64::from(k));
            for bit in 0..8 {
                // The bit of weight 2^bit is input bit 7 - bit of the byte
                // (MSB first), so its window starts 7 - bit bits in.
                let window = (bits >> (bit + 1)) as u32;
                let weight = 1 << bit;
                for value in weight..2 * weight {
                    table[value] = table[value - weight] ^ window;
                }
            }
        }
        Self { key, tables }
    }

    /// Hashes an arbitrary input (must be ≤ 36 bytes so every input bit has
    /// a full 32-bit key window).
    ///
    /// # Panics
    /// Panics if `input` exceeds 36 bytes.
    #[inline]
    pub fn hash(&self, input: &[u8]) -> u32 {
        assert!(input.len() <= MAX_INPUT, "input too long for a 40-byte key");
        input
            .iter()
            .zip(self.tables.iter())
            .fold(0, |hash, (&byte, table)| hash ^ table[usize::from(byte)])
    }

    /// Hashes the RSS IPv4+TCP/UDP input: src addr, dst addr, src port,
    /// dst port (network byte order).
    pub fn hash_v4_ports(&self, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&src.octets());
        input[4..8].copy_from_slice(&dst.octets());
        input[8..10].copy_from_slice(&src_port.to_be_bytes());
        input[10..12].copy_from_slice(&dst_port.to_be_bytes());
        self.hash(&input)
    }

    /// Hashes the RSS IPv4-only input (for portless protocols).
    pub fn hash_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> u32 {
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&src.octets());
        input[4..8].copy_from_slice(&dst.octets());
        self.hash(&input)
    }

    /// Hashes a 5-tuple the way a NIC's RSS engine would (ports included for
    /// TCP/UDP, address-only otherwise).
    pub fn hash_tuple(&self, t: &FiveTuple) -> u32 {
        use crate::flow::IpProtocol::*;
        match t.protocol {
            Tcp | Udp => self.hash_v4_ports(t.src_ip, t.dst_ip, t.src_port, t.dst_port),
            _ => self.hash_v4(t.src_ip, t.dst_ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_testkit::prelude::*;

    fn h() -> ToeplitzHasher {
        ToeplitzHasher::default()
    }

    // Microsoft RSS verification suite, IPv4 with ports.
    #[test]
    fn msdn_vectors_with_ports() {
        let cases: &[(&str, u16, &str, u16, u32)] = &[
            ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x51cc_c178),
            ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xc626_b0ea),
            ("24.19.198.95", 12898, "12.22.207.184", 38024, 0x5c2b_394a),
            ("38.27.205.30", 48228, "209.142.163.6", 2217, 0xafc7_327f),
            ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x10e8_28a2),
        ];
        for &(src, sp, dst, dp, expect) in cases {
            let got = h().hash_v4_ports(src.parse().unwrap(), dst.parse().unwrap(), sp, dp);
            assert_eq!(got, expect, "{src}:{sp} -> {dst}:{dp}");
        }
    }

    // Microsoft RSS verification suite, IPv4 address-only.
    #[test]
    fn msdn_vectors_addr_only() {
        let cases: &[(&str, &str, u32)] = &[
            ("66.9.149.187", "161.142.100.80", 0x323e_8fc2),
            ("199.92.111.2", "65.69.140.83", 0xd718_262a),
            ("24.19.198.95", "12.22.207.184", 0xd2d0_a5de),
            ("38.27.205.30", "209.142.163.6", 0x82989176),
            ("153.39.163.191", "202.188.127.2", 0x5d1809c5),
        ];
        for &(src, dst, expect) in cases {
            let got = h().hash_v4(src.parse().unwrap(), dst.parse().unwrap());
            assert_eq!(got, expect, "{src} -> {dst}");
        }
    }

    /// The textbook bit-serial Toeplitz loop: for every input bit, MSB
    /// first, XOR in the 32-bit key window starting at that bit.
    fn bit_serial(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut result = 0u32;
        let mut window = u64::from_be_bytes(key[0..8].try_into().unwrap());
        let mut next_key_byte = 8;
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= (window >> 32) as u32;
                }
                window <<= 1;
            }
            if next_key_byte < key.len() {
                window |= u64::from(key[next_key_byte]);
                next_key_byte += 1;
            }
        }
        result
    }

    props! {
        #![cases(512)]

        /// The table-driven hash equals the bit-serial loop on any key and
        /// any input up to 36 bytes.
        fn tables_match_the_bit_serial_loop(
            key in vec_of(any::<u8>(), 40),
            input in vec_of(any::<u8>(), 0..=36),
        ) {
            let key: [u8; 40] = key.try_into().unwrap();
            assert_eq!(ToeplitzHasher::new(key).hash(&input), bit_serial(&key, &input));
            assert_eq!(h().hash(&input), bit_serial(&MICROSOFT_KEY, &input));
        }
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(h().hash(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "input too long")]
    fn oversized_input_panics() {
        let _ = h().hash(&[0u8; 37]);
    }

    #[test]
    fn tuple_dispatches_on_protocol() {
        use crate::flow::{FiveTuple, IpProtocol};
        let t = FiveTuple {
            src_ip: "66.9.149.187".parse().unwrap(),
            dst_ip: "161.142.100.80".parse().unwrap(),
            src_port: 2794,
            dst_port: 1766,
            protocol: IpProtocol::Udp,
        };
        assert_eq!(h().hash_tuple(&t), 0x51cc_c178);
        let icmp = FiveTuple {
            protocol: IpProtocol::Icmp,
            src_port: 0,
            dst_port: 0,
            ..t
        };
        assert_eq!(h().hash_tuple(&icmp), 0x323e_8fc2);
    }

    #[test]
    fn distribution_over_queues_is_roughly_uniform() {
        // 4096 synthetic flows over 16 queues: no queue should be wildly
        // over- or under-subscribed (Toeplitz mixes well).
        let hasher = h();
        let mut counts = [0u32; 16];
        for i in 0..4096u32 {
            let src = Ipv4Addr::from(0x0a00_0000 | i);
            let v = hasher.hash_v4_ports(src, "192.168.0.1".parse().unwrap(), 1000, 80);
            counts[(v % 16) as usize] += 1;
        }
        let expect = 4096 / 16;
        for (q, &c) in counts.iter().enumerate() {
            assert!(
                (c as i32 - expect as i32).unsigned_abs() < expect / 2,
                "queue {q} has {c} flows, expected ~{expect}"
            );
        }
    }
}
