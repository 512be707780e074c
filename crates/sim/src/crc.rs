//! Width-parametric CRC, the hash behind State History Signatures.
//!
//! Argus-1 updates each SHS with CRC5 over the operation identifier and the
//! operand SHSs (§3.2.2). The checker width is a design parameter in this
//! reproduction so the signature-width ablation (3–8 bits) can quantify the
//! aliasing-vs-cost trade-off the paper describes.

/// A CRC over `width`-bit symbols, producing a `width`-bit signature.
///
/// The polynomial is chosen per width from well-known standards (e.g. the
/// 5-bit variant is CRC-5/USB, `x^5 + x^2 + 1`). Symbols are fed through the
/// shift register one bit at a time, MSB first.
///
/// ```
/// use argus_sim::crc::Crc;
/// let crc = Crc::new(5);
/// let a = crc.update_many(0, &[7, 1]);
/// let b = crc.update_many(0, &[1, 7]);
/// assert_ne!(a, b, "CRC is order sensitive");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Crc {
    width: u32,
    poly: u32,
}

impl Crc {
    /// Creates a CRC for the given signature `width` in bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `3..=8`, the range meaningful for
    /// signature hardware of Argus-1's style.
    pub fn new(width: u32) -> Self {
        let poly = match width {
            3 => 0b011,       // x^3 + x + 1
            4 => 0b0011,      // CRC-4-ITU
            5 => 0b0_0101,    // CRC-5/USB: x^5 + x^2 + 1 (the paper's hash)
            6 => 0b00_0011,   // CRC-6-ITU
            7 => 0b000_1001,  // CRC-7/MMC
            8 => 0b0000_0111, // CRC-8/SMBUS
            _ => panic!("unsupported CRC width {width} (expected 3..=8)"),
        };
        Self { width, poly }
    }

    /// Signature width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mask covering one signature (`2^width - 1`).
    pub fn mask(&self) -> u32 {
        (1u32 << self.width) - 1
    }

    /// Feeds the low `width` bits of `symbol` into the CRC register `state`,
    /// returning the new register value.
    pub fn update(&self, state: u32, symbol: u32) -> u32 {
        let mut s = state & self.mask();
        let top = 1u32 << (self.width - 1);
        for i in (0..self.width).rev() {
            let inbit = (symbol >> i) & 1;
            let feedback = ((s & top) != 0) as u32 ^ inbit;
            s = (s << 1) & self.mask();
            if feedback != 0 {
                s ^= self.poly;
            }
        }
        s
    }

    /// Feeds a sequence of symbols, starting from `state`.
    pub fn update_many(&self, state: u32, symbols: &[u32]) -> u32 {
        symbols.iter().fold(state, |s, &sym| self.update(s, sym))
    }

    /// Hashes an arbitrary 32-bit word down to a signature by feeding it as
    /// `ceil(32/width)` symbols. Used to derive operation identifiers from
    /// instruction semantic bits (opcode + immediate).
    pub fn fold_word(&self, state: u32, word: u32) -> u32 {
        let mut s = state;
        let mut bits = 32u32;
        let mut w = word;
        while bits > 0 {
            s = self.update(s, w & self.mask());
            w >>= self.width;
            bits = bits.saturating_sub(self.width);
        }
        s
    }
}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Bytes [`Crc32::update`] folds per table step.
const CRC32_STRIDE: usize = 16;

/// Slicing-by-16 tables, built at compile time: `CRC32_TABLES[k][b]` is
/// the register after byte `b` is fed into a zero register and followed
/// by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; CRC32_STRIDE] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; CRC32_STRIDE] {
    let mut t = [[0u32; 256]; CRC32_STRIDE];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC32_STRIDE {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) over bytes —
/// the integrity check on campaign artifacts (checkpoint and snapshot
/// files), where a torn write or flipped bit must be *detected* on load
/// rather than silently parsed. Unrelated to the signature-width [`Crc`]
/// above, which models checker hardware.
///
/// [`Crc32::update`] is table-driven (slicing-by-16: sixteen 256-entry
/// tables, built at compile time, fold sixteen bytes per step), so
/// checking an artifact runs near memory speed. It computes the standard
/// CRC-32 bit for bit; a test holds it to the bitwise definition on
/// every stream split.
///
/// ```
/// use argus_sim::crc::{crc32, Crc32};
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finish(), 0xCBF4_3926);
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(CRC32_STRIDE);
        for block in &mut blocks {
            let mut x = [0u8; CRC32_STRIDE];
            x.copy_from_slice(block);
            for (b, r) in x.iter_mut().zip(crc.to_le_bytes()) {
                *b ^= r;
            }
            crc = x
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &b)| acc ^ t[CRC32_STRIDE - 1 - i][usize::from(b)]);
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_widths_construct() {
        for w in 3..=8 {
            let c = Crc::new(w);
            assert_eq!(c.width(), w);
            assert_eq!(c.mask(), (1 << w) - 1);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported CRC width")]
    fn width_out_of_range_panics() {
        Crc::new(9);
    }

    #[test]
    fn update_stays_in_range() {
        let c = Crc::new(5);
        let mut s = 0;
        for i in 0..1000u32 {
            s = c.update(s, i & 31);
            assert!(s < 32);
        }
    }

    #[test]
    fn single_symbol_change_changes_signature() {
        // The core aliasing-resistance property: any single-symbol
        // substitution in a short history perturbs the CRC.
        let c = Crc::new(5);
        let base = c.update_many(0, &[4, 9, 23]);
        for pos in 0..3 {
            for v in 0..32 {
                let mut syms = [4u32, 9, 23];
                if syms[pos] == v {
                    continue;
                }
                syms[pos] = v;
                assert_ne!(c.update_many(0, &syms), base, "alias at pos {pos} v {v}");
            }
        }
    }

    #[test]
    fn order_sensitivity() {
        let c = Crc::new(5);
        assert_ne!(c.update_many(0, &[1, 2]), c.update_many(0, &[2, 1]));
    }

    #[test]
    fn single_symbol_update_is_injective() {
        // With a single symbol, CRC must be a bijection on the symbol space:
        // no two distinct op histories of length one may alias.
        for w in 3..=8 {
            let c = Crc::new(w);
            let seen: HashSet<u32> = (0..(1u32 << w)).map(|v| c.update(0, v)).collect();
            assert_eq!(seen.len(), 1usize << w, "width {w} not injective");
        }
    }

    #[test]
    fn fold_word_differs_for_different_words() {
        let c = Crc::new(5);
        let a = c.fold_word(0, 0x1234_5678);
        let b = c.fold_word(0, 0x1234_5679);
        assert_ne!(a, b);
        assert!(a < 32 && b < 32);
    }

    #[test]
    fn crc32_known_answers() {
        // The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming in pieces matches one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        // Single-bit sensitivity.
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
    }

    /// The bitwise CRC-32 definition the table-driven [`Crc32`] must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(crc & 1));
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_on_every_split() {
        // Random strings up to 300 bytes, each fed whole and through
        // every two-way split, so streams start and end at every offset
        // of the 16-byte stride.
        let mut rng = crate::rng::SplitMix64::new(0xC3C3_2020);
        for len in 0..=300usize {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = crc32_bitwise(&bytes);
            assert_eq!(crc32(&bytes), want, "len {len}");
            for cut in 0..=len {
                let mut c = Crc32::new();
                c.update(&bytes[..cut]);
                c.update(&bytes[cut..]);
                assert_eq!(c.finish(), want, "len {len} split at {cut}");
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // Sanity: hashing 4096 consecutive words should hit every 5-bit
        // bucket a reasonable number of times.
        let c = Crc::new(5);
        let mut buckets = [0u32; 32];
        for i in 0..4096u32 {
            buckets[c.fold_word(0, i) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 32, "bucket {i} severely underfull: {b}");
        }
    }
}
