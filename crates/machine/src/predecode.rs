//! Direct-mapped predecode memo: raw instruction word → decoded forms.
//!
//! The step loop needs the decoded instruction three times per commit —
//! once for the functional-unit path and once each for the computation
//! sub-checker and SHS taps — plus the word's embedded signature bits.
//! Unless a fault sits on one of the decode sites
//! ([`crate::sites::TapSet::DECODE`]), all three decode taps are identity
//! functions, so the three decodes and the embedded-bit extraction collapse
//! to one memoized lookup keyed on the raw word (after the fetch-bus tap, so
//! a fetch-bus fault needs no bypass).
//!
//! The memo is a pure function of the word: a direct-mapped table indexed
//! by a multiplicative hash, where every entry is always a *valid*
//! (word, decode) pair — entries are pre-filled with word 0's decode, and a
//! mismatching probe recomputes and replaces. Stale entries are therefore
//! still correct, which is why the memo needs no invalidation, is excluded
//! from snapshots and fingerprints, and cannot change architectural or
//! checker-visible state. When a live fault sits on an `ID_OPC_*` site, the
//! machine bypasses the memo and runs the original tap + triple-decode
//! path, so `ID_OPC_*` injection behaves bit-identically with the memo on
//! or off.
//!
//! The table holds [`DEFAULT_ENTRIES`] slots; hit/miss counters make its
//! sizing observable in campaign reports instead of guessed.

use argus_isa::decode::decode;
use argus_isa::encode::embedded_bits_of;
use argus_isa::instr::Instr;
use argus_sim::bitstream::PackedBits;

/// Entry count of the direct-mapped table. 512 covers every
/// workload in the suite (at 4 bytes/instruction that is 2KB of code per
/// conflict-free residency) while keeping the table itself small enough to
/// stay cached.
pub const DEFAULT_ENTRIES: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Entry {
    word: u32,
    instr: Instr,
    embedded: PackedBits,
}

/// The memo table. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct Predecode {
    entries: Box<[Entry]>,
    /// `entries.len() - 1`; the table length is a power of two.
    mask: u32,
    shift: u32,
    hits: u64,
    misses: u64,
}

impl Default for Predecode {
    fn default() -> Self {
        Self::new()
    }
}

impl Predecode {
    /// A memo of [`DEFAULT_ENTRIES`] slots.
    pub fn new() -> Self {
        Self::with_entries(DEFAULT_ENTRIES)
    }

    /// A memo with `entries` slots, every one holding word 0's true decode
    /// (so no entry is ever invalid and lookups need no validity check).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two (the index is a masked
    /// multiplicative hash).
    fn with_entries(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && (2..=1 << 30).contains(&entries),
            "the predecode table size must be a power of two in [2, 2^30] (got {entries})"
        );
        let instr = decode(0);
        let entry = Entry { word: 0, instr, embedded: embedded_bits_of(&instr, 0) };
        Self {
            entries: vec![entry; entries].into_boxed_slice(),
            mask: (entries - 1) as u32,
            shift: 32 - entries.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Slots in the table.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Lookups that found their word already decoded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that recomputed and replaced a slot.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the hit/miss counters (the table itself is untouched),
    /// returning the counts accumulated so far.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.hits), std::mem::take(&mut self.misses))
    }

    #[inline]
    fn index(&self, word: u32) -> usize {
        // Fibonacci hashing spreads the opcode/register bits across the
        // index; low bits alone would collide on same-opcode runs.
        ((word.wrapping_mul(0x9E37_79B9) >> self.shift) & self.mask) as usize
    }

    /// The decoded instruction and embedded signature bits of `word`,
    /// memoized. Always equals `(decode(word), embedded_bits_packed(word))`.
    #[inline]
    pub fn lookup(&mut self, word: u32) -> (Instr, PackedBits) {
        let idx = self.index(word);
        let e = &mut self.entries[idx];
        if e.word != word {
            let instr = decode(word);
            *e = Entry { word, instr, embedded: embedded_bits_of(&instr, word) };
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        (e.instr, e.embedded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_isa::encode::embedded_bits_packed;
    use argus_sim::rng::SplitMix64;

    /// Satellite property test: the memo is bit-identical to direct decode
    /// (instruction and embedded bits) over 10k random words — including
    /// hash-colliding repeats, invalid encodings, and re-probes of every
    /// word a second time to exercise both hit and replace paths.
    #[test]
    fn memo_matches_direct_decode_for_10k_random_words() {
        let mut memo = Predecode::new();
        let mut rng = SplitMix64::new(0x9E37_C0DE);
        let words: Vec<u32> = (0..10_000).map(|_| rng.next_u64() as u32).collect();
        for w in words {
            // Probe twice: the first may replace a slot, the second must hit
            // it, so both paths run for every word.
            for _ in 0..2 {
                let (instr, embedded) = memo.lookup(w);
                assert_eq!(instr, decode(w), "memo decode mismatch for {w:#010x}");
                assert_eq!(
                    embedded,
                    embedded_bits_packed(w),
                    "memo embedded-bits mismatch for {w:#010x}"
                );
            }
        }
        assert!(memo.hits() > 0 && memo.misses() > 0);
    }

    #[test]
    fn colliding_words_replace_cleanly() {
        let mut memo = Predecode::new();
        // Two words with the same table index.
        let a = 0u32;
        let mut b = 1u32;
        while memo.index(b) != memo.index(a) {
            b += 1;
        }
        assert_ne!(a, b);
        for w in [a, b, a, b] {
            assert_eq!(memo.lookup(w).0, decode(w));
        }
    }

    /// Satellite regression test: collision-heavy thrash. Alternating
    /// probes of two words pinned to one slot must replace cleanly on every
    /// probe, stay bit-identical to direct decode throughout, and account
    /// every probe as a miss (the pathological hit rate is the observable
    /// that motivates the sizing knob).
    #[test]
    fn collision_thrash_alternating_probes_stay_correct() {
        for entries in [8usize, 64, DEFAULT_ENTRIES] {
            let mut memo = Predecode::with_entries(entries);
            // Find two *distinct valid-looking* words sharing a slot.
            let a = 0x1532_07B1u32; // arbitrary
            let mut b = a + 1;
            while memo.index(b) != memo.index(a) {
                b += 1;
            }
            assert_ne!(a, b);
            let (h0, m0) = (memo.hits(), memo.misses());
            for k in 0..1_000u32 {
                let w = if k % 2 == 0 { a } else { b };
                let (instr, embedded) = memo.lookup(w);
                assert_eq!(instr, decode(w), "thrash decode mismatch at probe {k}");
                assert_eq!(embedded, embedded_bits_packed(w), "thrash bits mismatch at {k}");
            }
            // Every alternating probe evicts the other word: all misses.
            assert_eq!(memo.misses() - m0, 1_000, "{entries}-entry table");
            assert_eq!(memo.hits() - h0, 0, "{entries}-entry table");
        }
    }

    #[test]
    fn entries_knob_sizes_table() {
        for n in [2usize, 16, 1024] {
            let memo = Predecode::with_entries(n);
            assert_eq!(memo.entries(), n);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn entries_must_be_power_of_two() {
        let _ = Predecode::with_entries(300);
    }

    #[test]
    fn take_counters_resets() {
        let mut memo = Predecode::new();
        memo.lookup(0); // hit (pre-filled word 0)
        memo.lookup(0x1234_5678); // miss
        assert_eq!(memo.take_counters(), (1, 1));
        assert_eq!(memo.take_counters(), (0, 0));
    }
}
