//! Flat word-addressed main memory with one parity tag per word.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words per dirty-tracking page. Must match the snapshot crate's page size
/// (`argus_snapshot::PAGE_WORDS`, const-asserted there) so a dirty page maps
/// 1:1 onto a snapshot page.
pub const DIRTY_PAGE_WORDS: usize = 1024;

/// Main memory: a flat array of 32-bit payload words, each with a parity
/// tag bit (the "assuming ECC is not already present" EDC of §3.4).
///
/// Addresses are byte addresses; accesses are word-granular (the load/store
/// unit performs sub-word merging). Out-of-range accesses are reported as
/// errors so wild addresses from fault injection never abort a campaign.
///
/// Every mutation stamps the containing [`DIRTY_PAGE_WORDS`]-word page with a
/// monotonically increasing generation so a snapshot restore can rewrite only
/// pages touched since the last restore. The stamps are instrumentation
/// metadata — like the predecode memo, they are excluded from architectural
/// identity (`state_digest`/`state_fingerprint` never read them).
///
/// Each instance also carries a process-unique [`MainMemory::uid`], fresh
/// at construction and on clone, so a consumer that remembers a generation
/// of one memory never applies it to another: a clone shares its source's
/// stamps but not its future writes.
#[derive(Debug)]
pub struct MainMemory {
    uid: u64,
    words: Vec<u32>,
    tags: Vec<bool>,
    size_bytes: u32,
    /// Current write generation; stamps start at 1 so generation 0 means
    /// "never written since allocation".
    generation: u64,
    /// Per-page generation of the most recent write (one entry per
    /// `DIRTY_PAGE_WORDS` words, last page possibly partial).
    page_gen: Vec<u64>,
    /// Cached [`MainMemory::words_digest`] terms.
    word_hashes: PageHashCache,
    /// Cached [`MainMemory::tags_digest`] terms.
    tag_hashes: PageHashCache,
}

/// Per-page hashes cached against the write stamps: an entry is valid
/// while it is non-zero-stamped and no write has landed on its page since
/// the stamp.
#[derive(Debug, Clone)]
struct PageHashCache {
    hash: Vec<u64>,
    /// Generation at which each `hash` entry was computed (0 = never).
    at: Vec<u64>,
}

impl PageHashCache {
    fn new(pages: usize) -> Self {
        Self { hash: vec![0; pages], at: vec![0; pages] }
    }

    /// The wrapping sum of `hash_page` over every page, recomputing only
    /// the entries whose page was written since they were taken. `g` must
    /// be a generation no write has been stamped with yet, so later writes
    /// invalidate exactly the pages they touch.
    fn sum(&mut self, page_gen: &[u64], g: u64, hash_page: impl Fn(usize) -> u64) -> u64 {
        let mut acc = 0u64;
        for (p, &written) in page_gen.iter().enumerate() {
            if self.at[p] == 0 || written >= self.at[p] {
                self.hash[p] = hash_page(p);
                self.at[p] = g;
            }
            acc = acc.wrapping_add(self.hash[p]);
        }
        acc
    }
}

/// Source of [`MainMemory::uid`] values.
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Word indices of page `page` in a memory of `len` words.
fn page_range(page: usize, len: usize) -> Range<usize> {
    let start = page * DIRTY_PAGE_WORDS;
    start..(start + DIRTY_PAGE_WORDS).min(len)
}

/// FNV-1a over the page index and the page's payload words.
fn hash_words(page: usize, words: &[u32]) -> u64 {
    let mut h = (FNV_OFFSET ^ page as u64).wrapping_mul(FNV_PRIME);
    for &w in &words[page_range(page, words.len())] {
        h = (h ^ w as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the page index and the page's tags, 64 to a term.
fn hash_tags(page: usize, tags: &[bool]) -> u64 {
    let mut h = (FNV_OFFSET ^ page as u64).wrapping_mul(FNV_PRIME);
    for chunk in tags[page_range(page, tags.len())].chunks(64) {
        let bits = chunk.iter().enumerate().fold(0u64, |b, (i, &t)| b | u64::from(t) << i);
        h = (h ^ bits).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Error for accesses beyond the configured memory size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRangeError {
    /// The offending byte address.
    pub addr: u32,
    /// Configured memory size in bytes.
    pub size: u32,
}

impl std::fmt::Display for OutOfRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "address {:#010x} outside memory of {} bytes", self.addr, self.size)
    }
}

impl std::error::Error for OutOfRangeError {}

impl Clone for MainMemory {
    /// A copy of the contents and stamps under a fresh uid: from here on
    /// the two memories are written independently.
    fn clone(&self) -> Self {
        Self {
            uid: fresh_uid(),
            words: self.words.clone(),
            tags: self.tags.clone(),
            size_bytes: self.size_bytes,
            generation: self.generation,
            page_gen: self.page_gen.clone(),
            word_hashes: self.word_hashes.clone(),
            tag_hashes: self.tag_hashes.clone(),
        }
    }
}

impl MainMemory {
    /// Allocates `size_bytes` of zeroed memory (rounded up to a whole word).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero.
    pub fn new(size_bytes: u32) -> Self {
        assert!(size_bytes > 0, "memory size must be positive");
        let words = size_bytes.div_ceil(4) as usize;
        let pages = words.div_ceil(DIRTY_PAGE_WORDS);
        Self {
            uid: fresh_uid(),
            words: vec![0; words],
            tags: vec![false; words],
            size_bytes,
            generation: 1,
            page_gen: vec![0; pages],
            word_hashes: PageHashCache::new(pages),
            tag_hashes: PageHashCache::new(pages),
        }
    }

    /// Process-unique identity of this memory instance (fresh on clone).
    /// Generations from [`MainMemory::advance_generation`] only mean
    /// something for the memory that issued them.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Memory size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    fn index(&self, addr: u32) -> Result<usize, OutOfRangeError> {
        if addr >= self.size_bytes {
            Err(OutOfRangeError { addr, size: self.size_bytes })
        } else {
            Ok((addr / 4) as usize)
        }
    }

    /// Reads the payload word and tag containing byte address `addr`.
    ///
    /// # Errors
    ///
    /// Fails when `addr` is outside memory.
    pub fn read(&self, addr: u32) -> Result<(u32, bool), OutOfRangeError> {
        let i = self.index(addr)?;
        Ok((self.words[i], self.tags[i]))
    }

    /// Writes the payload word and tag containing byte address `addr`.
    ///
    /// # Errors
    ///
    /// Fails when `addr` is outside memory.
    pub fn write(&mut self, addr: u32, payload: u32, tag: bool) -> Result<(), OutOfRangeError> {
        let i = self.index(addr)?;
        self.words[i] = payload;
        self.tags[i] = tag;
        self.page_gen[i / DIRTY_PAGE_WORDS] = self.generation;
        Ok(())
    }

    /// Bulk-loads raw words starting at byte address `base` (used by the
    /// program loader). Tags are set to the plain parity of each word.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit.
    pub fn load_image(&mut self, base: u32, words: &[u32]) {
        for (k, &w) in words.iter().enumerate() {
            let addr = base + 4 * k as u32;
            let (p, t) = crate::protect::encode_plain(w);
            self.write(addr, p, t)
                .unwrap_or_else(|e| panic!("program image overflows memory: {e}"));
        }
    }

    /// Snapshot of all payload words (for golden-run comparison).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Snapshot of all parity tags (parallel to [`MainMemory::words`]).
    pub fn tags(&self) -> &[bool] {
        &self.tags
    }

    /// Overwrites a contiguous run of words and tags starting at word index
    /// `word_base` (page-wise snapshot restore; `words` and `tags` must be
    /// the same length).
    ///
    /// # Panics
    ///
    /// Panics if the run does not fit in memory or the slices disagree on
    /// length.
    pub fn restore_words(&mut self, word_base: usize, words: &[u32], tags: &[bool]) {
        assert_eq!(words.len(), tags.len(), "payload/tag runs must be parallel");
        let end = word_base + words.len();
        assert!(end <= self.words.len(), "restore run {word_base}..{end} outside memory");
        self.words[word_base..end].copy_from_slice(words);
        self.tags[word_base..end].copy_from_slice(tags);
        if !words.is_empty() {
            for p in word_base / DIRTY_PAGE_WORDS..=(end - 1) / DIRTY_PAGE_WORDS {
                self.page_gen[p] = self.generation;
            }
        }
    }

    /// Advances the write generation and returns the new value. Pages written
    /// at or after the returned generation satisfy
    /// [`MainMemory::page_dirty_since`]; pages untouched since the call do
    /// not. Typically called right after a snapshot restore so the next
    /// restore knows which pages diverged.
    pub fn advance_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Whether page `page` has been written at or after generation `since`.
    /// Out-of-range pages conservatively report dirty.
    pub fn page_dirty_since(&self, page: usize, since: u64) -> bool {
        self.page_gen.get(page).is_none_or(|&g| g >= since)
    }

    /// Number of dirty-tracking pages ([`DIRTY_PAGE_WORDS`] words each, last
    /// page possibly partial).
    pub fn page_count(&self) -> usize {
        self.page_gen.len()
    }

    /// Word indices of dirty-tracking page `page`, which must be below
    /// [`MainMemory::page_count`] (the last page may be partial).
    pub fn page_word_range(&self, page: usize) -> Range<usize> {
        page_range(page, self.words.len())
    }

    /// Digest of the payload words: the wrapping sum of per-page hashes
    /// (each over the page index and its words). Page-combinable by
    /// construction, so [`MainMemory::words_digest_cached`] can maintain
    /// it incrementally from the dirty-page stamps; this entry point is
    /// the pure definition the cached one must agree with.
    pub fn words_digest(&self) -> u64 {
        (0..self.page_count()).fold(0u64, |acc, p| acc.wrapping_add(hash_words(p, &self.words)))
    }

    /// [`MainMemory::words_digest`] served from the per-page hash cache:
    /// only pages written since their hash was last computed are rehashed.
    /// Advances the write generation so later writes invalidate exactly
    /// the pages they touch.
    pub fn words_digest_cached(&mut self) -> u64 {
        let g = self.advance_generation();
        let words = &self.words;
        self.word_hashes.sum(&self.page_gen, g, |p| hash_words(p, words))
    }

    /// Digest of the parity tags, built like [`MainMemory::words_digest`]
    /// (a wrapping sum of per-page hashes). Kept apart from the words so
    /// the architectural digest stays a function of payload alone.
    pub fn tags_digest(&self) -> u64 {
        (0..self.page_count()).fold(0u64, |acc, p| acc.wrapping_add(hash_tags(p, &self.tags)))
    }

    /// [`MainMemory::tags_digest`] served from its own per-page hash
    /// cache, the way [`MainMemory::words_digest_cached`] serves the words.
    pub fn tags_digest_cached(&mut self) -> u64 {
        let g = self.advance_generation();
        let tags = &self.tags;
        self.tag_hashes.sum(&self.page_gen, g, |p| hash_tags(p, tags))
    }

    /// Initializes every word with the address-embedded encoding of zero
    /// (`payload = 0 ⊕ A = A`, tag = parity(0) = false) — factory-valid
    /// EDC contents for an Argus-mode memory.
    pub fn fill_protected_zero(&mut self) {
        for page in 0..self.page_gen.len() {
            self.fill_protected_zero_page(page);
        }
    }

    /// [`MainMemory::fill_protected_zero`] restricted to dirty-tracking
    /// page `page` (which it stamps dirty): the per-page reset a resident
    /// machine uses to return to its power-on contents.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn fill_protected_zero_page(&mut self, page: usize) {
        let words = self.page_word_range(page);
        for (i, w) in words.clone().zip(&mut self.words[words.clone()]) {
            *w = 4 * i as u32;
        }
        self.tags[words].fill(false);
        self.page_gen[page] = self.generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = MainMemory::new(1024);
        m.write(0x100, 0xABCD_1234, true).unwrap();
        assert_eq!(m.read(0x100).unwrap(), (0xABCD_1234, true));
        assert_eq!(m.read(0x104).unwrap(), (0, false));
    }

    #[test]
    fn subword_addresses_hit_same_word() {
        let mut m = MainMemory::new(64);
        m.write(0x10, 7, false).unwrap();
        for a in 0x10..0x14 {
            assert_eq!(m.read(a).unwrap().0, 7);
        }
    }

    #[test]
    fn out_of_range_reported() {
        let m = MainMemory::new(64);
        let e = m.read(64).unwrap_err();
        assert_eq!(e.addr, 64);
        assert!(e.to_string().contains("outside memory"));
    }

    #[test]
    fn load_image_sets_parity_tags() {
        let mut m = MainMemory::new(64);
        m.load_image(8, &[0b111, 0b11]);
        let (w0, t0) = m.read(8).unwrap();
        let (w1, t1) = m.read(12).unwrap();
        assert_eq!((w0, t0), (0b111, true));
        assert_eq!((w1, t1), (0b11, false));
    }

    #[test]
    #[should_panic(expected = "overflows memory")]
    fn load_image_overflow_panics() {
        MainMemory::new(8).load_image(4, &[1, 2, 3]);
    }

    #[test]
    fn size_rounds_up_to_word() {
        let m = MainMemory::new(5);
        assert_eq!(m.words().len(), 2);
    }

    #[test]
    fn restore_words_roundtrip() {
        let mut a = MainMemory::new(64);
        a.write(0x10, 0xDEAD, true).unwrap();
        a.write(0x14, 0xBEEF, false).unwrap();
        let mut b = MainMemory::new(64);
        b.restore_words(0, a.words(), a.tags());
        assert_eq!(b.read(0x10).unwrap(), (0xDEAD, true));
        assert_eq!(b.read(0x14).unwrap(), (0xBEEF, false));
        assert_eq!(a.words(), b.words());
        assert_eq!(a.tags(), b.tags());
    }

    #[test]
    #[should_panic(expected = "outside memory")]
    fn restore_words_rejects_overflow() {
        MainMemory::new(8).restore_words(1, &[1, 2], &[false, false]);
    }

    #[test]
    fn fresh_memory_has_no_dirty_pages_after_advance() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 3);
        assert_eq!(m.page_count(), 3);
        let g = m.advance_generation();
        for p in 0..m.page_count() {
            assert!(!m.page_dirty_since(p, g));
        }
    }

    #[test]
    fn write_dirties_only_containing_page() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 3);
        let g = m.advance_generation();
        m.write(4 * DIRTY_PAGE_WORDS as u32, 7, false).unwrap(); // first word of page 1
        assert!(!m.page_dirty_since(0, g));
        assert!(m.page_dirty_since(1, g));
        assert!(!m.page_dirty_since(2, g));
    }

    #[test]
    fn restore_words_dirties_spanned_pages() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 4);
        let g = m.advance_generation();
        // Run straddling the page 1 / page 2 boundary.
        let run = vec![1u32; DIRTY_PAGE_WORDS];
        let tags = vec![false; DIRTY_PAGE_WORDS];
        m.restore_words(DIRTY_PAGE_WORDS + DIRTY_PAGE_WORDS / 2, &run, &tags);
        assert!(!m.page_dirty_since(0, g));
        assert!(m.page_dirty_since(1, g));
        assert!(m.page_dirty_since(2, g));
        assert!(!m.page_dirty_since(3, g));
    }

    #[test]
    fn generation_separates_restore_rounds() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2);
        let g1 = m.advance_generation();
        m.write(0, 1, false).unwrap();
        // Page 0 dirty relative to g1 but clean relative to a later round.
        assert!(m.page_dirty_since(0, g1));
        let g2 = m.advance_generation();
        assert!(!m.page_dirty_since(0, g2));
        assert!(m.page_dirty_since(0, g1));
    }

    #[test]
    fn out_of_range_page_reports_dirty() {
        let m = MainMemory::new(64);
        assert!(m.page_dirty_since(usize::MAX, 1));
    }

    #[test]
    fn cached_words_digest_matches_pure_definition() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 3 + 8);
        assert_eq!(m.words_digest_cached(), m.words_digest());
        m.write(0, 0xDEAD, true).unwrap();
        m.write(4 * DIRTY_PAGE_WORDS as u32 * 2, 0xBEEF, false).unwrap();
        assert_eq!(m.words_digest_cached(), m.words_digest());
        // Write after a cached query must invalidate exactly that page.
        m.write(4, 7, false).unwrap();
        assert_eq!(m.words_digest_cached(), m.words_digest());
        m.fill_protected_zero();
        assert_eq!(m.words_digest_cached(), m.words_digest());
    }

    #[test]
    fn words_digest_distinguishes_page_position() {
        let mut a = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2);
        let mut b = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2);
        a.write(0, 1, false).unwrap();
        b.write(4 * DIRTY_PAGE_WORDS as u32, 1, false).unwrap();
        assert_ne!(a.words_digest(), b.words_digest());
    }

    #[test]
    fn restore_words_invalidates_cached_page_hash() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2);
        let d0 = m.words_digest_cached();
        let run = vec![9u32; DIRTY_PAGE_WORDS];
        let tags = vec![false; DIRTY_PAGE_WORDS];
        m.restore_words(DIRTY_PAGE_WORDS, &run, &tags);
        assert_ne!(m.words_digest_cached(), d0);
        assert_eq!(m.words_digest_cached(), m.words_digest());
    }

    #[test]
    fn tags_digest_cached_tracks_tag_only_writes() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2 + 12);
        let words = m.words_digest_cached();
        let d0 = m.tags_digest_cached();
        assert_eq!(d0, m.tags_digest());
        // Same payload, flipped tag: only the tag digest moves.
        m.write(4 * DIRTY_PAGE_WORDS as u32 + 4, 0, true).unwrap();
        assert_eq!(m.words_digest_cached(), words);
        let d1 = m.tags_digest_cached();
        assert_ne!(d1, d0);
        assert_eq!(d1, m.tags_digest());
        // The word cache's refresh does not hide a write from the tag cache.
        m.write(8, 0, true).unwrap();
        m.words_digest_cached();
        assert_eq!(m.tags_digest_cached(), m.tags_digest());
        m.fill_protected_zero();
        assert_eq!(m.tags_digest_cached(), d0);
    }

    #[test]
    fn page_fill_matches_whole_fill_and_dirties_only_its_page() {
        let mut whole = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2 + 12);
        whole.fill_protected_zero();
        let mut paged = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2 + 12);
        for addr in [0, 4 * DIRTY_PAGE_WORDS as u32 + 8, 4 * DIRTY_PAGE_WORDS as u32 * 2 + 4] {
            paged.write(addr, 0xFFFF, true).unwrap();
        }
        let g = paged.advance_generation();
        paged.fill_protected_zero_page(2);
        assert!(!paged.page_dirty_since(0, g) && !paged.page_dirty_since(1, g));
        assert!(paged.page_dirty_since(2, g));
        paged.fill_protected_zero_page(0);
        paged.fill_protected_zero_page(1);
        assert_eq!(paged.words(), whole.words());
        assert_eq!(paged.tags(), whole.tags());
    }

    #[test]
    fn uid_is_fresh_on_construction_and_clone() {
        let mut a = MainMemory::new(64);
        a.write(0, 7, true).unwrap();
        let b = a.clone();
        assert_ne!(a.uid(), MainMemory::new(64).uid());
        assert_ne!(a.uid(), b.uid());
        assert_eq!((a.words(), a.tags()), (b.words(), b.tags()), "clone copies contents");
    }

    #[test]
    fn fill_protected_zero_dirties_everything() {
        let mut m = MainMemory::new(4 * DIRTY_PAGE_WORDS as u32 * 2);
        let g = m.advance_generation();
        m.fill_protected_zero();
        assert!(m.page_dirty_since(0, g));
        assert!(m.page_dirty_since(1, g));
    }
}
