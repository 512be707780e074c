//! Fixed-size memory pages.
//!
//! Main memory dominates snapshot size (the paper's simulated machine
//! carries megabytes of RAM against a few hundred bytes of core state),
//! yet a workload's golden run touches only a sliver of it between two
//! checkpoints. Stores therefore keep memory as fixed-size pages,
//! content-addressed so that consecutive snapshots share every page that
//! didn't change (see [`crate::MappedStoreWriter`]); a [`Page`] is one
//! decoded page as forks consume it.

/// Words per page (4 KiB of payload).
pub const PAGE_WORDS: usize = 1024;

/// One page of main memory: payload words plus the parallel parity tags.
///
/// The final page of a memory image may be short when the memory size is
/// not a multiple of [`PAGE_WORDS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Payload words.
    pub words: Vec<u32>,
    /// Per-word parity tags (parallel to `words`).
    pub tags: Vec<bool>,
}

/// Content addressing as the store writer applies it, exercised through
/// an in-memory writer (the file sink's read-back is covered in
/// `mapped.rs`).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::{MappedStoreWriter, PageCache};

    fn page(fill: u32, len: usize) -> Page {
        Page { words: vec![fill; len], tags: vec![true; len] }
    }

    fn intern(w: &mut MappedStoreWriter, p: &Page) -> u32 {
        w.intern(&p.words, &p.tags).unwrap()
    }

    #[test]
    fn identical_pages_share_storage() {
        let mut w = MappedStoreWriter::in_memory(1);
        let a = intern(&mut w, &page(7, PAGE_WORDS));
        let b = intern(&mut w, &page(7, PAGE_WORDS));
        assert_eq!(a, b);
        assert_eq!(w.finish().unwrap().page_count(), 1);
    }

    #[test]
    fn differing_tags_differ() {
        let mut w = MappedStoreWriter::in_memory(1);
        let a = intern(&mut w, &page(7, 8));
        let mut q = page(7, 8);
        q.tags[3] = false;
        let b = intern(&mut w, &q);
        assert_ne!(a, b);
        assert_eq!(w.finish().unwrap().page_count(), 2);
    }

    #[test]
    fn image_roundtrips_through_pages() {
        let mut w = MappedStoreWriter::in_memory(1);
        // 2.5 pages, so the tail page is short.
        let n = PAGE_WORDS * 5 / 2;
        let words: Vec<u32> = (0..n as u32).collect();
        let tags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let ids: Vec<u32> = words
            .chunks(PAGE_WORDS)
            .zip(tags.chunks(PAGE_WORDS))
            .map(|(pw, pt)| w.intern(pw, pt).unwrap())
            .collect();
        assert_eq!(ids.len(), 3);
        let store = w.finish().unwrap();
        let mut cache = PageCache::default();
        let pages: Vec<_> = ids.iter().map(|&id| store.page(id, &mut cache).unwrap()).collect();
        let rewords: Vec<u32> = pages.iter().flat_map(|p| p.words.iter().copied()).collect();
        let retags: Vec<bool> = pages.iter().flat_map(|p| p.tags.iter().copied()).collect();
        assert_eq!(rewords, words);
        assert_eq!(retags, tags);
    }

    #[test]
    fn zero_pages_of_a_blank_image_collapse() {
        let mut w = MappedStoreWriter::in_memory(1);
        let ids: Vec<u32> = (0..8).map(|_| intern(&mut w, &page(0, PAGE_WORDS))).collect();
        assert!(ids.windows(2).all(|p| p[0] == p[1]), "eight identical pages stored once");
        assert_eq!(w.finish().unwrap().page_count(), 1);
    }
}
