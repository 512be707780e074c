//! ARGSTORE v1: the snapshot format and its one store.
//!
//! Every checkpoint this workspace keeps is an ARGSTORE image: a
//! campaign's golden-run checkpoints, a standalone `argus snapshot save`
//! file, and the distributed `store` artifact. A
//! [`MappedStore`] parses any such image through the same steps, whether
//! its bytes come from a read-only file map ([`MappedStore::open`]) or an
//! owned buffer ([`MappedStore::from_bytes`], what
//! [`MappedStoreWriter::in_memory`] seals into). Forks decode pages on
//! demand through a small per-worker [`PageCache`], so with a file map
//! peak RSS is bounded by the cache, not the store.
//!
//! # File layout (`ARGSTORE` v1, little-endian throughout)
//!
//! | region      | offset                    | contents                               |
//! |-------------|---------------------------|----------------------------------------|
//! | header      | 0                         | magic, version, page words, interval; zero-padded to 4096 |
//! | page bodies | 4096                      | one 4096-byte slot per distinct page (LE `u32` words, short tail zero-padded) |
//! | page tags   | after bodies              | one 128-byte slot per page (parity tags packed LSB-first) |
//! | page index  | after tags                | 8 bytes per page: `word_len: u32`, `crc32: u32` over body+tag slots |
//! | snapshots   | after index               | per snapshot: cycle, fingerprint, configs, core, checker, `mem_words`, page-id table |
//! | footer      | after snapshots           | `n_pages: u64`, `n_snaps: u64`, `meta_len: u64`, footer magic |
//! | trailer     | last 4 bytes              | CRC-32 (IEEE) over everything before it |
//!
//! Pages are content-addressed and deduplicated **across** snapshots at
//! write time (a hash bucket selects candidates, a full body + tag
//! comparison decides equality), so snapshots are just page-id tables;
//! the body region holds each distinct page once.
//!
//! # Lifecycle pitfalls this module is careful about
//!
//! * **fsync before map** — [`MappedStoreWriter::finish`] flushes and
//!   `sync_all`s a file before reopening it for mapping, so the map
//!   never observes a torn write of our own making.
//! * **envelope, then verify, then parse** — every image goes magic →
//!   whole-file CRC → footer size equation → metadata decode, in that
//!   order, before anything sized by it is allocated. Truncation, bit
//!   flips, and lying counts surface as `Err`, never as a panic or an
//!   over-allocation.
//! * **the file can change under the map** — the mapping is shared and
//!   the file may be writable by others, so snapshot metadata is decoded
//!   into RAM once at open (it is small), and every page body+tag slot is
//!   CRC-checked on first decode (memoized per page). A file mutated
//!   after mapping fails that per-page CRC instead of mis-executing.

use crate::io::{
    bad, get_argus_config, get_checker, get_core, get_machine_config, get_u32, get_u64,
    put_argus_config, put_checker, put_core, put_machine_config, put_u32, put_u64,
};
use crate::page::{Page, PAGE_WORDS};
use crate::workspace::Workspace;
use argus_core::{Argus, ArgusConfig, ArgusState};
use argus_machine::snapshot::{CoreState, Fnv64};
use argus_machine::{Machine, SnapshotState};
use argus_sim::crc::Crc32;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: "ARGSTORE" (version is a separate field).
const MAGIC: [u8; 8] = *b"ARGSTORE";
/// Format version.
const VERSION: u32 = 1;
/// Footer magic, so truncation right before the trailer is caught even
/// when the CRC of the shorter file happens to collide.
const FOOTER_MAGIC: [u8; 8] = *b"ARGSEND\x01";
/// Header region size; also the page-body slot size (4 KiB payload).
const HEADER_LEN: usize = 4096;
/// Bytes per page-body slot.
const BODY_BYTES: usize = PAGE_WORDS * 4;
/// Bytes per packed-tag slot.
const TAG_BYTES: usize = PAGE_WORDS / 8;
/// Bytes per page-index entry (`word_len: u32` + `crc32: u32`).
const INDEX_BYTES: usize = 8;
/// Footer size: three u64 counts + footer magic.
const FOOTER_LEN: usize = 8 + 8 + 8 + 8;
/// Largest memory image (in words) a stored snapshot may describe: 1 GiB
/// of payload. Guards allocation against crafted metadata.
const MAX_MEM_WORDS: usize = 1 << 28;

const _: () = assert!(HEADER_LEN == BODY_BYTES, "header occupies one body slot");

/// Process-unique store ids, so workspace delta bookkeeping never trusts
/// page ids from a different store.
static NEXT_UID: AtomicU64 = AtomicU64::new(1);
/// Distinguishes temp files created by concurrent writers in one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Combined machine + checker fingerprint: the identity a fork must match.
pub fn combined_fingerprint(m: &Machine, argus: &Argus) -> u64 {
    combine(m.state_fingerprint(), argus)
}

/// The combined fingerprint body, given the machine's share.
fn combine(machine: u64, argus: &Argus) -> u64 {
    let mut h = Fnv64::new();
    h.mix(machine);
    h.mix(argus.state_fingerprint());
    h.finish()
}

/// Page-sharing statistics of a sealed store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Capture interval in cycles.
    pub interval: u64,
    /// Distinct pages stored across all snapshots.
    pub unique_pages: u64,
    /// Page references satisfied by an already-stored page.
    pub dedup_hits: u64,
    /// Payload bytes held by distinct pages.
    pub unique_bytes: u64,
    /// Page references across all snapshots (distinct + deduplicated).
    pub pages_total: u64,
    /// Distinct page bodies actually stored (alias of `unique_pages`,
    /// under the name `argus snapshot info` reports).
    pub pages_distinct: u64,
    /// Payload bytes dedup avoided storing versus one body per reference.
    pub bytes_saved: u64,
}

fn pack_tags(tags: &[bool]) -> [u8; TAG_BYTES] {
    let mut out = [0u8; TAG_BYTES];
    for (i, &t) in tags.iter().enumerate() {
        out[i / 8] |= (t as u8) << (i % 8);
    }
    out
}

fn encode_body(words: &[u32]) -> [u8; BODY_BYTES] {
    let mut out = [0u8; BODY_BYTES];
    for (i, &w) in words.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// CRC over one page's full body slot and tag slot (padding included, so
/// any flip anywhere in either slot is detected).
fn page_crc(body: &[u8], tags: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(body);
    h.update(tags);
    h.finish()
}

#[cfg(unix)]
fn pread_exact(f: &File, off: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, off)
}

#[cfg(not(unix))]
fn pread_exact(f: &File, off: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::io::Seek;
    let mut fr = f;
    let pos = fr.stream_position()?;
    fr.seek(io::SeekFrom::Start(off))?;
    let res = fr.read_exact(buf);
    fr.seek(io::SeekFrom::Start(pos))?;
    res
}

// ---------------------------------------------------------------------------
// Byte sources
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mmap_ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// The bytes a store parses. On unix a file is a shared read-only `mmap`
/// — backed by the page cache, shared between every store opened on the
/// file, and reclaimable under memory pressure. An owned buffer holds an
/// in-memory image, and a file's contents where there is no `mmap`
/// (correct, just not out-of-core).
#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Map {
        ptr: *mut std::os::raw::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: `Map` owns a PROT_READ mapping that is only ever read through
// `&[u8]` and unmapped once, in `Drop`, so moving it to or sharing it with
// another thread is sound; `Owned` is a plain `Vec<u8>`, already Send + Sync.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    #[cfg(unix)]
    fn map(file: &File, len: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        // SAFETY: with a null address hint mmap either maps a fresh region
        // or fails (checked below; a zero `len` fails too); the fd is a
        // valid open file.
        let ptr = unsafe {
            mmap_ffi::mmap(
                std::ptr::null_mut(),
                len,
                mmap_ffi::PROT_READ,
                mmap_ffi::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::other("mmap failed"));
        }
        Ok(Backing::Map { ptr, len })
    }

    #[cfg(not(unix))]
    fn map(file: &File, len: usize) -> io::Result<Self> {
        let mut fr = file;
        let mut buf = Vec::with_capacity(len);
        fr.read_to_end(&mut buf)?;
        if buf.len() != len {
            return Err(bad("file changed size while opening"));
        }
        Ok(Backing::Owned(buf))
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Map { ptr, len } = *self {
            // SAFETY: ptr/len came from a successful mmap.
            unsafe {
                mmap_ffi::munmap(ptr, len);
            }
        }
    }
}

impl std::ops::Deref for Backing {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: the region stays mapped for the lifetime of self.
            Backing::Map { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Backing::Owned(buf) => buf,
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Per-distinct-page bookkeeping the writer keeps in RAM (~140 bytes per
/// page; bodies go straight to the sink).
#[derive(Debug)]
struct PageRecord {
    word_len: u32,
    crc: u32,
    tags: [u8; TAG_BYTES],
}

/// Where a writer's bytes go: a file that [`MappedStoreWriter::finish`]
/// syncs and maps, or a buffer it seals into an in-memory store.
#[derive(Debug)]
enum Sink {
    File { file: File, path: PathBuf },
    Memory(Vec<u8>),
}

/// Streaming ARGSTORE writer: the golden run calls
/// [`MappedStoreWriter::maybe_capture`] at step boundaries (a checkpoint
/// is taken whenever at least `every` cycles have passed since the
/// previous one), page bodies are deduplicated and written through to
/// the sink immediately, and [`MappedStoreWriter::finish`] seals the
/// image into a [`MappedStore`].
///
/// Capture is incremental: the writer interns only the pages the captured
/// memory wrote since the writer's previous capture of that same memory
/// (same [`argus_mem::MainMemory::uid`]); every other page keeps the
/// previous snapshot's page id. A different memory — another machine, or
/// a clone — has every page interned. The image is byte-identical to
/// interning every page at every capture, because interning is
/// first-match and unchanged content maps to the id it already has.
///
/// Besides the sink, RAM held while writing is O(distinct pages)
/// bookkeeping (tag bits + index entries + dedup buckets) plus the
/// previous capture's page-id table.
#[derive(Debug)]
pub struct MappedStoreWriter {
    sink: Sink,
    every: u64,
    next_due: u64,
    /// (page crc, word_len) → candidate page ids; full comparison (RAM
    /// tags + body read-back) decides equality, so colliding pages stay
    /// distinct.
    buckets: HashMap<(u32, u32), Vec<u32>>,
    pages: Vec<PageRecord>,
    metas: Vec<u8>,
    n_snaps: u64,
    last_cycle: Option<u64>,
    crc: Crc32,
    pages_total: u64,
    saved_bytes: u64,
    unique_bytes: u64,
    /// The previous capture, which the next capture of the same memory
    /// reuses for its clean pages.
    last: Option<LastCapture>,
}

/// What the next capture of the same memory needs from the previous one.
#[derive(Debug)]
struct LastCapture {
    /// `MainMemory::uid` of the captured memory.
    mem_uid: u64,
    /// Write generation stamped right after the capture: a page not dirty
    /// since it still holds exactly what was captured.
    clean_gen: u64,
    /// The capture's page-id table.
    ids: Vec<u32>,
}

impl MappedStoreWriter {
    /// Creates a store file at `path` (truncating any existing file),
    /// capturing every `every` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn create(path: &Path, every: u64) -> io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Self::with_sink(Sink::File { file, path: path.to_path_buf() }, every)
    }

    /// Creates a store file under the system temp directory with a
    /// process-unique name (campaign-internal stores nobody needs to keep;
    /// the campaign unlinks the path once the store is mapped).
    pub fn create_temp(every: u64) -> io::Result<Self> {
        let name = format!(
            "argstore-{}-{}.tmp",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        Self::create(&std::env::temp_dir().join(name), every)
    }

    /// A writer whose image stays in an owned buffer: no filesystem, the
    /// whole store resident. What a campaign falls back to when it cannot
    /// write a temp file, and how one-snapshot images (`argus snapshot
    /// save`) are built.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn in_memory(every: u64) -> Self {
        Self::with_sink(Sink::Memory(Vec::new()), every).expect("a buffer write cannot fail")
    }

    fn with_sink(sink: Sink, every: u64) -> io::Result<Self> {
        assert!(every > 0, "snapshot interval must be at least one cycle");
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(PAGE_WORDS as u32).to_le_bytes());
        header[16..24].copy_from_slice(&every.to_le_bytes());
        let mut w = Self {
            sink,
            every,
            next_due: 0,
            buckets: HashMap::new(),
            pages: Vec::new(),
            metas: Vec::new(),
            n_snaps: 0,
            last_cycle: None,
            crc: Crc32::new(),
            pages_total: 0,
            saved_bytes: 0,
            unique_bytes: 0,
            last: None,
        };
        w.write_bytes(&header)?;
        Ok(w)
    }

    /// Path of the store file being written (`None` for an in-memory
    /// writer).
    pub fn path(&self) -> Option<&Path> {
        match &self.sink {
            Sink::File { path, .. } => Some(path),
            Sink::Memory(_) => None,
        }
    }

    fn write_bytes(&mut self, b: &[u8]) -> io::Result<()> {
        match &mut self.sink {
            Sink::File { file, .. } => file.write_all(b)?,
            Sink::Memory(buf) => buf.extend_from_slice(b),
        }
        self.crc.update(b);
        Ok(())
    }

    /// Whether stored page `id`'s body slot equals `body` — the dedup
    /// read-back, since bodies live only in the sink.
    fn body_matches(&self, id: u32, body: &[u8; BODY_BYTES]) -> io::Result<bool> {
        let off = HEADER_LEN + id as usize * BODY_BYTES;
        Ok(match &self.sink {
            Sink::File { file, .. } => {
                let mut stored = [0u8; BODY_BYTES];
                pread_exact(file, off as u64, &mut stored)?;
                stored == *body
            }
            Sink::Memory(buf) => buf[off..off + BODY_BYTES] == body[..],
        })
    }

    /// Interns one page, writing its body through to the sink if distinct.
    pub(crate) fn intern(&mut self, words: &[u32], tags: &[bool]) -> io::Result<u32> {
        self.pages_total += 1;
        let body = encode_body(words);
        let packed = pack_tags(tags);
        let crc = page_crc(&body, &packed);
        let key = (crc, words.len() as u32);
        if let Some(candidates) = self.buckets.get(&key) {
            for &id in candidates {
                let rec = &self.pages[id as usize];
                if rec.word_len == words.len() as u32
                    && rec.tags == packed
                    && self.body_matches(id, &body)?
                {
                    self.saved_bytes += 4 * words.len() as u64;
                    return Ok(id);
                }
            }
        }
        let id = u32::try_from(self.pages.len()).map_err(|_| bad("store page count overflow"))?;
        self.write_bytes(&body)?;
        self.pages.push(PageRecord { word_len: words.len() as u32, crc, tags: packed });
        self.buckets.entry(key).or_default().push(id);
        self.unique_bytes += 4 * words.len() as u64;
        Ok(id)
    }

    /// Captures unconditionally (the golden run seeds cycle 0 with this so
    /// every arm cycle has a snapshot at or before it). Takes the machine
    /// mutably to read its dirty-page stamps and hash caches and to
    /// advance its write generation; its state is left unchanged.
    pub fn capture_now(&mut self, m: &mut Machine, argus: &Argus) -> io::Result<()> {
        if let Some(last) = self.last_cycle {
            assert!(m.cycle() > last, "snapshots must advance in cycle order");
        }
        let mem = m.mem().memory();
        let (words, tags) = (mem.words(), mem.tags());
        assert_eq!(words.len(), tags.len(), "payload/tag images must be parallel");
        let n_words = words.len();
        let n_pages = n_words.div_ceil(PAGE_WORDS);
        let last = self.last.take().filter(|l| l.mem_uid == mem.uid() && l.ids.len() == n_pages);
        let mut ids = Vec::with_capacity(n_pages);
        for (p, (w, t)) in words.chunks(PAGE_WORDS).zip(tags.chunks(PAGE_WORDS)).enumerate() {
            match &last {
                Some(l) if !mem.page_dirty_since(p, l.clean_gen) => {
                    // Same content as last time, so interning it would
                    // return this id: count the dedup hit it would be.
                    self.pages_total += 1;
                    self.saved_bytes += 4 * w.len() as u64;
                    ids.push(l.ids[p]);
                }
                _ => ids.push(self.intern(w, t)?),
            }
        }

        let fingerprint = combine(m.state_fingerprint_cached(), argus);
        debug_assert_eq!(fingerprint, combined_fingerprint(m, argus), "cached fingerprint");
        let b: &mut dyn Write = &mut self.metas;
        put_u64(b, m.cycle())?;
        put_u64(b, fingerprint)?;
        put_machine_config(b, &m.config())?;
        put_argus_config(b, &argus.config())?;
        put_core(b, &m.capture_core())?;
        put_checker(b, &argus.capture_state())?;
        put_u64(b, n_words as u64)?;
        put_u64(b, ids.len() as u64)?;
        for &id in &ids {
            put_u32(b, id)?;
        }
        self.n_snaps += 1;
        self.last_cycle = Some(m.cycle());
        self.next_due = m.cycle() + self.every;
        let mem = m.mem_mut().memory_mut();
        self.last =
            Some(LastCapture { mem_uid: mem.uid(), clean_gen: mem.advance_generation(), ids });
        Ok(())
    }

    /// Test oracle for incremental capture: [`MappedStoreWriter::capture_now`]
    /// as if the writer had never captured this memory, so every page is
    /// interned (the rule before capture became incremental). Identity
    /// tests compare the images the two rules write.
    #[doc(hidden)]
    pub fn capture_full_for_test(&mut self, m: &mut Machine, argus: &Argus) -> io::Result<()> {
        self.last = None;
        self.capture_now(m, argus)
    }

    /// Captures when the interval has elapsed; returns whether it did.
    pub fn maybe_capture(&mut self, m: &mut Machine, argus: &Argus) -> io::Result<bool> {
        if m.cycle() >= self.next_due {
            self.capture_now(m, argus)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Number of snapshots captured so far.
    pub fn len(&self) -> usize {
        self.n_snaps as usize
    }

    /// Whether no snapshot has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.n_snaps == 0
    }

    /// Seals the image (tags, index, snapshot metadata, footer, CRC
    /// trailer) and opens it as a store: a file is synced to disk and
    /// mapped, a buffer becomes an in-memory store.
    ///
    /// The `sync_all` *before* mapping matters: mapping a file whose
    /// writes are still in flight could tear; after fsync the bytes the
    /// map sees are the bytes we wrote.
    pub fn finish(mut self) -> io::Result<MappedStore> {
        for i in 0..self.pages.len() {
            let tags = self.pages[i].tags;
            self.write_bytes(&tags)?;
        }
        for i in 0..self.pages.len() {
            let (wl, crc) = (self.pages[i].word_len, self.pages[i].crc);
            let mut entry = [0u8; INDEX_BYTES];
            entry[..4].copy_from_slice(&wl.to_le_bytes());
            entry[4..].copy_from_slice(&crc.to_le_bytes());
            self.write_bytes(&entry)?;
        }
        let metas = std::mem::take(&mut self.metas);
        self.write_bytes(&metas)?;
        let mut footer = [0u8; FOOTER_LEN];
        footer[..8].copy_from_slice(&(self.pages.len() as u64).to_le_bytes());
        footer[8..16].copy_from_slice(&self.n_snaps.to_le_bytes());
        footer[16..24].copy_from_slice(&(metas.len() as u64).to_le_bytes());
        footer[24..].copy_from_slice(&FOOTER_MAGIC);
        self.write_bytes(&footer)?;
        let crc = self.crc.finish().to_le_bytes();
        match self.sink {
            Sink::File { mut file, path } => {
                file.write_all(&crc)?;
                file.flush()?;
                file.sync_all()?;
                drop(file);
                MappedStore::open(&path)
            }
            Sink::Memory(mut buf) => {
                buf.extend_from_slice(&crc);
                MappedStore::from_bytes(buf)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Decoded per-snapshot metadata (small: core + checker state and the
/// page-id table; page bodies stay out-of-core).
#[derive(Debug)]
struct SnapMeta {
    cycle: u64,
    fingerprint: u64,
    acfg: ArgusConfig,
    core: CoreState,
    checker: ArgusState,
    mem_words: usize,
    page_ids: Vec<u32>,
}

/// A sealed ARGSTORE image — a read-only file map or an owned buffer —
/// shared by every campaign worker behind an `Arc`. Restores decode pages
/// on demand through a per-worker [`PageCache`]; each page's CRC is
/// checked on first decode.
#[derive(Debug)]
pub struct MappedStore {
    bytes: Backing,
    path: Option<PathBuf>,
    uid: u64,
    n_pages: usize,
    tags_off: usize,
    index_off: usize,
    metas: Vec<SnapMeta>,
    /// Per-page "CRC already checked" memo, shared across workers.
    page_verified: Vec<AtomicBool>,
    stats: StoreStats,
}

impl MappedStore {
    /// Opens and validates a store file (see [`MappedStore::from_bytes`]
    /// for the checks). On unix the file is mapped, not read.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| bad("store file too large to map"))?;
        if len < MAGIC.len() {
            return Err(bad("not an argus store file (bad magic)"));
        }
        let mut store = Self::parse(Backing::map(&file, len)?)?;
        store.path = Some(path.to_path_buf());
        Ok(store)
    }

    /// Validates an in-memory image: magic → whole-file CRC → footer size
    /// equation → metadata decode, in that order, so nothing is parsed or
    /// allocated from unverified bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        Self::parse(Backing::Owned(bytes))
    }

    fn parse(backing: Backing) -> io::Result<Self> {
        let bytes: &[u8] = &backing;
        let len = bytes.len();
        if len < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(bad("not an argus store file (bad magic)"));
        }
        if len < HEADER_LEN + FOOTER_LEN + 4 {
            return Err(bad("not an argus store file (too short)"));
        }
        let stored_crc = u32::from_le_bytes(bytes[len - 4..].try_into().expect("len checked"));
        if argus_sim::crc::crc32(&bytes[..len - 4]) != stored_crc {
            return Err(bad("store checksum mismatch (file is truncated or corrupted)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("len checked"));
        if version != VERSION {
            return Err(bad("unsupported store format version"));
        }
        let page_words = u32::from_le_bytes(bytes[12..16].try_into().expect("len checked"));
        if page_words as usize != PAGE_WORDS {
            return Err(bad("store page geometry disagrees with this build"));
        }
        let interval = u64::from_le_bytes(bytes[16..24].try_into().expect("len checked"));

        let footer = &bytes[len - 4 - FOOTER_LEN..len - 4];
        if footer[24..] != FOOTER_MAGIC {
            return Err(bad("store footer magic missing (file truncated?)"));
        }
        let n_pages_u64 = u64::from_le_bytes(footer[..8].try_into().expect("fixed split"));
        let n_snaps = u64::from_le_bytes(footer[8..16].try_into().expect("fixed split"));
        let meta_len = u64::from_le_bytes(footer[16..24].try_into().expect("fixed split"));
        let expected = (|| {
            let per_page = (BODY_BYTES + TAG_BYTES + INDEX_BYTES) as u64;
            n_pages_u64
                .checked_mul(per_page)?
                .checked_add(HEADER_LEN as u64)?
                .checked_add(meta_len)?
                .checked_add((FOOTER_LEN + 4) as u64)
        })();
        if expected != Some(len as u64) {
            return Err(bad("store geometry disagrees with file size"));
        }
        // The size equation bounds n_pages by len / 4232, so these
        // allocations are safe.
        let n_pages = n_pages_u64 as usize;
        let tags_off = HEADER_LEN + n_pages * BODY_BYTES;
        let index_off = tags_off + n_pages * TAG_BYTES;
        let meta_off = index_off + n_pages * INDEX_BYTES;

        let word_len_of = |id: usize| -> usize {
            let e = &bytes[index_off + id * INDEX_BYTES..];
            u32::from_le_bytes(e[..4].try_into().expect("index entry")) as usize
        };
        for id in 0..n_pages {
            if word_len_of(id) > PAGE_WORDS {
                return Err(bad("page length exceeds page geometry"));
            }
        }

        let mut metas = Vec::new();
        let mut body: &[u8] = &bytes[meta_off..meta_off + meta_len as usize];
        let mut pages_total: u64 = 0;
        let mut refs_bytes: u64 = 0;
        for _ in 0..n_snaps {
            let r: &mut dyn Read = &mut body;
            let cycle = get_u64(r)?;
            let fingerprint = get_u64(r)?;
            let mcfg = get_machine_config(r)?;
            let acfg = get_argus_config(r)?;
            let core = get_core(r, mcfg)?;
            if core.cycle != cycle {
                return Err(bad("snapshot cycle disagrees with core state"));
            }
            let checker = get_checker(r)?;
            let mem_words = get_u64(r)? as usize;
            if mem_words > MAX_MEM_WORDS {
                return Err(bad("memory image implausibly large"));
            }
            // Restores build a machine from `mcfg`, so its memory must be
            // exactly the image: checked here, before anything is sized
            // by a crafted config.
            if mem_words == 0 || mem_words != mcfg.mem.mem_bytes.div_ceil(4) as usize {
                return Err(bad("memory image size disagrees with machine config"));
            }
            let nids = get_u64(r)? as usize;
            if nids != mem_words.div_ceil(PAGE_WORDS) {
                return Err(bad("page table length disagrees with memory size"));
            }
            let mut page_ids = Vec::with_capacity(nids);
            for j in 0..nids {
                let id = get_u32(r)?;
                if id as usize >= n_pages {
                    return Err(bad("page id out of range"));
                }
                let wl = word_len_of(id as usize);
                let want =
                    if j + 1 == nids { mem_words - (nids - 1) * PAGE_WORDS } else { PAGE_WORDS };
                if wl != want {
                    return Err(bad("page table is not canonical for the memory size"));
                }
                refs_bytes += 4 * wl as u64;
                page_ids.push(id);
            }
            pages_total += nids as u64;
            if let Some(prev) = metas.last().map(|m: &SnapMeta| m.cycle) {
                if cycle <= prev {
                    return Err(bad("snapshots out of cycle order"));
                }
            }
            metas.push(SnapMeta { cycle, fingerprint, acfg, core, checker, mem_words, page_ids });
        }
        if !body.is_empty() {
            return Err(bad("trailing bytes after store metadata"));
        }

        let unique_bytes: u64 = (0..n_pages).map(|id| 4 * word_len_of(id) as u64).sum();
        let stats = StoreStats {
            interval,
            unique_pages: n_pages as u64,
            dedup_hits: pages_total.saturating_sub(n_pages as u64),
            unique_bytes,
            pages_total,
            pages_distinct: n_pages as u64,
            bytes_saved: refs_bytes.saturating_sub(unique_bytes),
        };
        Ok(Self {
            bytes: backing,
            path: None,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            n_pages,
            tags_off,
            index_off,
            metas,
            page_verified: (0..n_pages).map(|_| AtomicBool::new(false)).collect(),
            stats,
        })
    }

    /// Path this store was opened from (may since be unlinked for
    /// campaign-internal temp stores); `None` for an in-memory image.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Process-unique identity of this open store.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The entire ARGSTORE image, byte for byte — what `argus snapshot
    /// save` writes and what a distributed coordinator serves as its
    /// `store` artifact. Reading it never materializes pages:
    /// the bytes come straight from the map or buffer.
    pub fn file_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `Some(self)`. Kept only because the frozen `perf/` benchmark calls
    /// it on a campaign's store (from when the store could live in a RAM
    /// page pool instead); delete with the next benchmark change.
    #[doc(hidden)]
    pub fn mapped(self: &Arc<Self>) -> Option<&Arc<Self>> {
        Some(self)
    }

    /// Number of checkpoints.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Distinct pages stored in the file.
    pub fn page_count(&self) -> usize {
        self.n_pages
    }

    /// Page-sharing statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bytes a store without page sharing would have used for memory
    /// images (each snapshot materialized in full).
    pub fn materialized_bytes(&self) -> u64 {
        self.metas.iter().map(|m| 4 * m.mem_words as u64).sum()
    }

    /// The latest snapshot index whose cycle stamp is `<= cycle`, if any.
    pub fn nearest_index_at_or_before(&self, cycle: u64) -> Option<usize> {
        self.metas.partition_point(|m| m.cycle <= cycle).checked_sub(1)
    }

    /// Cycle stamp of snapshot `i`.
    pub fn cycle(&self, i: usize) -> Option<u64> {
        self.metas.get(i).map(|m| m.cycle)
    }

    /// Capture-time fingerprint of snapshot `i`.
    pub fn fingerprint(&self, i: usize) -> Option<u64> {
        self.metas.get(i).map(|m| m.fingerprint)
    }

    /// Page-id table of snapshot `i` (for invariants and tooling).
    pub fn page_ids(&self, i: usize) -> Option<&[u32]> {
        self.metas.get(i).map(|m| m.page_ids.as_slice())
    }

    /// Memory payload words snapshot `i` reassembles to.
    pub fn mem_words(&self, i: usize) -> Option<usize> {
        self.metas.get(i).map(|m| m.mem_words)
    }

    fn word_len(&self, id: u32) -> usize {
        let e = &self.bytes[self.index_off + id as usize * INDEX_BYTES..];
        u32::from_le_bytes(e[..4].try_into().expect("index entry")) as usize
    }

    fn body_slot(&self, id: u32) -> &[u8] {
        &self.bytes[HEADER_LEN + id as usize * BODY_BYTES..][..BODY_BYTES]
    }

    fn tag_slot(&self, id: u32) -> &[u8] {
        &self.bytes[self.tags_off + id as usize * TAG_BYTES..][..TAG_BYTES]
    }

    /// Recomputes page `id`'s CRC against the live mapping, ignoring and
    /// not updating the first-touch memo — the invariant spot-check hook.
    /// Returns `None` for an out-of-range id.
    pub fn check_page_crc(&self, id: u32) -> Option<bool> {
        if id as usize >= self.n_pages {
            return None;
        }
        let e = &self.bytes[self.index_off + id as usize * INDEX_BYTES..];
        let stored = u32::from_le_bytes(e[4..8].try_into().expect("index entry"));
        Some(page_crc(self.body_slot(id), self.tag_slot(id)) == stored)
    }

    /// Test-only chaos hook: swaps the backing for an owned copy in which
    /// one body byte of the first page snapshot `snap` references is
    /// flipped (a page already failing its CRC is left as is), so that
    /// page fails its CRC on first decode and the integrity fallbacks can
    /// be exercised. Returns `false` for an out-of-range snapshot.
    #[doc(hidden)]
    pub fn corrupt_page_for_test(&mut self, snap: usize) -> bool {
        let Some(&id) = self.metas.get(snap).and_then(|m| m.page_ids.first()) else {
            return false;
        };
        if self.check_page_crc(id) == Some(true) {
            let mut copy = self.bytes.to_vec();
            copy[HEADER_LEN + id as usize * BODY_BYTES] ^= 1;
            self.bytes = Backing::Owned(copy);
            self.page_verified[id as usize].store(false, Ordering::Relaxed);
        }
        true
    }

    /// Decodes page `id` through `cache`, CRC-checking the stored slots on
    /// the page's first decode ever (memoized store-wide).
    pub(crate) fn page(&self, id: u32, cache: &mut PageCache) -> Result<Arc<Page>, String> {
        if let Some(p) = cache.get(id) {
            return Ok(p);
        }
        cache.misses += 1;
        let body = self.body_slot(id);
        let tags = self.tag_slot(id);
        if !self.page_verified[id as usize].load(Ordering::Relaxed) {
            let e = &self.bytes[self.index_off + id as usize * INDEX_BYTES..];
            let stored = u32::from_le_bytes(e[4..8].try_into().expect("index entry"));
            if page_crc(body, tags) != stored {
                return Err(format!(
                    "stored page {id} failed its CRC (store corrupted after open)"
                ));
            }
            self.page_verified[id as usize].store(true, Ordering::Relaxed);
        }
        let wl = self.word_len(id);
        let mut words = Vec::with_capacity(wl);
        for i in 0..wl {
            words.push(u32::from_le_bytes(body[4 * i..4 * i + 4].try_into().expect("body slot")));
        }
        let tag_bits: Vec<bool> = (0..wl).map(|i| tags[i / 8] >> (i % 8) & 1 != 0).collect();
        let page = Arc::new(Page { words, tags: tag_bits });
        cache.insert(id, Arc::clone(&page));
        Ok(page)
    }

    fn restore_unverified(
        &self,
        meta: &SnapMeta,
        m: &mut Machine,
        argus: &mut Argus,
        cache: &mut PageCache,
    ) -> Result<(), String> {
        cache.grow_to(meta.page_ids.len());
        m.restore_core(&meta.core);
        let mut base = 0usize;
        for &id in &meta.page_ids {
            let p = self.page(id, cache)?;
            m.mem_mut().memory_mut().restore_words(base, &p.words, &p.tags);
            base += p.words.len();
        }
        argus.restore_state(&meta.checker);
        Ok(())
    }

    /// Builds a fresh machine + checker pair from snapshot `i` — the cold
    /// fork operation. Pages are CRC-checked on first decode; the full
    /// fingerprint is *not* re-verified (see
    /// [`MappedStore::try_restore_fresh`]).
    pub fn restore_fresh(
        &self,
        i: usize,
        cache: &mut PageCache,
    ) -> Result<(Machine, Argus), String> {
        let meta = self.metas.get(i).ok_or_else(|| format!("no snapshot {i}"))?;
        let mut m = Machine::new(meta.core.cfg);
        let mut argus = Argus::new(meta.acfg);
        self.restore_unverified(meta, &mut m, &mut argus, cache)?;
        Ok((m, argus))
    }

    /// Like [`MappedStore::restore_fresh`], but verifies the restored pair
    /// against the capture-time fingerprint.
    pub fn try_restore_fresh(
        &self,
        i: usize,
        cache: &mut PageCache,
    ) -> Result<(Machine, Argus), String> {
        let (m, argus) = self.restore_fresh(i, cache)?;
        let got = combined_fingerprint(&m, &argus);
        let want = self.metas[i].fingerprint;
        if got == want {
            Ok((m, argus))
        } else {
            Err(format!(
                "snapshot at cycle {} is corrupt: restored fingerprint {got:#018x} != captured {want:#018x}",
                self.metas[i].cycle
            ))
        }
    }

    /// Delta-restores snapshot `i` into a reusable [`Workspace`]: pages
    /// are rewritten only when dirtied since the workspace's last restore
    /// or when the page id differs from what the workspace mirrors (ids
    /// are exact content identity within one store). Under
    /// `debug_assertions` the full fingerprint is re-checked.
    pub fn restore_into(
        &self,
        i: usize,
        ws: &mut Workspace,
        cache: &mut PageCache,
    ) -> Result<(), String> {
        self.restore_into_delta(i, ws, cache)?;
        #[cfg(debug_assertions)]
        {
            let (m, a) = ws.pair().expect("restore populated the workspace");
            assert_eq!(
                combined_fingerprint(m, a),
                self.metas[i].fingerprint,
                "delta restore does not match capture fingerprint"
            );
        }
        Ok(())
    }

    /// Like [`MappedStore::restore_into`], but verifies the restored pair
    /// against the capture-time fingerprint, retrying once with a full
    /// rebuild on mismatch. Returns whether the fallback was needed.
    pub fn try_restore_into(
        &self,
        i: usize,
        ws: &mut Workspace,
        cache: &mut PageCache,
    ) -> Result<bool, String> {
        let want = self.metas.get(i).ok_or_else(|| format!("no snapshot {i}"))?.fingerprint;
        self.restore_into_delta(i, ws, cache)?;
        {
            let (m, a) = ws.pair().expect("restore populated the workspace");
            if combined_fingerprint(m, a) == want {
                return Ok(false);
            }
        }
        ws.invalidate();
        ws.pair = None;
        self.restore_into_delta(i, ws, cache)?;
        let (m, a) = ws.pair().expect("restore populated the workspace");
        let got = combined_fingerprint(m, a);
        if got == want {
            Ok(true)
        } else {
            Err(format!(
                "snapshot at cycle {} is corrupt: restored fingerprint {got:#018x} != captured {want:#018x}",
                self.metas[i].cycle
            ))
        }
    }

    fn restore_into_delta(
        &self,
        i: usize,
        ws: &mut Workspace,
        cache: &mut PageCache,
    ) -> Result<(), String> {
        let res = self.restore_into_delta_inner(i, ws, cache);
        if res.is_err() {
            // The workspace memory may be partially rewritten; forget what
            // it mirrors so the next restore rewrites everything.
            ws.invalidate();
        }
        res
    }

    fn restore_into_delta_inner(
        &self,
        i: usize,
        ws: &mut Workspace,
        cache: &mut PageCache,
    ) -> Result<(), String> {
        let meta = self.metas.get(i).ok_or_else(|| format!("no snapshot {i}"))?;
        cache.grow_to(meta.page_ids.len());
        ws.stats.restores += 1;
        let compatible = match ws.pair() {
            Some((m, a)) => m.config() == meta.core.cfg && a.config() == meta.acfg,
            None => false,
        };
        if !compatible {
            let mut m = Machine::new(meta.core.cfg);
            let mut argus = Argus::new(meta.acfg);
            self.restore_unverified(meta, &mut m, &mut argus, cache)?;
            ws.pair = Some((m, argus));
            ws.stats.full_restores += 1;
        } else {
            let (m, argus) = ws.pair.as_mut().expect("checked compatible above");
            m.restore_core(&meta.core);
            let delta_ok =
                ws.mirrored_store == self.uid && ws.mirrored_ids.len() == meta.page_ids.len();
            let mut base = 0usize;
            if delta_ok {
                for (j, &id) in meta.page_ids.iter().enumerate() {
                    let dirty = m.mem_mut().memory_mut().page_dirty_since(j, ws.clean_gen);
                    if dirty || ws.mirrored_ids[j] != id {
                        let p = self.page(id, cache)?;
                        m.mem_mut().memory_mut().restore_words(base, &p.words, &p.tags);
                        ws.stats.pages_rewritten += 1;
                        base += p.words.len();
                    } else {
                        ws.stats.pages_skipped += 1;
                        base += self.word_len(id);
                    }
                }
            } else {
                for &id in &meta.page_ids {
                    let p = self.page(id, cache)?;
                    m.mem_mut().memory_mut().restore_words(base, &p.words, &p.tags);
                    base += p.words.len();
                }
                ws.stats.full_restores += 1;
            }
            assert_eq!(base, meta.mem_words, "page table does not cover memory");
            argus.restore_state(&meta.checker);
        }
        ws.mirrored_ids.clear();
        ws.mirrored_ids.extend_from_slice(&meta.page_ids);
        ws.mirrored_store = self.uid;
        let (m, _) = ws.pair.as_mut().expect("restore populated the workspace");
        ws.clean_gen = m.mem_mut().memory_mut().advance_generation();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Page cache
// ---------------------------------------------------------------------------

/// Initial resident-page budget per worker (256 × ~5 KiB ≈ 1.3 MiB).
/// Restores raise it to one full image via [`PageCache::grow_to`], so the
/// effective bound is `max` of this and the machine's working set —
/// independent of snapshot count either way.
pub const DEFAULT_PAGE_CACHE_ENTRIES: usize = 256;

#[derive(Debug)]
struct CacheSlot {
    id: u32,
    page: Arc<Page>,
    referenced: bool,
}

/// A small per-worker cache of decoded pages with clock (second-chance)
/// eviction: this — not the store size — bounds a worker's resident set.
#[derive(Debug)]
pub struct PageCache {
    cap: usize,
    slots: Vec<CacheSlot>,
    index: HashMap<u32, usize>,
    hand: usize,
    hits: u64,
    misses: u64,
}

impl Default for PageCache {
    fn default() -> Self {
        Self::new(DEFAULT_PAGE_CACHE_ENTRIES)
    }
}

impl PageCache {
    /// A cache holding at most `cap` decoded pages.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "page cache must hold at least one page");
        Self { cap, slots: Vec::new(), index: HashMap::new(), hand: 0, hits: 0, misses: 0 }
    }

    fn get(&mut self, id: u32) -> Option<Arc<Page>> {
        let &slot = self.index.get(&id)?;
        self.hits += 1;
        self.slots[slot].referenced = true;
        Some(Arc::clone(&self.slots[slot].page))
    }

    fn insert(&mut self, id: u32, page: Arc<Page>) {
        if self.index.contains_key(&id) {
            return;
        }
        if self.slots.len() < self.cap {
            self.index.insert(id, self.slots.len());
            self.slots.push(CacheSlot { id, page, referenced: true });
            return;
        }
        // Clock sweep: clear reference bits until an unreferenced victim
        // comes around (terminates within two laps).
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.cap;
            } else {
                self.index.remove(&slot.id);
                self.index.insert(id, self.hand);
                *slot = CacheSlot { id, page, referenced: true };
                self.hand = (self.hand + 1) % self.cap;
                return;
            }
        }
    }

    /// Raises the capacity to at least `cap` (never shrinks; resident
    /// entries and the clock state are preserved). Restores size the
    /// cache to one full image this way, so steady-state delta forks
    /// decode each distinct page once — the resident bound becomes the
    /// working set, still independent of snapshot count.
    pub fn grow_to(&mut self, cap: usize) {
        self.cap = self.cap.max(cap);
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (pages decoded from the map) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate resident payload bytes held by the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.slots.iter().map(|s| 4 * s.page.words.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_machine::machine::MachineConfig;

    fn idle_pair() -> (Machine, Argus) {
        (Machine::new(MachineConfig::default()), Argus::new(ArgusConfig::default()))
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "argstore-test-{}-{}-{tag}.bin",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn roundtrip_on_fresh_machine() {
        let (mut m, a) = idle_pair();
        let path = temp_path("roundtrip");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.cycle(0), Some(0));
        let mut cache = PageCache::default();
        let (m2, a2) = store.try_restore_fresh(0, &mut cache).unwrap();
        assert_eq!(combined_fingerprint(&m2, &a2), store.fingerprint(0).unwrap());
        assert_eq!(m2.mem().memory().words(), m.mem().memory().words());
        assert_eq!(m2.mem().memory().tags(), m.mem().memory().tags());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seek_finds_nearest_at_or_before() {
        let (mut m, a) = idle_pair();
        let mut w = MappedStoreWriter::in_memory(100);
        w.capture_now(&mut m, &a).unwrap();
        let mut later = Machine::new(MachineConfig::default());
        let mut core = m.capture_core();
        core.cycle = 250;
        later.restore_core(&core);
        w.capture_now(&mut later, &a).unwrap();
        let store = w.finish().unwrap();
        assert_eq!(store.nearest_index_at_or_before(0), Some(0));
        assert_eq!(store.nearest_index_at_or_before(249), Some(0));
        assert_eq!(store.nearest_index_at_or_before(250), Some(1));
        assert_eq!(store.nearest_index_at_or_before(u64::MAX), Some(1));
    }

    #[test]
    fn builder_interval_gates_captures() {
        let (mut m, a) = idle_pair();
        let mut w = MappedStoreWriter::in_memory(50);
        assert!(w.maybe_capture(&mut m, &a).unwrap(), "first capture is immediate");
        assert!(!w.maybe_capture(&mut m, &a).unwrap(), "same cycle: interval not elapsed");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn in_memory_image_matches_file_image() {
        let (mut m, a) = idle_pair();
        let path = temp_path("sinks");
        let mut on_disk = MappedStoreWriter::create(&path, 100).unwrap();
        let mut in_mem = MappedStoreWriter::in_memory(100);
        on_disk.capture_now(&mut m, &a).unwrap();
        in_mem.capture_now(&mut m, &a).unwrap();
        let (file_store, mem_store) = (on_disk.finish().unwrap(), in_mem.finish().unwrap());
        assert_eq!(file_store.file_bytes(), mem_store.file_bytes(), "one format, two sinks");
        assert_eq!(mem_store.path(), None);
        let reparsed = MappedStore::from_bytes(file_store.file_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.fingerprint(0), file_store.fingerprint(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_other_geometry() {
        // A machine config whose memory size disagrees with the page
        // table, behind an honest CRC, is refused when the image is
        // parsed — before a restore could build a machine from it.
        let (mut m, a) = idle_pair();
        let mut w = MappedStoreWriter::in_memory(100);
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        let meta_at = HEADER_LEN + store.page_count() * (BODY_BYTES + TAG_BYTES + INDEX_BYTES);
        // Metadata: cycle, fingerprint, then the machine config's two
        // cache configs (3 × u32 each) before `mem_bytes`.
        let mem_at = meta_at + 16 + 24;
        let mem_bytes = m.config().mem.mem_bytes;
        assert_eq!(store.file_bytes()[mem_at..mem_at + 4], mem_bytes.to_le_bytes());
        for lie in [0, mem_bytes * 2] {
            let mut bytes = store.file_bytes().to_vec();
            bytes[mem_at..mem_at + 4].copy_from_slice(&lie.to_le_bytes());
            let end = bytes.len() - 4;
            let crc = argus_sim::crc::crc32(&bytes[..end]);
            bytes[end..].copy_from_slice(&crc.to_le_bytes());
            let err = MappedStore::from_bytes(bytes).unwrap_err();
            assert!(err.to_string().contains("disagrees with machine config"), "{err}");
        }
    }

    #[test]
    fn identical_pages_share_storage() {
        let path = temp_path("dedup");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        let words = vec![7u32; PAGE_WORDS];
        let tags = vec![true; PAGE_WORDS];
        let a = w.intern(&words, &tags).unwrap();
        let b = w.intern(&words, &tags).unwrap();
        assert_eq!(a, b, "identical page must intern to the same id");
        assert_eq!(w.pages.len(), 1);
        assert_eq!(w.saved_bytes, 4 * PAGE_WORDS as u64);

        let mut other_words = words.clone();
        other_words[3] ^= 1;
        let c = w.intern(&other_words, &tags).unwrap();
        assert_ne!(a, c, "differing payload must store a new page");

        let mut other_tags = tags.clone();
        other_tags[5] = false;
        let d = w.intern(&words, &other_tags).unwrap();
        assert_ne!(a, d, "differing tags must store a new page");
        assert_eq!(w.pages.len(), 3);
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_captures_dedup_across_snapshots() {
        // Two captures of machines whose memories share most pages: the
        // second capture's unchanged pages must be satisfied by dedup.
        let (mut m, a) = idle_pair();
        let path = temp_path("xsnap");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let before = w.pages.len();
        let mut m2 = Machine::new(argus_machine::machine::MachineConfig::default());
        // Touch one word, advance the cycle stamp via a restore-free path:
        // capture_now only needs a larger cycle, which restore_core gives.
        let mut core = m.capture_core();
        core.cycle += 1;
        m2.restore_core(&core);
        m2.mem_mut().memory_mut().restore_words(0, &[0xDEAD_BEEF], &[true]);
        w.capture_now(&mut m2, &a).unwrap();
        assert_eq!(w.pages.len(), before + 1, "only the touched page is new");
        let store = w.finish().unwrap();
        let stats = store.stats();
        assert_eq!(stats.pages_total, 2 * before as u64);
        assert_eq!(stats.pages_distinct, before as u64 + 1);
        assert!(stats.bytes_saved > 0);
        assert_eq!(stats.dedup_hits, stats.pages_total - stats.pages_distinct);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workspace_restore_matches_fresh() {
        let (mut m, a) = idle_pair();
        let path = temp_path("ws");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        let mut cache = PageCache::default();
        let mut ws = Workspace::new();
        assert!(!store.try_restore_into(0, &mut ws, &mut cache).unwrap());
        let (wm, wa) = ws.pair().unwrap();
        assert_eq!(combined_fingerprint(wm, wa), store.fingerprint(0).unwrap());
        // Second restore takes the delta path: everything clean + matching.
        store.restore_into(0, &mut ws, &mut cache).unwrap();
        assert!(ws.stats().pages_skipped > 0, "delta path should skip clean pages");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_rejected() {
        let (mut m, a) = idle_pair();
        let path = temp_path("adversarial");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        drop(store);
        let bytes = std::fs::read(&path).unwrap();

        let garbage = temp_path("garbage");
        std::fs::write(&garbage, b"NOTASTORE").unwrap();
        assert!(MappedStore::open(&garbage).is_err());
        std::fs::remove_file(&garbage).ok();

        for cut in [bytes.len() / 2, bytes.len() - 1, HEADER_LEN + 3] {
            let t = temp_path("trunc");
            std::fs::write(&t, &bytes[..cut]).unwrap();
            assert!(MappedStore::open(&t).is_err(), "truncated at {cut} must be rejected");
            std::fs::remove_file(&t).ok();
        }

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let t = temp_path("flip");
        std::fs::write(&t, &flipped).unwrap();
        assert!(MappedStore::open(&t).is_err(), "bit flip must fail the whole-file CRC");
        std::fs::remove_file(&t).ok();
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mutation_after_mapping_fails_page_crc() {
        let (mut m, a) = idle_pair();
        let path = temp_path("postmap");
        let mut w = MappedStoreWriter::create(&path, 100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        // Corrupt a page body *after* the store validated the whole file.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(HEADER_LEN as u64 + 17)).unwrap();
            f.write_all(&[0xFF]).unwrap();
            f.sync_all().unwrap();
        }
        let mut cache = PageCache::default();
        let err = store.try_restore_fresh(0, &mut cache).unwrap_err();
        assert!(err.contains("CRC"), "post-map mutation must fail the page CRC: {err}");
        assert_eq!(store.check_page_crc(0), Some(false));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_cache_evicts_with_clock() {
        let mut cache = PageCache::new(2);
        let page = |v: u32| Arc::new(Page { words: vec![v; 4], tags: vec![false; 4] });
        cache.insert(0, page(0));
        cache.insert(1, page(1));
        cache.insert(2, page(2)); // evicts one of 0/1
        assert_eq!(cache.slots.len(), 2);
        assert!(cache.get(2).is_some());
        let survivors = [0u32, 1].iter().filter(|&&i| cache.get(i).is_some()).count();
        assert_eq!(survivors, 1);
    }

    #[test]
    fn unlinked_store_stays_readable() {
        let (mut m, a) = idle_pair();
        let mut w = MappedStoreWriter::create_temp(100).unwrap();
        w.capture_now(&mut m, &a).unwrap();
        let store = w.finish().unwrap();
        std::fs::remove_file(store.path().unwrap()).unwrap();
        let mut cache = PageCache::default();
        let (m2, a2) = store.try_restore_fresh(0, &mut cache).unwrap();
        assert_eq!(combined_fingerprint(&m2, &a2), store.fingerprint(0).unwrap());
    }
}
