//! The field codec of the ARGSTORE format ([`crate::mapped`]): machine
//! and checker configurations, core state, and checker state as
//! little-endian byte runs. Decoders bound every length they read, so a
//! crafted image is rejected instead of over-allocating; the image's
//! whole-file CRC is verified before any of this runs.

use argus_core::config::{CheckerKind, DetectionEvent};
use argus_core::{ArgusConfig, ArgusState};
use argus_machine::machine::MachineConfig;
use argus_machine::snapshot::CoreState;
use argus_mem::{CacheConfig, CacheState, CachesState, LineState, MemConfig};
use std::io::{self, Read, Write};

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn put_u8(w: &mut dyn Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

pub(crate) fn put_u32(w: &mut dyn Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn put_u64(w: &mut dyn Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn put_bools(w: &mut dyn Write, bs: &[bool]) -> io::Result<()> {
    for &b in bs {
        put_u8(w, b as u8)?;
    }
    Ok(())
}

pub(crate) fn get_u8(r: &mut dyn Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn get_u32(r: &mut dyn Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn get_u64(r: &mut dyn Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn get_bool(r: &mut dyn Read) -> io::Result<bool> {
    match get_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad("boolean field out of range")),
    }
}

pub(crate) fn get_bools(r: &mut dyn Read, n: usize) -> io::Result<Vec<bool>> {
    (0..n).map(|_| get_bool(r)).collect()
}

fn put_cache_config(w: &mut dyn Write, c: &CacheConfig) -> io::Result<()> {
    put_u32(w, c.size_bytes)?;
    put_u32(w, c.line_bytes)?;
    put_u32(w, c.ways)
}

fn get_cache_config(r: &mut dyn Read) -> io::Result<CacheConfig> {
    Ok(CacheConfig { size_bytes: get_u32(r)?, line_bytes: get_u32(r)?, ways: get_u32(r)? })
}

pub(crate) fn put_machine_config(w: &mut dyn Write, c: &MachineConfig) -> io::Result<()> {
    put_cache_config(w, &c.mem.icache)?;
    put_cache_config(w, &c.mem.dcache)?;
    put_u32(w, c.mem.mem_bytes)?;
    put_u32(w, c.mem.hit_cycles)?;
    put_u32(w, c.mem.miss_penalty)?;
    put_u32(w, c.mem.writeback_penalty)?;
    put_u8(w, c.argus_mode as u8)?;
    put_u8(w, c.predecode as u8)?;
    put_u64(w, c.predecode_entries as u64)?;
    put_u8(w, c.block_exec as u8)?;
    put_u32(w, c.mul_cycles)?;
    put_u32(w, c.div_cycles)
}

pub(crate) fn get_machine_config(r: &mut dyn Read) -> io::Result<MachineConfig> {
    Ok(MachineConfig {
        mem: MemConfig {
            icache: get_cache_config(r)?,
            dcache: get_cache_config(r)?,
            mem_bytes: get_u32(r)?,
            hit_cycles: get_u32(r)?,
            miss_penalty: get_u32(r)?,
            writeback_penalty: get_u32(r)?,
        },
        argus_mode: get_bool(r)?,
        predecode: get_bool(r)?,
        predecode_entries: get_predecode_entries(r)?,
        block_exec: get_bool(r)?,
        mul_cycles: get_u32(r)?,
        div_cycles: get_u32(r)?,
    })
}

/// Reads the predecode table size, rejecting crafted headers that would
/// panic `Predecode::with_entries` (must be a power of two in [2, 2^30]).
fn get_predecode_entries(r: &mut dyn Read) -> io::Result<usize> {
    let n = get_u64(r)?;
    if !n.is_power_of_two() || !(2..=1 << 30).contains(&n) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid predecode_entries in snapshot: {n}"),
        ));
    }
    Ok(n as usize)
}

pub(crate) fn put_argus_config(w: &mut dyn Write, c: &ArgusConfig) -> io::Result<()> {
    put_u32(w, c.sig_width)?;
    put_u32(w, c.modulus)?;
    put_u32(w, c.watchdog_bits)?;
    put_u32(w, c.max_block_len)?;
    let flags = c.enable_cc as u8
        | (c.enable_parity as u8) << 1
        | (c.enable_dcs as u8) << 2
        | (c.enable_watchdog as u8) << 3;
    put_u8(w, flags)
}

pub(crate) fn get_argus_config(r: &mut dyn Read) -> io::Result<ArgusConfig> {
    let (sig_width, modulus) = (get_u32(r)?, get_u32(r)?);
    let (watchdog_bits, max_block_len) = (get_u32(r)?, get_u32(r)?);
    let flags = get_u8(r)?;
    Ok(ArgusConfig {
        sig_width,
        modulus,
        watchdog_bits,
        max_block_len,
        enable_cc: flags & 1 != 0,
        enable_parity: flags & 2 != 0,
        enable_dcs: flags & 4 != 0,
        enable_watchdog: flags & 8 != 0,
    })
}

pub(crate) fn put_core(w: &mut dyn Write, c: &CoreState) -> io::Result<()> {
    for &reg in &c.regs {
        put_u32(w, reg)?;
    }
    put_bools(w, &c.parity)?;
    put_u8(w, c.flag as u8)?;
    put_u32(w, c.pc)?;
    put_u64(w, c.cycle)?;
    put_u64(w, c.retired)?;
    match c.pending_branch {
        Some(t) => {
            put_u8(w, 1)?;
            put_u32(w, t)?;
        }
        None => put_u8(w, 0)?,
    }
    put_u8(w, c.delay_slot as u8)?;
    put_u64(w, c.block_bits.len() as u64)?;
    for &word in c.block_bits.words() {
        put_u64(w, word)?;
    }
    put_u8(w, c.halted as u8)?;
    put_cache(w, &c.caches.icache)?;
    put_cache(w, &c.caches.dcache)
}

pub(crate) fn get_core(r: &mut dyn Read, cfg: MachineConfig) -> io::Result<CoreState> {
    let mut regs = [0u32; 32];
    for reg in &mut regs {
        *reg = get_u32(r)?;
    }
    let parity_v = get_bools(r, 32)?;
    let mut parity = [false; 32];
    parity.copy_from_slice(&parity_v);
    let flag = get_bool(r)?;
    let pc = get_u32(r)?;
    let cycle = get_u64(r)?;
    let retired = get_u64(r)?;
    let pending_branch = if get_bool(r)? { Some(get_u32(r)?) } else { None };
    let delay_slot = get_bool(r)?;
    let nbits = get_u64(r)? as usize;
    if nbits > 1 << 24 {
        return Err(bad("block bit stream implausibly long"));
    }
    let mut bit_words = vec![0u64; nbits.div_ceil(64)];
    for word in &mut bit_words {
        *word = get_u64(r)?;
    }
    if !nbits.is_multiple_of(64) && bit_words.last().is_some_and(|&w| w >> (nbits % 64) != 0) {
        return Err(bad("set bits past the block stream length"));
    }
    let block_bits = argus_sim::bitstream::BitStream::from_words(bit_words, nbits);
    let halted = get_bool(r)?;
    let caches = CachesState { icache: get_cache(r)?, dcache: get_cache(r)? };
    Ok(CoreState {
        cfg,
        regs,
        parity,
        flag,
        pc,
        cycle,
        retired,
        pending_branch,
        delay_slot,
        block_bits,
        halted,
        caches,
    })
}

fn put_cache(w: &mut dyn Write, c: &CacheState) -> io::Result<()> {
    put_u64(w, c.lines.len() as u64)?;
    for line in &c.lines {
        put_u8(w, line.valid as u8)?;
        put_u8(w, line.dirty as u8)?;
        put_u32(w, line.tag)?;
        put_u64(w, line.lru)?;
    }
    put_u64(w, c.tick)?;
    put_u64(w, c.stats.accesses)?;
    put_u64(w, c.stats.hits)?;
    put_u64(w, c.stats.misses)?;
    put_u64(w, c.stats.writebacks)
}

fn get_cache(r: &mut dyn Read) -> io::Result<CacheState> {
    let n = get_u64(r)? as usize;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(LineState {
            valid: get_bool(r)?,
            dirty: get_bool(r)?,
            tag: get_u32(r)?,
            lru: get_u64(r)?,
        });
    }
    let tick = get_u64(r)?;
    let stats = argus_mem::CacheStats {
        accesses: get_u64(r)?,
        hits: get_u64(r)?,
        misses: get_u64(r)?,
        writebacks: get_u64(r)?,
    };
    Ok(CacheState { lines, tick, stats })
}

pub(crate) fn put_checker(w: &mut dyn Write, s: &ArgusState) -> io::Result<()> {
    put_words(w, &s.file.state_words())?;
    put_words(w, &s.cfc.state_words())?;
    put_words(w, &s.watchdog.state_words())?;
    put_u64(w, s.events.len() as u64)?;
    for ev in &s.events {
        put_u8(
            w,
            match ev.checker {
                CheckerKind::Computation => 0,
                CheckerKind::Parity => 1,
                CheckerKind::Dcs => 2,
                CheckerKind::Watchdog => 3,
            },
        )?;
        let reason = ev.reason.as_bytes();
        put_u64(w, reason.len() as u64)?;
        w.write_all(reason)?;
        put_u64(w, ev.cycle)?;
        put_u32(w, ev.pc)?;
    }
    Ok(())
}

pub(crate) fn get_checker(r: &mut dyn Read) -> io::Result<ArgusState> {
    let file = argus_core::shs::ShsFile::from_state_words(&get_words(r)?)
        .ok_or_else(|| bad("malformed SHS file state"))?;
    let cfc = argus_core::cfc::Cfc::from_state_words(&get_words(r)?)
        .ok_or_else(|| bad("malformed CFC state"))?;
    let watchdog = argus_core::watchdog::Watchdog::from_state_words(&get_words(r)?)
        .ok_or_else(|| bad("malformed watchdog state"))?;
    let nev = get_u64(r)? as usize;
    let mut events = Vec::with_capacity(nev);
    for _ in 0..nev {
        let checker = match get_u8(r)? {
            0 => CheckerKind::Computation,
            1 => CheckerKind::Parity,
            2 => CheckerKind::Dcs,
            3 => CheckerKind::Watchdog,
            _ => return Err(bad("unknown checker kind")),
        };
        let rlen = get_u64(r)? as usize;
        if rlen > 4096 {
            return Err(bad("detection reason implausibly long"));
        }
        let mut rbytes = vec![0u8; rlen];
        r.read_exact(&mut rbytes)?;
        let reason_owned =
            String::from_utf8(rbytes).map_err(|_| bad("detection reason not UTF-8"))?;
        // DetectionEvent carries a &'static str; deserialized reasons are
        // interned for the process lifetime (snapshot loads are rare and
        // reasons are short).
        let reason: &'static str = Box::leak(reason_owned.into_boxed_str());
        events.push(DetectionEvent { checker, reason, cycle: get_u64(r)?, pc: get_u32(r)? });
    }
    Ok(ArgusState { file, cfc, watchdog, events })
}

fn put_words(w: &mut dyn Write, ws: &[u64]) -> io::Result<()> {
    put_u64(w, ws.len() as u64)?;
    for &word in ws {
        put_u64(w, word)?;
    }
    Ok(())
}

fn get_words(r: &mut dyn Read) -> io::Result<Vec<u64>> {
    let n = get_u64(r)? as usize;
    if n > 1 << 20 {
        return Err(bad("state word run implausibly long"));
    }
    (0..n).map(|_| get_u64(r)).collect()
}

/// The codec seen whole: one-snapshot ARGSTORE images — the format of
/// `argus snapshot save` files.
#[cfg(test)]
mod tests {
    use crate::mapped::{combined_fingerprint, MappedStore, MappedStoreWriter, PageCache};
    use argus_core::{Argus, ArgusConfig};
    use argus_machine::{Machine, MachineConfig};

    fn one_snapshot_image() -> (Vec<u8>, u64) {
        let mut m = Machine::new(MachineConfig::default());
        let argus = Argus::new(ArgusConfig::default());
        let mut w = MappedStoreWriter::in_memory(1);
        w.capture_now(&mut m, &argus).unwrap();
        (w.finish().unwrap().file_bytes().to_vec(), combined_fingerprint(&m, &argus))
    }

    #[test]
    fn file_roundtrip_reproduces_fingerprint() {
        let (bytes, want) = one_snapshot_image();
        let store = MappedStore::from_bytes(bytes).unwrap();
        let (m2, a2) = store.try_restore_fresh(0, &mut PageCache::default()).unwrap();
        assert_eq!(combined_fingerprint(&m2, &a2), want);
        assert_eq!(m2.cycle(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = MappedStore::from_bytes(b"NOTASNAP________".to_vec()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncated_file_rejected() {
        let (mut bytes, _) = one_snapshot_image();
        bytes.truncate(bytes.len() / 2);
        assert!(MappedStore::from_bytes(bytes).is_err());
    }

    /// A recorded fingerprint that disagrees with the state it describes,
    /// behind an honest CRC: the image opens, but a verified restore must
    /// refuse it.
    #[test]
    fn corrupt_payload_fails_fingerprint_check() {
        let (mut bytes, want) = one_snapshot_image();
        // The lone snapshot's metadata starts with [cycle: u64][fingerprint: u64];
        // it sits after the header, page slots, tags, and index.
        let store = MappedStore::from_bytes(bytes.clone()).unwrap();
        let meta_at = 4096 + store.page_count() * (4096 + 128 + 8);
        assert_eq!(bytes[meta_at + 8..meta_at + 16], want.to_le_bytes(), "located the fingerprint");
        bytes[meta_at + 8] ^= 0x01;
        let end = bytes.len() - 4;
        let crc = argus_sim::crc::crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        let store = MappedStore::from_bytes(bytes).unwrap();
        let err = store.try_restore_fresh(0, &mut PageCache::default()).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }
}
