//! Round trips of a store through the crate's public surface, the way
//! callers outside it use one: a one-snapshot image built in memory,
//! shipped as bytes (the `argus snapshot save` file), parsed again on the
//! receiving side and forked onto a fresh machine.

#[cfg(test)]
mod tests {
    use crate::{combined_fingerprint, MappedStore, MappedStoreWriter, PageCache};
    use argus_core::{Argus, ArgusConfig};
    use argus_machine::machine::{Machine, MachineConfig};

    #[test]
    fn roundtrip_on_fresh_machine() {
        let mut m = Machine::new(MachineConfig::default());
        let a = Argus::new(ArgusConfig::default());
        let mut w = MappedStoreWriter::in_memory(100);
        w.capture_now(&mut m, &a).unwrap();
        let sent = w.finish().unwrap();
        let received = MappedStore::from_bytes(sent.file_bytes().to_vec()).unwrap();
        assert_eq!(received.len(), 1);
        assert_eq!(received.fingerprint(0), sent.fingerprint(0));
        let mut cache = PageCache::default();
        let (m2, a2) = received.try_restore_fresh(0, &mut cache).unwrap();
        assert_eq!(combined_fingerprint(&m2, &a2), received.fingerprint(0).unwrap());
        assert_eq!(m2.mem().memory().words(), m.mem().memory().words());
        assert_eq!(m2.mem().memory().tags(), m.mem().memory().tags());
    }
}
