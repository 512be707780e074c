//! Full-fidelity state capture and restore for the core.
//!
//! A campaign's golden run is deterministic, so everything a faulty run
//! does before its fault arms is identical across all injections. The
//! snapshot engine (`argus-snapshot`) exploits that by checkpointing the
//! simulator mid-run and forking injections from the checkpoint; this
//! module defines the contract the machine side of that exchange obeys.
//!
//! [`SnapshotState`] is the trait: capture to an owned state value,
//! restore from one, and fingerprint the live state without cloning it.
//! The guarantee implementors must provide — and the property tests in
//! `argus-snapshot` enforce — is:
//!
//! > `restore_state(capture_state())` followed by `k` steps is
//! > indistinguishable, bit for bit, from running those `k` steps without
//! > the capture/restore in between.
//!
//! For [`Machine`](crate::Machine) that means capturing *everything* that
//! influences future behaviour: architectural state (registers, flag, PC,
//! memory), pipeline latches (pending branch, delay-slot marker, the
//! signature-bit accumulator), timing state (cycle, retired, cache tags /
//! dirty bits / LRU clocks), and the parity tags the checker reads.
//! Snapshots are taken at step boundaries only — mid-instruction
//! microarchitectural state (e.g. a divider mid-iteration) never needs to
//! be materialized because [`Machine::step`](crate::Machine::step) charges
//! multi-cycle instructions atomically.

use crate::machine::MachineConfig;
use argus_mem::CachesState;
use argus_sim::bitstream::BitStream;

/// State capture/restore with identity fingerprints.
///
/// `State` is an owned, thread-shareable value: snapshot stores hand
/// `&State` to worker threads restoring in parallel.
pub trait SnapshotState {
    /// The owned state value.
    type State: Clone + Send + Sync + 'static;

    /// Captures everything that influences future behaviour.
    fn capture_state(&self) -> Self::State;

    /// Restores state captured by [`SnapshotState::capture_state`].
    fn restore_state(&mut self, state: &Self::State);

    /// A digest over the *full* captured state (not just the architectural
    /// subset `Machine::state_digest` covers), without cloning it. Two
    /// states with different fingerprints will diverge; equal fingerprints
    /// identify states for snapshot bookkeeping and divergence triage.
    fn state_fingerprint(&self) -> u64;
}

/// The core-private part of a machine snapshot: everything except main
/// memory, which the snapshot engine stores separately as content-addressed
/// pages (consecutive snapshots share unchanged pages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    /// Configuration the machine was built with (restore validates it).
    pub cfg: MachineConfig,
    /// Architectural registers.
    pub regs: [u32; 32],
    /// Register-file parity tags.
    pub parity: [bool; 32],
    /// Compare flag.
    pub flag: bool,
    /// Program counter.
    pub pc: u32,
    /// Cycles elapsed.
    pub cycle: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Branch target awaiting its delay slot.
    pub pending_branch: Option<u32>,
    /// Next instruction is a delay slot.
    pub delay_slot: bool,
    /// Signature bits accumulated for the current basic block.
    pub block_bits: BitStream,
    /// Machine has executed `halt`.
    pub halted: bool,
    /// Both cache arrays (tags, valid/dirty, LRU).
    pub caches: CachesState,
}

/// A complete machine snapshot: core state plus materialized main memory.
///
/// This is the value [`SnapshotState::capture_state`] returns for
/// `Machine`. The snapshot engine immediately splits `mem_words`/`mem_tags`
/// into deduplicated pages; tools that want a standalone state file (the
/// `argus snapshot` CLI) keep it materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Everything but main memory.
    pub core: CoreState,
    /// All main-memory payload words.
    pub mem_words: Vec<u32>,
    /// All main-memory parity tags (parallel to `mem_words`).
    pub mem_tags: Vec<bool>,
}

/// FNV-1a accumulator shared by the state fingerprints in this workspace.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts from the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// The 64-bit FNV prime.
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Mixes one value.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Mixes `n` zeros, the same as `n` calls of `mix(0)`: each is a bare
    /// multiply by the prime, so together they multiply by the prime's
    /// `n`th power, taken by square-and-multiply in `O(log n)`.
    pub fn mix_zeros(&mut self, mut n: u64) {
        let mut power = Self::PRIME;
        while n > 0 {
            if n & 1 == 1 {
                self.0 = self.0.wrapping_mul(power);
            }
            power = power.wrapping_mul(power);
            n >>= 1;
        }
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}
