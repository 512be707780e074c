//! Fault-injection substrate.
//!
//! The paper injects single transient and permanent bit-inversion errors at
//! randomly sampled gate outputs of the synthesized OR1200 + Argus-1 netlist
//! (§4.1). Our simulator is not gate-level, so we reproduce the methodology
//! at the granularity of *named signal sites*: every microarchitectural
//! signal a gate output would drive — register-file cells and address
//! decoders, operand/result buses, functional-unit internals, PC update,
//! pipeline control, the memory interface, and all of the Argus checker
//! hardware itself — is declared as a [`SiteDesc`] and *tapped* each time a
//! component drives it.
//!
//! A [`FaultInjector`] carries at most one active [`Fault`]. When the tapped
//! site matches, the injector inverts the chosen bit:
//!
//! * **Transient** faults follow the paper's activation protocol: the fault
//!   stays armed until the first cycle in which it actually corrupts a tapped
//!   value ("until it shows up"), then disappears.
//! * **Permanent** faults invert the bit on every tap from the arm cycle on.
//!
//! Sites with [`SiteFlavor::Double`] model gates whose output drives two
//! datapath bits; these flip an even number of bits and are exactly the
//! parity blind spot the paper identifies as the dominant cause of silent
//! data corruption.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which hardware unit a signal site belongs to. Used for weighting the
/// sample population (approximating relative gate counts) and for reporting
/// which checker covers which unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Instruction fetch: PC register, fetch bus.
    Fetch,
    /// Decode logic and opcode distribution trees.
    Decode,
    /// Architectural register file (data bits, read/write port addressing).
    RegFile,
    /// Integer ALU (adder, logic unit, shifter) and its result bus.
    Alu,
    /// Non-pipelined multiplier/divider.
    MulDiv,
    /// Load/store unit and data re-alignment.
    Lsu,
    /// Pipeline/stall/branch control.
    Control,
    /// Core-to-memory interface buses (the paper injects here, not in the
    /// cache arrays themselves).
    MemIface,
    /// Argus-1 SHS registers and CRC update units.
    ArgusShs,
    /// Argus-1 DCS permutation/XOR tree, signature extraction, compare.
    ArgusDcs,
    /// Argus-1 computation sub-checkers (adder checker, RSSE, mod-M).
    ArgusCc,
    /// Argus-1 parity generation/check trees and parity storage.
    ArgusParity,
    /// Argus-1 watchdog counter.
    ArgusWatchdog,
}

impl Unit {
    /// True for units that exist only because of Argus-1 (errors there can
    /// never corrupt the architectural execution of the core).
    pub fn is_argus_hardware(self) -> bool {
        matches!(
            self,
            Unit::ArgusShs
                | Unit::ArgusDcs
                | Unit::ArgusCc
                | Unit::ArgusParity
                | Unit::ArgusWatchdog
        )
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// How many datapath bits a single fault at this site corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteFlavor {
    /// Ordinary gate output: one inverted bit.
    Single,
    /// A driver/mux-select style gate that corrupts two adjacent bits —
    /// invisible to single-bit parity.
    Double,
}

/// A named fault-injection site: one signal of `width` bits inside `unit`.
///
/// `weight` scales the probability of the site being picked by a campaign,
/// approximating the number of gates feeding that signal in a real netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteDesc {
    /// Globally unique site name (used to match taps).
    pub name: &'static str,
    /// Signal width in bits; campaigns pick `bit < width`.
    pub width: u8,
    /// Owning hardware unit.
    pub unit: Unit,
    /// Relative sampling weight (≈ gate-count share).
    pub weight: f64,
    /// Single- or double-bit corruption.
    pub flavor: SiteFlavor,
    /// Logical-masking model: the probability that a faulty gate output in
    /// this signal's cone of logic is *sensitized* — i.e. actually reaches
    /// the tapped signal on a given exercise. Gate-level studies find most
    /// transients logically masked; our taps sit on unit boundaries, so
    /// deep combinational cones (ALU internals, the multiplier array,
    /// decode) get values well below 1.0, while wires, latches and storage
    /// cells stay near 1.0.
    pub sensitization: f64,
}

impl SiteDesc {
    /// Convenience constructor for a single-bit-flavor, fully sensitized
    /// site.
    pub const fn new(name: &'static str, width: u8, unit: Unit, weight: f64) -> Self {
        Self { name, width, unit, weight, flavor: SiteFlavor::Single, sensitization: 1.0 }
    }

    /// Convenience constructor for a double-bit-flavor site.
    pub const fn double(name: &'static str, width: u8, unit: Unit, weight: f64) -> Self {
        Self { name, width, unit, weight, flavor: SiteFlavor::Double, sensitization: 1.0 }
    }

    /// Sets the logical-masking sensitization probability.
    pub const fn sensitized(mut self, p: f64) -> Self {
        self.sensitization = p;
        self
    }
}

/// Transient vs. permanent bit inversion (the paper's two error models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Armed at `arm_cycle`, disappears after the first cycle in which it
    /// corrupts a tapped value.
    Transient,
    /// Inverts the bit on every tap from `arm_cycle` on.
    Permanent,
}

/// A single injected fault: invert `bit` of the signal at `site`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Site name (must match a tap's site name exactly).
    pub site: &'static str,
    /// Bit position within the signal.
    pub bit: u8,
    /// Transient or permanent.
    pub kind: FaultKind,
    /// Cycle at which the fault becomes active.
    pub arm_cycle: u64,
    /// Whether the site corrupts one or two bits per activation.
    pub flavor: SiteFlavor,
    /// Width of the site signal (for wrapping the second bit of a double).
    pub width: u8,
    /// Per-exercise propagation probability (logical masking; 1.0 = every
    /// exercise corrupts).
    pub sensitization: f64,
}

impl Fault {
    /// The bits one firing of this fault inverts in its site's signal.
    pub fn mask(&self) -> u32 {
        let w = self.width.max(1) as u32;
        let b0 = 1u32 << (self.bit as u32 % w.min(32));
        match self.flavor {
            SiteFlavor::Single => b0,
            SiteFlavor::Double => {
                let b1 = 1u32 << ((self.bit as u32 + 1) % w.min(32));
                b0 | b1
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    fault: Fault,
    expired: bool,
    exposures: u64,
    /// The fault's masking-draw identity ([`Slot::ident`]), hashed once.
    ident: u64,
}

impl Slot {
    fn new(fault: Fault) -> Self {
        let ident = Self::ident(&fault);
        Slot { fault, expired: false, exposures: 0, ident }
    }

    /// Mixes the fault's identity into its masking draws so co-resident
    /// faults draw independent decisions (a content hash, not a pointer,
    /// so campaigns replay identically across processes).
    fn ident(fault: &Fault) -> u64 {
        let mut ident: u64 = 0xcbf2_9ce4_8422_2325 ^ ((fault.bit as u64) << 56);
        for b in fault.site.bytes() {
            ident = (ident ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        ident
    }

    /// Whether the slot's fault sits on `site`: a pointer compare first
    /// (taps pass the same `&'static str` constants the sites are sampled
    /// from), then the text.
    #[inline]
    fn on(&self, site: &str) -> bool {
        std::ptr::eq(self.fault.site, site) || self.fault.site == site
    }
}

/// Threads zero or more faults through the simulator. Components call
/// [`FaultInjector::tap32`]/[`FaultInjector::tap1`] on every signal they
/// drive; the injector flips bits when an armed fault matches. Campaigns
/// inject a single fault (the paper's methodology); multi-fault injectors
/// support the §4.1 multiple-error scenarios (e.g. a core error plus an
/// error in the corresponding checker).
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    slots: Vec<Slot>,
    cycle: u64,
    /// Cycle of the first actual corruption, if any.
    first_flip: Option<u64>,
    /// Total number of corrupted taps.
    flips: u64,
    /// Number of non-expired slots (a transient decrements this when it
    /// fires and expires).
    live: usize,
    /// Earliest arm cycle over all slots; conservative (not recomputed on
    /// expiry), so it can only err toward taking the exact slow path.
    min_arm: u64,
    /// Cached "some slot could fire at the current cycle" flag. When false
    /// — golden runs, pre-arm execution, after every transient expired —
    /// `tap32`/`tap1`/`has_transient_on` are a single predictable branch.
    active: bool,
    /// Identity of the fault list (see [`FaultInjector::id`]); 0 for an
    /// injector built without faults.
    id: u64,
}

/// Source of [`FaultInjector::id`] values (0 is reserved for `none()`).
static NEXT_INJECTOR_ID: AtomicU64 = AtomicU64::new(1);

impl FaultInjector {
    /// An injector with no fault: taps pass values through unchanged.
    pub fn none() -> Self {
        Self::default()
    }

    /// An injector carrying one fault.
    pub fn with_fault(fault: Fault) -> Self {
        Self::with_faults(vec![fault])
    }

    /// An injector carrying several independent faults.
    pub fn with_faults(faults: Vec<Fault>) -> Self {
        let slots: Vec<Slot> = faults.into_iter().map(Slot::new).collect();
        let live = slots.len();
        let min_arm = slots.iter().map(|s| s.fault.arm_cycle).min().unwrap_or(u64::MAX);
        let id = NEXT_INJECTOR_ID.fetch_add(1, Ordering::Relaxed);
        let mut inj = Self { slots, live, min_arm, id, ..Self::default() };
        inj.recompute_active();
        inj
    }

    #[inline]
    fn recompute_active(&mut self) {
        self.active = self.live > 0 && self.cycle >= self.min_arm;
    }

    /// Advances the injector's notion of the current cycle. The machine
    /// calls this once per simulated cycle.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.recompute_active();
    }

    /// True when no fault can fire at the current cycle: the injector has
    /// no slots, every slot has expired, or every slot is still waiting for
    /// its arm cycle. Quiescence is exactly the golden-run condition — taps
    /// are guaranteed identity functions — so callers (e.g. the machine's
    /// predecode memo) may skip work that only exists to expose signals to
    /// fault taps.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        !self.active
    }

    /// First cycle at which any carried fault could fire: `u64::MAX` when
    /// every slot has expired (or none exist), else the earliest arm cycle.
    /// Taps are guaranteed identity functions at every cycle strictly below
    /// the horizon, so a caller that will simulate cycles `[c, c+n)` without
    /// tapping may do so whenever `c + n < quiescent_horizon()`; past it,
    /// [`Self::live_faults`] says which sites could fire. Conservative in
    /// the same direction as `min_arm`: expiry never moves the horizon
    /// later, so the only error mode is looking closer than necessary.
    #[inline]
    pub fn quiescent_horizon(&self) -> u64 {
        if self.live == 0 {
            u64::MAX
        } else {
            self.min_arm
        }
    }

    /// Current cycle as last set by [`Self::set_cycle`].
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycle of the first corrupted tap, or `None` if no fault ever fired.
    pub fn first_flip_cycle(&self) -> Option<u64> {
        self.first_flip
    }

    /// Number of taps corrupted so far (across all faults).
    pub fn flip_count(&self) -> u64 {
        self.flips
    }

    /// The first fault carried by this injector, if any.
    pub fn fault(&self) -> Option<&Fault> {
        self.slots.first().map(|s| &s.fault)
    }

    /// Every fault carried, in slot order, expired or not.
    pub fn faults(&self) -> impl Iterator<Item = &Fault> {
        self.slots.iter().map(|s| &s.fault)
    }

    /// The live-fault view: every fault that has not expired, with its slot
    /// index (its position in [`Self::faults`]). A fault outside this view
    /// can never fire again; one inside it fires only on a tap of its site
    /// at or after its arm cycle, and neither its masking draws nor its
    /// expiry advance without such a tap.
    pub fn live_faults(&self) -> impl Iterator<Item = (usize, &Fault)> {
        self.slots.iter().enumerate().filter(|(_, s)| !s.expired).map(|(k, s)| (k, &s.fault))
    }

    /// Identity of this injector's fault list: unique per construction and
    /// shared by clones, which carry the same (immutable) faults. Callers
    /// key per-slot facts derived from [`Self::faults`] on it — e.g. a
    /// site-name lookup done once per injector instead of once per use.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Per-exercise logical-masking draw (deterministic in cycle and
    /// exposure count, so campaigns replay exactly). Transients stay armed
    /// across logically-masked exercises — the paper's methodology
    /// activates a transient "until it shows up or until a fixed amount of
    /// time has elapsed", which is exactly why its transient and permanent
    /// masking rates coincide.
    fn sensitized(slot: &mut Slot, cycle: u64) -> bool {
        slot.exposures += 1;
        let p = slot.fault.sensitization;
        if p >= 1.0 {
            return true;
        }
        let mut h =
            crate::rng::SplitMix64::new(cycle ^ (slot.exposures << 40) ^ slot.ident ^ 0x5E27_1A7E);
        h.next_f64() < p
    }

    /// True when any armed (and due) transient fault targets `site` (the
    /// machine uses this to decide whether a flipped storage-cell read
    /// should persist as a cell upset).
    pub fn has_transient_on(&self, site: &'static str) -> bool {
        // Quiescent injectors (no slots, all expired, or pre-arm) can be
        // answered without scanning — this runs on every register read.
        if !self.active {
            return false;
        }
        self.slots.iter().any(|s| {
            !s.expired
                && s.on(site)
                && self.cycle >= s.fault.arm_cycle
                && matches!(s.fault.kind, FaultKind::Transient)
        })
    }

    /// True when any non-expired fault targets `site`, regardless of arm
    /// cycle or kind. Callers that want to *skip* taps on `site` (e.g. the
    /// bounded memory scrub skipping provably clean words) must take the
    /// full tap sequence whenever this holds: a matching fault draws its
    /// masking decision per exposure, so the tap count is observable.
    pub fn targets_live_site(&self, site: &'static str) -> bool {
        self.slots.iter().any(|s| !s.expired && s.on(site))
    }

    /// Computes the XOR mask contributed by all matching faults at this
    /// tap, handling expiry and masking. Returns 0 when nothing fires.
    #[inline]
    fn fire_mask(&mut self, site: &'static str) -> u32 {
        if !self.active {
            return 0;
        }
        let cycle = self.cycle;
        let mut mask = 0u32;
        let mut fired = 0u64;
        for slot in &mut self.slots {
            if slot.expired || !slot.on(site) || cycle < slot.fault.arm_cycle {
                continue;
            }
            if !Self::sensitized(slot, cycle) {
                continue;
            }
            mask ^= slot.fault.mask();
            fired += 1;
            if matches!(slot.fault.kind, FaultKind::Transient) {
                slot.expired = true;
                self.live -= 1;
            }
        }
        if self.live == 0 {
            self.active = false;
        }
        // Co-resident faults whose masks cancel exactly leave the signal
        // untouched — no corruption happened, so don't count one.
        if mask != 0 {
            self.flips += fired;
            if self.first_flip.is_none() {
                self.first_flip = Some(cycle);
            }
        }
        mask
    }

    /// Taps a multi-bit signal: returns the (possibly corrupted) value.
    #[inline]
    pub fn tap32(&mut self, site: &'static str, value: u32) -> u32 {
        value ^ self.fire_mask(site)
    }

    /// Taps a single-bit signal.
    #[inline]
    pub fn tap1(&mut self, site: &'static str, value: bool) -> bool {
        if self.fire_mask(site) != 0 {
            !value
        } else {
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(kind: FaultKind) -> Fault {
        Fault {
            site: "test_bus",
            bit: 3,
            kind,
            arm_cycle: 10,
            flavor: SiteFlavor::Single,
            width: 32,
            sensitization: 1.0,
        }
    }

    #[test]
    fn no_fault_is_transparent() {
        let mut inj = FaultInjector::none();
        inj.set_cycle(100);
        assert_eq!(inj.tap32("anything", 0xABCD), 0xABCD);
        assert!(inj.tap1("x", true));
        assert_eq!(inj.flip_count(), 0);
        assert_eq!(inj.first_flip_cycle(), None);
    }

    #[test]
    fn fault_waits_for_arm_cycle() {
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Permanent));
        inj.set_cycle(9);
        assert_eq!(inj.tap32("test_bus", 0), 0);
        inj.set_cycle(10);
        assert_eq!(inj.tap32("test_bus", 0), 1 << 3);
    }

    #[test]
    fn fault_only_hits_matching_site() {
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Permanent));
        inj.set_cycle(50);
        assert_eq!(inj.tap32("other_bus", 0), 0);
        assert_eq!(inj.flip_count(), 0);
    }

    #[test]
    fn transient_fires_once() {
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Transient));
        inj.set_cycle(20);
        assert_eq!(inj.tap32("test_bus", 0), 1 << 3);
        assert_eq!(inj.tap32("test_bus", 0), 0, "transient must expire");
        assert_eq!(inj.flip_count(), 1);
        assert_eq!(inj.first_flip_cycle(), Some(20));
    }

    #[test]
    fn permanent_fires_repeatedly() {
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Permanent));
        inj.set_cycle(20);
        for _ in 0..5 {
            assert_eq!(inj.tap32("test_bus", 0), 1 << 3);
        }
        assert_eq!(inj.flip_count(), 5);
    }

    #[test]
    fn double_flavor_flips_two_adjacent_bits() {
        let mut inj = FaultInjector::with_fault(Fault {
            flavor: SiteFlavor::Double,
            ..fault(FaultKind::Permanent)
        });
        inj.set_cycle(10);
        let v = inj.tap32("test_bus", 0);
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v, (1 << 3) | (1 << 4));
    }

    #[test]
    fn double_flavor_wraps_at_width() {
        let mut inj = FaultInjector::with_fault(Fault {
            site: "narrow",
            bit: 4,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Double,
            width: 5,
            sensitization: 1.0,
        });
        inj.set_cycle(0);
        let v = inj.tap32("narrow", 0);
        assert_eq!(v, (1 << 4) | 1, "second bit wraps to bit 0");
    }

    #[test]
    fn tap1_inverts() {
        let mut inj = FaultInjector::with_fault(Fault {
            site: "flag",
            bit: 0,
            kind: FaultKind::Permanent,
            arm_cycle: 0,
            flavor: SiteFlavor::Single,
            width: 1,
            sensitization: 1.0,
        });
        inj.set_cycle(0);
        assert!(!inj.tap1("flag", true));
        assert!(inj.tap1("flag", false));
    }

    #[test]
    fn multiple_faults_fire_independently() {
        let mut inj = FaultInjector::with_faults(vec![
            Fault { site: "bus_a", bit: 0, ..fault(FaultKind::Permanent) },
            Fault { site: "bus_b", bit: 1, ..fault(FaultKind::Permanent) },
        ]);
        inj.set_cycle(10);
        assert_eq!(inj.tap32("bus_a", 0), 1);
        assert_eq!(inj.tap32("bus_b", 0), 2);
        assert_eq!(inj.tap32("bus_c", 0), 0);
        assert_eq!(inj.flip_count(), 2);
    }

    #[test]
    fn two_faults_on_one_site_compose_by_xor() {
        let mut inj = FaultInjector::with_faults(vec![
            Fault { bit: 0, ..fault(FaultKind::Permanent) },
            Fault { bit: 4, ..fault(FaultKind::Permanent) },
        ]);
        inj.set_cycle(10);
        assert_eq!(inj.tap32("test_bus", 0), 0b10001);
    }

    #[test]
    fn transient_expiry_is_per_fault() {
        let mut inj = FaultInjector::with_faults(vec![
            Fault { bit: 0, ..fault(FaultKind::Transient) },
            Fault { bit: 4, ..fault(FaultKind::Permanent) },
        ]);
        inj.set_cycle(10);
        assert_eq!(inj.tap32("test_bus", 0), 0b10001, "both fire first");
        assert_eq!(inj.tap32("test_bus", 0), 0b10000, "transient expired");
        assert!(!inj.has_transient_on("test_bus"));
    }

    #[test]
    fn has_transient_on_tracks_armed_transients() {
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Transient));
        assert!(!inj.has_transient_on("test_bus"), "not yet armed at cycle 0");
        inj.set_cycle(10);
        assert!(inj.has_transient_on("test_bus"));
        assert!(!inj.has_transient_on("other"));
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Permanent));
        inj.set_cycle(10);
        assert!(!inj.has_transient_on("test_bus"));
    }

    #[test]
    fn zero_sensitization_never_fires() {
        let mut inj =
            FaultInjector::with_fault(Fault { sensitization: 0.0, ..fault(FaultKind::Permanent) });
        inj.set_cycle(10);
        for _ in 0..100 {
            assert_eq!(inj.tap32("test_bus", 0), 0);
        }
        assert_eq!(inj.flip_count(), 0);
        assert_eq!(inj.first_flip_cycle(), None);
    }

    #[test]
    fn quiescent_tracks_arming_and_expiry() {
        let mut inj = FaultInjector::none();
        assert!(inj.is_quiescent());
        inj.set_cycle(1_000);
        assert!(inj.is_quiescent());

        let mut inj = FaultInjector::with_fault(fault(FaultKind::Transient));
        assert!(inj.is_quiescent(), "pre-arm counts as quiescent");
        inj.set_cycle(9);
        assert!(inj.is_quiescent());
        inj.set_cycle(10);
        assert!(!inj.is_quiescent(), "armed fault is live");
        assert_eq!(inj.tap32("test_bus", 0), 1 << 3);
        assert!(inj.is_quiescent(), "expired transient goes quiescent again");
        assert!(!inj.has_transient_on("test_bus"));
        // Quiescence must survive further cycle advances.
        inj.set_cycle(11);
        assert!(inj.is_quiescent());
        assert_eq!(inj.tap32("test_bus", 0), 0);
    }

    #[test]
    fn quiescent_false_while_any_slot_live() {
        let mut inj = FaultInjector::with_faults(vec![
            Fault { bit: 0, ..fault(FaultKind::Transient) },
            Fault { bit: 4, arm_cycle: 20, ..fault(FaultKind::Permanent) },
        ]);
        inj.set_cycle(10);
        inj.tap32("test_bus", 0); // transient fires and expires
        assert!(!inj.is_quiescent(), "permanent slot still live");
        inj.set_cycle(20);
        assert_eq!(inj.tap32("test_bus", 0), 1 << 4);
    }

    #[test]
    fn live_view_drops_expired_slots_and_keeps_indices() {
        let mut inj = FaultInjector::with_faults(vec![
            Fault { bit: 0, ..fault(FaultKind::Transient) },
            Fault { site: "other", bit: 4, arm_cycle: 20, ..fault(FaultKind::Permanent) },
        ]);
        let live = |inj: &FaultInjector| inj.live_faults().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(live(&inj), [0, 1], "unarmed faults are live");
        assert_eq!(inj.faults().count(), 2);
        inj.set_cycle(10);
        inj.tap32("test_bus", 0); // the transient fires and expires
        assert_eq!(live(&inj), [1], "slot indices survive expiry");
        assert_eq!(inj.live_faults().next().unwrap().1.site, "other");
        assert_eq!(inj.faults().count(), 2, "expired faults stay listed");
    }

    #[test]
    fn ids_are_unique_per_fault_list_and_shared_by_clones() {
        let a = FaultInjector::with_fault(fault(FaultKind::Permanent));
        let b = FaultInjector::with_fault(fault(FaultKind::Permanent));
        assert_ne!(a.id(), b.id());
        assert_eq!(a.clone().id(), a.id());
        assert_eq!(FaultInjector::none().id(), 0);
    }

    /// The masking draw by its definition, with the site name hashed anew
    /// at every exposure.
    fn per_exposure_draw(f: &Fault, cycle: u64, exposure: u64) -> bool {
        let mut ident: u64 = 0xcbf2_9ce4_8422_2325 ^ ((f.bit as u64) << 56);
        for b in f.site.bytes() {
            ident = (ident ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut h = crate::rng::SplitMix64::new(cycle ^ (exposure << 40) ^ ident ^ 0x5E27_1A7E);
        h.next_f64() < f.sensitization
    }

    #[test]
    fn precomputed_identity_draws_like_the_per_exposure_hash() {
        let faults = [
            Fault { sensitization: 0.5, arm_cycle: 0, ..fault(FaultKind::Permanent) },
            Fault {
                site: "other_bus",
                bit: 17,
                sensitization: 0.3,
                arm_cycle: 0,
                ..fault(FaultKind::Permanent)
            },
        ];
        let mut inj = FaultInjector::with_faults(faults.to_vec());
        let mut fired = [0u64; 2];
        for exposure in 1..=10_000u64 {
            let cycle = exposure * 7 + exposure % 5;
            inj.set_cycle(cycle);
            for (k, f) in faults.iter().enumerate() {
                let hit = inj.tap32(f.site, 0) != 0;
                assert_eq!(hit, per_exposure_draw(f, cycle, exposure), "fault {k}, {exposure}");
                fired[k] += hit as u64;
            }
        }
        assert!(fired.iter().all(|&n| n > 2_000 && n < 8_000), "draws are mixed: {fired:?}");
    }

    #[test]
    fn a_site_name_at_another_address_still_matches() {
        let copy: &'static str = Box::leak(String::from("test_bus").into_boxed_str());
        assert!(!std::ptr::eq(copy, fault(FaultKind::Permanent).site));
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Permanent));
        assert!(inj.targets_live_site(copy));
        inj.set_cycle(10);
        assert_eq!(inj.tap32(copy, 0), 1 << 3);
        let mut inj = FaultInjector::with_fault(fault(FaultKind::Transient));
        inj.set_cycle(10);
        assert!(inj.has_transient_on(copy));
        assert!(inj.tap1(copy, false));
        assert!(!inj.has_transient_on(copy), "the leaked name expired the transient");
    }

    #[test]
    fn unit_argus_classification() {
        assert!(Unit::ArgusShs.is_argus_hardware());
        assert!(Unit::ArgusWatchdog.is_argus_hardware());
        assert!(!Unit::Alu.is_argus_hardware());
        assert!(!Unit::MemIface.is_argus_hardware());
    }
}
