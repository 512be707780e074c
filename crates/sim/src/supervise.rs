//! Supervision primitives for the fault-injection rig itself.
//!
//! Argus's subject matter is surviving faults in the simulated core; this
//! module is about surviving faults in the *campaign machinery*: an
//! injection that panics, or one that livelocks the step loop, must not
//! take a multi-hour campaign down with it. The orchestrator wraps every
//! injection in [`catch_supervised`] (panic isolation with a quiet hook)
//! and threads an [`InjectionWatchdog`] through the faulty-run loop
//! (cycle-budget plus wall-clock hang detection). Both anomalies are
//! recorded in the campaign tallies as [`Anomaly`] counts instead of
//! crashing a worker shard.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// The two ways an injection can fail *as an injection* rather than as a
/// classified run: its code panicked, or it blew through its watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anomaly {
    /// The injection panicked and was isolated; the worker rebuilt its
    /// state and moved on.
    Quarantined,
    /// The injection exceeded its cycle budget or wall-clock ceiling.
    Hung,
}

impl Anomaly {
    /// Stable snake_case label (JSON keys, report fields).
    pub fn label(self) -> &'static str {
        match self {
            Anomaly::Quarantined => "quarantined",
            Anomaly::Hung => "hung",
        }
    }
}

/// Why the watchdog declared a run hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HangCause {
    /// The step loop ran more iterations than the cycle budget allows.
    /// Deterministic: depends only on the budget and the run.
    CycleBudget,
    /// The wall-clock ceiling elapsed first (a true livelock where the
    /// simulated cycle counter stopped advancing, or a pathologically slow
    /// host). Inherently non-deterministic; a backstop, not a classifier.
    WallClock,
}

impl HangCause {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            HangCause::CycleBudget => "cycle_budget",
            HangCause::WallClock => "wall_clock",
        }
    }
}

/// Watchdog limits for one supervised run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Maximum step-loop iterations before the run is declared hung. Each
    /// iteration normally advances the simulated clock by at least one
    /// cycle, so this doubles as a cycle budget that keeps firing even
    /// when a fault corrupts the cycle counter itself.
    pub cycle_budget: u64,
    /// Wall-clock ceiling; `None` disables the wall check.
    pub wall_limit: Option<Duration>,
}

/// How many ticks pass between wall-clock checks (`Instant::now` is too
/// expensive for every step of the hot loop).
const WALL_CHECK_INTERVAL: u64 = 4096;

/// A per-injection watchdog: tick it once per step-loop iteration and stop
/// the run when it reports a [`HangCause`].
#[derive(Debug)]
pub struct InjectionWatchdog {
    remaining: u64,
    ticks: u64,
    deadline: Option<Instant>,
}

impl InjectionWatchdog {
    /// Arms a watchdog; the wall deadline starts now.
    pub fn new(cfg: &WatchdogConfig) -> Self {
        Self {
            remaining: cfg.cycle_budget,
            ticks: 0,
            deadline: cfg.wall_limit.map(|d| Instant::now() + d),
        }
    }

    /// Step-loop iterations left in the cycle budget: a run that needs at
    /// most this many more ticks cannot fire [`HangCause::CycleBudget`].
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Accounts one step-loop iteration; `Some` means the run is hung and
    /// must be abandoned. The cycle budget is checked every tick, the wall
    /// clock only every [`WALL_CHECK_INTERVAL`] ticks.
    #[inline]
    pub fn tick(&mut self) -> Option<HangCause> {
        if self.remaining == 0 {
            return Some(HangCause::CycleBudget);
        }
        self.remaining -= 1;
        self.ticks += 1;
        if self.ticks.is_multiple_of(WALL_CHECK_INTERVAL) {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Some(HangCause::WallClock);
                }
            }
        }
        None
    }

    /// Accounts `n` step-loop iterations at once — the block-compiled fast
    /// path retires a whole basic block per loop iteration and settles the
    /// watchdog debt for the interpreter iterations it replaced. Fires iff
    /// `n` sequential [`InjectionWatchdog::tick`]s would have fired within
    /// the span, which keeps the hung/not-hung verdict identical to the
    /// one-step loop: a budget that runs out mid-block abandons the run
    /// with the same [`HangCause`], and a hung run's machine state is
    /// never reported anyway.
    #[inline]
    pub fn tick_many(&mut self, n: u64) -> Option<HangCause> {
        if self.remaining < n {
            self.remaining = 0;
            return Some(HangCause::CycleBudget);
        }
        self.remaining -= n;
        let before = self.ticks;
        self.ticks += n;
        if before / WALL_CHECK_INTERVAL != self.ticks / WALL_CHECK_INTERVAL {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Some(HangCause::WallClock);
                }
            }
        }
        None
    }
}

thread_local! {
    /// Set while this thread is inside [`catch_supervised`]; the shared
    /// panic hook stays quiet for supervised panics (they are captured and
    /// reported through the quarantine ledger, not stderr).
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INSTALLED: Once = Once::new();

fn install_quiet_hook() {
    HOOK_INSTALLED.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Process-wide termination-signal wiring shared by every long-running
/// front end (the one-shot `argus campaign` CLI and the `argus serve`
/// daemon): SIGINT and SIGTERM both flip one stop flag, so a campaign
/// checkpoints and exits cleanly whether it is interrupted from a terminal
/// (Ctrl-C) or told to shut down by a service manager (`systemctl stop`,
/// `docker stop`, a CI timeout).
///
/// Installed lazily by [`signals::install`]; subcommands that never call it
/// keep the default signal behaviour.
pub mod signals {
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    /// Set once SIGINT or SIGTERM arrives; polled by campaign workers and
    /// the daemon's scheduler loop.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// The signal number that set [`STOP`] (0 until one arrives) — lets a
    /// front end report *why* it is draining.
    static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);

    extern "C" fn on_stop_signal(sig: i32) {
        // Only async-signal-safe work here: two atomic stores.
        LAST_SIGNAL.store(sig, Ordering::SeqCst);
        STOP.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM to the [`STOP`] flag. Idempotent; no-op
    /// off Unix.
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            signal(SIGINT, on_stop_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_stop_signal as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a termination signal has been received.
    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }

    /// Human-readable name of the signal that requested the stop, if any.
    pub fn stop_cause() -> Option<&'static str> {
        match LAST_SIGNAL.load(Ordering::SeqCst) {
            2 => Some("SIGINT"),
            15 => Some("SIGTERM"),
            _ => None,
        }
    }

    /// Clears the flag (tests and daemon restarts within one process).
    pub fn reset() {
        STOP.store(false, Ordering::SeqCst);
        LAST_SIGNAL.store(0, Ordering::SeqCst);
    }
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f`, converting a panic into `Err(message)` without letting the
/// default hook spam stderr. Panics on *other* threads still print.
///
/// The closure is treated as unwind-safe: supervised injections rebuild
/// all of their mutable state (machine, checker, injector) from scratch or
/// from an immutable snapshot on every call, so a half-completed run
/// leaves nothing behind that a later run can observe.
pub fn catch_supervised<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    SUPERVISED.with(|flag| flag.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPERVISED.with(|flag| flag.set(false));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_fires_on_cycle_budget() {
        let mut wd = InjectionWatchdog::new(&WatchdogConfig { cycle_budget: 10, wall_limit: None });
        for _ in 0..10 {
            assert_eq!(wd.tick(), None);
        }
        assert_eq!(wd.tick(), Some(HangCause::CycleBudget));
        // Expired watchdogs stay expired.
        assert_eq!(wd.tick(), Some(HangCause::CycleBudget));
    }

    #[test]
    fn tick_many_matches_sequential_ticks() {
        // Same budget, one loop batched and one per-tick: the batched
        // watchdog must fire on (exactly) the batch that would have
        // contained the firing tick.
        for batch in [1u64, 3, 7, 10, 11] {
            let cfg = WatchdogConfig { cycle_budget: 10, wall_limit: None };
            let mut a = InjectionWatchdog::new(&cfg);
            let mut b = InjectionWatchdog::new(&cfg);
            let mut fired_a = None;
            let mut fired_b = None;
            for step in 0..40u64 {
                if fired_a.is_none() {
                    if let Some(c) = a.tick_many(batch) {
                        fired_a = Some((step, c));
                    }
                }
                if fired_b.is_none() {
                    let mut hit = None;
                    for _ in 0..batch {
                        if let Some(c) = b.tick() {
                            hit = Some(c);
                            break;
                        }
                    }
                    if let Some(c) = hit {
                        fired_b = Some((step, c));
                    }
                }
            }
            assert_eq!(fired_a, fired_b, "batch {batch}");
        }
    }

    #[test]
    fn tick_many_zero_is_free() {
        let mut wd = InjectionWatchdog::new(&WatchdogConfig { cycle_budget: 2, wall_limit: None });
        for _ in 0..100 {
            assert_eq!(wd.tick_many(0), None);
        }
        assert_eq!(wd.remaining(), 2);
        assert_eq!(wd.tick_many(2), None);
        assert_eq!(wd.remaining(), 0);
        assert_eq!(wd.tick_many(1), Some(HangCause::CycleBudget));
    }

    #[test]
    fn watchdog_fires_on_wall_clock() {
        let mut wd = InjectionWatchdog::new(&WatchdogConfig {
            cycle_budget: u64::MAX,
            wall_limit: Some(Duration::ZERO),
        });
        let mut fired = None;
        for _ in 0..2 * WALL_CHECK_INTERVAL {
            if let Some(cause) = wd.tick() {
                fired = Some(cause);
                break;
            }
        }
        assert_eq!(fired, Some(HangCause::WallClock));
    }

    #[test]
    fn catch_supervised_captures_messages() {
        assert_eq!(catch_supervised(|| 42), Ok(42));
        let err = catch_supervised(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err, "boom 7");
        let err = catch_supervised(|| panic!("static boom")).unwrap_err();
        assert_eq!(err, "static boom");
        // The thread-local is reset, so a later success is unaffected.
        assert_eq!(catch_supervised(|| "ok"), Ok("ok"));
    }

    #[test]
    #[cfg(unix)]
    fn signals_route_sigterm_to_the_stop_flag() {
        extern "C" {
            fn raise(sig: i32) -> i32;
        }
        signals::reset();
        assert!(!signals::stop_requested());
        assert_eq!(signals::stop_cause(), None);
        signals::install();
        // With the handler installed, SIGTERM must set the flag instead of
        // killing the process — exactly what a service manager's stop does.
        unsafe { raise(15) };
        assert!(signals::stop_requested());
        assert_eq!(signals::stop_cause(), Some("SIGTERM"));
        signals::reset();
        assert!(!signals::stop_requested());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Anomaly::Quarantined.label(), "quarantined");
        assert_eq!(Anomaly::Hung.label(), "hung");
        assert_eq!(HangCause::CycleBudget.label(), "cycle_budget");
        assert_eq!(HangCause::WallClock.label(), "wall_clock");
    }
}
