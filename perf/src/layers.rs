//! Layer microbenchmarks on a workload's own program and campaign-sized
//! machine: machine construction, full digest and scrub, the four step
//! engines, and mapped-store delta restores.

use crate::metrics::Recorder;
use crate::trace::Tracer;
use argus_compiler::{preplan, Program};
use argus_core::{Argus, ArgusConfig};
use argus_machine::{sites, Machine, MachineConfig, StepOutcome};
use argus_sim::fault::{Fault, FaultInjector, FaultKind, SiteFlavor};
use argus_snapshot::{MappedStore, PageCache, Workspace};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cycle bound no workload's golden run comes near.
const BOUND: u64 = 500_000_000;

/// What the microbenchmarks run on.
pub struct Subject<'a> {
    /// Benchmark workload name (span attribution).
    pub workload: &'static str,
    /// The workload compiled in Argus mode.
    pub prog: &'a Program,
    /// The campaign's machine configuration (memory sized for the workload).
    pub mcfg: MachineConfig,
    /// The campaign's checker configuration.
    pub acfg: ArgusConfig,
    /// The campaign's fault kind (the armed rows arm an inert one).
    pub kind: FaultKind,
    /// The campaign's golden-run snapshot store, if it has one.
    pub store: Option<&'a MappedStore>,
}

/// Calls `op` until `window` has elapsed (at least once); returns the
/// summed units `op` reports and the elapsed seconds.
fn timed(window: Duration, mut op: impl FnMut() -> u64) -> (u64, f64) {
    let t = Instant::now();
    let mut units = 0;
    loop {
        units += op();
        if t.elapsed() >= window {
            return (units, t.elapsed().as_secs_f64());
        }
    }
}

/// A fault of `kind` armed from cycle 0 that never corrupts anything
/// (sensitization 0): execution stays identical to the golden run while
/// every tap takes the armed path, the way a campaign's armed window does.
fn inert_fault(kind: FaultKind) -> FaultInjector {
    FaultInjector::with_fault(Fault {
        site: sites::EX_RESULT_BUS,
        bit: 0,
        kind,
        arm_cycle: 0,
        flavor: SiteFlavor::Single,
        width: 32,
        sensitization: 0.0,
    })
}

fn checker(s: &Subject) -> Argus {
    let mut a = Argus::new(s.acfg);
    if let Some(d) = s.prog.entry_dcs {
        a.expect_entry(d);
    }
    a
}

fn loaded(s: &Subject) -> Machine {
    let mut m = Machine::new(s.mcfg);
    s.prog.load(&mut m);
    m
}

/// One interpreter run to halt; returns steps (commits + stalls).
fn interp_run(s: &Subject, mut inj: FaultInjector, mut argus: Option<Argus>) -> u64 {
    let mut m = loaded(s);
    let mut steps = 0;
    loop {
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                if let Some(a) = argus.as_mut() {
                    black_box(a.on_commit(&rec, &mut inj));
                }
            }
            StepOutcome::Stalled => {}
            StepOutcome::Halted => break,
        }
        steps += 1;
        assert!(m.cycle() < BOUND, "{} must halt", s.workload);
    }
    steps
}

/// One block-engine run to halt (plans lowered up front, as a golden run
/// does); returns cycles, which equal steps on a quiescent run.
fn block_run(s: &Subject, checked: bool) -> u64 {
    let mut m = loaded(s);
    preplan(s.prog, &mut m);
    let mut inj = FaultInjector::none();
    if !checked {
        let res = m.run_to_halt(&mut inj, BOUND);
        assert!(res.halted, "{} must halt", s.workload);
        return res.cycles;
    }
    let mut argus = checker(s);
    loop {
        if let Some(gate) = m.plan_block(&inj, BOUND) {
            if argus.block_ready(&gate, &inj) {
                if let Some(commit) = m.exec_block(&mut inj, &gate) {
                    let plan = m.plan_at(gate.addr).expect("completed block keeps its plan");
                    black_box(argus.on_block(plan, &commit, &mut inj));
                    continue;
                }
            }
        }
        match m.step(&mut inj) {
            StepOutcome::Committed(rec) => {
                black_box(argus.on_commit(&rec, &mut inj));
            }
            StepOutcome::Stalled => {}
            StepOutcome::Halted => break,
        }
        assert!(m.cycle() < BOUND, "{} must halt", s.workload);
    }
    m.cycle()
}

/// Runs every microbenchmark for `window` each and records the rates.
pub fn run(s: &Subject, window: Duration, tracer: &Tracer, rec: &mut Recorder) {
    let span = |name: &str, layer: &'static str, f: &mut dyn FnMut() -> (u64, f64)| {
        tracer.span(format!("micro.{name}"), layer, s.workload, None, f)
    };
    let per_op_ms = |(ops, secs): (u64, f64)| 1e3 * secs / ops as f64;
    let msteps = |(steps, secs): (u64, f64)| steps as f64 / secs / 1e6;

    let new_load = span("new_load", "machine", &mut || {
        timed(window, || {
            black_box(loaded(s));
            1
        })
    });
    rec.set("machine.new_load_ms", per_op_ms(new_load));

    // Digest and scrub walk the halted golden machine's whole image.
    let mut golden = loaded(s);
    preplan(s.prog, &mut golden);
    assert!(golden.run_to_halt(&mut FaultInjector::none(), BOUND).halted);
    let digest = span("digest_full", "machine", &mut || {
        timed(window, || {
            black_box(golden.state_digest());
            1
        })
    });
    rec.set("machine.digest_full_ms", per_op_ms(digest));
    let mut argus = checker(s);
    let mut inj = FaultInjector::none();
    let scrub = span("scrub_full", "core", &mut || {
        timed(window, || {
            black_box(argus.scrub_memory(&golden, s.prog.data_base, &mut inj));
            1
        })
    });
    rec.set("core.scrub_full_ms", per_op_ms(scrub));

    let rows: [(&str, &'static str, &mut dyn FnMut() -> u64); 5] = [
        ("machine.interp_msteps_per_s", "machine", &mut || {
            interp_run(s, FaultInjector::none(), None)
        }),
        ("machine.armed_msteps_per_s", "machine", &mut || interp_run(s, inert_fault(s.kind), None)),
        ("core.checked_interp_msteps_per_s", "core", &mut || {
            interp_run(s, inert_fault(s.kind), Some(checker(s)))
        }),
        ("machine.block_msteps_per_s", "machine", &mut || block_run(s, false)),
        ("core.checked_block_msteps_per_s", "core", &mut || block_run(s, true)),
    ];
    for (name, layer, op) in rows {
        let r = span(name, layer, &mut || timed(window, &mut *op));
        rec.set(name, msteps(r));
    }

    // Delta restores alternating between two adjacent snapshots: each
    // restore rewrites the pages that differ between them.
    let restore_ms = match s.store.filter(|st| st.len() >= 2) {
        Some(store) => {
            let i = store.len() / 2 - 1;
            let mut ws = Workspace::new();
            let mut cache = PageCache::default();
            store.restore_into(i, &mut ws, &mut cache).expect("store restores");
            let mut next = i + 1;
            per_op_ms(span("restore_delta", "snapshot", &mut || {
                timed(window, || {
                    store.restore_into(next, &mut ws, &mut cache).expect("store restores");
                    next = if next == i { i + 1 } else { i };
                    1
                })
            }))
        }
        None => 0.0,
    };
    rec.set("snapshot.restore_delta_ms", restore_ms);
}
