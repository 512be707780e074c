//! # argus-machine — the OR1200-like core simulator
//!
//! A 32-bit, scalar, in-order core modeled on the OpenRISC OR1200 that the
//! paper instruments: 4-stage pipeline timing (1 instruction per cycle when
//! nothing stalls), one branch delay slot with no branch penalty, a
//! non-pipelined multi-cycle multiplier/divider, a load/store unit that
//! reuses the ALU adder for address computation, and blocking 8KB caches
//! (from `argus-mem`).
//!
//! The simulator executes one instruction per [`Machine::step`] and charges
//! it the cycles the pipeline would take. Every microarchitectural signal a
//! fault could corrupt is *tapped* through an `argus_sim::fault::FaultInjector`
//! (see [`sites`] for the inventory), and each retired instruction emits a
//! [`CommitRecord`] carrying exactly the signal values the Argus-1 checker
//! hardware observes.
//!
//! # Examples
//!
//! ```
//! use argus_machine::{Machine, MachineConfig, StepOutcome};
//! use argus_isa::{Instr, AluOp, Reg, encode::encode};
//! use argus_sim::fault::FaultInjector;
//!
//! let prog = [
//!     encode(&Instr::AluImm { op: argus_isa::instr::AluImmOp::Addi,
//!                             rd: Reg::new(3), ra: Reg::ZERO, imm: 7 }),
//!     encode(&Instr::Alu { op: AluOp::Add, rd: Reg::new(4),
//!                          ra: Reg::new(3), rb: Reg::new(3) }),
//!     encode(&Instr::Halt),
//! ];
//! let mut m = Machine::new(MachineConfig::default());
//! m.load_code(0, &prog);
//! let mut inj = FaultInjector::none();
//! while !matches!(m.step(&mut inj), StepOutcome::Halted) {}
//! assert_eq!(m.reg(Reg::new(4)), 14);
//! ```

pub mod alu;
pub mod block;
pub mod commit;
pub mod exec;
pub mod machine;
pub mod muldiv;
pub mod predecode;
pub mod sites;
pub mod snapshot;

pub use block::{BlockCommit, BlockGate, BlockPlan, ExecStats, OobLoad};
pub use commit::{BranchInfo, CommitRecord, MemAccess, Operand, Operands};
pub use machine::{Machine, MachineConfig, RunResult, StepOutcome};
pub use sites::TapSet;
pub use snapshot::{CoreState, MachineState, SnapshotState};
