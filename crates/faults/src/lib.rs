//! # argus-faults — the error-injection framework
//!
//! Reproduces the paper's §4.1 methodology: single transient and permanent
//! bit-inversion errors at randomly sampled signal sites across the whole
//! design (core datapath, control, memory interface, *and* the Argus-1
//! checker hardware), classified along two axes against a golden run:
//!
//! * **detected?** — did any Argus-1 checker fire?
//! * **masked?** — did the final architectural state still match the
//!   golden run?
//!
//! giving the four quadrants of Table 1 (silent data corruption =
//! unmasked ∧ undetected; DME = masked ∧ detected), the per-checker
//! detection attribution of §4.1.1, and the detection-latency data of
//! §4.2.
//!
//! # Examples
//!
//! ```no_run
//! use argus_faults::campaign::{run_campaign, CampaignConfig};
//! use argus_sim::fault::FaultKind;
//! let report = run_campaign(
//!     &argus_workloads::stress(),
//!     &CampaignConfig { injections: 100, kind: FaultKind::Transient, ..Default::default() },
//! );
//! println!("{}", report.table_row());
//! ```

pub mod campaign;
pub mod latency;
pub mod sites;

pub use campaign::{
    prepare_campaign, run_campaign, run_injection, run_injection_guarded_in, run_injection_in,
    run_injection_supervised_in, CampaignConfig, CampaignReport, CampaignWorkspace, ChaosConfig,
    InjectionResult, Outcome, PreparedCampaign, QuarantineRecord, StoreKind, SupervisedOutcome,
};
