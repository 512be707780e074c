//! Job model: what a submitted campaign *is* to the daemon.
//!
//! A job is a campaign spec plus a lifecycle:
//!
//! ```text
//! queued ──► running ──► done
//!   ▲           │  ├───► failed
//!   │           │  └───► cancelled
//!   │           ▼
//!   └────── (preempted: back to queued, progress checkpointed)
//!               │
//!               ▼
//!           draining ──► (process exit; resumes as queued on restart)
//! ```
//!
//! Every running job writes checkpoint-v3 files, so all non-terminal
//! states survive a SIGKILL: on restart the job table is reloaded and
//! every `queued`/`running`/`draining` job re-enters the queue, resuming
//! from its checkpoint instead of repeating work.
//!
//! The table is persisted to `<state-dir>/jobs.json` with the same
//! `{crc32, body}` envelope and atomic tmp-rename discipline as campaign
//! checkpoints — a torn write at any point leaves a loadable generation.

use argus_invariants::InvariantMode;
use argus_orchestrator::Json;
use argus_sim::crc::crc32;
use argus_sim::fault::FaultKind;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Job identifier: monotonically increasing, never reused, stable across
/// daemon restarts (the high-water mark is persisted).
pub type JobId = u64;

/// Priority range accepted by the API (inclusive). Higher runs first.
pub const MAX_PRIORITY: u8 = 9;

/// Job table file format version.
const TABLE_VERSION: u64 = 1;

/// What to run: the subset of campaign knobs a client may set, validated
/// at submission. Everything else uses the same `CampaignConfig` defaults
/// as one-shot `argus campaign`, which is what makes the daemon's report
/// byte-identical to the CLI's for the same spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Number of injections (`n` in the API).
    pub injections: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Transient or permanent faults.
    pub kind: FaultKind,
    /// Golden-run snapshot interval (perf knob; absent = cold boot).
    pub snapshot_every: Option<u64>,
    /// Scheduler priority, `0..=MAX_PRIORITY`; higher preempts lower.
    pub priority: u8,
    /// Worker budget: the most pool workers this job may hold at once.
    /// Zero is legal only for distributed jobs (remote-only: every chunk
    /// runs on `argus worker` processes, none on the daemon's pool).
    pub budget: usize,
    /// Scheduler lease size cap (`OrchestratorConfig::chunk` default when
    /// absent).
    pub chunk: Option<usize>,
    /// Open this job's chunk pool to remote `argus worker` leasing.
    pub distributed: bool,
    /// Invariant-checking density (`"off"|"sampled"|"full"`), defaulting
    /// to sampled like one-shot `argus campaign`.
    pub invariants: InvariantMode,
}

impl JobSpec {
    /// Parses and validates a submission body. Unknown fields are an
    /// error — a typo'd knob silently ignored is how a 10-hour campaign
    /// runs with the wrong seed.
    pub fn from_json(doc: &Json, max_budget: usize) -> Result<Self, String> {
        let obj = doc.as_obj().ok_or("job spec must be a JSON object")?;
        const KNOWN: &[&str] = &[
            "n",
            "seed",
            "kind",
            "snapshot_every",
            "priority",
            "budget",
            "chunk",
            "distributed",
            "invariants",
        ];
        for (key, _) in obj {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}` (known: {})", KNOWN.join(", ")));
            }
        }
        let injections = doc
            .get("n")
            .and_then(Json::as_u64)
            .filter(|&n| n >= 1)
            .ok_or("`n` (injections) must be an integer >= 1")? as usize;
        let defaults = argus_faults::CampaignConfig::default();
        let seed = match doc.get("seed") {
            Some(v) => v.as_u64().ok_or("`seed` must be a non-negative integer")?,
            None => defaults.seed,
        };
        let kind = match doc.get("kind") {
            None => FaultKind::Transient,
            Some(v) => match v.as_str() {
                Some("transient") => FaultKind::Transient,
                Some("permanent") => FaultKind::Permanent,
                _ => return Err("`kind` must be \"transient\" or \"permanent\"".into()),
            },
        };
        let snapshot_every = match doc.get("snapshot_every") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64().filter(|&s| s >= 1).ok_or("`snapshot_every` must be an integer >= 1")?,
            ),
        };
        let priority = match doc.get("priority") {
            None => 0,
            Some(v) => v
                .as_u64()
                .filter(|&p| p <= u64::from(MAX_PRIORITY))
                .ok_or_else(|| format!("`priority` must be an integer in 0..={MAX_PRIORITY}"))?
                as u8,
        };
        let distributed = match doc.get("distributed") {
            None => false,
            Some(v) => v.as_bool().ok_or("`distributed` must be a boolean")?,
        };
        let budget = match doc.get("budget") {
            None => max_budget,
            Some(v) => {
                // Budget 0 means remote-only execution, which only makes
                // sense when remote workers can lease the pool at all.
                let b = v
                    .as_u64()
                    .filter(|&b| b >= 1 || distributed)
                    .ok_or("`budget` must be >= 1 (0 is allowed only with `distributed`)")?
                    as usize;
                b.min(max_budget)
            }
        };
        let chunk = match doc.get("chunk") {
            None | Some(Json::Null) => None,
            Some(v) => {
                Some(v.as_u64().filter(|&c| c >= 1).ok_or("`chunk` must be an integer >= 1")?
                    as usize)
            }
        };
        let invariants = match doc.get("invariants") {
            None | Some(Json::Null) => InvariantMode::default(),
            Some(v) => v
                .as_str()
                .and_then(InvariantMode::parse)
                .ok_or("`invariants` must be \"off\", \"sampled\", or \"full\"")?,
        };
        Ok(Self {
            injections,
            seed,
            kind,
            snapshot_every,
            priority,
            budget,
            chunk,
            distributed,
            invariants,
        })
    }

    /// Serializes the spec (job table file and API responses).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("n", self.injections)
            .set("seed", self.seed)
            .set(
                "kind",
                match self.kind {
                    FaultKind::Transient => "transient",
                    FaultKind::Permanent => "permanent",
                },
            )
            .set("priority", u64::from(self.priority))
            .set("budget", self.budget);
        if let Some(s) = self.snapshot_every {
            doc = doc.set("snapshot_every", s);
        }
        if let Some(c) = self.chunk {
            doc = doc.set("chunk", c);
        }
        if self.distributed {
            doc = doc.set("distributed", true);
        }
        if self.invariants != InvariantMode::default() {
            doc = doc.set("invariants", self.invariants.label());
        }
        doc
    }
}

/// Lifecycle states. `Draining` only exists in a live process (a drained
/// daemon persists the job as resumable work); every other state is
/// persisted verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for pool workers (possibly with checkpointed progress from
    /// an earlier run or preemption).
    Queued,
    /// Injections in flight on the shared pool.
    Running,
    /// Told to stop for daemon shutdown; checkpointing, will resume on
    /// restart.
    Draining,
    /// All injections complete; report stored.
    Done,
    /// The engine errored or panicked; `error` says why.
    Failed,
    /// Cancelled by a client; never resumed.
    Cancelled,
}

impl JobState {
    /// Stable snake_case label (API + job table file).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Draining => "draining",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "draining" => JobState::Draining,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// One durable row of the job table (the parts that survive restart; live
/// handles — stop flags, progress, events — belong to the daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Stable id.
    pub id: JobId,
    /// Submission order; FIFO tiebreak within a priority, preserved across
    /// preemption and restart so requeued jobs keep their place.
    pub seq: u64,
    /// What to run.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure message for `Failed` jobs.
    pub error: Option<String>,
}

impl JobRow {
    fn to_json(&self) -> Json {
        // A drained daemon's jobs resume on restart: persist the live
        // `draining` state as the resumable `running` it semantically is.
        let state = if self.state == JobState::Draining { JobState::Running } else { self.state };
        let mut doc = Json::obj()
            .set("id", self.id)
            .set("seq", self.seq)
            .set("spec", self.spec.to_json())
            .set("state", state.label());
        if let Some(e) = &self.error {
            doc = doc.set("error", e.as_str());
        }
        doc
    }

    fn from_json(doc: &Json, max_budget: usize) -> Result<Self, String> {
        let id = doc.get("id").and_then(Json::as_u64).ok_or("job row missing id")?;
        let seq = doc.get("seq").and_then(Json::as_u64).ok_or("job row missing seq")?;
        let spec = JobSpec::from_json(doc.get("spec").ok_or("job row missing spec")?, max_budget)?;
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::from_label)
            .ok_or("job row missing or unknown state")?;
        // Unfinished work re-enters the queue; its checkpoint carries the
        // progress.
        let state = match state {
            JobState::Running | JobState::Draining => JobState::Queued,
            s => s,
        };
        let error = doc.get("error").and_then(Json::as_str).map(str::to_owned);
        Ok(Self { id, seq, spec, state, error })
    }
}

/// The durable job table: rows plus the id/seq high-water marks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTable {
    /// All known jobs, any state.
    pub rows: Vec<JobRow>,
    /// Next id to assign.
    pub next_id: u64,
    /// Next submission sequence number.
    pub next_seq: u64,
}

impl JobTable {
    /// Serializes with the `{crc32, body}` envelope.
    pub fn to_file_json(&self) -> Json {
        let body = Json::obj()
            .set("version", TABLE_VERSION)
            .set("next_id", self.next_id)
            .set("next_seq", self.next_seq)
            .set("jobs", Json::Arr(self.rows.iter().map(JobRow::to_json).collect()));
        let crc = crc32(body.to_string_compact().as_bytes());
        Json::obj().set("crc32", u64::from(crc)).set("body", body)
    }

    /// Parses an enveloped table file.
    pub fn from_file_json(doc: &Json, max_budget: usize) -> Result<Self, String> {
        let body = doc.get("body").ok_or("missing body")?;
        let expected = doc.get("crc32").and_then(Json::as_u64).ok_or("missing crc32")? as u32;
        let got = crc32(body.to_string_compact().as_bytes());
        if expected != got {
            return Err(format!("job table checksum mismatch ({expected:#010x} != {got:#010x})"));
        }
        let version = body.get("version").and_then(Json::as_u64).ok_or("missing version")?;
        if version != TABLE_VERSION {
            return Err(format!("unsupported job table version {version}"));
        }
        let rows = body
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("missing jobs array")?
            .iter()
            .map(|j| JobRow::from_json(j, max_budget))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            rows,
            next_id: body.get("next_id").and_then(Json::as_u64).ok_or("missing next_id")?,
            next_seq: body.get("next_seq").and_then(Json::as_u64).ok_or("missing next_seq")?,
        })
    }

    /// Atomically writes the table (tmp + fsync + rename, like checkpoint
    /// saves; no `.bak` generation — the table is tiny and rewritten on
    /// every transition, and a torn write loses at most one transition).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_file_json().to_string_compact().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Loads a table file; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path, max_budget: usize) -> Result<Option<Self>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_file_json(&doc, max_budget)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Paths for one job's durable artifacts inside the state dir.
pub fn checkpoint_path(state_dir: &Path, id: JobId) -> PathBuf {
    state_dir.join(format!("job-{id}.ckpt.json"))
}

/// Where a finished job's report bytes live.
pub fn report_path(state_dir: &Path, id: JobId) -> PathBuf {
    state_dir.join(format!("job-{id}.report.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_doc() -> Json {
        Json::obj().set("n", 500u64).set("seed", 7u64).set("priority", 3u64)
    }

    #[test]
    fn spec_parses_with_defaults_and_caps_budget() {
        let spec = JobSpec::from_json(&spec_doc(), 8).unwrap();
        assert_eq!(spec.injections, 500);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.kind, FaultKind::Transient);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.budget, 8, "budget defaults to the pool size");
        assert_eq!(spec.snapshot_every, None);

        let doc = spec_doc().set("budget", 100u64).set("kind", "permanent");
        let spec = JobSpec::from_json(&doc, 4).unwrap();
        assert_eq!(spec.budget, 4, "budget is capped at the pool size");
        assert_eq!(spec.kind, FaultKind::Permanent);
    }

    #[test]
    fn spec_rejects_bad_input() {
        for (doc, needle) in [
            (Json::obj(), "`n`"),
            (Json::obj().set("n", 0u64), "`n`"),
            (spec_doc().set("typo", 1u64), "unknown field `typo`"),
            (spec_doc().set("kind", "cosmic"), "`kind`"),
            (spec_doc().set("priority", 10u64), "`priority`"),
            (spec_doc().set("budget", 0u64), "`budget`"),
            (spec_doc().set("chunk", 0u64), "`chunk`"),
            (spec_doc().set("snapshot_every", 0u64), "`snapshot_every`"),
        ] {
            let err = JobSpec::from_json(&doc, 8).unwrap_err();
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
        assert!(JobSpec::from_json(&Json::Arr(vec![]), 8).is_err());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let doc = spec_doc().set("snapshot_every", 800u64).set("chunk", 4u64);
        let spec = JobSpec::from_json(&doc, 8).unwrap();
        let back = JobSpec::from_json(&spec.to_json(), 8).unwrap();
        assert_eq!(back, spec);

        let doc = spec_doc().set("distributed", true).set("budget", 0u64);
        let spec = JobSpec::from_json(&doc, 8).unwrap();
        let back = JobSpec::from_json(&spec.to_json(), 8).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn zero_budget_requires_distributed() {
        let err = JobSpec::from_json(&spec_doc().set("budget", 0u64), 8).unwrap_err();
        assert!(err.contains("distributed"), "{err}");

        let doc = spec_doc().set("budget", 0u64).set("distributed", true);
        let spec = JobSpec::from_json(&doc, 8).unwrap();
        assert_eq!(spec.budget, 0, "remote-only jobs hold no pool workers");
        assert!(spec.distributed);
    }

    #[test]
    fn table_roundtrips_and_requeues_unfinished_work() {
        let spec = JobSpec::from_json(&spec_doc(), 8).unwrap();
        let mk = |id, state| JobRow { id, seq: id, spec: spec.clone(), state, error: None };
        let table = JobTable {
            rows: vec![
                mk(1, JobState::Done),
                mk(2, JobState::Running),
                mk(3, JobState::Queued),
                mk(4, JobState::Cancelled),
                mk(5, JobState::Draining),
                JobRow {
                    id: 6,
                    seq: 6,
                    spec: spec.clone(),
                    state: JobState::Failed,
                    error: Some("boom".into()),
                },
            ],
            next_id: 7,
            next_seq: 7,
        };
        let back = JobTable::from_file_json(&table.to_file_json(), 8).unwrap();
        assert_eq!(back.next_id, 7);
        let states: Vec<JobState> = back.rows.iter().map(|r| r.state).collect();
        // Running and draining jobs come back queued (they resume from
        // their checkpoints); terminal states persist.
        assert_eq!(
            states,
            vec![
                JobState::Done,
                JobState::Queued,
                JobState::Queued,
                JobState::Cancelled,
                JobState::Queued,
                JobState::Failed
            ]
        );
        assert_eq!(back.rows[5].error.as_deref(), Some("boom"));
    }

    #[test]
    fn table_file_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join("argus-server-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs_roundtrip.json");
        let spec = JobSpec::from_json(&spec_doc(), 8).unwrap();
        let table = JobTable {
            rows: vec![JobRow { id: 1, seq: 0, spec, state: JobState::Queued, error: None }],
            next_id: 2,
            next_seq: 1,
        };
        table.save(&path).unwrap();
        assert_eq!(JobTable::load(&path, 8).unwrap().unwrap(), table);

        // A flipped byte inside the body fails the CRC, not the parser.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"seed\":7", "\"seed\":9", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let err = JobTable::load(&path, 8).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        assert_eq!(JobTable::load(&dir.join("nope.json"), 8).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }
}
