//! Wire messages of the distributed lease protocol.
//!
//! Everything except artifact bodies travels as hand-rolled JSON (the
//! repo's `argus_orchestrator::Json`, no external parsers). Artifact
//! bodies are raw ARGSTORE images — a CRC-carrying binary envelope of
//! their own — addressed by the CRC-32 of the whole body, so the URL
//! *is* the integrity check.
//!
//! The protocol, all rooted under the daemon's `/jobs/<id>` tree:
//!
//! | verb | path | body → reply |
//! |------|------|--------------|
//! | GET  | `/work` | — → `{"jobs":[id,…]}` (running distributed jobs) |
//! | GET  | `/jobs/<id>/manifest` | — → [`Manifest`] |
//! | GET  | `/jobs/<id>/artifacts/<crc-hex>` | — → raw ARGSTORE bytes |
//! | POST | `/jobs/<id>/lease` | `{"worker":w}` → [`LeaseReply`] |
//! | POST | `/jobs/<id>/complete` | [`CompleteRequest`] → [`CompleteReply`] |
//! | POST | `/jobs/<id>/heartbeat` | `{"worker":w,"chunks":[…]}` → `{"renewed":k,"ttl_ms":t}` |

use argus_invariants::{InvariantMode, InvariantStats};
use argus_orchestrator::{tally_from_json, tally_to_json, CampaignTally, Json};
use argus_sim::fault::FaultKind;
use std::ops::Range;

/// Protocol revision. A worker refuses a manifest whose version it does
/// not speak rather than silently misinterpreting chunk boundaries or
/// artifact bodies. v2: the `entry` artifact is a one-snapshot ARGSTORE
/// image, like the `store` artifact.
pub const PROTOCOL_VERSION: u64 = 2;

/// One content-addressed artifact a cold-starting worker must fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRef {
    /// Role of the artifact: `"entry"` (the golden-entry snapshot used to
    /// fingerprint-check the worker's reconstruction) or `"store"` (the
    /// campaign's snapshot store, for snapshot campaigns).
    pub name: String,
    /// CRC-32 (IEEE) of the whole body — also its address in the URL.
    pub crc32: u32,
    /// Body length in bytes, so the client can sanity-check truncation.
    pub len: usize,
}

/// Everything a worker needs to reconstruct the campaign from nothing
/// but a URL: the workload by name (workloads are compiled into every
/// binary), the campaign spec, and the artifact list to verify against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    pub version: u64,
    /// Daemon job id this manifest describes.
    pub job: u64,
    /// Workload name (resolved against the compiled-in suite).
    pub workload: String,
    /// Total planned injections.
    pub injections: usize,
    /// Campaign seed — with an injection index, fully determines one run.
    pub seed: u64,
    pub kind: FaultKind,
    pub snapshot_every: Option<u64>,
    /// Golden-run length the coordinator measured; the worker's own
    /// golden run must agree or its binary differs from the daemon's.
    pub golden_cycles: u64,
    /// Lease time-to-live; a worker heartbeats at a fraction of this.
    pub lease_ttl_ms: u64,
    /// Invariant-checking density the coordinator runs under; workers
    /// adopt the same mode so both halves audit the campaign equally.
    pub invariants: InvariantMode,
    pub artifacts: Vec<ArtifactRef>,
}

impl Manifest {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("version", self.version)
            .set("job", self.job)
            .set("workload", self.workload.as_str())
            .set("n", self.injections)
            .set("seed", self.seed)
            .set("kind", kind_label(self.kind))
            .set("snapshot_every", self.snapshot_every.map_or(Json::Null, Json::from))
            .set("golden_cycles", self.golden_cycles)
            .set("lease_ttl_ms", self.lease_ttl_ms)
            .set("invariants", self.invariants.label())
            .set(
                "artifacts",
                Json::Arr(
                    self.artifacts
                        .iter()
                        .map(|a| {
                            Json::obj()
                                .set("name", a.name.as_str())
                                .set("crc32", format!("{:08x}", a.crc32).as_str())
                                .set("len", a.len)
                        })
                        .collect(),
                ),
            )
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let version =
            doc.get("version").and_then(Json::as_u64).ok_or("manifest missing version")?;
        if version != PROTOCOL_VERSION {
            return Err(format!(
                "manifest speaks protocol v{version}, this worker speaks v{PROTOCOL_VERSION}"
            ));
        }
        let job = doc.get("job").and_then(Json::as_u64).ok_or("manifest missing job")?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("manifest missing workload")?
            .to_owned();
        let injections = doc.get("n").and_then(Json::as_u64).ok_or("manifest missing n")? as usize;
        let seed = doc.get("seed").and_then(Json::as_u64).ok_or("manifest missing seed")?;
        let kind = match doc.get("kind").and_then(Json::as_str) {
            Some("transient") => FaultKind::Transient,
            Some("permanent") => FaultKind::Permanent,
            _ => return Err("manifest kind must be transient|permanent".into()),
        };
        let snapshot_every = match doc.get("snapshot_every") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("manifest snapshot_every must be an integer")?),
        };
        let golden_cycles = doc
            .get("golden_cycles")
            .and_then(Json::as_u64)
            .ok_or("manifest missing golden_cycles")?;
        let lease_ttl_ms = doc
            .get("lease_ttl_ms")
            .and_then(Json::as_u64)
            .ok_or("manifest missing lease_ttl_ms")?;
        let invariants = match doc.get("invariants").and_then(Json::as_str) {
            None => InvariantMode::default(),
            Some(s) => {
                InvariantMode::parse(s).ok_or("manifest invariants must be off|sampled|full")?
            }
        };
        let mut artifacts = Vec::new();
        for a in doc.get("artifacts").and_then(Json::as_arr).ok_or("manifest missing artifacts")? {
            let name =
                a.get("name").and_then(Json::as_str).ok_or("artifact missing name")?.to_owned();
            let crc_hex = a.get("crc32").and_then(Json::as_str).ok_or("artifact missing crc32")?;
            let crc32 = u32::from_str_radix(crc_hex, 16)
                .map_err(|_| format!("artifact crc32 `{crc_hex}` is not hex"))?;
            let len = a.get("len").and_then(Json::as_u64).ok_or("artifact missing len")? as usize;
            artifacts.push(ArtifactRef { name, crc32, len });
        }
        Ok(Self {
            version,
            job,
            workload,
            injections,
            seed,
            kind,
            snapshot_every,
            golden_cycles,
            lease_ttl_ms,
            invariants,
            artifacts,
        })
    }
}

/// Serializes [`InvariantStats`] for the wire (completion posts).
pub fn invariant_stats_to_json(s: &InvariantStats) -> Json {
    Json::obj()
        .set("mode", s.mode.as_str())
        .set("checks_run", s.checks_run)
        .set("violations", s.violations)
        .set(
            "per_invariant",
            Json::Obj(s.per_invariant.iter().map(|(k, v)| (k.clone(), (*v).into())).collect()),
        )
        .set(
            "examples",
            Json::Arr(
                s.examples
                    .iter()
                    .map(|(name, detail)| {
                        Json::obj().set("invariant", name.as_str()).set("detail", detail.as_str())
                    })
                    .collect(),
            ),
        )
}

/// Parses [`InvariantStats`] from the wire.
pub fn invariant_stats_from_json(doc: &Json) -> Result<InvariantStats, String> {
    let mode = doc.get("mode").and_then(Json::as_str).unwrap_or_default().to_owned();
    let checks_run = doc.get("checks_run").and_then(Json::as_u64).unwrap_or(0);
    let violations = doc.get("violations").and_then(Json::as_u64).unwrap_or(0);
    let mut per_invariant = Vec::new();
    if let Some(obj) = doc.get("per_invariant").and_then(Json::as_obj) {
        for (name, count) in obj {
            let c = count.as_u64().ok_or("invariant count must be an integer")?;
            per_invariant.push((name.clone(), c));
        }
    }
    let mut examples = Vec::new();
    if let Some(arr) = doc.get("examples").and_then(Json::as_arr) {
        for ex in arr {
            let name =
                ex.get("invariant").and_then(Json::as_str).ok_or("example missing invariant")?;
            let detail = ex.get("detail").and_then(Json::as_str).ok_or("example missing detail")?;
            examples.push((name.to_owned(), detail.to_owned()));
        }
    }
    Ok(InvariantStats { mode, checks_run, violations, per_invariant, examples })
}

pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::Permanent => "permanent",
    }
}

/// Reply to a lease request: a chunk grant, or "nothing leasable right
/// now" with `done` saying whether that is final.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    Grant {
        /// Coordinator-unique chunk id; `complete` and `heartbeat` quote it.
        chunk: u64,
        range: Range<usize>,
        ttl_ms: u64,
        /// Unleased injections left in the pool after this grant.
        remaining: usize,
        /// Leases outstanding (including this one).
        outstanding: usize,
    },
    /// No chunk available. `done`: the campaign has fully completed —
    /// stop polling. `!done`: all remaining work is leased out; poll
    /// again (an expiry may return chunks to the pool).
    Empty { done: bool },
}

impl LeaseReply {
    pub fn to_json(&self) -> Json {
        match self {
            Self::Grant { chunk, range, ttl_ms, remaining, outstanding } => Json::obj()
                .set("chunk", *chunk)
                .set("start", range.start)
                .set("end", range.end)
                .set("ttl_ms", *ttl_ms)
                .set("remaining", *remaining)
                .set("outstanding", *outstanding),
            Self::Empty { done } => Json::obj().set("chunk", Json::Null).set("done", *done),
        }
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        match doc.get("chunk") {
            Some(Json::Null) => {
                let done = doc.get("done").and_then(Json::as_bool).unwrap_or(false);
                Ok(Self::Empty { done })
            }
            Some(v) => {
                let chunk = v.as_u64().ok_or("lease chunk must be an integer")?;
                let start =
                    doc.get("start").and_then(Json::as_u64).ok_or("lease missing start")? as usize;
                let end =
                    doc.get("end").and_then(Json::as_u64).ok_or("lease missing end")? as usize;
                if end <= start {
                    return Err(format!("lease range {start}..{end} is empty"));
                }
                let ttl_ms =
                    doc.get("ttl_ms").and_then(Json::as_u64).ok_or("lease missing ttl_ms")?;
                let remaining = doc.get("remaining").and_then(Json::as_u64).unwrap_or(0) as usize;
                let outstanding =
                    doc.get("outstanding").and_then(Json::as_u64).unwrap_or(0) as usize;
                Ok(Self::Grant { chunk, range: start..end, ttl_ms, remaining, outstanding })
            }
            None => Err("lease reply missing chunk".into()),
        }
    }
}

/// A chunk completion: the exact leased range plus the tally merged over
/// it. All-or-nothing — a worker never posts a partial chunk, which is
/// what makes any two completions for overlapping work exact duplicates.
#[derive(Debug, Clone)]
pub struct CompleteRequest {
    pub worker: String,
    pub chunk: u64,
    pub range: Range<usize>,
    pub tally: CampaignTally,
    /// Invariant-checking delta accumulated while running this chunk
    /// (empty when the worker checks nothing). The coordinator absorbs
    /// accepted posts so remote violations surface in the final report
    /// exactly like local ones.
    pub invariants: InvariantStats,
    /// Artifact bodies this worker resolved from its on-disk CRC cache
    /// when it joined the job (zero once reported — it rides the first
    /// completion post only, so retries and later chunks never
    /// double-count).
    pub artifact_cache_hits: u64,
}

impl CompleteRequest {
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("worker", self.worker.as_str())
            .set("chunk", self.chunk)
            .set("start", self.range.start)
            .set("end", self.range.end)
            .set("tally", tally_to_json(&self.tally));
        if !self.invariants.is_empty() {
            doc = doc.set("invariants", invariant_stats_to_json(&self.invariants));
        }
        if self.artifact_cache_hits > 0 {
            doc = doc.set("artifact_cache_hits", self.artifact_cache_hits);
        }
        doc
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let worker =
            doc.get("worker").and_then(Json::as_str).ok_or("complete missing worker")?.to_owned();
        let chunk = doc.get("chunk").and_then(Json::as_u64).ok_or("complete missing chunk")?;
        let start =
            doc.get("start").and_then(Json::as_u64).ok_or("complete missing start")? as usize;
        let end = doc.get("end").and_then(Json::as_u64).ok_or("complete missing end")? as usize;
        if end <= start {
            return Err(format!("complete range {start}..{end} is empty"));
        }
        let tally = tally_from_json(doc.get("tally").ok_or("complete missing tally")?)
            .map_err(|e| format!("complete tally: {e}"))?;
        let got = tally.accounted();
        let want = (end - start) as u64;
        if got != want {
            return Err(format!("complete tally accounts {got} injections, range holds {want}"));
        }
        let invariants = match doc.get("invariants") {
            None | Some(Json::Null) => InvariantStats::default(),
            Some(v) => invariant_stats_from_json(v).map_err(|e| format!("complete: {e}"))?,
        };
        let artifact_cache_hits =
            doc.get("artifact_cache_hits").and_then(Json::as_u64).unwrap_or(0);
        Ok(Self { worker, chunk, range: start..end, tally, invariants, artifact_cache_hits })
    }
}

/// Reply to a completion post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteReply {
    /// The tally was merged (false: recognized duplicate, dropped).
    pub accepted: bool,
    /// This post was a duplicate of already-completed work.
    pub duplicate: bool,
    /// The whole campaign is now complete.
    pub done: bool,
}

impl CompleteReply {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("accepted", self.accepted)
            .set("duplicate", self.duplicate)
            .set("done", self.done)
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            accepted: doc
                .get("accepted")
                .and_then(Json::as_bool)
                .ok_or("complete reply missing accepted")?,
            duplicate: doc.get("duplicate").and_then(Json::as_bool).unwrap_or(false),
            done: doc.get("done").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let m = Manifest {
            version: PROTOCOL_VERSION,
            job: 7,
            workload: "stress".into(),
            injections: 500,
            seed: 42,
            kind: FaultKind::Permanent,
            snapshot_every: Some(256),
            golden_cycles: 12345,
            lease_ttl_ms: 10_000,
            invariants: InvariantMode::Full,
            artifacts: vec![ArtifactRef { name: "entry".into(), crc32: 0xdead_beef, len: 4096 }],
        };
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // A manifest from an older coordinator carries no invariants
        // field; the worker defaults rather than refusing it.
        let legacy = {
            let Json::Obj(pairs) = m.to_json() else { panic!("manifest serializes to an object") };
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "invariants").collect())
        };
        assert_eq!(Manifest::from_json(&legacy).unwrap().invariants, InvariantMode::default());
    }

    #[test]
    fn manifest_rejects_future_protocol() {
        let m = Manifest {
            version: PROTOCOL_VERSION,
            job: 1,
            workload: "stress".into(),
            injections: 1,
            seed: 0,
            kind: FaultKind::Transient,
            snapshot_every: None,
            golden_cycles: 1,
            lease_ttl_ms: 1000,
            invariants: InvariantMode::default(),
            artifacts: vec![],
        };
        let doc = m.to_json().set("version", PROTOCOL_VERSION + 1);
        assert!(Manifest::from_json(&doc).is_err());
    }

    #[test]
    fn lease_reply_roundtrips() {
        let grant = LeaseReply::Grant {
            chunk: 3,
            range: 10..20,
            ttl_ms: 5000,
            remaining: 80,
            outstanding: 2,
        };
        assert_eq!(LeaseReply::from_json(&grant.to_json()).unwrap(), grant);
        let empty = LeaseReply::Empty { done: true };
        assert_eq!(LeaseReply::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn complete_request_validates_accounting() {
        let mut tally = CampaignTally::empty();
        tally.apply_hung();
        let stats = InvariantStats {
            mode: "full".into(),
            checks_run: 12,
            violations: 1,
            per_invariant: vec![("tally-accounts-done".into(), 1)],
            examples: vec![("tally-accounts-done".into(), "accounted 3, covered 4".into())],
        };
        let req = CompleteRequest {
            worker: "w1".into(),
            chunk: 1,
            range: 0..1,
            tally,
            invariants: stats.clone(),
            artifact_cache_hits: 3,
        };
        let back = CompleteRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.range, 0..1);
        assert_eq!(back.tally.hung, 1);
        assert_eq!(back.invariants, stats, "invariant delta survives the wire");
        assert_eq!(back.artifact_cache_hits, 3, "cache-hit count survives the wire");
        // A tally accounting fewer injections than the range is a
        // protocol violation, not a partial credit.
        let bad = req.to_json().set("end", 5u64);
        assert!(CompleteRequest::from_json(&bad).is_err());
    }
}
