//! Whole-fleet checkpoint manifest: one `.jck` that names every shard's
//! own checkpoint and telemetry WAL, published with the same atomic
//! write-temp-then-rename protocol as a single checkpoint.
//!
//! A fleet run (N engines, one disk/cache pair each — `jpmd-fleet`)
//! cannot put all shards in one [`SimCheckpoint`]: shards run on worker
//! threads and checkpoint at their own period boundaries. Instead each
//! shard keeps its own `.jck` + `.jsonl` pair (the proven single-engine
//! protocol, unchanged), and the **manifest** ties the fleet together:
//! run identity, the shard roster with per-shard file paths, and a
//! free-form `extra` payload for the driver (the fleet coordinator stores
//! its per-shard per-period allocation plan there, so a resumed
//! coordinated run replays the *same* plan without re-running the
//! bidding pass).
//!
//! Crash safety composes: the manifest is written before the shards
//! start (it is pure metadata — nothing in it changes as shards
//! progress), each shard checkpoint seals against its own WAL, and a
//! crash at any instant leaves either no manifest (nothing to resume) or
//! a manifest whose shard entries point at files that are themselves
//! either absent (shard restarts from scratch), torn (typed
//! [`CkptError::Torn`]), or good.

use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::error::CkptError;
use crate::format;

/// One shard's row in the fleet roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard id (the tag its telemetry records carry).
    pub shard: u32,
    /// Path of the shard's own `.jck` checkpoint file. Absent on disk
    /// until the shard's first checkpoint seals.
    pub checkpoint: String,
    /// Path of the shard's telemetry WAL, if the run streams telemetry.
    pub telemetry: Option<String>,
}

/// The fleet manifest: run identity plus the shard roster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest {
    /// The recipe that produced the fleet run (free-form, like
    /// [`CkptMeta::kind`](crate::CkptMeta::kind)).
    pub kind: String,
    /// The fleet's primary seed (workload/partitioner).
    pub seed: u64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardEntry>,
    /// Driver-owned payload ([`Value::Null`] when unused): the fleet
    /// coordinator persists its allocation plan here so a resume replays
    /// identical decisions.
    pub extra: Value,
}

impl FleetManifest {
    /// An empty manifest for a run of the given kind and seed.
    pub fn new(kind: impl Into<String>, seed: u64) -> Self {
        FleetManifest {
            kind: kind.into(),
            seed,
            shards: Vec::new(),
            extra: Value::Null,
        }
    }

    /// Appends one shard entry.
    #[must_use]
    pub fn with_shard(
        mut self,
        shard: u32,
        checkpoint: impl Into<String>,
        telemetry: Option<String>,
    ) -> Self {
        self.shards.push(ShardEntry {
            shard,
            checkpoint: checkpoint.into(),
            telemetry,
        });
        self
    }

    /// Attaches the driver payload.
    #[must_use]
    pub fn with_extra(mut self, extra: Value) -> Self {
        self.extra = extra;
        self
    }
}

/// One tenant's row in a serving daemon's roster (`jpmd-serve`).
///
/// Unlike fleet shards, tenants are named, arrive and depart at runtime,
/// and carry the stream parameters (`pages`) a resume needs to rebuild
/// the tenant's policy stack identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantEntry {
    /// Tenant name (the wire-protocol identifier).
    pub name: String,
    /// Page-space size of the tenant's stream (checkpoint/resume must
    /// agree on it — it sizes the simulated hardware).
    pub pages: u64,
    /// Records the daemon had accepted for this tenant when the manifest
    /// sealed (informational; the checkpoint holds the binding cursor).
    pub records: u64,
    /// The tenant's feed ack watermark at seal: the highest contiguously
    /// applied client-assigned feed seq (0 before any sequenced feed).
    /// Restored on resume so replay after a daemon restart stays
    /// exactly-once. Defaults to 0 when absent (pre-seq manifests).
    #[serde(default)]
    pub acked: u64,
    /// Path of the tenant's own `.jck` checkpoint file.
    pub checkpoint: String,
    /// Path of the tenant's telemetry WAL, if the daemon streams
    /// telemetry.
    pub telemetry: Option<String>,
}

/// The serving daemon's shutdown manifest: which tenants were live, and
/// where each one's sealed checkpoint and WAL live. Written *after* every
/// tenant checkpoint seals (the reverse of the fleet manifest's
/// write-first protocol, because the roster isn't known until shutdown);
/// a crash mid-seal leaves either no manifest (cold start) or a manifest
/// whose entries all point at sealed files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantManifest {
    /// The daemon recipe (free-form, like
    /// [`CkptMeta::kind`](crate::CkptMeta::kind)).
    pub kind: String,
    /// The daemon's configuration seed, when one applies.
    pub seed: u64,
    /// One entry per live tenant, in name order.
    pub tenants: Vec<TenantEntry>,
    /// Driver-owned payload ([`Value::Null`] when unused).
    pub extra: Value,
}

impl TenantManifest {
    /// An empty manifest for a daemon of the given kind and seed.
    pub fn new(kind: impl Into<String>, seed: u64) -> Self {
        TenantManifest {
            kind: kind.into(),
            seed,
            tenants: Vec::new(),
            extra: Value::Null,
        }
    }
}

/// Publishes a tenant manifest with the crash-consistent `.jck` write
/// protocol.
///
/// # Errors
///
/// Propagates I/O failures as [`CkptError::Io`].
pub fn save_tenant_manifest(
    path: impl AsRef<Path>,
    manifest: &TenantManifest,
) -> Result<(), CkptError> {
    let root = Value::Object(vec![(
        "tenant_manifest".to_string(),
        Serialize::to_value(manifest),
    )]);
    format::write_jck(path.as_ref(), &root)
}

/// Loads and validates a tenant manifest.
///
/// # Errors
///
/// The same typed defects as [`load_manifest`]; an intact `.jck` that is
/// a fleet manifest or a checkpoint is [`CkptError::Decode`].
pub fn load_tenant_manifest(path: impl AsRef<Path>) -> Result<TenantManifest, CkptError> {
    let root = format::read_jck(path.as_ref())?;
    let manifest = root.get("tenant_manifest").ok_or_else(|| {
        CkptError::Decode(
            "top-level field 'tenant_manifest' missing (not a tenant manifest)".to_string(),
        )
    })?;
    <TenantManifest as Deserialize>::from_value(manifest)
        .map_err(|e| CkptError::Decode(format!("tenant_manifest: {e}")))
}

/// Publishes `manifest` to `path` with the crash-consistent `.jck` write
/// protocol (temp file, unsealed header until sealed, fsync, atomic
/// rename, parent-directory fsync).
///
/// # Errors
///
/// Propagates I/O failures as [`CkptError::Io`].
pub fn save_manifest(path: impl AsRef<Path>, manifest: &FleetManifest) -> Result<(), CkptError> {
    let root = Value::Object(vec![(
        "manifest".to_string(),
        Serialize::to_value(manifest),
    )]);
    format::write_jck(path.as_ref(), &root)
}

/// Loads and validates a fleet manifest.
///
/// # Errors
///
/// The same typed defects as
/// [`load_checkpoint`](crate::load_checkpoint): [`CkptError::BadMagic`],
/// [`CkptError::UnsupportedVersion`], [`CkptError::Torn`] for physical
/// damage, and [`CkptError::Decode`] for an intact `.jck` that is not a
/// manifest (e.g. a single-run checkpoint).
pub fn load_manifest(path: impl AsRef<Path>) -> Result<FleetManifest, CkptError> {
    let root = format::read_jck(path.as_ref())?;
    let manifest = root.get("manifest").ok_or_else(|| {
        CkptError::Decode("top-level field 'manifest' missing (not a fleet manifest)".to_string())
    })?;
    <FleetManifest as Deserialize>::from_value(manifest)
        .map_err(|e| CkptError::Decode(format!("manifest: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jpmd-manifest-{}-{name}", std::process::id()))
    }

    fn sample() -> FleetManifest {
        FleetManifest::new("fleet-coordinated", 42)
            .with_shard(0, "/runs/shard0.jck", Some("/runs/shard0.jsonl".into()))
            .with_shard(1, "/runs/shard1.jck", None)
            .with_extra(Value::Array(vec![Value::U64(4), Value::U64(2)]))
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let path = temp_path("roundtrip.jck");
        let manifest = sample();
        save_manifest(&path, &manifest).unwrap();
        assert_eq!(load_manifest(&path).unwrap(), manifest);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_checkpoint_is_not_a_manifest() {
        // save_checkpoint writes {"meta", "checkpoint"}; loading it as a
        // manifest must be a typed decode error, not a panic.
        let path = temp_path("not-a-manifest.jck");
        let root = Value::Object(vec![("meta".to_string(), Value::Null)]);
        format::write_jck(&path, &root).unwrap();
        match load_manifest(&path) {
            Err(CkptError::Decode(_)) => {}
            other => panic!("expected Decode error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_torn() {
        let path = temp_path("torn.jck");
        save_manifest(&path, &sample()).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match load_manifest(&path) {
            Err(CkptError::Torn { .. }) => {}
            other => panic!("expected Torn error, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn tenant_manifest_round_trips_and_is_distinct() {
        let path = temp_path("tenants.jck");
        let mut manifest = TenantManifest::new("serve", 9);
        manifest.tenants.push(TenantEntry {
            name: "alpha".into(),
            pages: 4096,
            records: 120_000,
            acked: 120_000,
            checkpoint: "/runs/alpha.jck".into(),
            telemetry: Some("/runs/alpha.jsonl".into()),
        });
        manifest.tenants.push(TenantEntry {
            name: "beta".into(),
            pages: 2048,
            records: 7,
            acked: 0,
            checkpoint: "/runs/beta.jck".into(),
            telemetry: None,
        });
        save_tenant_manifest(&path, &manifest).unwrap();
        assert_eq!(load_tenant_manifest(&path).unwrap(), manifest);
        // A fleet manifest is not a tenant manifest, and vice versa.
        assert!(matches!(load_manifest(&path), Err(CkptError::Decode(_))));
        let fleet_path = temp_path("fleet-not-tenant.jck");
        save_manifest(&fleet_path, &sample()).unwrap();
        assert!(matches!(
            load_tenant_manifest(&fleet_path),
            Err(CkptError::Decode(_))
        ));
        fs::remove_file(&path).ok();
        fs::remove_file(&fleet_path).ok();
    }

    #[test]
    fn manifest_rejects_foreign_bytes() {
        let path = temp_path("foreign.jck");
        fs::write(&path, b"definitely not a jck file at all............").unwrap();
        assert!(matches!(
            load_manifest(&path),
            Err(CkptError::BadMagic { .. })
        ));
        fs::remove_file(&path).ok();
    }
}
