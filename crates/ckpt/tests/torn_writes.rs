//! Crash-window property tests: whatever prefix of a checkpoint survives
//! a torn write, and whatever single byte rots afterwards, loading is a
//! typed error — never a panic, and never a silently wrong resume point.
//! A stale temp file from a crashed save never shadows the good file.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use jpmd_ckpt::{load_checkpoint, save_checkpoint, CkptError, CkptMeta};
use jpmd_core::methods;
use jpmd_core::SimScale;
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{WorkloadBuilder, MIB};
use proptest::prelude::*;

/// Captures one real checkpoint from a short always-on run.
fn capture_checkpoint() -> SimCheckpoint {
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(64 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(600.0)
        .seed(7)
        .build()
        .expect("workload builds");
    let spec = methods::always_on(&scale);
    let mut captured = None;
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured = Some(ckpt);
        false
    };
    let outcome = methods::simulation(&spec, &scale, 60.0, 120.0, &Telemetry::disabled())
        .and_then(|sim| {
            sim.checkpoints(Some(CheckpointOptions {
                policy: CheckpointPolicy::every(1),
                on_checkpoint: &mut on_checkpoint,
            }))
            .run(trace.source(), 600.0)
        })
        .expect("capture run");
    assert_eq!(outcome, SimOutcome::Interrupted);
    captured.expect("one checkpoint captured")
}

/// The bytes of one good `.jck` file, built once and shared by every
/// property case.
fn good_bytes() -> &'static [u8] {
    static GOOD: OnceLock<Vec<u8>> = OnceLock::new();
    GOOD.get_or_init(|| {
        let path = scratch("seed");
        save_checkpoint(&path, &CkptMeta::chaos_small(1, 42), &capture_checkpoint())
            .expect("save seed checkpoint");
        let bytes = fs::read(&path).expect("read seed checkpoint");
        fs::remove_file(&path).ok();
        bytes
    })
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jpmd-ckpt-torn-{tag}-{}.jck", std::process::id()))
}

fn load_bytes(tag: &str, bytes: &[u8]) -> Result<(), CkptError> {
    let path = scratch(tag);
    fs::write(&path, bytes).expect("write mutated checkpoint");
    let result = load_checkpoint(&path).map(|_| ());
    fs::remove_file(&path).ok();
    result
}

proptest! {
    // A write torn at *any* byte offset loads as CkptError::Torn.
    #[test]
    fn truncation_at_any_offset_is_torn(cut_seed in any::<u64>()) {
        let bytes = good_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        match load_bytes("truncate", &bytes[..cut]) {
            Err(CkptError::Torn { .. }) => {}
            other => prop_assert!(false, "cut at {cut}: expected Torn, got {other:?}"),
        }
    }

    // Any single rotten byte is detected (magic, version, CRCs, payload —
    // somebody always notices).
    #[test]
    fn single_byte_rot_is_detected(offset_seed in any::<u64>(), xor in 1u8..=255) {
        let mut bytes = good_bytes().to_vec();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= xor;
        let result = load_bytes("rot", &bytes);
        prop_assert!(
            result.is_err(),
            "flip at {offset} (xor {xor:#04x}) must not load silently"
        );
    }
}

#[test]
fn a_stale_temp_file_never_shadows_the_good_checkpoint() {
    let path = scratch("stale");
    let ckpt = capture_checkpoint();
    save_checkpoint(&path, &CkptMeta::chaos_small(1, 42), &ckpt).expect("save");

    // A crashed later save leaves a torn sibling behind; the published
    // file still loads, the sibling is typed garbage.
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        Path::new(&path).file_name().unwrap().to_string_lossy()
    ));
    fs::write(&tmp, &good_bytes()[..40]).expect("write stale tmp");
    let (meta, loaded) = load_checkpoint(&path).expect("good file still loads");
    assert_eq!(meta, CkptMeta::chaos_small(1, 42));
    assert_eq!(loaded.telemetry_seq, ckpt.telemetry_seq);
    assert!(
        load_checkpoint(&tmp).is_err(),
        "the torn sibling is rejected"
    );

    // The next successful save sweeps the same temp name and republishes.
    save_checkpoint(&path, &CkptMeta::chaos_small(2, 43), &ckpt).expect("resave");
    let (meta, _) = load_checkpoint(&path).expect("republished file loads");
    assert_eq!(meta.seed, 2);
    fs::remove_file(&path).ok();
    fs::remove_file(&tmp).ok();
}
