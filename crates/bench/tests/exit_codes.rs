//! `figures` honors the workspace exit-code convention (the shared
//! `jpmd_store::cli` contract): a bad invocation exits 2 with the usage
//! text before anything runs, so a typo never overwrites a saved result.
//! Tested by spawning the real binary.

use std::path::Path;
use std::process::Command;

#[test]
fn bad_invocations_exit_2_and_leave_saved_results_alone() {
    let fig8 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig8.json");
    let saved = std::fs::read(&fig8).ok();
    for args in [
        &[][..],
        &["fig99"][..],
        &["csv"][..],
        &["fig8", "--part", "bogus", "--quick"][..],
        &["fig8", "--quick", "--part"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("spawn figures");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
        assert!(
            std::fs::read(&fig8).ok() == saved,
            "args {args:?} rewrote {}",
            fig8.display()
        );
    }
}
