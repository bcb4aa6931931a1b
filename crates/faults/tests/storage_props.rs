//! Storage-fault property test: a [`FaultyStorage`] with a disabled
//! [`IoFaultPlan`] is invisible, over arbitrary seeds. A `.jpt` trace
//! written through it is byte-identical to one written straight to the
//! filesystem, and nothing is injected.

use std::path::PathBuf;

use jpmd_faults::{FaultyStorage, IoFaultPlan, SharedBackend};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn disabled_plan_trace_store_is_byte_identical_to_direct_fs(seed in any::<u64>()) {
        use jpmd_store::TraceWriter;
        use jpmd_trace::{AccessKind, FileId, TraceRecord};
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "jpmd-storage-ident-{}-{seed:016x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = |i: u64| TraceRecord {
            time: i as f64,
            file: FileId(1),
            first_page: (seed.wrapping_add(i)) % 100,
            pages: 1,
            kind: if i.is_multiple_of(2) { AccessKind::Read } else { AccessKind::Write },
        };
        let direct = dir.join("direct.jpt");
        let wrapped = dir.join("wrapped.jpt");
        {
            let mut w = TraceWriter::create(&direct, 4096, 100).unwrap();
            for i in 0..200 { w.write_record(&rec(i)).unwrap(); }
            w.finish_durable().unwrap();
        }
        {
            let storage = FaultyStorage::new(IoFaultPlan { seed, ..IoFaultPlan::disabled() });
            let monitor = storage.monitor();
            let mut w = TraceWriter::create_on(SharedBackend::from(storage), &wrapped, 4096, 100).unwrap();
            for i in 0..200 { w.write_record(&rec(i)).unwrap(); }
            w.finish_durable().unwrap();
            prop_assert_eq!(monitor.injected().total(), 0);
        }
        prop_assert_eq!(std::fs::read(&direct).unwrap(), std::fs::read(&wrapped).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
