//! Backend-seam identity tests: routing the writers through
//! [`SharedBackend::real_fs`] (the `Box<dyn StorageFile>` path) produces
//! files byte-identical to the direct `File` path, so threading the
//! fault seam through the durability stack changed nothing when faults
//! are off.

use std::path::PathBuf;

use jpmd_store::{
    index_path, read_trace, IndexEntry, PeriodIndex, PeriodIndexWriter, RealFs, SharedBackend,
    TraceWriter,
};
use jpmd_trace::{AccessKind, FileId, TraceRecord};

fn scratch(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "jpmd-store-ident-{tag}-{}.{ext}",
        std::process::id()
    ))
}

fn rec(time: f64, first_page: u64) -> TraceRecord {
    TraceRecord {
        time,
        file: FileId(1),
        first_page,
        pages: 1,
        kind: AccessKind::Read,
    }
}

#[test]
fn trace_writer_backend_path_is_byte_identical_to_direct() {
    let direct = scratch("trace-direct", "jpt");
    let wrapped = scratch("trace-wrapped", "jpt");
    {
        let mut w = TraceWriter::create(&direct, 4096, 100).unwrap();
        for i in 0..500u64 {
            w.write_record(&rec(i as f64, i % 100)).unwrap();
        }
        w.finish_durable().unwrap();
    }
    {
        let mut w = TraceWriter::create_on(SharedBackend::real_fs(), &wrapped, 4096, 100).unwrap();
        for i in 0..500u64 {
            w.write_record(&rec(i as f64, i % 100)).unwrap();
        }
        w.finish_durable().unwrap();
    }
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&wrapped).unwrap()
    );
    assert_eq!(read_trace(&wrapped).unwrap().records().len(), 500);
    std::fs::remove_file(&direct).ok();
    std::fs::remove_file(&wrapped).ok();
}

#[test]
fn index_writer_backend_path_is_byte_identical_to_direct() {
    let direct = scratch("idx-direct", "jsonl");
    let wrapped = scratch("idx-wrapped", "jsonl");
    let entries: Vec<IndexEntry> = (0..32)
        .map(|i| IndexEntry {
            period: i,
            seq: i * 3,
            offset: i * 100,
        })
        .collect();
    {
        let mut w = PeriodIndexWriter::create(index_path(&direct), 4).unwrap();
        for entry in &entries {
            w.append(*entry).unwrap();
        }
    }
    {
        let mut w = PeriodIndexWriter::create_on(&RealFs, index_path(&wrapped), 4).unwrap();
        for entry in &entries {
            w.append(*entry).unwrap();
        }
    }
    assert_eq!(
        std::fs::read(index_path(&direct)).unwrap(),
        std::fs::read(index_path(&wrapped)).unwrap()
    );
    assert_eq!(PeriodIndex::load(index_path(&wrapped)).unwrap().len(), 32);
    std::fs::remove_file(index_path(&direct)).ok();
    std::fs::remove_file(index_path(&wrapped)).ok();
}
