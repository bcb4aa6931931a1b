//! Byte pins for the three binary formats: a `.jpt` trace store, a `.jx`
//! period index and two `.jck` manifests. Each file is written through its
//! public writer, and its CRC-32 must match the table below. A refactor of
//! the header code keeps every pin; a change that moves a byte on disk
//! shows up here before any reader notices.

use std::io::Cursor;
use std::path::PathBuf;

use jpmd::store::{crc32, IndexEntry, PeriodIndexWriter, TraceWriter};
use jpmd::trace::{AccessKind, FileId, TraceRecord};
use jpmd_ckpt::{save_manifest, save_tenant_manifest, FleetManifest, TenantEntry, TenantManifest};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jpmd-format-pins-{}-{name}", std::process::id()))
}

fn record(i: u64) -> TraceRecord {
    TraceRecord {
        time: i as f64 * 0.25,
        file: FileId((i % 7) as u32),
        first_page: i * 3 % 4000,
        pages: 1 + i % 5,
        kind: if i.is_multiple_of(3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    }
}

/// A sealed store of 300 records on 256-byte pages (37 pages).
fn sealed_store() -> Vec<u8> {
    let mut writer =
        TraceWriter::with_page_size(Cursor::new(Vec::new()), 1 << 20, 4096, 256).unwrap();
    for i in 0..300 {
        writer.write_record(&record(i)).unwrap();
    }
    writer.finish().unwrap().into_inner()
}

/// The 64-byte header a writer leaves when it is dropped unfinished.
fn unfinished_header() -> Vec<u8> {
    let path = scratch("unfinished.jpt");
    let mut writer = TraceWriter::create(&path, 1 << 20, 4096).unwrap();
    writer.write_record(&record(0)).unwrap();
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes[..64].to_vec()
}

fn period_index() -> Vec<u8> {
    let path = scratch("index.jx");
    let mut writer = PeriodIndexWriter::create(&path, 16).unwrap();
    for k in 0..10u64 {
        writer
            .append(IndexEntry {
                period: k * 100,
                seq: k * 16 + 1,
                offset: k * 1000 + 24,
            })
            .unwrap();
    }
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn fleet_manifest() -> Vec<u8> {
    let path = scratch("fleet.jck");
    let manifest = FleetManifest::new("fleet-coordinated", 42)
        .with_shard(0, "shard0.jck", Some("shard0.jsonl".into()))
        .with_shard(1, "shard1.jck", None);
    save_manifest(&path, &manifest).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn tenant_manifest() -> Vec<u8> {
    let path = scratch("tenants.jck");
    let mut manifest = TenantManifest::new("serve", 9);
    manifest.tenants.push(TenantEntry {
        name: "alpha".into(),
        pages: 4096,
        records: 1200,
        acked: 1200,
        checkpoint: "alpha.jck".into(),
        telemetry: Some("alpha.jsonl".into()),
    });
    save_tenant_manifest(&path, &manifest).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn every_format_writes_its_pinned_bytes() {
    let cases: [(&str, Vec<u8>, u32); 5] = [
        ("sealed .jpt", sealed_store(), 0x1d85_7dd3),
        ("unfinished .jpt header", unfinished_header(), 0x2144_df1c),
        (".jx index", period_index(), 0xa01c_cda0),
        ("fleet manifest .jck", fleet_manifest(), 0xaa2b_fcca),
        ("tenant manifest .jck", tenant_manifest(), 0xfb39_ffc1),
    ];
    let mut failures = Vec::new();
    for (name, bytes, pinned) in &cases {
        let digest = crc32(bytes);
        println!("{name:<24} {:>6} bytes  {digest:#010x}", bytes.len());
        if digest != *pinned {
            failures.push(format!("{name}: {digest:#010x}, pinned {pinned:#010x}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
