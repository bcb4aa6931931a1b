//! Criterion microbenchmarks for the hot paths of the simulator: the
//! stack-distance profiler, the LRU cache, the per-size predictor, the
//! Pareto fit, one joint decision, and the disk model. These are the
//! operations whose cost the paper argues is negligible against the
//! 10-minute period ("shorter than 100 ms every period"); the `joint
//! decision` benchmark checks our implementation meets the same budget.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use jpmd_core::{predict_sizes, JointConfig, JointPolicy, SimScale};
use jpmd_disk::{Disk, DiskPowerModel, ServiceModel};
use jpmd_mem::{AccessLog, DiskCache, IdlePolicy, StackProfiler};
use jpmd_sim::{PeriodController, PeriodObservation};
use jpmd_stats::{fit, IdleIntervals, Pareto};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic period log: `n` accesses with Zipf-ish reuse.
fn synth_log(n: usize, pages: u64) -> AccessLog {
    let mut rng = StdRng::seed_from_u64(7);
    let mut profiler = StackProfiler::new();
    let mut log = AccessLog::new();
    for i in 0..n {
        let r: f64 = rng.gen();
        let page = (pages as f64 * r * r) as u64; // quadratic skew
        log.record(i as f64 * 0.01, page, profiler.observe(page));
    }
    log
}

fn bench_stack_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("stack_profiler");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("observe_10k_zipf", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let pages: Vec<u64> = (0..10_000)
            .map(|_| {
                let r: f64 = rng.gen();
                (65_536.0 * r * r) as u64
            })
            .collect();
        b.iter_batched(
            StackProfiler::new,
            |mut p| {
                for &page in &pages {
                    black_box(p.observe(page));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk_cache");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("access_10k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let pages: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..32_768)).collect();
        b.iter_batched(
            || DiskCache::new(1024, 16),
            |mut cache| {
                for &page in &pages {
                    black_box(cache.access(page));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let log = synth_log(60_000, 16_384);
    let candidates: Vec<u64> = (0..=1024u64).map(|b| b * 16).collect();
    let mut group = c.benchmark_group("predictor");
    group.bench_function("predict_1025_sizes_over_60k_log", |b| {
        b.iter(|| black_box(predict_sizes(&log, &candidates, 0.1)));
    });
    group.finish();
}

fn bench_pareto(c: &mut Criterion) {
    let mut group = c.benchmark_group("pareto");
    group.bench_function("moment_fit", |b| {
        b.iter(|| black_box(fit::pareto_from_mean(black_box(2.37), 0.1)));
    });
    let truth = Pareto::new(1.7, 0.1).expect("valid");
    let mut rng = StdRng::seed_from_u64(3);
    let samples = truth.sample_n(&mut rng, 10_000);
    group.bench_function("mle_fit_10k", |b| {
        b.iter(|| black_box(fit::pareto_mle(&samples, 0.1)));
    });
    let ts: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.13).collect();
    group.bench_function("idle_extraction_10k", |b| {
        b.iter(|| black_box(IdleIntervals::from_timestamps(&ts, 0.1)));
    });
    group.finish();
}

fn bench_joint_decision(c: &mut Criterion) {
    // One full period decision over a realistic 60k-access log at the
    // paper scale (8192 banks): must stay well under the paper's 100 ms.
    let scale = SimScale::default();
    let sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    let log = synth_log(60_000, 65_536);
    let obs = PeriodObservation {
        start: 0.0,
        end: 600.0,
        cache_accesses: log.len() as u64,
        disk_page_accesses: 3_000,
        disk_requests: 400,
        disk_busy_secs: 50.0,
        idle: IdleIntervals::default().stats(),
        delayed_page_accesses: 0,
        enabled_banks: scale.total_banks(),
        disk_timeout: 11.7,
        energy_total_j: 0.0,
    };
    let mut group = c.benchmark_group("joint");
    group.bench_function("period_decision_60k_log", |b| {
        b.iter_batched(
            || JointPolicy::new(JointConfig::from_sim(&sim)),
            |mut policy| black_box(policy.on_period_end(&obs, &log)),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_disk(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("submit_1k_with_spindown", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let reqs: Vec<(f64, u64)> = {
            let mut t = 0.0;
            (0..1_000)
                .map(|_| {
                    t += rng.gen_range(0.01..30.0);
                    (t, rng.gen_range(0..100_000))
                })
                .collect()
        };
        b.iter_batched(
            || {
                let mut d = Disk::new(
                    DiskPowerModel::default(),
                    ServiceModel::scaled_pages(),
                    131_072,
                );
                d.set_timeout(11.7);
                d
            },
            |mut disk| {
                for &(t, page) in &reqs {
                    black_box(disk.submit(t, page, 4, 1 << 20));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_routed_predict(c: &mut Criterion) {
    // The multi-disk variant: per-route gap merging over the same log.
    let log = synth_log(60_000, 16_384);
    let candidates: Vec<u64> = (0..=1024u64).map(|b| b * 16).collect();
    let mut group = c.benchmark_group("predictor");
    group.bench_function("routed_4_disks_1025_sizes_60k_log", |b| {
        b.iter(|| {
            black_box(jpmd_core::predict_sizes_routed(
                &log,
                &candidates,
                0.1,
                |page| (page % 4) as usize,
                4,
            ))
        });
    });
    group.finish();
}

fn bench_multispeed(c: &mut Criterion) {
    use jpmd_disk::{MultiSpeedDisk, MultiSpeedModel, SpeedPolicy};
    let mut group = c.benchmark_group("disk");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("multispeed_submit_1k_drpm", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let reqs: Vec<(f64, u64)> = {
            let mut t = 0.0;
            (0..1_000)
                .map(|_| {
                    t += rng.gen_range(0.01..30.0);
                    (t, rng.gen_range(0..100_000))
                })
                .collect()
        };
        b.iter_batched(
            || {
                MultiSpeedDisk::new(
                    MultiSpeedModel::default(),
                    SpeedPolicy::UtilizationDriven {
                        low: 0.2,
                        high: 0.7,
                        window_s: 60.0,
                    },
                    131_072,
                )
            },
            |mut disk| {
                for &(t, page) in &reqs {
                    black_box(disk.submit(t, page, 4, 1 << 20));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_evacuation(c: &mut Criterion) {
    // Consolidation primitive: drain a full 16-frame bank into free space.
    let mut group = c.benchmark_group("disk_cache");
    group.bench_function("evacuate_one_bank_of_16", |b| {
        b.iter_batched(
            || {
                let mut cache = DiskCache::new(64, 16);
                for p in 0..16u64 {
                    cache.access(p);
                }
                cache
            },
            |mut cache| black_box(cache.evacuate_bank(0)),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_obs_handles(c: &mut Criterion) {
    // The disabled-handle contract: a metric handle from a disabled
    // registry must cost one branch — indistinguishable from no
    // instrumentation at all on the hot path.
    use jpmd_obs::{MetricsRegistry, Telemetry};
    let mut group = c.benchmark_group("obs");
    group.throughput(Throughput::Elements(10_000));
    let live = MetricsRegistry::new().counter("bench.events");
    let dead = MetricsRegistry::disabled().counter("bench.events");
    group.bench_function("counter_enabled_10k", |b| {
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(&live).inc();
            }
        });
    });
    group.bench_function("counter_disabled_10k", |b| {
        b.iter(|| {
            for _ in 0..10_000 {
                black_box(&dead).inc();
            }
        });
    });
    group.bench_function("loop_baseline_10k", |b| {
        b.iter(|| {
            for i in 0..10_000u64 {
                black_box(i);
            }
        });
    });
    let off = Telemetry::disabled();
    group.bench_function("emit_with_disabled_10k", |b| {
        b.iter(|| {
            for i in 0..10_000u64 {
                // The closure must never run on a disabled handle.
                off.emit_with(|| jpmd_obs::ObsEvent::Message {
                    text: format!("never built {i}"),
                });
            }
        });
    });
    group.finish();
}

fn bench_engine_telemetry_overhead(c: &mut Criterion) {
    // The overhead contract from DESIGN.md: replaying a trace with
    // telemetry wired to a null sink must stay within a few percent of
    // the uninstrumented replay (the disabled path must be ≈ free).
    // Compare `replay_disabled` against `replay_null_sink` in the report.
    use jpmd_core::methods;
    use jpmd_obs::{NullSink, Telemetry};
    use jpmd_trace::{WorkloadBuilder, GIB, MIB};
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(700.0)
        .seed(9)
        .build()
        .expect("workload");
    let spec = methods::joint(&scale);
    let mut group = c.benchmark_group("obs_engine");
    group.bench_function("replay_disabled", |b| {
        b.iter(|| {
            black_box(
                methods::simulation(&spec, &scale, 0.0, 300.0, &Telemetry::disabled())
                    .and_then(|sim| sim.run(trace.source(), 700.0))
                    .expect("in-memory source")
                    .into_report()
                    .expect("no checkpoint policy was installed"),
            )
        });
    });
    group.bench_function("replay_null_sink", |b| {
        b.iter(|| {
            let telemetry = Telemetry::new(Box::new(NullSink));
            black_box(
                methods::simulation(&spec, &scale, 0.0, 300.0, &telemetry)
                    .and_then(|sim| sim.run(trace.source(), 700.0))
                    .expect("in-memory source")
                    .into_report()
                    .expect("no checkpoint policy was installed"),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stack_profiler,
    bench_cache,
    bench_predict,
    bench_routed_predict,
    bench_pareto,
    bench_joint_decision,
    bench_disk,
    bench_multispeed,
    bench_evacuation,
    bench_obs_handles,
    bench_engine_telemetry_overhead
);
criterion_main!(benches);
