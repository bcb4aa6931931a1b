//! Building and running simulations: [`Simulation`] wires the standard
//! observer stack to the event-driven [`Engine`] for every kind of run —
//! batch or incremental, in-memory or streamed, checkpointed or faulted,
//! one disk or many — and [`PolicyStepper`] assembles the [`RunReport`].

use std::time::Instant;

use jpmd_disk::SpinDownPolicy;
use jpmd_obs::{ObsEvent, SpanGuard, SpanRecorder, Telemetry};
use jpmd_trace::{SourceError, TraceRecord, TraceSource};
use serde::{Deserialize, Serialize};

use crate::{
    engine::{CheckpointPolicy, EngineCheckpoint},
    EnergyMeter, Engine, FaultInjector, FlushDaemon, HwState, LatencyTracker, PeriodAccounting,
    PeriodController, PeriodRow, RunReport, SimConfig, SimObserver, TelemetryObserver,
    TimedController, WarmupWindow,
};

/// A crash-consistent image of a full simulation run in flight: the
/// engine-level checkpoint plus the run identity and telemetry cursor.
/// This is what `jpmd-ckpt` serializes into `.jck` files.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// The interrupted run's label (resume asserts it matches).
    pub label: String,
    /// The interrupted run's target duration, s (resume asserts it
    /// matches).
    pub duration: f64,
    /// The telemetry sequence counter at the capture instant; resume
    /// fast-forwards the handle here so the combined event stream stays
    /// gap-free.
    pub telemetry_seq: u64,
    /// Span call counts at the capture instant (the deterministic half of
    /// the span aggregate).
    pub span_calls: Vec<(String, u64)>,
    /// The engine's checkpoint: stats, clock, hardware, observers.
    pub engine: EngineCheckpoint,
}

/// Outcome of a checkpointable simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// The run reached its target duration; the report is final.
    Completed(Box<RunReport>),
    /// The run stopped early at a checkpoint (cooperative shutdown, or the
    /// checkpoint callback returned `false`). The last checkpoint handed
    /// to the callback is the resume point; no report exists.
    Interrupted,
}

impl SimOutcome {
    /// The completed report, or `None` for an interrupted run.
    pub fn into_report(self) -> Option<RunReport> {
        match self {
            SimOutcome::Completed(report) => Some(*report),
            SimOutcome::Interrupted => None,
        }
    }
}

/// Checkpointing configuration of a batch [`Simulation::run`]: when to
/// capture, and where captured checkpoints go. The callback returns
/// whether the run should continue (`false` stops it, leaving the
/// just-delivered checkpoint as the resume point).
pub struct CheckpointOptions<'a> {
    /// When checkpoints are captured.
    pub policy: CheckpointPolicy,
    /// Receives each captured checkpoint.
    pub on_checkpoint: &'a mut dyn FnMut(SimCheckpoint) -> bool,
}

/// Wraps a checkpoint-restore decode failure as a [`SourceError`] so a run
/// keeps a single error type.
fn restore_error(e: serde::Error) -> SourceError {
    SourceError::new(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checkpoint restore failed: {e}"),
    ))
}

/// One simulation run, built up from its configuration, spin-down policy,
/// period controller and label, then run in batch ([`Simulation::run`])
/// or started incrementally ([`Simulation::start`]).
///
/// The pipeline is paper Fig. 6(b): each trace record's pages are looked
/// up in the disk cache in order; missed pages are coalesced into
/// contiguous runs, each becoming one disk request (split across member
/// disks by the [`ArrayConfig`](crate::ArrayConfig) layout); the
/// controller learns that array once, at start
/// ([`PeriodController::on_start`]), and is invoked at every period
/// boundary.
///
/// * Hits have zero latency; every page of a missed run inherits the run's
///   request latency (queueing + spin-up + service, the slowest member's
///   on an array). Accesses with latency above the configured threshold
///   count as *long-latency* (paper: 0.5 s).
/// * Metrics and energy cover the window after
///   [`SimConfig::warmup_secs`]; per-period rows cover the whole run.
/// * The trace is open-loop, as in the paper: request arrival times are
///   fixed by the trace and do not shift when requests are delayed.
///
/// Options, all off by default:
///
/// * [`Simulation::telemetry`] — run lifecycle, per-period traffic and
///   span events go through the handle, and the engine publishes its
///   end-of-run counters into its registry. The report stays
///   bit-identical to the uninstrumented run's: the telemetry observer
///   only reads hardware state, and span wall-clock fields are excluded
///   from report equality.
/// * [`Simulation::fault_injector`] — a [`FaultInjector`] consulted at the
///   hardware seams (what `jpmd-faults` uses).
/// * [`Simulation::resume`] — continue an interrupted run from its
///   [`SimCheckpoint`]. The *same* configuration, spin-down policy,
///   controller type, source, and injector construction must be
///   supplied; the checkpoint carries only dynamic state. No `RunStart`
///   is re-emitted, the telemetry sequence counter fast-forwards to the
///   checkpoint's, and span call counts are pre-seeded, so the resumed
///   run's report — and its normalized telemetry stream — is
///   bit-identical to the uninterrupted run's.
/// * [`Simulation::checkpoints`] — capture checkpoints in a batch run; see
///   [`CheckpointOptions`].
///
/// Internally every run registers the standard observers —
/// [`WarmupWindow`], [`PeriodAccounting`], [`FlushDaemon`],
/// [`LatencyTracker`], [`EnergyMeter`], then [`TelemetryObserver`] when
/// telemetry is enabled — in that (load-bearing) order, in one place; see
/// [`crate::engine`] and [`crate::observers`].
pub struct Simulation<'a, C> {
    config: SimConfig,
    spindown: SpinDownPolicy,
    controller: C,
    label: String,
    telemetry: Telemetry,
    injector: Option<Box<dyn FaultInjector>>,
    resume: Option<&'a SimCheckpoint>,
    checkpoints: Option<CheckpointOptions<'a>>,
}

impl<'a, C: PeriodController> Simulation<'a, C> {
    /// A run of `config` whose disks follow `spindown` (one copy per member
    /// disk) and whose period decisions come from `controller`, reported
    /// under `label`.
    pub fn new(config: &SimConfig, spindown: SpinDownPolicy, controller: C, label: &str) -> Self {
        Simulation {
            config: *config,
            spindown,
            controller,
            label: label.to_string(),
            telemetry: Telemetry::disabled(),
            injector: None,
            resume: None,
            checkpoints: None,
        }
    }

    /// Emits the run's telemetry through `telemetry`.
    #[must_use]
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Installs `injector` (when `Some`) into the hardware before the
    /// replay.
    #[must_use]
    pub fn fault_injector(mut self, injector: Option<Box<dyn FaultInjector>>) -> Self {
        self.injector = injector;
        self
    }

    /// Continues the interrupted run `checkpoint` (when `Some`) instead of
    /// starting fresh.
    #[must_use]
    pub fn resume(mut self, checkpoint: Option<&'a SimCheckpoint>) -> Self {
        self.resume = checkpoint;
        self
    }

    /// Captures checkpoints per `options` (when `Some`) during a batch
    /// [`Simulation::run`].
    #[must_use]
    pub fn checkpoints(mut self, options: Option<CheckpointOptions<'a>>) -> Self {
        self.checkpoints = options;
        self
    }

    /// Replays `source` until `duration` (batch). Completed runs close the
    /// telemetry handle ([`Telemetry::close`]), which surfaces any records
    /// the sink dropped on write errors; interrupted runs return
    /// [`SimOutcome::Interrupted`] without a report (the checkpoint
    /// callback has already seen the resume point).
    ///
    /// A streaming source (e.g. `jpmd-store`'s paged binary reader)
    /// replays at O(page) resident memory; for the same record sequence
    /// the report is bit-identical to an in-memory replay.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SourceError`] the source
    /// yields (no report is produced for a failed replay), and fails when
    /// a resume checkpoint does not decode against this run's stack.
    ///
    /// # Panics
    ///
    /// Panics if the source's page size differs from the memory
    /// configuration's, and under the conditions of
    /// [`Simulation::start`].
    pub fn run<S: TraceSource>(
        mut self,
        mut source: S,
        duration: f64,
    ) -> Result<SimOutcome, SourceError> {
        assert_eq!(
            source.page_bytes(),
            self.config.mem.page_bytes,
            "trace and memory must agree on the page size"
        );
        let checkpoints = self.checkpoints.take();
        let mut stepper = self.start(source.total_pages(), duration)?;
        // Skip what the interrupted run already consumed. Every `Some(_)`
        // counts one pull — replayed, retried, dropped, or clamped — so
        // the restored stats already account for these.
        let mut discard = std::mem::take(&mut stepper.discard);
        while discard > 0 && source.next_record().is_some() {
            discard -= 1;
        }
        Ok(if stepper.replay(source, checkpoints)? {
            SimOutcome::Completed(Box::new(stepper.finish()))
        } else {
            SimOutcome::Interrupted
        })
    }

    /// Starts the run incrementally over a page space of `total_pages`,
    /// for `duration` seconds of stream time: the returned
    /// [`PolicyStepper`] is fed one record at a time. A resumed stepper
    /// discards the interrupted run's consumed prefix, so the caller
    /// simply replays the stream from its start.
    ///
    /// # Errors
    ///
    /// Fails when a resume checkpoint's images do not decode against this
    /// stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `duration` does not exceed
    /// the warm-up, a resume checkpoint's label or duration disagree with
    /// this run's, or checkpoint options were set (an incremental run
    /// captures checkpoints on demand with [`PolicyStepper::checkpoint`]).
    pub fn start(self, total_pages: u64, duration: f64) -> Result<PolicyStepper<C>, SourceError> {
        let config = self.config;
        config.validate();
        assert!(
            duration > config.warmup_secs,
            "duration must exceed the warm-up window"
        );
        assert!(
            self.checkpoints.is_none(),
            "checkpoint options apply to batch runs; capture incremental \
             checkpoints with PolicyStepper::checkpoint"
        );
        let telemetry = self.telemetry;
        let spans = SpanRecorder::new();
        match self.resume {
            Some(ckpt) => {
                assert_eq!(
                    ckpt.label, self.label,
                    "checkpoint was captured from a different run"
                );
                assert_eq!(
                    ckpt.duration, duration,
                    "checkpoint was captured for a different duration"
                );
                // Continue the interrupted stream: no second RunStart, the
                // next event gets the next sequence number, spans keep
                // their counts.
                telemetry.set_seq(ckpt.telemetry_seq);
                spans.seed_calls(&ckpt.span_calls);
            }
            None => telemetry.emit_with(|| ObsEvent::RunStart {
                label: self.label.clone(),
                duration_s: duration,
            }),
        }

        let total_pages = total_pages.max(1);
        let mut hw = HwState::new(&config, self.spindown, total_pages);
        if let Some(injector) = self.injector {
            hw.set_fault_injector(injector);
        }
        let mut controller =
            TimedController::new(self.controller, spans.clone(), telemetry.clone());
        controller.on_start(config.array, total_pages);
        // Before any restore, so a resumed run keeps the same switch.
        hw.mem.set_profiling(controller.reads_access_log());
        let mut stepper = PolicyStepper {
            replay_span: Some(spans.time_with("engine.replay", &telemetry)),
            started: Instant::now(),
            engine: Engine::with_metrics(telemetry.registry()),
            observers: Observers::new(&config, controller, &telemetry),
            meta: RunMeta {
                label: self.label,
                duration,
                telemetry,
                spans,
            },
            config,
            hw,
            discard: 0,
            delivered_rows: 0,
            live: true,
        };
        if let Some(ckpt) = self.resume {
            stepper.restore(&ckpt.engine).map_err(restore_error)?;
        }
        Ok(stepper)
    }
}

/// What [`PolicyStepper::feed`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The record entered the replay (it may still have been dropped or
    /// clamped by the engine's sanitization; see
    /// [`EngineStats`](crate::EngineStats)).
    Replayed,
    /// The record was discarded as part of a resumed run's already-consumed
    /// prefix (the stream must be replayed from its start after a resume).
    Skipped,
    /// The record's timestamp is at or past the configured duration; the
    /// run is over and further feeds are ignored. Call
    /// [`PolicyStepper::finish`].
    Finished,
}

/// The standard observer stack of one run. [`Observers::with`] hands it
/// to the engine in the load-bearing registration order: same-instant
/// timers fire in this order (warm-up snapshot, then period row, then sync
/// tick), and checkpoint observer images are stored in it. The telemetry
/// observer goes last — it is purely passive, so its position only matters
/// in that it must see events after the components that settle the
/// hardware.
struct Observers<C> {
    warmup: WarmupWindow,
    periods: PeriodAccounting<TimedController<C>>,
    flush: FlushDaemon,
    latency: LatencyTracker,
    energy: EnergyMeter,
    telemetry: Option<TelemetryObserver>,
}

impl<C: PeriodController> Observers<C> {
    fn new(config: &SimConfig, controller: TimedController<C>, telemetry: &Telemetry) -> Self {
        Observers {
            warmup: WarmupWindow::new(config.warmup_secs),
            periods: PeriodAccounting::new(controller, config),
            flush: FlushDaemon::new(config.sync_interval_secs),
            latency: LatencyTracker::new(config.warmup_secs, config.long_latency_secs),
            energy: EnergyMeter::new(),
            telemetry: telemetry
                .is_enabled()
                .then(|| TelemetryObserver::new(telemetry)),
        }
    }

    /// Calls `f` with the stack as the engine's observer slice (built on
    /// the stack, so a per-record call allocates nothing).
    fn with<R>(&mut self, f: impl FnOnce(&mut [&mut dyn SimObserver]) -> R) -> R {
        let Observers {
            warmup,
            periods,
            flush,
            latency,
            energy,
            telemetry,
        } = self;
        match telemetry {
            Some(telemetry) => {
                let mut observers: [&mut dyn SimObserver; 6] =
                    [warmup, periods, flush, latency, energy, telemetry];
                f(&mut observers)
            }
            None => {
                let mut observers: [&mut dyn SimObserver; 5] =
                    [warmup, periods, flush, latency, energy];
                f(&mut observers)
            }
        }
    }
}

/// A run's identity and telemetry cursor — what a [`SimCheckpoint`]
/// carries besides the engine image.
struct RunMeta {
    label: String,
    duration: f64,
    telemetry: Telemetry,
    spans: SpanRecorder,
}

impl RunMeta {
    fn checkpoint(&self, engine: EngineCheckpoint) -> SimCheckpoint {
        SimCheckpoint {
            label: self.label.clone(),
            duration: self.duration,
            telemetry_seq: self.telemetry.seq(),
            span_calls: self.spans.call_counts(),
            engine,
        }
    }
}

/// One run in flight: the hardware, the engine and the observer stack of a
/// [`Simulation`], advanced record by record ([`PolicyStepper::feed`]) or,
/// for a batch run, by the engine pulling from a source.
///
/// A caller polls [`PolicyStepper::poll_rows`] after each record for
/// freshly closed control periods (and the control actions the policy
/// took), queries the live operating point (banks, timeout, energy)
/// between records, captures crash-consistent checkpoints on demand
/// ([`PolicyStepper::checkpoint`]), and closes the run with
/// [`PolicyStepper::finish`]. The per-record step *is* the batch loop's
/// step ([`Engine::step_record`]) and both close through
/// [`PolicyStepper::finish`], so feeding a stepper the records of a trace
/// produces a [`RunReport`] bit-identical to the batch replay of the same
/// trace. The `jpmd-serve` daemon builds its per-tenant policy state on
/// this type.
pub struct PolicyStepper<C> {
    config: SimConfig,
    meta: RunMeta,
    started: Instant,
    replay_span: Option<SpanGuard>,
    hw: HwState,
    engine: Engine,
    observers: Observers<C>,
    discard: u64,
    delivered_rows: usize,
    live: bool,
}

impl<C: PeriodController> PolicyStepper<C> {
    /// Restores the hardware, every observer (and through the period
    /// accounting's image, the controller) and the engine from `ckpt`.
    fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<(), serde::Error> {
        self.hw.restore_state(&ckpt.hw)?;
        self.observers.with(|observers| {
            if ckpt.observers.len() != observers.len() {
                return Err(serde::Error::custom(format!(
                    "checkpoint holds {} observer images but this run registers {} observers \
                     (was telemetry toggled between capture and resume?)",
                    ckpt.observers.len(),
                    observers.len()
                )));
            }
            for (observer, state) in observers.iter_mut().zip(&ckpt.observers) {
                observer.restore_state(state)?;
            }
            Ok(())
        })?;
        self.engine.restore(ckpt);
        self.discard = ckpt.stats.records_pulled;
        self.delivered_rows = self.observers.periods.rows().len();
        Ok(())
    }

    /// The batch loop: pulls `source` into the engine with the observer
    /// slice built once. Returns `false` when a checkpoint interrupted it.
    fn replay<S: TraceSource>(
        &mut self,
        source: S,
        checkpoints: Option<CheckpointOptions<'_>>,
    ) -> Result<bool, SourceError> {
        let PolicyStepper {
            meta,
            hw,
            engine,
            observers,
            ..
        } = self;
        let duration = meta.duration;
        observers.with(|observers| match checkpoints {
            Some(CheckpointOptions {
                policy,
                on_checkpoint,
            }) => {
                let mut forward = |engine| on_checkpoint(meta.checkpoint(engine));
                engine.replay_source(
                    source,
                    duration,
                    hw,
                    observers,
                    Some((&policy, &mut forward)),
                )
            }
            None => engine.replay_source(source, duration, hw, observers, None),
        })
    }

    /// Feeds one record: fires due timers (period rollovers, warm-up end,
    /// sync ticks) and replays its accesses. Returns what happened; after
    /// [`FeedOutcome::Finished`] further feeds are no-ops.
    pub fn feed(&mut self, record: TraceRecord) -> FeedOutcome {
        if !self.live {
            return FeedOutcome::Finished;
        }
        if self.discard > 0 {
            self.discard -= 1;
            return FeedOutcome::Skipped;
        }
        let PolicyStepper {
            meta,
            hw,
            engine,
            observers,
            ..
        } = self;
        if observers.with(|observers| engine.step_record(record, meta.duration, hw, observers)) {
            FeedOutcome::Replayed
        } else {
            self.live = false;
            FeedOutcome::Finished
        }
    }

    /// Period rows closed since the last poll (observation + the control
    /// action the policy took) — empty when no boundary rolled over.
    pub fn poll_rows(&mut self) -> &[PeriodRow] {
        let start = self.delivered_rows;
        self.delivered_rows = self.observers.periods.rows().len();
        &self.observers.periods.rows()[start..]
    }

    /// All period rows closed so far.
    pub fn rows(&self) -> &[PeriodRow] {
        self.observers.periods.rows()
    }

    /// The replay clock: timestamp of the last fed record, s.
    pub fn sim_time(&self) -> f64 {
        self.engine.last_time()
    }

    /// Source pulls consumed so far (the resume cursor: a restarted stream
    /// replays from its start and the stepper discards exactly this many).
    pub fn records_pulled(&self) -> u64 {
        self.engine.stats().records_pulled
    }

    /// Banks currently enabled.
    pub fn enabled_banks(&self) -> u32 {
        self.hw.mem.enabled_banks()
    }

    /// Total banks in the configuration.
    pub fn total_banks(&self) -> u32 {
        self.config.mem.total_banks
    }

    /// The disk spin-down timeout currently in force (the first member's
    /// on an array), s.
    pub fn disk_timeout(&self) -> f64 {
        self.hw.disk_timeout()
    }

    /// Total (memory + disk) energy accrued so far, J, as of the last
    /// settled instant (the most recent period boundary or warm-up end).
    /// Reading it never perturbs the replay.
    pub fn energy_so_far_j(&self) -> f64 {
        self.hw.snapshot_energy().total_j()
    }

    /// The controller driving the period decisions.
    pub fn controller(&self) -> &C {
        self.observers.periods.controller().inner()
    }

    /// Captures a crash-consistent checkpoint of the whole stack at the
    /// replay clock's current instant — the same [`SimCheckpoint`] a
    /// batch run hands its checkpoint callback, resumable either way.
    pub fn checkpoint(&mut self) -> SimCheckpoint {
        let PolicyStepper {
            meta,
            hw,
            engine,
            observers,
            ..
        } = self;
        meta.checkpoint(observers.with(|observers| engine.capture_now(hw, observers)))
    }

    /// Closes out the run: fires all timers due by the configured
    /// duration, settles the hardware, finalizes latency and energy over
    /// the measured window, emits `RunEnd`, closes the telemetry handle,
    /// and returns the report.
    pub fn finish(mut self) -> RunReport {
        let wall = self.started.elapsed().as_secs_f64();
        let duration = self.meta.duration;
        let stats = {
            let PolicyStepper {
                hw,
                engine,
                observers,
                ..
            } = &mut self;
            let engine = std::mem::take(engine);
            observers.with(|observers| engine.finish(duration, hw, observers, wall))
        };
        drop(self.replay_span.take());
        let RunMeta {
            label,
            telemetry,
            spans,
            ..
        } = self.meta;
        let window = duration - self.config.warmup_secs;
        let (traffic, lat) = {
            let _finalize = spans.time_with("report.finalize", &telemetry);
            (
                self.observers.energy.finalize(&self.hw, window),
                self.observers.latency.finalize(),
            )
        };
        let report = RunReport {
            label,
            duration_secs: window,
            energy: traffic.energy,
            cache_accesses: traffic.cache_accesses,
            hits: traffic.hits,
            disk_page_accesses: traffic.disk_page_accesses,
            disk_requests: traffic.disk_requests,
            mean_latency_secs: lat.mean_latency_secs,
            request_latency_p50_secs: lat.request_latency_p50_secs,
            request_latency_p99_secs: lat.request_latency_p99_secs,
            max_latency_secs: lat.max_latency_secs,
            long_latency_count: lat.long_latency_count,
            utilization: traffic.utilization,
            spin_downs: traffic.spin_downs,
            periods: self.observers.periods.into_rows(),
            engine: stats,
            spans: spans.snapshot(),
        };
        telemetry.emit_with(|| ObsEvent::RunEnd {
            label: report.label.clone(),
            periods: report.periods.len() as u64,
            events: report.engine.events_processed,
        });
        telemetry.close();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlAction, NullController, PeriodObservation};
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, Trace, TraceRecord};

    fn simulate(
        config: &SimConfig,
        spindown: SpinDownPolicy,
        controller: impl PeriodController,
        trace: &Trace,
        duration: f64,
        label: &str,
    ) -> RunReport {
        Simulation::new(config, spindown, controller, label)
            .run(trace.source(), duration)
            .expect("in-memory trace sources cannot fail")
            .into_report()
            .expect("no checkpoint policy was installed")
    }

    fn mem_config(banks: u32) -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: banks,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        }
    }

    fn record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages,
            kind: jpmd_trace::AccessKind::Read,
        }
    }

    fn small_trace() -> Trace {
        // Two bursts on the same pages: second burst hits.
        Trace::new(
            vec![record(1.0, 0, 4), record(2.0, 0, 4), record(300.0, 8, 2)],
            1 << 20,
            64,
        )
    }

    #[test]
    fn hits_and_misses_accounted() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        assert_eq!(report.cache_accesses, 10);
        assert_eq!(report.hits, 4);
        assert_eq!(report.disk_page_accesses, 6);
        assert_eq!(report.disk_requests, 2);
        assert_eq!(report.spin_downs, 0);
    }

    #[test]
    fn engine_counters_surface_in_report() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        assert_eq!(report.engine.counts.accesses, 10);
        assert_eq!(report.engine.counts.misses, 2);
        assert_eq!(report.engine.counts.disk_requests, 2);
        assert_eq!(report.engine.counts.period_boundaries, 0);
        assert_eq!(report.engine.events_processed, report.engine.counts.total());
        assert!(report.engine.replay_wall_secs > 0.0);
        assert!(report.engine.accesses_per_sec > 0.0);
        // One trailing partial-period row in the event log.
        assert_eq!(report.engine.period_log.len(), 1);
        assert_eq!(report.engine.period_log[0].end, 400.0);
    }

    #[test]
    fn always_on_energy_matches_hand_calculation() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        // Disk: idle 7.5 W for (400 - busy) plus active 12.5 × busy.
        let busy = report.utilization * 400.0;
        let expect_disk = 7.5 * (400.0 - busy) + 12.5 * busy;
        assert!(
            (report.energy.disk.total_j() - expect_disk).abs() < 1e-6,
            "disk {} vs {expect_disk}",
            report.energy.disk.total_j()
        );
        // Memory static: 8 banks × 4 MiB × 0.65625 mW/MB × 400 s.
        let expect_mem_static = 8.0 * 4.0 * 0.65625e-3 * 400.0;
        assert!((report.energy.mem.static_j - expect_mem_static).abs() < 1e-6);
    }

    #[test]
    fn spindown_saves_energy_on_long_gaps() {
        let config = SimConfig::with_mem(mem_config(8));
        let on = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "on",
        );
        let two_t = simulate(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &small_trace(),
            400.0,
            "2t",
        );
        assert!(two_t.spin_downs >= 1);
        assert!(two_t.energy.disk.total_j() < on.energy.disk.total_j());
        // The request at t = 300 wakes the disk: long latency.
        assert!(two_t.long_latency_count >= 1);
        assert_eq!(on.long_latency_count, 0);
    }

    #[test]
    fn period_rows_cover_run() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            1800.0,
            "test",
        );
        assert_eq!(report.periods.len(), 3);
        assert_eq!(report.periods[0].observation.start, 0.0);
        assert_eq!(report.periods[0].observation.end, 600.0);
        assert_eq!(report.periods[2].observation.end, 1800.0);
        assert_eq!(report.periods[0].observation.cache_accesses, 10);
        assert_eq!(report.periods[1].observation.cache_accesses, 0);
    }

    #[test]
    fn warmup_excludes_early_activity() {
        let mut config = SimConfig::with_mem(mem_config(8));
        config.warmup_secs = 100.0;
        let report = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        // Only the t = 300 record (2 pages) is inside the window.
        assert_eq!(report.cache_accesses, 2);
        assert_eq!(report.duration_secs, 300.0);
        // Energy excludes the first 100 s: disk total < 7.5 × 400.
        assert!(report.energy.disk.total_j() < 7.5 * 310.0);
    }

    #[test]
    fn smaller_memory_causes_more_disk_accesses() {
        // 12 distinct pages cycled twice; 8-page cache (2 banks) thrashes,
        // 32-page cache (8 banks) hits on the second round.
        let mut records = Vec::new();
        for round in 0..2 {
            for i in 0..12u64 {
                records.push(record(round as f64 * 50.0 + i as f64, i, 1));
            }
        }
        let trace = Trace::new(records, 1 << 20, 64);
        let big = simulate(
            &SimConfig::with_mem(mem_config(8)),
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            200.0,
            "big",
        );
        let small = simulate(
            &SimConfig::with_mem(mem_config(2)),
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            200.0,
            "small",
        );
        assert_eq!(big.disk_page_accesses, 12);
        assert!(small.disk_page_accesses > big.disk_page_accesses);
        // Smaller memory spends less memory energy…
        assert!(small.energy.mem.static_j < big.energy.mem.static_j);
        // …but more disk (active) energy.
        assert!(small.energy.disk.active_j > big.energy.disk.active_j);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn mismatched_page_size_panics() {
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(vec![record(0.0, 0, 1)], 4096, 64);
        simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            10.0,
            "bad",
        );
    }

    fn write_record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            kind: jpmd_trace::AccessKind::Write,
            ..record(time, first_page, pages)
        }
    }

    #[test]
    fn write_misses_defer_disk_traffic() {
        // Pure writes with the flush daemon disabled: write-allocate means
        // no disk traffic at all (everything stays dirty in memory).
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(
            vec![write_record(1.0, 0, 4), write_record(2.0, 8, 4)],
            1 << 20,
            64,
        );
        let r = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "writes",
        );
        assert_eq!(r.cache_accesses, 8);
        assert_eq!(r.disk_page_accesses, 0, "write-back defers everything");
        assert_eq!(r.disk_requests, 0);
    }

    #[test]
    fn sync_daemon_flushes_dirty_pages() {
        let mut config = SimConfig::with_mem(mem_config(8));
        config.sync_interval_secs = 30.0;
        let trace = Trace::new(vec![write_record(1.0, 0, 4)], 1 << 20, 64);
        let r = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "sync",
        );
        // The 4 dirty pages reach the disk at the t = 30 sync as one
        // coalesced write request.
        assert_eq!(r.disk_page_accesses, 4);
        assert_eq!(r.disk_requests, 1);
        // User-visible latency is untouched by background flushes.
        assert_eq!(r.long_latency_count, 0);
        assert_eq!(r.mean_latency_secs, 0.0);
        // Sync ticks are visible in the engine counters (t = 30, 60, 90).
        assert_eq!(r.engine.counts.syncs, 3);
    }

    #[test]
    fn frequent_sync_reduces_spin_downs() {
        // A write every 200 s: with a 20 s sync the disk is poked every
        // sync tick after each write (then goes quiet until the next
        // write); with sync disabled the disk sleeps through everything.
        let mut records = Vec::new();
        for i in 0..10u64 {
            records.push(write_record(10.0 + 200.0 * i as f64, i * 4, 2));
        }
        let trace = Trace::new(records, 1 << 20, 64);
        let run_with = |sync: f64| {
            let mut config = SimConfig::with_mem(mem_config(8));
            config.sync_interval_secs = sync;
            simulate(
                &config,
                SpinDownPolicy::two_competitive(&config.disk_power),
                &mut NullController,
                &trace,
                2100.0,
                "sync-sweep",
            )
        };
        let frequent = run_with(20.0);
        let never = run_with(f64::INFINITY);
        assert_eq!(never.disk_page_accesses, 0);
        assert!(frequent.disk_page_accesses > 0);
        assert!(
            frequent.energy.disk.total_j() > never.energy.disk.total_j(),
            "flush traffic must cost disk energy ({} vs {})",
            frequent.energy.disk.total_j(),
            never.energy.disk.total_j()
        );
    }

    #[test]
    fn pathological_simultaneous_arrivals() {
        // Every record at t = 0, overlapping pages: the queue absorbs the
        // burst, accounting stays consistent.
        let config = SimConfig::with_mem(mem_config(2));
        let records = (0..20u64).map(|i| record(0.0, i % 8, 3)).collect();
        let trace = Trace::new(records, 1 << 20, 64);
        let r = simulate(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            600.0,
            "burst",
        );
        assert_eq!(r.cache_accesses, 60);
        assert_eq!(r.hits + r.disk_page_accesses, r.cache_accesses);
        assert!(r.energy.total_j().is_finite());
        assert!(r.max_latency_secs >= r.request_latency_p50_secs);
    }

    #[test]
    fn pathological_whole_data_set_record() {
        // One record spanning the entire page space, larger than the cache.
        let config = SimConfig::with_mem(mem_config(2)); // 8-page cache
        let trace = Trace::new(vec![record(1.0, 0, 64)], 1 << 20, 64);
        let r = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "huge",
        );
        assert_eq!(r.cache_accesses, 64);
        assert_eq!(r.disk_page_accesses, 64);
        // The misses coalesce into a single contiguous disk request.
        assert_eq!(r.disk_requests, 1);
    }

    #[test]
    fn empty_trace_still_accounts_static_energy() {
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(vec![], 1 << 20, 64);
        let r = simulate(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1200.0,
            "empty",
        );
        assert_eq!(r.cache_accesses, 0);
        // Disk idles then spins down once; memory naps throughout.
        assert_eq!(r.spin_downs, 1);
        assert!(r.energy.mem.static_j > 0.0);
        assert_eq!(r.mean_latency_secs, 0.0);
    }

    #[test]
    fn controller_actions_are_applied() {
        struct Shrinker;
        impl PeriodController for Shrinker {
            fn on_period_end(
                &mut self,
                obs: &PeriodObservation,
                _: &jpmd_mem::AccessLog,
            ) -> ControlAction {
                ControlAction {
                    enabled_banks: Some(obs.enabled_banks.saturating_sub(1).max(1)),
                    disk_timeout: Some(5.0),
                    disk_timeouts: Vec::new(),
                }
            }
            fn name(&self) -> &str {
                "shrinker"
            }
        }
        let config = SimConfig::with_mem(mem_config(8));
        let report = simulate(
            &config,
            SpinDownPolicy::controlled(f64::INFINITY),
            &mut Shrinker,
            &small_trace(),
            1800.0,
            "shrink",
        );
        assert_eq!(report.periods[0].action.enabled_banks, Some(7));
        assert_eq!(report.periods[1].observation.enabled_banks, 7);
        assert_eq!(report.periods[1].action.enabled_banks, Some(6));
        assert_eq!(report.periods[0].observation.disk_timeout, f64::INFINITY);
        assert_eq!(report.periods[1].observation.disk_timeout, 5.0);
    }
}
