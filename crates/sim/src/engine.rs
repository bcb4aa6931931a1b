//! The event-driven replay engine.
//!
//! [`Engine`] is a thin replay core: it walks the trace, drives the
//! [`HwState`], and emits typed [`SimEvent`]s to a set of pluggable
//! [`SimObserver`]s. Everything that used to be inline state in the old
//! monolithic replay loop — period accounting, the warm-up snapshot, the
//! flush daemon, latency tracking, energy metering — lives in observers
//! (see [`crate::observers`]); the engine itself only knows how to turn
//! trace records into accesses, coalesce misses into disk requests, and
//! fire observer timers in deterministic order.
//!
//! # Timer semantics
//!
//! Each observer exposes [`SimObserver::next_timer`], the absolute time of
//! its next scheduled wake-up (`f64::INFINITY` for none). Before each trace
//! record (and once at the end of the run) the engine fires every timer due
//! at or before the current target time, earliest first. When several
//! timers are due at the *same* instant they fire in **registration
//! order** — the order observers were passed to the engine. The
//! standard stack registers `[WarmupWindow, PeriodAccounting, FlushDaemon,
//! …]`, which pins the legacy replay's tie-breaks: at a shared instant the
//! warm-up snapshot happens first, then the period row, then the sync
//! tick.
//!
//! Events an observer emits from a timer callback are dispatched to all
//! observers immediately, before the next timer fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jpmd_trace::{AccessKind, SourceError, TraceRecord, TraceSource};
use serde::{Deserialize, Serialize};

use crate::{EventCounts, HwState, SimEvent};

/// A pluggable simulation component receiving engine events.
///
/// Observers own the state the old monolithic loop kept in locals; the
/// engine talks to them through three hooks. All hooks default to no-ops so
/// purely passive components implement only what they need.
pub trait SimObserver {
    /// Absolute time of this observer's next scheduled wake-up, or
    /// `f64::INFINITY` when it has none. Timers at or before the engine's
    /// current target fire via [`SimObserver::on_timer`].
    fn next_timer(&self) -> f64 {
        f64::INFINITY
    }

    /// Timer callback at time `t`. Must advance [`SimObserver::next_timer`]
    /// past `t` (the engine panics on stuck timers). Events pushed into
    /// `out` are dispatched to every observer before the next timer fires.
    fn on_timer(&mut self, _t: f64, _hw: &mut HwState, _out: &mut Vec<SimEvent>) {}

    /// Event callback; fired for every event in causal order.
    fn on_event(&mut self, _event: &SimEvent, _hw: &mut HwState) {}

    /// This observer's internal state as a serializable value, captured at
    /// a period boundary for a crash-consistent checkpoint. The default
    /// ([`serde::Value::Null`]) is correct for stateless observers.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`SimObserver::snapshot_state`]
    /// before a resumed replay starts. The default ignores the value
    /// (stateless observers).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this observer's
    /// snapshot layout (a corrupt or incompatible checkpoint).
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Event totals for one stretch of the run (engine observability).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodEvents {
    /// Start of the stretch, s.
    pub start: f64,
    /// End of the stretch, s (a period boundary, or the run's end for the
    /// trailing partial period).
    pub end: f64,
    /// Events dispatched inside the stretch.
    pub counts: EventCounts,
}

/// Engine counters surfaced in [`RunReport`](crate::RunReport).
///
/// Equality ignores the wall-clock fields (`replay_wall_secs`,
/// `accesses_per_sec`): two runs of the same configuration produce equal
/// `EngineStats` even though their wall-clock timings differ, so whole
/// reports can still be compared in determinism tests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Events dispatched over the whole run.
    pub events_processed: u64,
    /// Per-type totals over the whole run.
    pub counts: EventCounts,
    /// Structured per-period event log (one row per control period, plus a
    /// trailing row for a partial final period).
    pub period_log: Vec<PeriodEvents>,
    /// Transient [`SourceError`]s absorbed by retrying the pull (bounded
    /// per-pull by [`MAX_SOURCE_RETRIES`]; zero for healthy sources).
    #[serde(default)]
    pub source_retries: u64,
    /// Records discarded because they were unusable (non-finite timestamp
    /// or zero pages); zero for valid traces.
    #[serde(default)]
    pub records_dropped: u64,
    /// Records whose timestamps were clamped forward to restore arrival
    /// order; zero for valid traces.
    #[serde(default)]
    pub records_clamped: u64,
    /// Every `Some(_)` the source yielded — replayed, retried, dropped, or
    /// clamped. This is the resume cursor: restarting the same source and
    /// discarding exactly this many pulls reproduces the interrupted run's
    /// position.
    #[serde(default)]
    pub records_pulled: u64,
    /// Wall-clock time spent replaying, s (not part of equality).
    pub replay_wall_secs: f64,
    /// Replay throughput, page accesses per wall-clock second (not part of
    /// equality).
    pub accesses_per_sec: f64,
}

impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        self.events_processed == other.events_processed
            && self.counts == other.counts
            && self.period_log == other.period_log
            && self.source_retries == other.source_retries
            && self.records_dropped == other.records_dropped
            && self.records_clamped == other.records_clamped
            && self.records_pulled == other.records_pulled
    }
}

/// When a checkpointable replay ([`Engine::replay_source`]) captures
/// checkpoints. Checkpoints are only taken at period boundaries —
/// the one instant where the hardware is settled and the controller's view
/// is consistent — and fire on the first record replayed after the
/// boundary.
#[derive(Clone, Default)]
pub struct CheckpointPolicy {
    /// Capture a checkpoint once this many control periods have completed
    /// since the last one (`0` = never on cadence; only on shutdown).
    pub every_periods: u64,
    /// Cooperative shutdown flag (set it from a signal handler): when
    /// observed at a period boundary the engine captures a final
    /// checkpoint and returns with `interrupted = true`.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl CheckpointPolicy {
    /// A policy checkpointing every `every_periods` completed periods.
    pub fn every(every_periods: u64) -> Self {
        CheckpointPolicy {
            every_periods,
            shutdown: None,
        }
    }
}

/// A crash-consistent image of a replay in flight, captured at a period
/// boundary. Contains everything the *engine* owns (stats, the open
/// segment, the replay clock) plus opaque snapshots of the hardware and
/// every registered observer, in registration order.
///
/// To resume: rebuild the identical source/hardware/observer stack, restore
/// the hardware from [`EngineCheckpoint::hw`], each observer from its entry
/// in [`EngineCheckpoint::observers`] and the engine with
/// [`Engine::restore`], then discard the
/// [`EngineStats::records_pulled`] source pulls already consumed —
/// [`Simulation`](crate::Simulation) does all of this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Engine counters at the capture instant (wall-clock fields are
    /// meaningless here and excluded from equality anyway).
    pub stats: EngineStats,
    /// Event counts of the open (not yet closed) period segment.
    pub segment: EventCounts,
    /// Start time of the open segment, s.
    pub segment_start: f64,
    /// Timestamp of the last replayed record, s (the clamp floor).
    pub last_time: f64,
    /// Opaque hardware snapshot ([`HwState::snapshot_state`]).
    pub hw: serde::Value,
    /// Opaque observer snapshots, in registration order.
    pub observers: Vec<serde::Value>,
}

/// How many *consecutive* transient [`SourceError`]s
/// [`Engine::replay_source`] absorbs before giving up and propagating the
/// error. A successful pull resets the budget, so a long trace with
/// scattered transient faults replays to completion; a source stuck in a
/// transient-failure loop still terminates.
pub const MAX_SOURCE_RETRIES: u32 = 8;

/// The event-driven replay core. See the [module docs](self) for the
/// execution model.
///
/// Two driving styles share one implementation:
///
/// * **Batch**: [`Engine::replay_source`] pulls records from a
///   [`TraceSource`] until the duration is reached, then
///   [`Engine::finish`] closes the run.
/// * **Incremental**: a long-lived owner (the
///   [`PolicyStepper`](crate::PolicyStepper), and through it the
///   `jpmd-serve` daemon) feeds records one at a time with
///   [`Engine::step_record`], captures checkpoints on demand with
///   [`Engine::capture_now`], and closes the run with [`Engine::finish`].
///
/// The batch loop is written *on top of* the incremental methods, so the
/// two styles are bit-identical by construction.
#[derive(Default)]
pub struct Engine {
    stats: EngineStats,
    segment: EventCounts,
    segment_start: f64,
    registry: jpmd_obs::MetricsRegistry,
    boundary_pending: bool,
    periods_since_ckpt: u64,
    last_time: f64,
}

impl Engine {
    /// A fresh engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine that publishes its end-of-run counters into `registry`
    /// (`engine.events`, `engine.accesses`, `engine.disk_requests`, and
    /// the throughput gauges). Publication happens once, after the replay
    /// — the hot loop is untouched, and a disabled registry makes this
    /// identical to [`Engine::new`].
    pub fn with_metrics(registry: jpmd_obs::MetricsRegistry) -> Self {
        Engine {
            registry,
            ..Engine::default()
        }
    }

    /// Pulls records from `source` into the replay ([`Engine::step_record`])
    /// until one reaches `duration` or the source ends; the caller then
    /// closes the run with [`Engine::finish`]. Returns `false` when a
    /// checkpoint interrupted the replay instead.
    ///
    /// The engine pulls records one at a time, so a streaming source (e.g.
    /// `jpmd-store`'s paged binary reader) replays at O(page) resident
    /// memory. For the same record sequence every source produces
    /// bit-identical stats. A misbehaving source cannot corrupt the replay
    /// clock: records with a non-finite timestamp or zero pages are
    /// dropped, and records arriving out of order are clamped forward to
    /// the last replayed instant (both counted in the stats; all three
    /// counters stay zero for valid traces).
    ///
    /// With `checkpoints`, whenever its policy asks for a checkpoint
    /// (cadence reached, or the shutdown flag set) the engine captures an
    /// [`EngineCheckpoint`] at the first record replayed after a period
    /// boundary and hands it to the callback. If the callback returns
    /// `false`, or the shutdown flag is set, the replay stops there.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SourceError`] the source
    /// yields (I/O failure or corruption in a streaming source).
    /// Transient errors ([`SourceError::is_transient`]) are retried up to
    /// [`MAX_SOURCE_RETRIES`] consecutive times (counted in
    /// [`EngineStats::source_retries`]) before being propagated.
    pub fn replay_source<S: TraceSource>(
        &mut self,
        mut source: S,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
        mut checkpoints: Option<(&CheckpointPolicy, &mut dyn FnMut(EngineCheckpoint) -> bool)>,
    ) -> Result<bool, SourceError> {
        let mut consecutive_retries = 0u32;
        while let Some(next) = source.next_record() {
            let record = match next {
                Ok(record) => record,
                Err(e) if e.is_transient() && consecutive_retries < MAX_SOURCE_RETRIES => {
                    self.stats.records_pulled += 1;
                    consecutive_retries += 1;
                    self.stats.source_retries += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            consecutive_retries = 0;
            if !self.step_record(record, duration, hw, observers) {
                break;
            }
            let Some((policy, on_checkpoint)) = checkpoints.as_mut() else {
                continue;
            };
            if std::mem::take(&mut self.boundary_pending) {
                let shutdown = policy
                    .shutdown
                    .as_ref()
                    .is_some_and(|flag| flag.load(Ordering::Relaxed));
                let due =
                    policy.every_periods > 0 && self.periods_since_ckpt >= policy.every_periods;
                if shutdown || due {
                    self.periods_since_ckpt = 0;
                    let keep_going = on_checkpoint(self.capture_now(hw, observers));
                    if shutdown || !keep_going {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Restores the engine's own counters and replay clock from a
    /// checkpoint (the caller restores the hardware and observers from the
    /// checkpoint's opaque images).
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) {
        self.stats = ckpt.stats.clone();
        self.segment = ckpt.segment;
        self.segment_start = ckpt.segment_start;
        self.last_time = ckpt.last_time;
    }

    /// Feeds one record into the replay: counts the pull, sanitizes it
    /// (drop non-finite/zero-page, clamp out-of-order), fires due timers,
    /// and replays the accesses. Returns `false` when `record.time` is at
    /// or past `duration` — the record is counted but not replayed, and
    /// the caller should stop feeding and call [`Engine::finish`].
    ///
    /// This is the single per-record step both the batch loop and the
    /// incremental `PolicyStepper` drive, so the two are bit-identical.
    pub fn step_record(
        &mut self,
        mut record: TraceRecord,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> bool {
        self.stats.records_pulled += 1;
        if !record.time.is_finite() || record.pages == 0 {
            self.stats.records_dropped += 1;
            return true;
        }
        if record.time < self.last_time {
            record.time = self.last_time;
            self.stats.records_clamped += 1;
        }
        self.last_time = record.time;
        if record.time >= duration {
            return false;
        }
        self.advance_to(record.time, hw, observers);
        self.replay_record(&record, hw, observers);
        true
    }

    /// Timestamp of the last replayed record, s (the replay clock).
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// The engine's counters so far (final only after [`Engine::finish`]).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Builds a checkpoint of the current replay state at the replay
    /// clock's current instant (see [`EngineCheckpoint`]): engine
    /// counters, hardware, observers in registration order.
    pub fn capture_now(
        &self,
        hw: &HwState,
        observers: &[&mut dyn SimObserver],
    ) -> EngineCheckpoint {
        EngineCheckpoint {
            stats: self.stats.clone(),
            segment: self.segment,
            segment_start: self.segment_start,
            last_time: self.last_time,
            hw: hw.snapshot_state(),
            observers: observers.iter().map(|ob| ob.snapshot_state()).collect(),
        }
    }

    /// Closes out an incremental replay: fires all timers due by
    /// `duration`, settles the hardware there, closes the trailing event
    /// segment, stamps the wall-clock stats, and publishes the registry
    /// counters. Consumes the engine and returns its final counters.
    pub fn finish(
        mut self,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
        replay_wall_secs: f64,
    ) -> EngineStats {
        self.advance_to(duration, hw, observers);
        hw.settle(duration);
        if self.segment_start < duration || self.segment.total() > 0 {
            self.close_segment(duration);
        }
        self.stats.replay_wall_secs = replay_wall_secs;
        self.stats.accesses_per_sec =
            self.stats.counts.accesses as f64 / self.stats.replay_wall_secs.max(f64::MIN_POSITIVE);
        if self.registry.is_enabled() {
            self.registry
                .counter("engine.events")
                .add(self.stats.events_processed);
            self.registry
                .counter("engine.accesses")
                .add(self.stats.counts.accesses);
            self.registry
                .counter("engine.disk_requests")
                .add(self.stats.counts.disk_requests);
            self.registry
                .gauge("engine.replay_wall_secs")
                .set(self.stats.replay_wall_secs);
            self.registry
                .gauge("engine.accesses_per_sec")
                .set(self.stats.accesses_per_sec);
        }
        self.stats
    }

    /// Fires every observer timer due at or before `target`, earliest
    /// first, ties in registration order.
    fn advance_to(
        &mut self,
        target: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        loop {
            let due = observers
                .iter()
                .fold(f64::INFINITY, |m, ob| m.min(ob.next_timer()));
            if due > target {
                return;
            }
            for i in 0..observers.len() {
                if observers[i].next_timer() == due {
                    let mut out = Vec::new();
                    observers[i].on_timer(due, hw, &mut out);
                    assert!(
                        observers[i].next_timer() > due,
                        "observer {i} did not advance its timer past {due}"
                    );
                    self.dispatch(&out, hw, observers);
                }
            }
        }
    }

    /// Replays one trace record: pages are looked up in order, misses are
    /// coalesced into contiguous runs (each becoming one disk request), and
    /// displaced dirty pages go back to the disk as background writes.
    fn replay_record(
        &mut self,
        record: &TraceRecord,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let now = record.time;
        let write = record.kind == AccessKind::Write;
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        for page in record.page_range() {
            let hit = hw.mem.access_rw(page, now, write);
            if hit {
                // Close the pending run first so a miss run's latency is
                // recorded before the hit that ended it (observers rely on
                // this order).
                self.flush_run(&mut run_start, &mut run_len, now, hw, observers);
            } else {
                if run_start.is_none() {
                    run_start = Some(page);
                }
                run_len += 1;
            }
            self.dispatch(
                &[SimEvent::Access {
                    time: now,
                    page,
                    hit,
                    write,
                }],
                hw,
                observers,
            );
        }
        self.flush_run(&mut run_start, &mut run_len, now, hw, observers);
        let writebacks = hw.mem.take_writebacks();
        if !writebacks.is_empty() {
            let events = hw.submit_writes(writebacks, now);
            self.dispatch(&events, hw, observers);
        }
    }

    /// Turns the pending miss run (if any) into one disk request.
    fn flush_run(
        &mut self,
        run_start: &mut Option<u64>,
        run_len: &mut u64,
        now: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        if let Some(first) = run_start.take() {
            let pages = *run_len;
            *run_len = 0;
            let outcome = hw.submit_request(now, first, pages);
            self.dispatch(
                &[
                    SimEvent::Miss {
                        time: now,
                        first_page: first,
                        pages,
                    },
                    SimEvent::DiskRequest {
                        time: now,
                        first_page: first,
                        pages,
                        latency: outcome.latency,
                        woke_disk: outcome.woke_disk,
                        user: true,
                    },
                ],
                hw,
                observers,
            );
        }
    }

    /// Delivers events to every observer and tallies them.
    fn dispatch(
        &mut self,
        events: &[SimEvent],
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        for event in events {
            self.stats.events_processed += 1;
            self.stats.counts.record(event);
            self.segment.record(event);
            if let SimEvent::PeriodBoundary { end, .. } = event {
                self.close_segment(*end);
                self.boundary_pending = true;
                self.periods_since_ckpt += 1;
            }
            for observer in observers.iter_mut() {
                observer.on_event(event, hw);
            }
        }
    }

    fn close_segment(&mut self, end: f64) {
        self.stats.period_log.push(PeriodEvents {
            start: self.segment_start,
            end,
            counts: std::mem::take(&mut self.segment),
        });
        self.segment_start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use jpmd_disk::SpinDownPolicy;
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, Trace, TraceRecord};

    fn hw() -> HwState {
        let config = SimConfig::with_mem(MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: 8,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        });
        HwState::new(&config, SpinDownPolicy::AlwaysOn, 64)
    }

    /// Replays `source` until t = 10 s and closes the run, as a batch
    /// `Simulation::run` does.
    fn run<S: TraceSource>(
        source: S,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> Result<EngineStats, SourceError> {
        let mut engine = Engine::new();
        assert!(engine.replay_source(source, 10.0, hw, observers, None)?);
        Ok(engine.finish(10.0, hw, observers, 0.0))
    }

    /// Replays `records` until t = 10 s.
    fn replay(
        records: Vec<TraceRecord>,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> EngineStats {
        let trace = Trace::new(records, 1 << 20, 64);
        run(trace.source(), hw, observers).expect("in-memory trace sources cannot fail")
    }

    fn record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages,
            kind: AccessKind::Read,
        }
    }

    /// Records every event it sees; a timer at a fixed instant.
    #[derive(Default)]
    struct Recorder {
        events: Vec<SimEvent>,
        timer: Option<f64>,
    }

    impl SimObserver for Recorder {
        fn next_timer(&self) -> f64 {
            self.timer.unwrap_or(f64::INFINITY)
        }
        fn on_timer(&mut self, t: f64, _hw: &mut HwState, out: &mut Vec<SimEvent>) {
            self.timer = None;
            out.push(SimEvent::Sync { time: t, pages: 0 });
        }
        fn on_event(&mut self, event: &SimEvent, _hw: &mut HwState) {
            self.events.push(event.clone());
        }
    }

    #[test]
    fn events_follow_causal_order() {
        // 4 misses coalesce into one run; the re-access hits.
        let mut recorder = Recorder::default();
        let mut hw = hw();
        {
            let mut obs: [&mut dyn SimObserver; 1] = [&mut recorder];
            let stats = replay(
                vec![record(1.0, 0, 2), record(2.0, 0, 2)],
                &mut hw,
                &mut obs,
            );
            assert_eq!(stats.counts.accesses, 4);
            assert_eq!(stats.counts.misses, 1);
            assert_eq!(stats.counts.disk_requests, 1);
            assert_eq!(stats.events_processed, stats.counts.total());
        }
        // Miss pages arrive as Access{hit: false} then the coalesced
        // Miss + DiskRequest pair, then the second record's hits.
        let kinds: Vec<&'static str> = recorder
            .events
            .iter()
            .map(|e| match e {
                SimEvent::Access { hit: true, .. } => "hit",
                SimEvent::Access { hit: false, .. } => "miss-page",
                SimEvent::Miss { .. } => "miss-run",
                SimEvent::DiskRequest { .. } => "request",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "miss-page",
                "miss-page",
                "miss-run",
                "request",
                "hit",
                "hit"
            ]
        );
    }

    #[test]
    fn timer_fires_between_records_and_events_reach_emitter() {
        let mut recorder = Recorder {
            timer: Some(5.0),
            ..Recorder::default()
        };
        let mut hw = hw();
        {
            let mut obs: [&mut dyn SimObserver; 1] = [&mut recorder];
            let stats = replay(
                vec![record(1.0, 0, 1), record(9.0, 0, 1)],
                &mut hw,
                &mut obs,
            );
            assert_eq!(stats.counts.syncs, 1);
        }
        let sync_pos = recorder
            .events
            .iter()
            .position(|e| matches!(e, SimEvent::Sync { .. }))
            .expect("sync dispatched");
        let second_access = recorder
            .events
            .iter()
            .position(|e| matches!(e, SimEvent::Access { time, .. } if *time == 9.0))
            .expect("second access");
        assert!(sync_pos < second_access);
    }

    /// Yields a scripted sequence of pulls (for fault-path tests).
    struct Scripted(std::collections::VecDeque<Result<TraceRecord, SourceError>>);

    impl Scripted {
        fn new(items: Vec<Result<TraceRecord, SourceError>>) -> Self {
            Scripted(items.into())
        }
    }

    impl TraceSource for Scripted {
        fn page_bytes(&self) -> u64 {
            1 << 20
        }
        fn total_pages(&self) -> u64 {
            64
        }
        fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
            self.0.pop_front()
        }
    }

    fn transient_err() -> SourceError {
        SourceError::transient(std::io::Error::other("blip"))
    }

    #[test]
    fn transient_source_errors_are_retried() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Err(transient_err()),
            Ok(record(1.0, 0, 1)),
            Err(transient_err()),
            Err(transient_err()),
            Ok(record(2.0, 1, 1)),
        ]);
        let stats = run(source, &mut hw, &mut []).expect("transient errors must be absorbed");
        assert_eq!(stats.source_retries, 3);
        assert_eq!(stats.counts.accesses, 2);
    }

    #[test]
    fn transient_retry_budget_is_bounded() {
        let mut hw = hw();
        let source = Scripted::new(
            (0..=MAX_SOURCE_RETRIES)
                .map(|_| Err(transient_err()))
                .collect(),
        );
        let err = run(source, &mut hw, &mut []).expect_err("a stuck source must eventually fail");
        assert!(err.is_transient());
    }

    #[test]
    fn non_transient_source_error_aborts_immediately() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Ok(record(1.0, 0, 1)),
            Err(SourceError::new(std::io::Error::other("dead"))),
            Ok(record(2.0, 1, 1)),
        ]);
        assert!(run(source, &mut hw, &mut []).is_err());
    }

    #[test]
    fn unusable_records_are_dropped_and_out_of_order_clamped() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Ok(record(5.0, 0, 1)),
            Ok(record(f64::NAN, 1, 1)),      // dropped
            Ok(record(6.0, 2, 0)),           // dropped (zero pages)
            Ok(record(3.0, 3, 1)),           // clamped to 5.0
            Ok(record(f64::INFINITY, 4, 1)), // dropped
            Ok(record(7.0, 5, 1)),
        ]);
        let stats = run(source, &mut hw, &mut []).expect("sanitized replay succeeds");
        assert_eq!(stats.records_dropped, 3);
        assert_eq!(stats.records_clamped, 1);
        assert_eq!(stats.counts.accesses, 3);
        // The disk saw monotone arrivals despite the scrambled source.
        assert_eq!(hw.disks.requests(), 3);
    }

    #[test]
    fn stats_equality_ignores_wall_clock() {
        let mut a = EngineStats {
            events_processed: 3,
            replay_wall_secs: 1.0,
            accesses_per_sec: 3.0,
            ..EngineStats::default()
        };
        let b = EngineStats {
            events_processed: 3,
            replay_wall_secs: 2.0,
            accesses_per_sec: 1.5,
            ..EngineStats::default()
        };
        assert_eq!(a, b);
        a.events_processed = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn trailing_partial_segment_is_logged() {
        let mut hw = hw();
        let stats = replay(vec![record(1.0, 0, 1)], &mut hw, &mut []);
        assert_eq!(stats.period_log.len(), 1);
        assert_eq!(stats.period_log[0].start, 0.0);
        assert_eq!(stats.period_log[0].end, 10.0);
        assert_eq!(stats.period_log[0].counts.accesses, 1);
    }
}
