//! Work-queue parallel execution for experiment suites.
//!
//! [`run_queue`] fans a slice of items out over a fixed pool of scoped
//! worker threads. Each worker pulls the next item off a shared atomic
//! cursor, so long-running items (the joint method over a 3-hour trace)
//! don't serialize behind short ones the way one-thread-per-item spawning
//! did. A panicking task is captured with [`std::panic::catch_unwind`] and
//! surfaces as an `Err` carrying the panic message — the queue keeps
//! draining, so one diverging method no longer aborts a whole figure.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A method run that panicked instead of producing a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodError {
    /// Label of the method that failed.
    pub label: String,
    /// The captured panic message.
    pub message: String,
    /// The last telemetry events the method emitted before dying (JSONL
    /// lines from its bounded in-memory sink). Empty when the run was not
    /// instrumented. The sink lives *outside* the panicking closure, so
    /// these survive the unwind — a flight recorder for the post-mortem.
    pub recent_events: Vec<String>,
}

impl MethodError {
    /// An error with no captured telemetry.
    pub fn new(label: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            message: message.into(),
            recent_events: Vec::new(),
        }
    }

    /// Attaches the events salvaged from the method's telemetry sink.
    #[must_use]
    pub fn with_events(mut self, events: Vec<String>) -> Self {
        self.recent_events = events;
        self
    }
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "method '{}' panicked: {}", self.label, self.message)?;
        if !self.recent_events.is_empty() {
            write!(
                f,
                " (last {} telemetry events follow)",
                self.recent_events.len()
            )?;
            for line in &self.recent_events {
                write!(f, "\n  {line}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for MethodError {}

/// Extracts the human-readable message from a panic payload (panics carry
/// `&str` or `String` in practice).
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker count used for experiment suites: the machine's available
/// parallelism, falling back to 4 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Runs `task` over every item of `items` on up to `workers` threads and
/// returns the results **in item order**. A task that panics yields
/// `Err(message)` for its slot; the remaining items still run.
pub fn run_queue<T, R, F>(items: &[T], workers: usize, task: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let task = &task;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result =
                    catch_unwind(AssertUnwindSafe(|| task(&items[i]))).map_err(panic_message);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    for (i, result) in rx {
        out[i] = Some(result);
    }
    out.into_iter()
        .map(|slot| slot.expect("every queued item must deliver a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let results = run_queue(&items, 8, |&x| {
            // Stagger completion so out-of-order finishes are likely.
            std::thread::sleep(std::time::Duration::from_micros(((x * 7) % 11) * 100));
            x * x
        });
        assert_eq!(results.len(), items.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &((i * i) as u64));
        }
    }

    #[test]
    fn panics_are_captured_and_the_queue_drains() {
        // Silence the default panic hook's backtrace chatter for the
        // intentional panics below.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u64> = (0..10).collect();
        let results = run_queue(&items, 3, |&x| {
            assert!(x % 4 != 1, "item {x} refused");
            x + 1
        });
        std::panic::set_hook(prev);
        for (i, r) in results.iter().enumerate() {
            if i % 4 == 1 {
                let message = r.as_ref().unwrap_err();
                assert!(message.contains(&format!("item {i} refused")), "{message}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i as u64 + 1));
            }
        }
    }

    #[test]
    fn empty_input_and_single_worker() {
        let empty: Vec<u64> = Vec::new();
        assert!(run_queue(&empty, 4, |&x| x).is_empty());
        let results = run_queue(&[1u64, 2, 3], 1, |&x| x * 10);
        assert_eq!(
            results.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn method_error_formats_label_and_message() {
        let e = MethodError::new("2TFM-16GB", "queue overflow");
        assert_eq!(e.to_string(), "method '2TFM-16GB' panicked: queue overflow");
    }

    #[test]
    fn method_error_display_includes_salvaged_events() {
        let e = MethodError::new("Joint", "bank index out of range").with_events(vec![
            r#"{"seq":7,"event":{"Message":{"text":"period 3"}}}"#.to_string(),
        ]);
        let s = e.to_string();
        assert!(s.contains("last 1 telemetry events"), "{s}");
        assert!(s.contains("period 3"), "{s}");
    }
}
