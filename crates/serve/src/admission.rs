//! Admission control: a hard bound on outstanding predict work.
//!
//! The bound covers the whole in-server lifetime of a request — queued
//! or executing — not just the queue, so
//! "how much work is in flight" has one number and one knob
//! (`queue_cap`). A request that cannot get a permit is **shed**
//! immediately with `503 Service Unavailable` + `Retry-After` instead of
//! joining an unbounded line; the paper's Scout is a gate-keeper in
//! front of human responders, and a late answer is as useless to them as
//! no answer (§7's time-to-mitigation framing).
//!
//! `serve.queue.depth` (gauge) tracks outstanding permits and
//! `serve.shed` (counter) counts rejections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sheds within [`BURST_WINDOW`] of each other that constitute a burst
/// worth a flight-recorder alert.
const BURST_THRESHOLD: u32 = 8;
/// How close together sheds must be to count as one burst.
const BURST_WINDOW: Duration = Duration::from_secs(1);

#[derive(Debug)]
struct Inner {
    outstanding: AtomicUsize,
    cap: usize,
    /// Shed-burst detector state: window start and sheds seen in it.
    burst: Mutex<(Option<Instant>, u32)>,
}

/// The admission gate. Cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct Admission {
    inner: Arc<Inner>,
}

/// A held admission slot; releasing is automatic on drop.
#[derive(Debug)]
pub struct Permit {
    inner: Arc<Inner>,
}

impl Admission {
    /// A gate admitting at most `cap` outstanding requests (`cap` is
    /// clamped to at least 1).
    pub fn new(cap: usize) -> Admission {
        Admission {
            inner: Arc::new(Inner {
                outstanding: AtomicUsize::new(0),
                cap: cap.max(1),
                burst: Mutex::new((None, 0)),
            }),
        }
    }

    /// Try to admit one request. `None` means shed.
    pub fn try_admit(&self) -> Option<Permit> {
        let mut cur = self.inner.outstanding.load(Ordering::Relaxed);
        loop {
            if cur >= self.inner.cap {
                obs::counter("serve.shed").inc();
                self.note_shed();
                return None;
            }
            match self.inner.outstanding.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    obs::gauge("serve.queue.depth").set((cur + 1) as f64);
                    return Some(Permit {
                        inner: Arc::clone(&self.inner),
                    });
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Count one shed toward burst detection; a burst of
    /// [`BURST_THRESHOLD`] sheds inside [`BURST_WINDOW`] raises a
    /// `shed-burst` flight-recorder alert (once per window).
    fn note_shed(&self) {
        let mut burst = self.inner.burst.lock().unwrap();
        let now = Instant::now();
        match burst.0 {
            Some(start) if now.duration_since(start) < BURST_WINDOW => {
                burst.1 += 1;
                if burst.1 == BURST_THRESHOLD {
                    obs::flight().alert(
                        "shed-burst",
                        &format!(
                            "{BURST_THRESHOLD} sheds within 1s at cap {}",
                            self.inner.cap
                        ),
                    );
                }
            }
            _ => *burst = (Some(now), 1),
        }
    }

    /// Currently outstanding permits.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Acquire)
    }

    /// The configured cap.
    pub fn cap(&self) -> usize {
        self.inner.cap
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let now = self.inner.outstanding.fetch_sub(1, Ordering::AcqRel) - 1;
        obs::gauge("serve.queue.depth").set(now as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_cap_then_sheds() {
        let a = Admission::new(2);
        let p1 = a.try_admit().expect("first");
        let p2 = a.try_admit().expect("second");
        assert!(a.try_admit().is_none(), "third must shed");
        assert_eq!(a.outstanding(), 2);
        drop(p1);
        let p3 = a.try_admit().expect("slot freed");
        drop(p2);
        drop(p3);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn zero_cap_is_clamped_to_one() {
        let a = Admission::new(0);
        assert_eq!(a.cap(), 1);
        let _p = a.try_admit().expect("cap 1 admits one");
        assert!(a.try_admit().is_none());
    }

    #[test]
    fn concurrent_admission_never_exceeds_cap() {
        let a = Admission::new(8);
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let a = a.clone();
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Some(p) = a.try_admit() {
                            peak.fetch_max(a.outstanding(), Ordering::Relaxed);
                            drop(p);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::Relaxed) <= 8);
        assert_eq!(a.outstanding(), 0);
    }
}
