//! The serve-side bridge: a background worker that runs the controller
//! off the HTTP path.
//!
//! The serve engine calls [`serve::FeedbackHook::on_feedback`] on its
//! handler threads, inside the feedback request's trace context. This
//! handle reads that trace id and forwards the labeled
//! [`wal::Feedback`] with it over a channel to a dedicated `lifecycle`
//! thread, so feedback ingestion costs the server one channel send —
//! retrains and shadow evaluations never touch serving latency — and
//! the worker's ingestion spans join the reporting request's trace. The
//! worker drives the controller's simulation clock with the high-water
//! mark of observed feedback times, preserving the sim-clock contract
//! even in live mode.

use crate::controller::{LifecycleConfig, LifecycleController};
use crate::feedback::Feedback;
use cloudsim::{Fault, SimTime, Topology};
use monitoring::{MonitoringConfig, MonitoringSystem};
use serve::{FeedbackHook, ModelRegistry};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// A running lifecycle worker; implements [`serve::FeedbackHook`].
pub struct LifecycleHandle {
    /// Each labeled example with the trace id of the request that
    /// reported it (0 = untraced).
    tx: Mutex<Option<mpsc::Sender<(Feedback, u64)>>>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl LifecycleHandle {
    /// Spawn the worker thread. `topology`/`faults` are the world the
    /// Scouts' monitoring plane reads from (same data the serve engine
    /// uses).
    ///
    /// With a durability log, the controller restores its recovered
    /// phase/stream from the WAL's projections before processing any
    /// live feedback, then mirrors every decision into the log. Pass the
    /// same `Arc<wal::Wal>` the serve engine was attached to, so the
    /// event stream stays totally ordered.
    pub fn start(
        cfg: LifecycleConfig,
        registry: Arc<ModelRegistry>,
        topology: Arc<Topology>,
        faults: Arc<Vec<Fault>>,
        mon_config: MonitoringConfig,
        wal: Option<Arc<wal::Wal>>,
    ) -> Arc<LifecycleHandle> {
        let (tx, rx) = mpsc::channel::<(Feedback, u64)>();
        let worker = std::thread::Builder::new()
            .name("lifecycle".into())
            .spawn(move || {
                let monitoring =
                    MonitoringSystem::new(topology.as_ref(), faults.as_slice(), mon_config);
                let mut controller = LifecycleController::new(cfg, registry);
                if let Some(w) = wal {
                    let proj = w.projections();
                    controller = controller.with_wal(w);
                    controller.restore_from(&proj);
                }
                // Resume the sim clock at the restored stream's high-water
                // mark so post-recovery ticks never run backwards.
                let mut horizon = controller
                    .store()
                    .iter()
                    .last()
                    .map_or(SimTime::EPOCH, |f| f.time);
                while let Ok((fb, trace_id)) = rx.recv() {
                    // Continue the reporting request's trace across the
                    // channel hop: ingestion (and any retrain it
                    // triggers) shows up under the feedback request.
                    let _trace =
                        (trace_id != 0).then(|| obs::TraceContext::adopt(trace_id).enter());
                    let _span = obs::span!("lifecycle.feedback");
                    horizon = horizon.max(fb.time);
                    controller.ingest(fb);
                    controller.tick(horizon, &monitoring);
                }
            })
            .expect("spawn lifecycle worker");
        Arc::new(LifecycleHandle {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Close the feedback channel and join the worker. Idempotent.
    pub fn stop(&self) {
        self.tx.lock().unwrap().take();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            worker.join().ok();
        }
    }
}

impl Drop for LifecycleHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl FeedbackHook for LifecycleHandle {
    fn on_feedback(&self, feedback: Feedback) {
        let trace_id = obs::trace::current().map_or(0, |c| c.trace_id);
        if let Some(tx) = self.tx.lock().unwrap().as_ref() {
            let _ = tx.send((feedback, trace_id));
        }
    }
}
