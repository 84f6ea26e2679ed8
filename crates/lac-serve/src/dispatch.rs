//! The sans-IO dispatch core: every per-request and per-batch decision
//! the daemon makes, with no sockets, threads or timers of its own.
//!
//! [`DispatchCore`] turns framing events into requests (parse, kernel
//! and model check, payload decode, deadline stamp on the config's
//! clock), runs bounded admission, answers `PING`, `SWAP` and
//! `SHUTDOWN`, queues `DEBUG_PANIC` poison probes as solo batches, and
//! dispatches popped batches: deadline pass, model and mode
//! resolution, one batched forward pass, and the governor's sampling
//! decision. Each batch is recorded as in flight while it runs, so
//! after a supervised unwind [`DispatchCore::recover`] answers every
//! request of the poisoned batch with a `panic:` frame.
//!
//! The core hands back `(connection, Response)` pairs in the order it
//! produced them and never delivers anything itself. The connection
//! handle is opaque: the daemon ([`crate::server`]) passes its
//! per-socket outbox, the in-process resilience harness
//! ([`crate::chaos::run_resilience`]) a connection index. Both
//! therefore run exactly the same decisions.
//!
//! Every error frame starts with a class from the DESIGN.md §10
//! taxonomy: `malformed:`, `overflow:`, `deadline:`, `panic:`,
//! `shutdown:`, `debug:` or `swap:`. `BUSY` is its own opcode.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lac_apps::serving::{ServeApp, ServeSample};
use lac_core::{HealthSnapshot, ServingModel};
use lac_rt::supervise::deliberate_panic;

use crate::batch::{Admission, BatchQueue};
use crate::governor::{self, GovernorJob};
use crate::protocol::{FrameEvent, Request, Response, MAX_FRAME_LEN};
use crate::registry::Registry;
use crate::server::ServerConfig;

/// Per-queued-item term of the `BUSY` retry-after hint: a shed client
/// is told to come back after roughly `depth × this` microseconds. A
/// deliberate constant (not a wall-clock measurement) so the hint is a
/// pure function of queue depth.
const RETRY_HINT_PER_QUEUED_US: u64 = 100;

/// Responses in production order, each addressed to its connection.
pub(crate) type Responses<C> = Vec<(C, Response)>;

/// Encode a response for the wire. An unencodable (over-limit)
/// response degrades to its structured `overflow:` error frame.
pub(crate) fn wire_bytes(resp: &Response) -> Option<Vec<u8>> {
    resp.encode().or_else(|message| Response::Error { id: resp.id(), message }.encode()).ok()
}

fn error(id: u64, message: impl Into<String>) -> Response {
    Response::Error { id, message: message.into() }
}

/// One validated request waiting for a batch. `sample` is `None` only
/// for injected poison probes ([`Request::DebugPanic`]).
struct Pending<C> {
    id: u64,
    sample: Option<ServeSample>,
    conn: C,
    /// Absolute expiry reading of the config clock, if any.
    expires_at: Option<u64>,
}

/// Batch key: real traffic batches per kernel; every poison probe gets
/// a unique key so it dispatches as a solo batch and can never take
/// innocent requests down with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKey {
    App(ServeApp),
    Poison(u64),
}

/// A batch popped by [`DispatchCore::pop`], ready for
/// [`DispatchCore::dispatch`].
pub(crate) struct Batch<C> {
    key: BatchKey,
    items: Vec<Pending<C>>,
}

/// What one dispatched batch produced.
pub(crate) struct Dispatched<C> {
    /// Deadline errors first, then one answer per live request.
    pub(crate) responses: Responses<C>,
    /// Samples that went through the forward pass.
    pub(crate) inferred: usize,
    /// The governor's copy of this batch, when sampling selected it.
    pub(crate) governor_job: Option<GovernorJob>,
}

/// The daemon's admission, dispatch and health state, shared by every
/// reader and the dispatcher. All methods take `&self`.
pub(crate) struct DispatchCore<C> {
    cfg: ServerConfig,
    registry: Arc<Registry>,
    queue: BatchQueue<BatchKey, Pending<C>>,
    stop: AtomicBool,
    /// Per-app dispatched-batch counters (governor sampling keys on
    /// these, so the sample set depends only on batch arrival order).
    batch_seq: [AtomicU64; 6],
    /// Unique keys for poison probes.
    poison_seq: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    dispatcher_restarts: AtomicU64,
    /// `Arc` so the governor thread can bump it from its supervisor.
    governor_restarts: Arc<AtomicU64>,
    slow_disconnects: AtomicU64,
    /// The batch being dispatched, answered by [`Self::recover`] if
    /// the dispatch unwinds.
    inflight: Mutex<Vec<(C, u64)>>,
}

impl<C> std::fmt::Debug for DispatchCore<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchCore").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl<C: Clone> DispatchCore<C> {
    pub(crate) fn new(registry: Arc<Registry>, cfg: ServerConfig) -> Self {
        DispatchCore {
            registry,
            queue: BatchQueue::bounded(cfg.queue_cap),
            cfg,
            stop: AtomicBool::new(false),
            batch_seq: Default::default(),
            poison_seq: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            dispatcher_restarts: AtomicU64::new(0),
            governor_restarts: Arc::new(AtomicU64::new(0)),
            slow_disconnects: AtomicU64::new(0),
            inflight: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub(crate) fn governor_restarts(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.governor_restarts)
    }

    /// Stop admitting: later requests get `shutdown:` frames, queued
    /// ones still drain, and [`Self::pop`] ends once the queue is empty.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Count one connection condemned as a slow client.
    pub(crate) fn note_slow_disconnect(&self) {
        self.slow_disconnects.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether no request is waiting for dispatch.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn health(&self) -> HealthSnapshot {
        let modes = self
            .registry
            .apps()
            .into_iter()
            .filter_map(|app| Some((app.code(), self.registry.resolve_mode(app)?.1 as u8)))
            .collect();
        HealthSnapshot {
            queue_depth: self.queue.len() as u32,
            shed: self.shed.load(Ordering::SeqCst),
            expired: self.expired.load(Ordering::SeqCst),
            dispatcher_restarts: self.dispatcher_restarts.load(Ordering::SeqCst),
            governor_restarts: self.governor_restarts.load(Ordering::SeqCst),
            slow_client_disconnects: self.slow_disconnects.load(Ordering::SeqCst),
            modes,
        }
    }

    /// Handle one framing event from `conn`. Returns the immediate
    /// answer, or `None` when the request was queued for a batch. A
    /// `SHUTDOWN` is answered with [`Response::Bye`] after the core
    /// stops admitting.
    pub(crate) fn on_event(&self, conn: &C, event: FrameEvent) -> Option<Response> {
        let body = match event {
            FrameEvent::Oversized { advertised } => {
                return Some(error(
                    0,
                    format!(
                        "overflow: frame advertises {advertised} bytes, limit is \
                         {MAX_FRAME_LEN}; skipped"
                    ),
                ));
            }
            FrameEvent::Frame(body) => body,
        };
        let request = match Request::parse(&body) {
            Ok(request) => request,
            Err(e) => return Some(error(0, format!("malformed: {e}"))),
        };
        match request {
            Request::Ping { id } => Some(Response::Pong { id, health: self.health() }),
            Request::Infer { kernel, id, values, deadline_us } => {
                match self.decode(kernel, &values) {
                    Ok((app, sample)) => {
                        let deadline = deadline_us.or(self.cfg.default_deadline_us);
                        let expires_at =
                            deadline.map(|d| self.cfg.clock.now_us().saturating_add(d));
                        let pending =
                            Pending { id, sample: Some(sample), conn: conn.clone(), expires_at };
                        self.admit(BatchKey::App(app), pending)
                    }
                    Err(message) => Some(error(id, message)),
                }
            }
            Request::DebugPanic { id } if !self.cfg.debug_opcodes => {
                Some(error(id, "debug: DEBUG_PANIC refused (server started without debug opcodes)"))
            }
            Request::DebugPanic { id } => {
                let token = self.poison_seq.fetch_add(1, Ordering::SeqCst);
                let pending = Pending { id, sample: None, conn: conn.clone(), expires_at: None };
                self.admit(BatchKey::Poison(token), pending)
            }
            Request::Swap { id, path } => match ServingModel::load(Path::new(&path)) {
                Ok(model) => {
                    let kernel = model.app().code();
                    self.registry.swap(model);
                    Some(Response::Swapped { id, kernel })
                }
                Err(e) => Some(error(id, format!("swap: {e}"))),
            },
            Request::Shutdown { id } => {
                self.request_stop();
                Some(Response::Bye { id })
            }
        }
    }

    /// Kernel check, model check and payload decode of one INFER frame.
    fn decode(&self, kernel: u8, values: &[f64]) -> Result<(ServeApp, ServeSample), String> {
        let app = ServeApp::from_code(kernel)
            .ok_or_else(|| format!("malformed: unknown kernel code {kernel}"))?;
        if self.registry.resolve(app).is_none() {
            return Err(no_model(app));
        }
        let sample = app.decode(values).map_err(|e| format!("malformed: {e}"))?;
        Ok((app, sample))
    }

    /// Bounded admission: `None` when queued, else the refusal frame.
    fn admit(&self, key: BatchKey, pending: Pending<C>) -> Option<Response> {
        let id = pending.id;
        match self.queue.push(key, pending) {
            Admission::Admitted => None,
            Admission::Busy { depth } => {
                self.shed.fetch_add(1, Ordering::SeqCst);
                Some(Response::Busy {
                    id,
                    depth: depth as u32,
                    retry_after_us: (depth as u64 + 1) * RETRY_HINT_PER_QUEUED_US,
                })
            }
            Admission::Closed => Some(error(id, "shutdown: server is draining, request refused")),
        }
    }

    /// Pop the next head-run batch, lingering up to the configured
    /// window. Blocks while the queue is empty and open; `None` once
    /// it is stopped and drained.
    pub(crate) fn pop(&self) -> Option<Batch<C>> {
        let (key, items) = self.queue.pop_batch(self.cfg.max_batch, self.cfg.linger)?;
        Some(Batch { key, items })
    }

    /// Dispatch one popped batch. A poison batch unwinds on purpose;
    /// run this under [`lac_rt::supervise::supervise`] and hand the
    /// panic message to [`Self::recover`].
    pub(crate) fn dispatch(&self, batch: Batch<C>) -> Dispatched<C> {
        // The whole batch is in flight until the forward pass is done:
        // an unwind anywhere below answers every one of its requests.
        *self.lock_inflight() = batch.items.iter().map(|p| (p.conn.clone(), p.id)).collect();
        let done = self.run(batch);
        self.lock_inflight().clear();
        done
    }

    fn run(&self, batch: Batch<C>) -> Dispatched<C> {
        let app = match batch.key {
            BatchKey::Poison(_) => {
                deliberate_panic("injected dispatcher panic (DEBUG_PANIC opcode)")
            }
            BatchKey::App(app) => app,
        };
        let mut done = Dispatched { responses: Vec::new(), inferred: 0, governor_job: None };
        // Deadline pass: drop expired requests before spending kernel
        // time on them. `now >= expires_at` so a zero deadline is
        // deterministically expired at dispatch.
        let now = self.cfg.clock.now_us();
        let mut live = Vec::with_capacity(batch.items.len());
        let mut samples = Vec::with_capacity(batch.items.len());
        for p in batch.items {
            if p.expires_at.is_some_and(|t| now >= t) {
                self.expired.fetch_add(1, Ordering::SeqCst);
                done.responses.push((p.conn, error(p.id, "deadline: expired before dispatch")));
            } else if let Some(sample) = p.sample {
                live.push((p.conn, p.id));
                samples.push(sample);
            }
        }
        if samples.is_empty() {
            return done;
        }
        // Resolve model + runtime mode once per batch: a hot-swap or a
        // governor step between batches takes effect cleanly; one
        // during a batch lets it finish on the state it started with.
        let Some((model, mode)) = self.registry.resolve_mode(app) else {
            done.responses
                .extend(live.into_iter().map(|(conn, id)| (conn, error(id, no_model(app)))));
            return done;
        };
        done.inferred = samples.len();
        match model.infer_mode(mode, &samples, self.cfg.workers) {
            Ok(outputs) => {
                if let Some(gcfg) = &self.cfg.governor {
                    let seq = self.batch_seq[app.code() as usize].fetch_add(1, Ordering::SeqCst);
                    if governor::should_sample(gcfg.seed, app, seq, gcfg.sample_rate) {
                        done.governor_job = Some(GovernorJob {
                            model: Arc::clone(&model),
                            app,
                            seq,
                            mode,
                            samples,
                            outputs: outputs.clone(),
                        });
                    }
                }
                done.responses.extend(
                    live.into_iter()
                        .zip(outputs)
                        .map(|((conn, id), values)| (conn, Response::Infer { id, values })),
                );
            }
            Err(e) => done.responses.extend(
                live.into_iter().map(|(conn, id)| (conn, error(id, format!("malformed: {e}")))),
            ),
        }
        done
    }

    /// After a supervised unwind in [`Self::dispatch`]: count the
    /// restart and answer every in-flight request with a `panic:`
    /// frame, so no request silently vanishes.
    pub(crate) fn recover(&self, msg: &str) -> Responses<C> {
        self.dispatcher_restarts.fetch_add(1, Ordering::SeqCst);
        let poisoned = std::mem::take(&mut *self.lock_inflight());
        poisoned
            .into_iter()
            .map(|(conn, id)| (conn, error(id, format!("panic: dispatcher restarted: {msg}"))))
            .collect()
    }

    fn lock_inflight(&self) -> MutexGuard<'_, Vec<(C, u64)>> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn no_model(app: ServeApp) -> String {
    format!("malformed: no model loaded for kernel `{}`", app.cli_id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_rt::clock::MockClock;
    use lac_rt::supervise::supervise;
    use std::time::Duration;

    const IK: u8 = 5;

    fn core(cfg: ServerConfig) -> DispatchCore<usize> {
        assert_eq!(ServeApp::InverseK2j.code(), IK);
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::InverseK2j, "DRUM16-4").unwrap());
        DispatchCore::new(registry, cfg)
    }

    fn frame(req: Request) -> FrameEvent {
        FrameEvent::Frame(req.encode().unwrap()[4..].to_vec())
    }

    fn infer(kernel: u8, id: u64, values: Vec<f64>, deadline_us: Option<u64>) -> FrameEvent {
        frame(Request::Infer { kernel, id, values, deadline_us })
    }

    fn class(reply: Option<Response>) -> String {
        match reply {
            Some(Response::Error { message, .. }) => message.split(':').next().unwrap().to_owned(),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn every_refusal_starts_with_its_taxonomy_class() {
        let core = core(ServerConfig::default());
        let swap = Request::Swap { id: 2, path: "/nonexistent/lac/x.ck.json".into() };
        let cases = [
            (FrameEvent::Frame(vec![0xEE]), "malformed"),
            (infer(42, 1, vec![0.6, 0.3], None), "malformed"),
            (infer(ServeApp::Blur.code(), 1, vec![0.0; 1024], None), "malformed"),
            (infer(IK, 1, vec![5.0, 5.0], None), "malformed"),
            (frame(swap), "swap"),
            (frame(Request::DebugPanic { id: 3 }), "debug"),
            (FrameEvent::Oversized { advertised: u32::MAX }, "overflow"),
        ];
        for (event, want) in cases {
            assert_eq!(class(core.on_event(&0, event.clone())), want, "{event:?}");
        }
        core.request_stop();
        assert_eq!(class(core.on_event(&0, infer(IK, 4, vec![0.6, 0.3], None))), "shutdown");
    }

    #[test]
    fn deadline_poison_and_recovery_in_arrival_order() {
        let clock = Arc::new(MockClock::new(0));
        let core = core(ServerConfig {
            linger: Duration::ZERO,
            debug_opcodes: true,
            clock: clock as Arc<dyn lac_rt::clock::Clock>,
            ..ServerConfig::default()
        });
        assert!(core.on_event(&7, infer(IK, 1, vec![0.6, 0.3], Some(0))).is_none());
        assert!(core.on_event(&8, frame(Request::DebugPanic { id: 2 })).is_none());
        assert!(core.on_event(&9, infer(IK, 3, vec![0.6, 0.3], None)).is_none());

        // Zero deadline: expired at dispatch, no kernel time spent.
        let done = core.dispatch(core.pop().unwrap());
        assert_eq!(done.inferred, 0);
        assert_eq!(class(done.responses.into_iter().next().map(|(_, r)| r)), "deadline");

        // The poison probe dispatches alone and unwinds; recovery
        // answers it on its own connection.
        let mut recovered = Vec::new();
        supervise(
            || drop(core.dispatch(core.pop().unwrap())),
            |msg| {
                recovered = core.recover(msg);
                false
            },
        );
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 8);
        assert_eq!(class(Some(recovered[0].1.clone())), "panic");

        // Service resumes with the next batch.
        let done = core.dispatch(core.pop().unwrap());
        assert!(matches!(done.responses[..], [(9, Response::Infer { id: 3, .. })]));
        let health = core.health();
        assert_eq!((health.expired, health.dispatcher_restarts), (1, 1));
        assert!(core.is_idle());
    }
}
