//! The serving daemon: accept loop, per-connection readers/writers, and
//! the supervised batching dispatcher.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──spawns──▶ reader thread per connection
//!                            │  FrameReader → frame events
//!                            ▼
//!              DispatchCore::on_event (crate::dispatch, sans-IO)
//!              parse → kernel/model check → decode → deadline stamp
//!              → bounded admission; PING, SWAP, DEBUG_PANIC answered
//!                            │
//!                            ▼
//!               BatchQueue (arrival order, depth-capped)
//!                            │  DispatchCore::pop: head run, ≤ max_batch
//!                            ▼
//!        supervised dispatcher ── DispatchCore::dispatch ── lac_rt::par
//!        deadline pass → resolve_mode → one batched forward pass
//!        (unwind → DispatchCore::recover → `panic:` frames)
//!                            │  (conn, Response) pairs
//!                            ▼
//!        coalesced per connection → bounded outbox → writer thread
//! ```
//!
//! Every per-request and per-batch decision lives in
//! `DispatchCore` (`dispatch.rs`); this module owns
//! only threads and sockets. Readers feed frame events to the core and
//! deliver its immediate answers (errors, `BUSY`, `PONG`, swap acks),
//! so only valid samples reach the queue. The dispatcher pops
//! deterministic head-run batches, has the core dispatch them under a
//! panic supervisor, and enqueues each connection's responses as one
//! coalesced buffer. The in-process resilience harness
//! ([`crate::chaos::run_resilience`]) drives the same core.
//!
//! # Resilience
//!
//! * **Bounded admission** — the queue refuses pushes past
//!   [`ServerConfig::queue_cap`]; shed requests get a
//!   [`Response::Busy`] frame with the depth and a retry-after hint.
//! * **Deadlines** — requests carry an optional relative deadline
//!   (or inherit [`ServerConfig::default_deadline_us`]); the dispatcher
//!   drops expired ones pre-dispatch. "Now" comes from the config's
//!   [`Clock`], so tests and the chaos harness drive a mock.
//! * **Slow-client protection** — responses go through a bounded
//!   per-connection outbox drained by a writer thread with a write
//!   timeout. A reader that stalls past the buffer or the timeout is
//!   condemned (socket shut down, buffer discarded) without ever
//!   blocking the dispatcher's fan-out.
//! * **Panic supervision** — the dispatcher (and governor) run under
//!   [`lac_rt::supervise::supervise`]: a panic converts the in-flight
//!   batch into per-request `panic:` error frames, bumps a restart
//!   counter, and restarts the thread. Injected panics
//!   ([`Request::DebugPanic`](crate::protocol::Request::DebugPanic), gated by
//!   [`ServerConfig::debug_opcodes`]) are dispatched as solo poison
//!   batches, so they can never take innocent requests down with them.
//! * **Health** — `PING` answers with a full
//!   [`lac_core::HealthSnapshot`]: queue depth, shed/expired counts,
//!   restart counters, slow-client disconnects, and live per-app modes.
//!
//! Response bytes are a pure function of (model, mode, payload):
//! inference is per-sample with no cross-sample reduction. Worker
//! count, batch size, and linger change only scheduling, never bytes —
//! the serving determinism suite pins this.
//!
//! With a [`GovernorConfig`] set, the dispatcher also counts batches
//! per app, hands a deterministic sample of them to the governor
//! thread ([`crate::governor`]), and serves each batch at the ladder
//! rung the governor last selected.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use lac_rt::clock::{Clock, MonotonicClock};
use lac_rt::supervise::supervise;

use crate::dispatch::{wire_bytes, DispatchCore, Responses};
use crate::governor::{self, GovernorConfig, GovernorJob};
use crate::protocol::{FrameReader, Response};
use crate::registry::Registry;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads a batched forward pass is spread across.
    pub workers: usize,
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// How long a partial batch waits for the head run to fill.
    pub linger: Duration,
    /// Quality-governor knobs; `None` serves every batch at the
    /// selector's (initially trained) mode with no sampling thread.
    pub governor: Option<GovernorConfig>,
    /// Admission cap: requests arriving while this many are already
    /// queued are shed with a `BUSY` frame instead of queued.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own
    /// (microseconds from admission); `None` means such requests never
    /// expire.
    pub default_deadline_us: Option<u64>,
    /// Per-connection response buffer cap in bytes. Must exceed the
    /// largest single response frame; a connection whose unsent backlog
    /// would pass the cap is condemned as a slow client.
    pub write_buf_cap: usize,
    /// How long a connection's writer thread may block on one socket
    /// write before the connection is condemned as a slow client.
    pub write_timeout: Duration,
    /// Honor [`Request::DebugPanic`](crate::protocol::Request::DebugPanic)
    /// fault injection. Off by default; the chaos harness and
    /// resilience tests switch it on.
    pub debug_opcodes: bool,
    /// Time source for deadline stamping and expiry. Defaults to the
    /// real monotonic clock; tests and the chaos harness install a
    /// [`lac_rt::clock::MockClock`].
    pub clock: Arc<dyn Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_batch: 16,
            linger: Duration::from_micros(200),
            governor: None,
            queue_cap: 1024,
            default_deadline_us: None,
            write_buf_cap: 1 << 20,
            write_timeout: Duration::from_secs(2),
            debug_opcodes: false,
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

/// Unsent response bytes for one connection.
struct Outbox {
    buf: Vec<u8>,
    /// No more bytes will be enqueued; the writer drains and exits.
    closed: bool,
    /// Condemned: buffered bytes are discarded and the socket is shut.
    dead: bool,
}

/// One connection's write side: a bounded outbox drained by a dedicated
/// writer thread, so neither readers nor the dispatcher ever block on a
/// slow peer's socket.
struct Conn {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    cv: Condvar,
    cap: usize,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl Conn {
    fn new(stream: TcpStream, cap: usize) -> Self {
        Conn {
            stream,
            outbox: Mutex::new(Outbox { buf: Vec::new(), closed: false, dead: false }),
            cv: Condvar::new(),
            cap,
        }
    }

    fn lock_outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Buffer `bytes` for the writer thread, condemning the connection
    /// if its backlog would pass the cap. Bytes for a condemned or
    /// closed connection are dropped. Returns `true` only when this
    /// enqueue condemned the connection (count it).
    fn enqueue(&self, bytes: &[u8]) -> bool {
        {
            let mut o = self.lock_outbox();
            if o.dead || o.closed {
                return false;
            }
            if o.buf.len() + bytes.len() <= self.cap {
                o.buf.extend_from_slice(bytes);
                self.cv.notify_one();
                return false;
            }
        }
        self.condemn()
    }

    /// Condemn the connection: discard the backlog and shut the socket
    /// down so its reader exits too. Returns `true` on the first
    /// condemnation (idempotent afterwards).
    fn condemn(&self) -> bool {
        {
            let mut o = self.lock_outbox();
            if o.dead {
                return false;
            }
            o.dead = true;
            o.buf = Vec::new();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.cv.notify_all();
        true
    }

    /// Drain-and-exit: the writer delivers what is buffered, then
    /// stops. Later enqueues are dropped.
    fn close(&self) {
        self.lock_outbox().closed = true;
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Shared {
    core: DispatchCore<Arc<Conn>>,
    /// Every accepted connection, for outbox close at join time.
    conns: Mutex<Vec<Weak<Conn>>>,
}

impl Shared {
    /// Encode the core's responses and enqueue them, coalescing each
    /// connection's frames into one outbox write and folding
    /// slow-client condemnations into the health counters.
    fn deliver(&self, responses: Responses<Arc<Conn>>) {
        let mut per_conn: Vec<(Arc<Conn>, Vec<u8>)> = Vec::new();
        for (conn, resp) in responses {
            let Some(frame) = wire_bytes(&resp) else { continue };
            match per_conn.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &conn)) {
                Some((_, bytes)) => bytes.extend_from_slice(&frame),
                None => per_conn.push((conn, frame)),
            }
        }
        for (conn, bytes) in per_conn {
            if conn.enqueue(&bytes) {
                self.core.note_slow_disconnect();
            }
        }
    }
}

/// A running server; dropping the handle does not stop it — call
/// [`shutdown`](RunningServer::shutdown) and/or
/// [`join`](RunningServer::join).
#[derive(Debug)]
pub struct RunningServer {
    port: u16,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    governor: Option<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Bind `port` (0 = ephemeral) and start serving `registry`.
///
/// Returns once the listener is bound; serving runs on background
/// threads until a client sends `SHUTDOWN` or
/// [`RunningServer::shutdown`] is called.
pub fn serve(
    registry: Arc<Registry>,
    cfg: ServerConfig,
    port: u16,
) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        core: DispatchCore::new(registry, cfg),
        conns: Mutex::new(Vec::new()),
    });
    let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();

    // The governor thread (if configured) scores sampled batches off
    // the hot path; it exits when the dispatcher drops its sender.
    let core = &shared.core;
    let (governor_tx, governor_handle) = match core.config().governor.clone() {
        Some(gcfg) => {
            let registry = Arc::clone(core.registry());
            let workers = core.config().workers;
            let restarts = core.governor_restarts();
            let (tx, handle) = governor::spawn(gcfg, registry, workers, restarts)
                .map_err(|e| std::io::Error::new(e.kind(), format!("governor log: {e}")))?;
            (Some(tx), Some(handle))
        }
        None => (None, None),
    };
    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatcher_loop(&shared, governor_tx))
    };
    let accept = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::spawn(move || accept_loop(&shared, listener, &readers))
    };

    Ok(RunningServer {
        port,
        shared,
        accept: Some(accept),
        dispatcher: Some(dispatcher),
        governor: governor_handle,
        readers,
    })
}

impl RunningServer {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Ask the server to stop: no new connections, queued requests
    /// drain, then threads exit. Idempotent.
    pub fn shutdown(&self) {
        self.shared.core.request_stop();
    }

    /// Block until every server thread has exited (after a `SHUTDOWN`
    /// frame or [`shutdown`](Self::shutdown)).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // The dispatcher owned the governor's sender; with it gone the
        // governor drains its queue and exits.
        if let Some(h) = self.governor.take() {
            let _ = h.join();
        }
        // The dispatcher has drained: close every surviving outbox so
        // writer threads deliver what is buffered and exit, releasing
        // their readers.
        let conns = {
            let mut c = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *c)
        };
        for weak in conns {
            if let Some(conn) = weak.upgrade() {
                conn.close();
            }
        }
        let handles = {
            let mut r = self.readers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *r)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    readers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    while !shared.core.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || reader_loop(&shared, stream));
                readers.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Drain one connection's outbox onto its socket until the outbox is
/// closed (drain, then exit) or the connection is condemned. A write
/// that fails — including one that blocks past the configured write
/// timeout — condemns the connection.
fn writer_loop(shared: &Shared, conn: &Conn) {
    let _ = conn.stream.set_write_timeout(Some(shared.core.config().write_timeout));
    loop {
        let chunk = {
            let mut o = conn.lock_outbox();
            while o.buf.is_empty() && !o.closed && !o.dead {
                o = conn.cv.wait(o).unwrap_or_else(|e| e.into_inner());
            }
            if o.dead || o.buf.is_empty() {
                return; // condemned, or closed and drained
            }
            std::mem::take(&mut o.buf)
        };
        if (&conn.stream).write_all(&chunk).is_err() {
            if conn.condemn() {
                shared.core.note_slow_disconnect();
            }
            return;
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let conn = match stream.try_clone() {
        Ok(write_half) => Arc::new(Conn::new(write_half, shared.core.config().write_buf_cap)),
        Err(_) => return,
    };
    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::downgrade(&conn));
    let writer = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer_loop(&shared, &conn))
    };
    // Short read timeouts let the reader poll the stop flag while idle;
    // arriving bytes wake it immediately.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));

    let mut frames = FrameReader::new();
    let mut events = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        if shared.core.stopping() {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        frames.push(&buf[..n], &mut events);
        for event in events.drain(..) {
            if let Some(reply) = shared.core.on_event(&conn, event) {
                let bye = matches!(reply, Response::Bye { .. });
                shared.deliver(vec![(Arc::clone(&conn), reply)]);
                if bye {
                    break 'conn; // SHUTDOWN acknowledged
                }
            }
        }
    }
    // Peer gone (EOF/error/condemned): drain what is buffered and let
    // the writer exit. On server stop the outbox stays open — join()
    // closes it once the dispatcher has fanned out the drained queue.
    if !shared.core.stopping() {
        conn.close();
    }
    let _ = writer.join();
}

/// The dispatcher under its panic supervisor: a panicking batch is
/// converted into per-request `panic:` errors, the restart counter is
/// bumped, and the loop resumes — the daemon never dies with the batch.
fn dispatcher_loop(shared: &Shared, governor_tx: Option<mpsc::Sender<GovernorJob>>) {
    let core = &shared.core;
    supervise(
        || {
            while let Some(batch) = core.pop() {
                let done = core.dispatch(batch);
                if let (Some(job), Some(tx)) = (done.governor_job, &governor_tx) {
                    let _ = tx.send(job);
                }
                shared.deliver(done.responses);
            }
        },
        |msg| {
            shared.deliver(core.recover(msg));
            true
        },
    );
}
