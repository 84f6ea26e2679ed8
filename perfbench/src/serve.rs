//! `serve-blur` and `serve-mix`: open-loop traffic on an in-process
//! `lac-serve` daemon.
//!
//! One connection carries the INFER traffic, written by one sending
//! thread on a fixed schedule and read by one receiving thread. Every
//! request is timed from its *due* time, so a stall charges every
//! request it delays. The sender also writes a PING every 50 ms; the
//! receiver turns the replies into queue-depth samples, which is how a
//! growing backlog is detected. A second connection carries control
//! frames: on serve-mix a SWAP every 250 ms alternating two trained blur
//! checkpoints, and on both a final PING for the shed/expired counters.
//!
//! Every response is compared bit for bit with an offline
//! `ServingModel::infer` of the same payload (for blur under SWAP
//! traffic, with either checkpoint's output).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lac_apps::{FilterApp, FilterKind, Kernel, ServeApp, StageMode};
use lac_core::{train_fixed, ServingModel, SessionCheckpoint, TrainConfig, TrainSession};
use lac_data::ImageDataset;
use lac_hw::catalog;
use lac_rt::json::Value;
use lac_serve::{
    serve, Client, FrameEvent, FrameReader, Registry, Request, Response, RunningServer,
    ServerConfig,
};
use lac_tensor::Tensor;

use crate::probe::{self, LR, UNIT};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Opts, SetupClock};

/// Wire payloads by application, then by pool index.
type Pools = Vec<Vec<Vec<f64>>>;

/// Distinct payloads per application; requests draw from this pool.
const POOL: u64 = 64;
/// Set-ups of an untraced run; with this few, `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Nominal rate: where p50/p99 are reported. Well below capacity.
const NOMINAL_RPS: f64 = 2000.0;
/// p99 (from due time) a ladder rate must stay under to pass.
const P99_LIMIT_MS: f64 = 25.0;
/// Median generator lag beyond which a rate is invalid: the generator
/// fell behind its schedule, so the rate was not offered. (A stall that
/// delays some sends is charged to their latency, not to validity.)
const LAG_LIMIT_MS: f64 = 1.0;
/// Queue depth at which a rate is abandoned as overloaded.
const ABORT_DEPTH: u32 = 1024;
/// Growth of mean queue depth (last third vs first third of a rate's
/// PING samples) that counts as a growing backlog: eight full batches.
const GROW_DEPTH: f64 = 128.0;
/// Ladder: first rate, coarse factor, ceiling, floor and bisection steps.
const LADDER_START: f64 = 1500.0;
const LADDER_FACTOR: f64 = 1.5;
const LADDER_MAX: f64 = 80_000.0;
const LADDER_FLOOR: f64 = 100.0;
const BISECT_STEPS: usize = 4;
const PING_EVERY: Duration = Duration::from_millis(50);
const SWAP_EVERY: Duration = Duration::from_millis(250);
const PING_BIT: u64 = 1 << 63;

/// Which traffic to offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// blur INFER only.
    Blur,
    /// blur/jpeg/inversek2j 70/10/20 plus SWAP frames.
    Mix,
}

impl Traffic {
    fn shares(self) -> Vec<(ServeApp, f64)> {
        match self {
            Traffic::Blur => vec![(ServeApp::Blur, 1.0)],
            Traffic::Mix => {
                vec![
                    (ServeApp::Blur, 0.7),
                    (ServeApp::Jpeg, 0.1),
                    (ServeApp::InverseK2j, 0.2),
                ]
            }
        }
    }
}

/// A running daemon plus the checkpoint it was started from.
pub struct Daemon {
    server: RunningServer,
    /// The primary application's model as published.
    pub model: Arc<ServingModel>,
    /// Checkpoint file of the primary model.
    pub ckpt: PathBuf,
}

impl Daemon {
    fn start(
        registry: Arc<Registry>,
        model: Arc<ServingModel>,
        ckpt: PathBuf,
    ) -> Result<Self, String> {
        let cfg = ServerConfig {
            workers: 2,
            // Overload must show as queueing and latency, never as a BUSY
            // failure: the ladder abandons a rate at ABORT_DEPTH.
            queue_cap: 1 << 16,
            // The load generator shares the daemon's two cores, so under
            // overload its receiver can fall behind for a while; that must
            // not get it condemned as a slow client (64 MiB holds every
            // response of a full queue).
            write_buf_cap: 64 << 20,
            write_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        };
        let server = serve(registry, cfg, 0).map_err(|e| format!("start daemon: {e}"))?;
        let daemon = Daemon {
            server,
            model,
            ckpt,
        };
        let mut client = daemon.client()?;
        match client.round_trip(&Request::Ping { id: 1 }) {
            Ok(Response::Pong { .. }) => Ok(daemon),
            other => {
                daemon.stop();
                Err(format!("daemon did not answer PING: {other:?}"))
            }
        }
    }

    /// A daemon serving `coeffs` of `app` on [`UNIT`], loaded from a
    /// checkpoint written to the work directory.
    pub fn start_single(opts: &Opts, app: ServeApp, coeffs: Vec<Tensor>) -> Result<Self, String> {
        let ckpt = opts.work.join(format!("{}.ck.json", app.cli_id()));
        write_checkpoint(&ckpt, app, coeffs)?;
        let model = Arc::new(ServingModel::load(&ckpt).map_err(|e| e.to_string())?);
        let registry = Arc::new(Registry::new());
        registry.swap_shared(Arc::clone(&model));
        Daemon::start(registry, model, ckpt)
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.server.port()
    }

    fn client(&self) -> Result<Client, String> {
        let client = Client::connect(self.port()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Stop the daemon and wait for every one of its threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

fn write_checkpoint(
    path: &std::path::Path,
    app: ServeApp,
    coeffs: Vec<Tensor>,
) -> Result<(), String> {
    let session = TrainSession::new(coeffs, LR);
    SessionCheckpoint::capture(&session, 0, 0, &[])
        .with_model(app.kernel_name(), UNIT)
        .save(path)
        .map_err(|e| e.to_string())
}

/// Train blur coefficients for `steps` optimizer steps.
fn train_blur(data: &ImageDataset, steps: usize, seed: u64) -> Result<Vec<Tensor>, String> {
    let kernel = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let raw = catalog::by_name(UNIT).ok_or("mul8u_FTA is not in the catalog")?;
    let mult = kernel.adapt(&raw);
    let cfg = TrainConfig::new()
        .epochs(steps)
        .learning_rate(LR)
        .minibatch(16)
        .seed(seed)
        .threads(1);
    train_fixed(&kernel, &mult, &data.train, &data.test, &cfg)
        .map(|r| r.coeffs)
        .map_err(|e| e.to_string())
}

/// Everything the open loop needs: the daemon, payload pools and the
/// offline oracle.
struct Served {
    daemon: Daemon,
    shares: Vec<(ServeApp, f64)>,
    /// `pools[app][payload]`: wire payloads.
    pools: Pools,
    /// `oracle[app][variant][payload]`: expected output bits.
    oracle: Vec<Vec<Vec<Vec<u64>>>>,
    /// SWAP checkpoints (serve-mix), alternated.
    swaps: Vec<PathBuf>,
}

/// Seconds spent in each set-up stage (for the traced run).
#[derive(Default)]
struct SetupTimes {
    generate: f64,
}

fn setup(
    opts: &Opts,
    traffic: Traffic,
    times: &mut SetupTimes,
) -> Result<(Daemon, Pools, Vec<PathBuf>), String> {
    let shares = traffic.shares();
    let t = Instant::now();
    let data = ImageDataset::generate(32, 8, 32, 32, opts.seed);
    let pools: Pools = shares
        .iter()
        .map(|&(app, _)| {
            (0..POOL)
                .map(|i| lac_serve::loadgen::payload(app, opts.seed, i))
                .collect()
        })
        .collect();
    times.generate = t.elapsed().as_secs_f64();

    let steps = if opts.smoke { 4 } else { 20 };
    let ckpt_a = opts.work.join("blur-a.ck.json");
    write_checkpoint(
        &ckpt_a,
        ServeApp::Blur,
        train_blur(&data, steps, opts.seed)?,
    )?;
    let mut swaps = Vec::new();
    if traffic == Traffic::Mix {
        let ckpt_b = opts.work.join("blur-b.ck.json");
        write_checkpoint(
            &ckpt_b,
            ServeApp::Blur,
            train_blur(&data, 2 * steps, opts.seed)?,
        )?;
        swaps = vec![ckpt_b, ckpt_a.clone()];
    }
    let registry = Arc::new(Registry::new());
    let model = Arc::new(ServingModel::load(&ckpt_a).map_err(|e| e.to_string())?);
    registry.swap_shared(Arc::clone(&model));
    for &(app, _) in &shares[1..] {
        registry.swap(ServingModel::untrained(app, UNIT).map_err(|e| e.to_string())?);
    }
    let daemon = Daemon::start(registry, model, ckpt_a)?;
    Ok((daemon, pools, swaps))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Offline outputs of every pooled payload under every model variant.
fn oracle(
    served_models: &[Vec<Arc<ServingModel>>],
    shares: &[(ServeApp, f64)],
    pools: &[Vec<Vec<f64>>],
) -> Result<Vec<Vec<Vec<Vec<u64>>>>, String> {
    let mut out = Vec::new();
    for (a, &(app, _)) in shares.iter().enumerate() {
        let mut variants = Vec::new();
        for model in &served_models[a] {
            let mut per = Vec::new();
            for values in &pools[a] {
                let sample = app.decode(values)?;
                per.push(bits(&model.infer(std::slice::from_ref(&sample), 1)?[0]));
            }
            variants.push(per);
        }
        out.push(variants);
    }
    Ok(out)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The (application, payload) of request `id`: a pure function of the
/// seed, so the stream repeats exactly and the receiver needs no table.
fn pick(seed: u64, shares: &[(ServeApp, f64)], id: u64) -> (usize, usize) {
    let h = splitmix(seed ^ splitmix(id));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    let mut app = shares.len() - 1;
    for (i, &(_, share)) in shares.iter().enumerate() {
        acc += share;
        if u < acc {
            app = i;
            break;
        }
    }
    (app, (splitmix(h) % POOL) as usize)
}

/// What one fixed rate measured.
#[derive(Debug, Default, Clone)]
struct Rung {
    rate: f64,
    sent: usize,
    /// (due offset s, latency from due ms) per response.
    lat: Vec<(f64, f64)>,
    lag_ms: Vec<f64>,
    /// (seconds since start, queue depth) per PING reply.
    depths: Vec<(f64, u32)>,
    swap_ms: Vec<f64>,
    failures: Vec<String>,
    aborted: bool,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.lat.iter().map(|l| l.1).collect();
        quantile(&v, q)
    }

    fn lag_p99(&self) -> f64 {
        quantile(&self.lag_ms, 0.99)
    }

    fn lag_p50(&self) -> f64 {
        quantile(&self.lag_ms, 0.5)
    }

    fn growing(&self) -> bool {
        if self.aborted {
            return true;
        }
        let send_s = self.sent as f64 / self.rate;
        let d: Vec<f64> = self
            .depths
            .iter()
            .filter(|(t, _)| *t <= send_s)
            .map(|&(_, q)| f64::from(q))
            .collect();
        if d.len() < 3 {
            return false;
        }
        let third = d.len() / 3;
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        mean(&d[d.len() - third..]) - mean(&d[..third]) > GROW_DEPTH
    }

    fn valid(&self) -> bool {
        self.lag_p50() <= LAG_LIMIT_MS
    }

    fn passes(&self) -> bool {
        self.valid() && !self.growing() && self.failures.is_empty() && self.p(0.99) <= P99_LIMIT_MS
    }

    fn row(&self) -> Value {
        Value::Obj(vec![
            ("rate".into(), Value::Num(self.rate)),
            ("sent".into(), Value::Num(self.sent as f64)),
            ("p50_ms".into(), Value::Num(self.p(0.5))),
            ("p99_ms".into(), Value::Num(self.p(0.99))),
            ("lag_p99_ms".into(), Value::Num(self.lag_p99())),
            (
                "max_depth".into(),
                Value::Num(self.depths.iter().map(|d| d.1).max().unwrap_or(0) as f64),
            ),
            ("growing".into(), Value::Bool(self.growing())),
            ("valid".into(), Value::Bool(self.valid())),
            ("failures".into(), Value::Num(self.failures.len() as f64)),
            ("pass".into(), Value::Bool(self.passes())),
        ])
    }
}

/// The INFER connection and its frame decoder, kept across rates so no
/// byte is lost between them.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    pings: u64,
}

/// Offer `rate` req/s for `secs` seconds and wait for every response.
fn run_rung(
    s: &Served,
    seed: u64,
    conn: &mut Conn,
    ctl: &mut Client,
    rung_idx: u64,
    rate: f64,
    secs: f64,
) -> Rung {
    let n = ((rate * secs).round() as usize).max(1);
    let base = rung_idx << 40;
    let sent_final = AtomicUsize::new(usize::MAX);
    let abort = AtomicBool::new(false);
    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    let mut wstream = match conn.stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            rung.failures.push(format!("clone stream: {e}"));
            return rung;
        }
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let pings = &mut conn.pings;
    let (rstream, reader) = (&mut conn.stream, &mut conn.reader);

    let (lag, sender_err, recv) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lag = Vec::with_capacity(n);
            let mut next_ping = t0;
            let mut err = None;
            let mut sent = 0;
            for i in 0..n {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let d = due(i);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                let now = Instant::now();
                if now >= next_ping {
                    *pings += 1;
                    let ping = Request::Ping {
                        id: PING_BIT | *pings,
                    };
                    if let Err(e) = ping.encode().map(|b| wstream.write_all(&b)) {
                        err = Some(format!("ping: {e}"));
                        break;
                    }
                    next_ping += PING_EVERY;
                }
                lag.push(now.saturating_duration_since(d).as_secs_f64() * 1e3);
                let id = base | i as u64;
                let (a, p) = pick(seed, &s.shares, id);
                let req = Request::Infer {
                    kernel: s.shares[a].0.code(),
                    id,
                    values: s.pools[a][p].clone(),
                    deadline_us: None,
                };
                match req.encode() {
                    Ok(bytes) => {
                        if let Err(e) = wstream.write_all(&bytes) {
                            err = Some(format!("send: {e}"));
                            break;
                        }
                    }
                    Err(e) => {
                        err = Some(format!("encode: {e}"));
                        break;
                    }
                }
                sent += 1;
            }
            sent_final.store(sent, Ordering::SeqCst);
            (lag, err)
        });
        let receiver = scope.spawn(|| {
            receive(
                s,
                seed,
                rstream,
                reader,
                base,
                &due,
                t0,
                &sent_final,
                &abort,
            )
        });

        // The control connection: SWAP frames while the rate runs.
        let mut swap_ms = Vec::new();
        let mut swap_fail = Vec::new();
        if !s.swaps.is_empty() {
            // The first SWAP lands early so even a short rate sees one.
            let mut next = t0 + SWAP_EVERY / 5;
            let mut k = 0usize;
            while sent_final.load(Ordering::SeqCst) == usize::MAX {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(20)));
                    continue;
                }
                next += SWAP_EVERY;
                let path = s.swaps[k % s.swaps.len()].display().to_string();
                k += 1;
                let t = Instant::now();
                match ctl.round_trip(&Request::Swap {
                    id: 1 + k as u64,
                    path,
                }) {
                    Ok(Response::Swapped { kernel, .. }) if kernel == ServeApp::Blur.code() => {
                        swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    other => swap_fail.push(format!("SWAP answered {other:?}")),
                }
            }
        }
        let (lag, err) = sender
            .join()
            .unwrap_or_else(|_| (Vec::new(), Some("sender panicked".into())));
        let recv = receiver.join().unwrap_or_else(|_| Received {
            failures: vec!["receiver panicked".into()],
            ..Default::default()
        });
        rung.swap_ms = swap_ms;
        rung.failures.extend(swap_fail);
        (lag, err, recv)
    });
    rung.sent = sent_final.load(Ordering::SeqCst).min(n);
    rung.lag_ms = lag;
    rung.lat = recv.lat;
    rung.depths = recv.depths;
    rung.failures.extend(recv.failures);
    rung.failures.extend(sender_err);
    rung.aborted = abort.load(Ordering::SeqCst);
    rung
}

#[derive(Default)]
struct Received {
    lat: Vec<(f64, f64)>,
    depths: Vec<(f64, u32)>,
    failures: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn receive(
    s: &Served,
    seed: u64,
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    base: u64,
    due: &dyn Fn(usize) -> Instant,
    t0: Instant,
    sent_final: &AtomicUsize,
    abort: &AtomicBool,
) -> Received {
    let mut r = Received::default();
    let mut buf = vec![0u8; 1 << 16];
    let mut events = Vec::new();
    let mut got = 0usize;
    let mut last_progress = Instant::now();
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(20))) {
        r.failures.push(format!("read timeout: {e}"));
        return r;
    }
    loop {
        let sent = sent_final.load(Ordering::SeqCst);
        if sent != usize::MAX && got >= sent {
            return r;
        }
        if last_progress.elapsed() > Duration::from_secs(20) {
            r.failures.push(format!(
                "timed out with {} responses missing",
                sent.saturating_sub(got)
            ));
            return r;
        }
        let k = match stream.read(&mut buf) {
            Ok(0) => {
                r.failures.push("daemon closed the connection".into());
                return r;
            }
            Ok(k) => k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => {
                r.failures.push(format!("recv: {e}"));
                return r;
            }
        };
        let now = Instant::now();
        last_progress = now;
        reader.push(&buf[..k], &mut events);
        for ev in events.drain(..) {
            let body = match ev {
                FrameEvent::Frame(body) => body,
                FrameEvent::Oversized { advertised } => {
                    r.failures
                        .push(format!("oversized response frame ({advertised} bytes)"));
                    continue;
                }
            };
            match Response::parse(&body) {
                Ok(Response::Infer { id, values }) => {
                    if id & !((1 << 40) - 1) != base {
                        r.failures
                            .push(format!("response {id:#x} is not of this rate"));
                        continue;
                    }
                    got += 1;
                    let i = (id - base) as usize;
                    let d = due(i);
                    r.lat.push((
                        d.saturating_duration_since(t0).as_secs_f64(),
                        now.saturating_duration_since(d).as_secs_f64() * 1e3,
                    ));
                    let (a, p) = pick(seed, &s.shares, id);
                    let out = bits(&values);
                    if !s.oracle[a].iter().any(|v| v[p] == out) {
                        r.failures.push(format!(
                            "{} response {id:#x} differs from the offline ServingModel::infer",
                            s.shares[a].0.cli_id()
                        ));
                    }
                }
                Ok(Response::Pong { health, .. }) => {
                    r.depths.push((
                        now.saturating_duration_since(t0).as_secs_f64(),
                        health.queue_depth,
                    ));
                    if health.queue_depth > ABORT_DEPTH {
                        abort.store(true, Ordering::SeqCst);
                    }
                }
                Ok(other) => {
                    got += usize::from(other.id() & PING_BIT == 0);
                    r.failures.push(format!("unexpected response {other:?}"));
                }
                Err(e) => r.failures.push(format!("undecodable response: {e}")),
            }
        }
    }
}

/// Timings of the run's phases.
struct Plan {
    warmup_s: f64,
    /// Nominal-rate segments and the length of each: p99_ms is the
    /// median of the segments' p99s.
    segments: usize,
    segment_s: f64,
    rung_s: f64,
}

fn plan(opts: &Opts) -> Plan {
    // 0.5 s at the nominal rate is 1000 requests: ten beyond the p99.
    let segment_s = (opts.seconds / 30.0).clamp(0.1, 0.5);
    Plan {
        warmup_s: (opts.seconds * 0.05).min(1.0),
        segments: ((opts.seconds * 0.4 / segment_s) as usize).max(2),
        segment_s,
        rung_s: (opts.seconds * 0.04).clamp(0.2, 0.6),
    }
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome, tracer: Option<Tracer>, traffic: Traffic) {
    if let Err(e) = run_inner(opts, out, tracer, traffic) {
        out.attempt(1);
        out.fail(e);
    }
}

fn run_inner(
    opts: &Opts,
    out: &mut Outcome,
    mut tracer: Option<Tracer>,
    traffic: Traffic,
) -> Result<(), String> {
    let shares = traffic.shares();
    let mut times = SetupTimes::default();
    let mut setups = SetupClock::default();
    if tracer.is_none() {
        // Each set-up starts a daemon, so they run back to back before
        // the measured rates rather than between them.
        setups.repeat(
            SETUP_REPS - 1,
            || setup(opts, traffic, &mut times),
            |made| {
                if let Ok((daemon, _, _)) = made {
                    daemon.stop();
                }
            },
        );
    }
    let made = setups.time(|| setup(opts, traffic, &mut times));
    let (daemon, pools, swaps) = made?;

    // The oracle is the benchmark's own work, outside set-up time.
    let mut models: Vec<Vec<Arc<ServingModel>>> = Vec::new();
    for (a, &(app, _)) in shares.iter().enumerate() {
        if a == 0 {
            let mut v = vec![Arc::clone(&daemon.model)];
            for p in swaps.iter().take(1) {
                v.push(Arc::new(ServingModel::load(p).map_err(|e| e.to_string())?));
            }
            models.push(v);
        } else {
            models.push(vec![Arc::new(
                ServingModel::untrained(app, UNIT).map_err(|e| e.to_string())?,
            )]);
        }
    }
    let oracle = oracle(&models, &shares, &pools)?;
    let served = Served {
        daemon,
        shares: shares.clone(),
        pools,
        oracle,
        swaps,
    };

    if let Some(tr) = tracer.as_mut() {
        tr.set("lac-data.generate_ms", times.generate * 1e3);
        let mut adapt = 0.0;
        let mut units = Vec::new();
        for &(app, w) in &shares {
            let (unit, adapt_s) = probe::serve_app_layers(tr, app, opts.seed, w);
            adapt += w * adapt_s;
            units.push(unit);
        }
        tr.set("lac-hw.adapt_ms", adapt * 1e3);
        tr.set("lac-hw.lut_bytes", probe::lut_bytes(&units));
        probe::matmul_layer(tr);
        // Idle serving probes, one per application, on the workload's
        // daemon; serve-mix times SWAP under load instead.
        for (a, &(app, w)) in shares.iter().enumerate() {
            let ckpt = if a == 0 {
                served.daemon.ckpt.clone()
            } else {
                let p = opts.work.join(format!("{}.ck.json", app.cli_id()));
                write_checkpoint(&p, app, models[a][0].coeffs().to_vec())?;
                p
            };
            probe::serving_layers(
                tr,
                &models[a][0],
                &ckpt,
                served.daemon.port(),
                opts.seed,
                w,
                traffic == Traffic::Blur,
            )?;
        }
    }

    let result = drive(opts, out, &served, tracer.as_mut());
    served.daemon.stop();
    result?;
    if tracer.is_none() {
        out.named("setup_s", "s", setups.value(), setups.secs.clone());
        out.set("setup_s", setups.value(), setups.secs);
    }
    if let Some(tr) = tracer {
        tr.finish(out);
    }
    Ok(())
}

/// The nominal-rate phase, then the ladder.
fn drive(
    opts: &Opts,
    out: &mut Outcome,
    s: &Served,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let stream =
        TcpStream::connect(("127.0.0.1", s.daemon.port())).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut conn = Conn {
        stream,
        reader: FrameReader::new(),
        pings: 0,
    };
    let mut ctl = s.daemon.client()?;
    let p = plan(opts);
    let mut rungs: Vec<Rung> = Vec::new();
    let mut idx = 0u64;
    let mut go = |rate: f64, secs: f64, conn: &mut Conn, ctl: &mut Client| {
        idx += 1;
        run_rung(s, opts.seed, conn, ctl, idx, rate, secs)
    };

    // A discarded warm-up at the nominal rate lets lazy set-up finish
    // (buffers, allocator arenas, connection threads) before timing.
    let warmup = go(NOMINAL_RPS, p.warmup_s, &mut conn, &mut ctl);
    let mut nominal: Vec<Rung> = vec![go(NOMINAL_RPS, p.segment_s, &mut conn, &mut ctl)];
    // Memory at nominal load; overloaded ladder rates queue requests
    // by design, so their transient peak is not the serving footprint.
    let rss_mb = peak_rss_mb();

    // Coarse ladder up to the first failing rate, then bisect. A nominal
    // segment runs before every ladder rate, so the nominal figures
    // sample the whole run rather than one stretch of it. A rate passes
    // if either of two attempts passes: one scheduler hiccup on a shared
    // box must not end the ladder.
    let mut ladder = |rate: f64,
                      conn: &mut Conn,
                      ctl: &mut Client,
                      rungs: &mut Vec<Rung>,
                      nominal: &mut Vec<Rung>| {
        let mut ok = false;
        for _ in 0..2 {
            if nominal.len() < p.segments {
                nominal.push(go(NOMINAL_RPS, p.segment_s, conn, ctl));
            }
            let r = go(rate, p.rung_s, conn, ctl);
            ok = r.passes();
            rungs.push(r);
            if ok {
                break;
            }
        }
        ok
    };
    // Climb until two rates in a row fail: a burst of steal on a shared
    // box can fail one rate at any load, never two in a row below
    // capacity. `fail` is the lowest failing rate above `pass`.
    let mut pass: Option<f64> = None;
    let mut fail: Option<f64> = None;
    let mut misses = 0;
    let mut rate = LADDER_START;
    while misses < 2 && rate <= LADDER_MAX {
        if ladder(rate, &mut conn, &mut ctl, &mut rungs, &mut nominal) {
            (pass, fail, misses) = (Some(rate), None, 0);
        } else {
            fail = fail.or(Some(rate));
            misses += 1;
        }
        rate *= LADDER_FACTOR;
    }
    // Should even the first rates fail, step down until one passes.
    let mut rate = LADDER_START / LADDER_FACTOR;
    while pass.is_none() && rate >= LADDER_FLOOR {
        if ladder(rate, &mut conn, &mut ctl, &mut rungs, &mut nominal) {
            pass = Some(rate);
        } else {
            fail = Some(rate);
        }
        rate /= LADDER_FACTOR;
    }
    if let (Some(mut lo), Some(mut hi)) = (pass, fail) {
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            if ladder(mid, &mut conn, &mut ctl, &mut rungs, &mut nominal) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        pass = Some(lo);
    }
    while nominal.len() < p.segments {
        nominal.push(go(NOMINAL_RPS, p.segment_s, &mut conn, &mut ctl));
    }
    let health = match ctl.round_trip(&Request::Ping { id: PING_BIT }) {
        Ok(Response::Pong { health, .. }) => health,
        other => return Err(format!("final PING answered {other:?}")),
    };

    // Correctness over every request of the run.
    let all: Vec<&Rung> = std::iter::once(&warmup)
        .chain(&nominal)
        .chain(&rungs)
        .collect();
    for r in &all {
        out.attempt(r.sent as u64 + r.swap_ms.len() as u64);
        for f in &r.failures {
            out.fail(f.clone());
        }
    }
    if health.shed + health.expired > 0 {
        out.fail(format!(
            "daemon shed {} and expired {} requests",
            health.shed, health.expired
        ));
    }
    let swap_ms: Vec<f64> = all.iter().flat_map(|r| r.swap_ms.iter().copied()).collect();
    let nominal_p99s: Vec<f64> = nominal.iter().map(|r| r.p(0.99)).collect();
    let nominal_lat: Vec<f64> = nominal
        .iter()
        .flat_map(|r| r.lat.iter().map(|l| l.1))
        .collect();
    let nominal_lag: Vec<f64> = nominal
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    out.detail(
        "nominal",
        Value::Obj(vec![
            ("rate".into(), Value::Num(NOMINAL_RPS)),
            ("segments".into(), Value::Num(nominal.len() as f64)),
            ("p50_ms".into(), Value::Num(quantile(&nominal_lat, 0.5))),
            ("p99_ms".into(), Value::Num(quantile(&nominal_lat, 0.99))),
            (
                "lag_p99_ms".into(),
                Value::Num(quantile(&nominal_lag, 0.99)),
            ),
        ]),
    );
    out.detail("ladder", Value::Arr(rungs.iter().map(Rung::row).collect()));
    out.detail("swaps", Value::Num(swap_ms.len() as f64));

    match tracer {
        None => {
            let max_rps = pass.unwrap_or(0.0);
            out.named("p50_ms", "ms", quantile(&nominal_lat, 0.5), Vec::new());
            out.named("p99_ms", "ms", median(&nominal_p99s), nominal_p99s);
            out.named("max_rps", "1/s", max_rps, Vec::new());
            if !swap_ms.is_empty() {
                out.named("swap_ms", "ms", median(&swap_ms), swap_ms.clone());
            }
            out.named("rss_mb", "MiB", rss_mb, Vec::new());
            out.set("throughput_per_s", max_rps, Vec::new());
            out.set("rss_mb", rss_mb, Vec::new());
        }
        Some(tr) => {
            let depths: Vec<f64> = all
                .iter()
                .flat_map(|r| r.depths.iter().map(|d| f64::from(d.1)))
                .collect();
            let lags: Vec<f64> = all.iter().flat_map(|r| r.lag_ms.iter().copied()).collect();
            tr.set("lac-serve.queue_depth_p99", quantile(&depths, 0.99));
            tr.set("lac-serve.shed", health.shed as f64);
            tr.set("lac-serve.expired", health.expired as f64);
            tr.set("bench.gen_lag_ms_p99", quantile(&lags, 0.99));
            if !swap_ms.is_empty() {
                tr.set("lac-serve.swap_rtt_ms", median(&swap_ms));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_follow_the_shares_and_repeat() {
        let shares = Traffic::Mix.shares();
        let mut counts = [0usize; 3];
        for id in 0..20_000 {
            let (a, p) = pick(7, &shares, id);
            assert_eq!((a, p), pick(7, &shares, id));
            assert!(p < POOL as usize);
            counts[a] += 1;
        }
        let frac = |c: usize| c as f64 / 20_000.0;
        assert!((frac(counts[0]) - 0.7).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.1).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.2).abs() < 0.02, "{counts:?}");
    }

    /// At a trivial rate the generator keeps schedule, every response is
    /// correct and the rate passes.
    #[test]
    fn generator_keeps_schedule_at_a_trivial_rate() {
        let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-work")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let opts = Opts {
            seed: 3,
            seconds: 1.0,
            smoke: true,
            work: work.clone(),
            ..Opts::default()
        };
        let mut times = SetupTimes::default();
        let (daemon, pools, swaps) = setup(&opts, Traffic::Blur, &mut times).unwrap();
        let shares = Traffic::Blur.shares();
        let models = vec![vec![Arc::clone(&daemon.model)]];
        let oracle = oracle(&models, &shares, &pools).unwrap();
        let served = Served {
            daemon,
            shares,
            pools,
            oracle,
            swaps,
        };
        let stream = TcpStream::connect(("127.0.0.1", served.daemon.port())).unwrap();
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
            pings: 0,
        };
        let mut ctl = served.daemon.client().unwrap();
        let rung = run_rung(&served, opts.seed, &mut conn, &mut ctl, 1, 200.0, 0.5);
        served.daemon.stop();
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(rung.sent, 100);
        assert_eq!(rung.lat.len(), 100);
        assert!(rung.failures.is_empty(), "{:?}", rung.failures);
        assert!(
            rung.lag_p50() < LAG_LIMIT_MS,
            "lag p90 {} ms",
            rung.lag_p50()
        );
        assert!(rung.passes(), "{:?}", rung.row().to_json());
    }
}
