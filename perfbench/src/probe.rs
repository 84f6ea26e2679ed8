//! Per-layer probes: timed calls into each layer's public functions.
//!
//! Every traced run calls these for the applications its workload uses,
//! so each per-layer metric is measured on the same inputs the workload
//! sees. Serving-side probes run against the workload's own idle daemon
//! (or, for train-jpeg, one started for the trained model).

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lac_apps::{AppKernel, CnnApp, JpegApp, JpegMode, Kernel, ServeApp, ServeSample};
use lac_core::{batch_grads, batch_outputs, batch_references, quality, ServingModel};
use lac_data::{CnnDataset, IkDataset, ImageDataset};
use lac_hw::{catalog, HwMetadata, LutMultiplier, Multiplier, Signedness};
use lac_serve::{Client, FrameEvent, FrameReader, Registry, Request, Response};
use lac_tensor::{Adam, Graph, Tensor};

use crate::trace::Tracer;

/// The approximate unit every workload trains and serves on.
pub const UNIT: &str = "mul8u_FTA";

/// Adam learning rate of the image workloads (the paper drivers' value).
pub const LR: f64 = 2.0;

/// A pass-through multiplier that counts the products it computes. It
/// hides the inner unit's product table, so every product of a forward
/// pass goes through [`Multiplier::multiply_raw`] exactly once.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Multiplier>,
    count: AtomicU64,
}

impl Multiplier for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bits(&self) -> u32 {
        self.inner.bits()
    }
    fn signedness(&self) -> Signedness {
        self.inner.signedness()
    }
    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.multiply_raw(a, b)
    }
    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
    fn operand_range(&self) -> (i64, i64) {
        self.inner.operand_range()
    }
}

/// Approximate multiplies of one forward pass of `sample`.
fn products_per_sample<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    sample: &K::Sample,
) -> f64 {
    let counters: Vec<Arc<Counting>> = mults
        .iter()
        .map(|m| {
            Arc::new(Counting {
                inner: Arc::clone(m),
                count: AtomicU64::new(0),
            })
        })
        .collect();
    let counting: Vec<Arc<dyn Multiplier>> = counters
        .iter()
        .map(|c| Arc::clone(c) as Arc<dyn Multiplier>)
        .collect();
    black_box(batch_outputs(
        kernel,
        coeffs,
        &counting,
        std::slice::from_ref(sample),
        1,
    ));
    counters
        .iter()
        .map(|c| c.count.load(Ordering::Relaxed) as f64)
        .sum()
}

/// Bytes of the product tables behind `units` (8 × side², computed).
pub fn lut_bytes(units: &[Arc<dyn Multiplier>]) -> f64 {
    units
        .iter()
        .filter_map(|m| m.as_lut())
        .map(|l| (l.table().len() * 8) as f64)
        .sum()
}

/// Forward, gradient, optimizer, evaluation and metric layers of one
/// kernel, each added to the tracer with weight `w`.
#[allow(clippy::too_many_arguments)]
pub fn kernel_layers<K: Kernel + Sync>(
    tr: &mut Tracer,
    kernel: &K,
    mults: &[Arc<dyn Multiplier>],
    coeffs: &[Tensor],
    batch: &[K::Sample],
    test: &[K::Sample],
    lr: f64,
    w: f64,
) {
    let n = batch.len() as f64;
    let refs = batch_references(kernel, batch);
    let fwd = tr.median_span(3, 0.15, || {
        black_box(batch_outputs(kernel, coeffs, mults, batch, 1));
    }) / n;
    let overhead = tr.overhead_on(|| {
        black_box(batch_outputs(kernel, coeffs, mults, batch, 1));
    });
    let grads_s = tr.median_span(3, 0.15, || {
        black_box(batch_grads(kernel, coeffs, mults, batch, &refs, 1));
    }) / n;
    let (grads, _) = batch_grads(kernel, coeffs, mults, batch, &refs, 1);
    let mut params = coeffs.to_vec();
    let mut adam = Adam::new(lr);
    let adam_s = tr.median_span(5, 0.05, || {
        let mut p: Vec<&mut Tensor> = params.iter_mut().collect();
        adam.step(&mut p, &grads);
    });
    let test_refs = batch_references(kernel, test);
    let eval_s = tr.median_span(3, 0.15, || {
        black_box(quality(kernel, coeffs, mults, test, &test_refs, 1));
    });
    let outputs = batch_outputs(kernel, coeffs, mults, test, 1);
    let metric = kernel.metric();
    let evaluate_s = tr.median_span(5, 0.05, || {
        black_box(metric.evaluate(&outputs, &test_refs));
    });
    let products = products_per_sample(kernel, coeffs, mults, &batch[0]);

    tr.add("lac-apps.forward_us_per_sample", w * fwd * 1e6);
    tr.add("lac-core.grads_us_per_sample", w * grads_s * 1e6);
    tr.add("lac-core.backward_us_per_sample", w * (grads_s - fwd) * 1e6);
    tr.add("lac-tensor.adam_us", w * adam_s * 1e6);
    tr.add("lac-core.eval_ms", w * eval_s * 1e3);
    tr.add("lac-metrics.evaluate_us", w * evaluate_s * 1e6);
    tr.add("lac-apps.products_per_sample", w * products);
    tr.add("bench.trace_overhead_frac", w * overhead);
}

/// Kernel-side layers of a servable application, on a small seeded
/// dataset of that application, weighted by `w`. Returns the adapted
/// unit and the seconds its adaptation took; recording those is left to
/// the caller, which knows the workload's set-up.
pub fn serve_app_layers(
    tr: &mut Tracer,
    app: ServeApp,
    seed: u64,
    w: f64,
) -> (Arc<dyn Multiplier>, f64) {
    let kernel = app.build();
    // The serving datapath: the unit's product table, adapted to the
    // kernel, as `ServingModel` builds each mode.
    let raw = catalog::by_name(UNIT).expect("mul8u_FTA is in the catalog");
    let (mult, adapt_s) = tr.span(|| kernel.adapt(&LutMultiplier::maybe_wrap(raw)));
    let mults = vec![Arc::clone(&mult)];
    let coeffs = kernel.init_coeffs(&mults);
    match &kernel {
        AppKernel::Filter(k) => {
            let data = ImageDataset::generate(8, 8, 32, 32, seed);
            kernel_layers(tr, k, &mults, &coeffs, &data.train, &data.test, LR, w);
        }
        AppKernel::Jpeg(k) => {
            let data = ImageDataset::generate(8, 8, 32, 32, seed);
            kernel_layers(tr, k, &mults, &coeffs, &data.train, &data.test, LR, w);
        }
        AppKernel::Dft(k) => {
            let data = ImageDataset::generate(8, 8, 32, 32, seed);
            kernel_layers(tr, k, &mults, &coeffs, &data.train, &data.test, LR, w);
        }
        AppKernel::InverseK2j(k) => {
            let data = IkDataset::generate(8, 8, seed);
            kernel_layers(tr, k, &mults, &coeffs, &data.train, &data.test, 50.0, w);
        }
    }
    (mult, adapt_s)
}

/// Kernel-side layers of the CNN classifier under `mults` (one per
/// layer), on a minibatch of its seeded dataset.
pub fn cnn_layers(tr: &mut Tracer, data: &CnnDataset, mults: &[Arc<dyn Multiplier>]) {
    let kernel = CnnApp::paper();
    let coeffs = kernel.init_coeffs(mults);
    let batch = &data.train[..8.min(data.train.len())];
    kernel_layers(tr, &kernel, mults, &coeffs, batch, &data.test, LR, 1.0);
}

/// The DCT-shape approximate matmul ([8,8]×[8,8] on the signed
/// mul8u_FTA table), replayed through `Var::approx_matmul`.
pub fn matmul_layer(tr: &mut Tracer) {
    const CALLS: usize = 200;
    let app = JpegApp::new(JpegMode::Single);
    let raw = catalog::by_name(UNIT).expect("mul8u_FTA is in the catalog");
    let mult = app.adapt(&raw);
    let c = app.init_coeffs(std::slice::from_ref(&mult)).swap_remove(0);
    let x = Tensor::from_vec(
        (0..64).map(|i| ((i * 37) % 200) as f64 - 100.0).collect(),
        &[8, 8],
    );
    let graph = Graph::new();
    let per_call = tr.median_span(5, 0.2, || {
        for _ in 0..CALLS {
            graph.reset();
            let a = graph.var(c.clone());
            let b = graph.constant(x.clone());
            black_box(a.approx_matmul(&b, &mult).value());
        }
    }) / CALLS as f64;
    tr.set("lac-tensor.matmul_ns_per_product", per_call / 512.0 * 1e9);
}

/// Decoded samples and wire payloads of `app` for serving probes.
pub fn serve_samples(app: ServeApp, seed: u64, n: usize) -> Vec<(Vec<f64>, ServeSample)> {
    (0..n as u64)
        .map(|i| {
            let values = lac_serve::loadgen::payload(app, seed, i);
            let sample = app.decode(&values).expect("generated payloads decode");
            (values, sample)
        })
        .collect()
}

/// Serving-side layers of `model` (weight `w`): batched inference,
/// checkpoint load, registry swap, wire codec, and round trips on the
/// idle daemon at `port`. `swap_rtt` also times idle SWAP round trips.
pub fn serving_layers(
    tr: &mut Tracer,
    model: &Arc<ServingModel>,
    ckpt: &Path,
    port: u16,
    seed: u64,
    w: f64,
    swap_rtt: bool,
) -> Result<(), String> {
    let app = model.app();
    let pool = serve_samples(app, seed, 16);
    let samples: Vec<ServeSample> = pool.iter().map(|(_, s)| s.clone()).collect();
    for (b, name) in [
        (1, "lac-core.infer_us_per_sample.b1"),
        (8, "lac-core.infer_us_per_sample.b8"),
        (16, "lac-core.infer_us_per_sample.b16"),
    ] {
        let secs = tr.median_span(3, 0.1, || {
            black_box(model.infer(&samples[..b], 1).expect("infer"));
        });
        tr.add(name, w * secs / b as f64 * 1e6);
    }
    let load_s = tr.median_span(3, 0.1, || {
        black_box(ServingModel::load(ckpt).expect("checkpoint loads"));
    });
    tr.add("lac-core.load_ms", w * load_s * 1e3);
    let registry = Registry::new();
    let swap_s = tr.median_span(20, 0.02, || {
        black_box(registry.swap_shared(Arc::clone(model)));
    });
    tr.add("lac-serve.registry.swap_ms", w * swap_s * 1e3);

    let values = pool[0].0.clone();
    let request = Request::Infer {
        kernel: app.code(),
        id: 7,
        values,
        deadline_us: None,
    };
    let encode_s = tr.median_span(50, 0.05, || {
        black_box(request.encode().expect("encodes"));
    });
    tr.add("lac-serve.protocol.encode_us", w * encode_s * 1e6);
    let output = model.infer(&samples[..1], 1)?.swap_remove(0);
    let frame = Response::Infer {
        id: 7,
        values: output,
    }
    .encode()?;
    let decode_s = tr.median_span(50, 0.05, || {
        let mut reader = FrameReader::new();
        let mut events = Vec::new();
        reader.push(&frame, &mut events);
        for e in events {
            if let FrameEvent::Frame(body) = e {
                black_box(Response::parse(&body).expect("parses"));
            }
        }
    });
    tr.add("lac-serve.protocol.decode_us", w * decode_s * 1e6);

    let mut client = Client::connect(port).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let rtt = tr.median_span(50, 0.2, || {
        black_box(client.round_trip(&request).expect("idle round trip"));
    });
    tr.add("lac-serve.rtt_idle_us", w * rtt * 1e6);
    if swap_rtt {
        let swap = Request::Swap {
            id: 9,
            path: ckpt.display().to_string(),
        };
        let secs = tr.median_span(3, 0.1, || {
            black_box(client.round_trip(&swap).expect("idle swap"));
        });
        tr.add("lac-serve.swap_rtt_ms", w * secs * 1e3);
    }
    Ok(())
}
