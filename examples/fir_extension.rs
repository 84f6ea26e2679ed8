//! Extension showcase: LAC on a 1-D FIR filter with multi-start training.
//!
//! The FIR kernel is not part of the paper's Table II; it demonstrates
//! that the `Kernel` trait generalizes beyond the published applications
//! ("LAC is not limited to machine learning-type applications ... the
//! only constraint is that the application kernels should be
//! parameterizable"). Multi-start training additionally explores
//! power-of-two rescalings of the taps that plain gradient descent cannot
//! discover.
//!
//! Run with: `cargo run --release --example fir_extension`

use lac::apps::{FirApp, FirKind, FirStageMode, Kernel};
use lac::core::{train_fixed, train_fixed_multistart, NullObserver, TrainConfig};
use lac::data::SignalDataset;
use lac::hw::catalog;

fn main() {
    let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
    let data = SignalDataset::generate(32, 8, 256, 42);
    let config = TrainConfig::new().epochs(120).learning_rate(2.0).minibatch(8).seed(4);

    println!(
        "{:<12} {:>10} {:>12} {:>16}",
        "multiplier", "before", "plain LAC", "multi-start LAC"
    );
    for name in ["ETM8-k4", "mul8u_JV3", "mul8u_FTA", "DRUM16-4", "mitchell16u", "ssm16-8"] {
        let mult = app.adapt(&catalog::by_name(name).expect("catalog unit"));
        let plain = train_fixed(&app, &mult, &data.train, &data.test, &config)
            .expect("training diverged");
        let multi = train_fixed_multistart(
            &app,
            &mult,
            &data.train,
            &data.test,
            &config,
            &[0, 3, 5],
            &mut NullObserver,
        )
        .expect("training diverged");
        println!(
            "{:<12} {:>8.2}dB {:>10.2}dB {:>14.2}dB",
            name, plain.before, plain.after, multi.after
        );
    }
    println!("\n(PSNR vs the accurate branch; higher is better)");
}
