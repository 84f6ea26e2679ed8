//! Serial multi-hardware NAS on the 3-stage JPEG pipeline (Fig. 12).
//!
//! Each pipeline stage (forward DCT, dequantize, inverse DCT) carries its
//! own binarized gate, so the search can assign a different approximate
//! multiplier to each stage under a mean-area budget.
//!
//! Run with: `cargo run --release --example jpeg_multi_hardware`

use lac::apps::{JpegApp, JpegMode, Kernel};
use lac::core::{search_multi, MultiObjective, NullObserver, TrainConfig};
use lac::data::ImageDataset;
use lac::hw::catalog;

fn main() {
    let app = JpegApp::new(JpegMode::ThreeStage);
    let data = ImageDataset::generate(24, 8, 32, 32, 11);

    // A compact candidate set keeps the example quick; the fig12 bench
    // binary runs the full catalog.
    let names = ["DRUM16-4", "DRUM16-6", "mul16s_GK2", "mul8u_FTA"];
    let candidates: Vec<_> = names
        .iter()
        .map(|n| app.adapt(&catalog::by_name(n).expect("catalog unit")))
        .collect();

    // The paper's serial-NAS hyperparameters: gamma = 1.0, delta = 300.
    let objective =
        MultiObjective::AreaConstrained { area_threshold: 0.5, gamma: 1.0, delta: 300.0 };
    let config = TrainConfig::new().epochs(120).learning_rate(2.0).minibatch(8).seed(5);
    let result = search_multi(
        &app,
        &candidates,
        &data.train,
        &data.test,
        &config,
        0.8,
        objective,
        &mut NullObserver,
    );

    println!("search finished in {:.1}s", result.seconds);
    println!("stage assignment:");
    for (stage, mult) in result.assignment() {
        println!("  {:<8} -> {}", stage, mult);
    }
    println!("mean area: {:.3} (budget 0.5)", result.area);
    println!("PSNR vs accurate branch: {:.2} dB", result.quality);
}
