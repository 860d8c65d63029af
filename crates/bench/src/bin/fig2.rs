//! Regenerates **Fig. 2** of the paper: histograms and log-domain
//! distributions of a CONV-layer weight (`conv1.weight`) and a BN-layer
//! weight (`layer4.0.bn1.weight`) across training epochs.
//!
//! The paper's observation, which this reproduces: CONV weight
//! distributions stay roughly stationary, while BN weights shift sharply in
//! the first epochs — the motivation for FP32 warm-up training.
//!
//! ```text
//! cargo run --release -p posit-bench --bin fig2 [-- --quick]
//! ```
//!
//! Any other argument is an error.

use posit_bench::{args_or_exit, CifarExperiment, Scale};
use posit_train::stats::HistogramRecorder;
use posit_train::{RunOptions, Trainer};

const PARAMS: [&str; 2] = ["conv1.weight", "layer4.0.bn1.weight"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args_or_exit(&args, &["--quick"], &[]);
    let scale = Scale::from_args(&args);
    let exp = CifarExperiment::new(scale);
    let epochs = exp.config.epochs;
    let hist_epochs: Vec<usize> = [0usize, 1, 2, epochs / 2, epochs - 1]
        .into_iter()
        .filter(|&e| e < epochs)
        .collect();
    let config = exp.config.clone().with_histograms(hist_epochs.clone());
    let mut trainer = Trainer::resnet(&config);

    // Snapshot the *initialization* (the paper's epoch-0 panel): BN γ is a
    // point mass at 1.0 here, which is what makes its early change steep.
    let mut init_rec = HistogramRecorder::new(PARAMS.iter().map(|s| s.to_string()).collect(), 32);
    init_rec.capture(trainer.net(), 0);

    let report = trainer
        .run(RunOptions::new(&exp.train, &exp.test, &config))
        .unwrap();

    for param in PARAMS {
        println!("==========================================================");
        println!("Fig. 2 panels for {param}");
        println!("==========================================================");
        let init = &init_rec.for_param(param)[0];
        println!(
            "--- init | mean {:+.4} std {:.4} (n={}) ---",
            init.values.mean, init.values.std, init.values.n
        );
        print!("{}", init.values.render(40));
        let mut early_std = init.values.std;
        let mut final_std = init.values.std;
        let init_std = init.values.std;
        for snap in report.histograms.for_param(param) {
            println!(
                "--- after epoch {} | mean {:+.4} std {:.4} (n={}) ---",
                snap.epoch, snap.values.mean, snap.values.std, snap.values.n
            );
            println!("histogram (value domain):");
            print!("{}", snap.values.render(40));
            println!("distribution (log2 |w| domain — the posit code-space view):");
            print!("{}", snap.log_magnitudes.render(40));
            if snap.epoch <= 2 {
                early_std = snap.values.std;
            }
            final_std = snap.values.std;
        }
        // The paper's qualitative claim, quantified: how much of the total
        // distribution movement happens in the first epochs?
        let early = (early_std - init_std).abs();
        let total = (final_std - init_std).abs().max(1e-9);
        println!(
            "std movement: init {:.4} -> epoch2 {:.4} -> end {:.4}  (early fraction {:.0}%)\n",
            init_std,
            early_std,
            final_std,
            100.0 * early / total
        );
    }
}
