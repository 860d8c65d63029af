//! Regenerates **Table III** of the paper: validation accuracy of FP32
//! baseline vs posit training on the CIFAR-10 and ImageNet stand-ins
//! (DESIGN.md §2 documents the dataset/model substitutions; absolute
//! accuracies differ from the paper, the *gap* between FP32 and posit is
//! the reproduced quantity).
//!
//! ```text
//! cargo run --release -p posit-bench --bin table3 -- [cifar|imagenet|all] [--quick] \
//!     [--backend=<f32|posit-quire>] [--model=<resnet|lenet>] \
//!     [--data-parallel=<lanes>] [--grad-accum=<steps>]
//! ```
//!
//! `--backend` selects the GEMM kernel family for the posit runs: `f32`
//! (the paper's simulation, default) or `posit-quire` (decode-once posit
//! kernels with exact quire accumulation — several times slower, pair
//! with `--quick`).
//!
//! `--data-parallel`/`--grad-accum` shard the posit runs' mini-batches
//! through the exact quire all-reduce (bit-identical to serial — see
//! "Deterministic data parallelism" in README.md). They require
//! `--backend=posit-quire` plus the batch-separable `--model=lenet`: the
//! ResNet's batch normalization couples rows through batch statistics, so
//! the trainer refuses to shard it.

use posit_bench::{
    backend_from_args, dp_from_args, paper, print_table3_row, run_logged_trainer, CifarExperiment,
    ImageNetExperiment, Scale, TableModel,
};
use posit_train::QuantSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let backend = backend_from_args(&args);
    let model = TableModel::from_args(&args);
    let (lanes, accum) = dp_from_args(&args);
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    println!("TABLE III: TRAINING CONFIGURATIONS AND VALIDATE ACCURACIES RESULTS");
    println!(
        "(scaled reproduction; paper reference: CIFAR {:.2} -> {:.2}, ImageNet {:.2} -> {:.2})",
        paper::CIFAR_FP32,
        paper::CIFAR_POSIT,
        paper::IMAGENET_FP32,
        paper::IMAGENET_POSIT
    );
    println!();

    if which == "cifar" || which == "all" {
        let exp = CifarExperiment::with_min_side(scale, model.min_side());
        let base_cfg = model.tune(exp.config.clone());
        let fp32 = run_logged_trainer(
            "CIFAR stand-in, FP32 baseline",
            model.trainer(&base_cfg, exp.side),
            &exp.train,
            &exp.test,
            &base_cfg,
        );
        let posit_cfg = base_cfg
            .clone()
            .with_quant(QuantSpec::cifar_paper().with_backend(backend))
            .with_data_parallel(lanes)
            .with_grad_accum(accum);
        let posit = run_logged_trainer(
            &format!(
                "CIFAR stand-in, posit (8,1)/(8,2) CONV + (16,1)/(16,2) BN, warm-up 1, {} kernels",
                backend.name()
            ),
            model.trainer(&posit_cfg, exp.side),
            &exp.train,
            &exp.test,
            &posit_cfg,
        );
        println!("--- CIFAR-10 stand-in ---");
        print_table3_row("synthetic-CIFAR-10", model.label(), &fp32, &posit);
        println!(
            "batch size         {}\nepochs             {}\noptimizer          SGD with Moment 0.9\nwarm-up            1 epoch\n",
            posit_cfg.batch_size, posit_cfg.epochs
        );
    }

    if which == "imagenet" || which == "all" {
        let exp = ImageNetExperiment::with_min_side(scale, model.min_side());
        let base_cfg = model.tune(exp.config.clone());
        let fp32 = run_logged_trainer(
            "ImageNet stand-in, FP32 baseline",
            model.trainer(&base_cfg, exp.side),
            &exp.train,
            &exp.test,
            &base_cfg,
        );
        let posit_cfg = base_cfg
            .clone()
            .with_quant(QuantSpec::imagenet_paper().with_backend(backend))
            .with_data_parallel(lanes)
            .with_grad_accum(accum);
        let posit = run_logged_trainer(
            &format!(
                "ImageNet stand-in, posit (16,1) fwd/update + (16,2) bwd, warm-up 5, {} kernels",
                backend.name()
            ),
            model.trainer(&posit_cfg, exp.side),
            &exp.train,
            &exp.test,
            &posit_cfg,
        );
        println!("--- ImageNet stand-in ---");
        print_table3_row("synthetic-ImageNet", model.label(), &fp32, &posit);
        println!(
            "batch size         {}\nepochs             {}\noptimizer          SGD with Moment 0.9\nwarm-up            {} epochs\n",
            posit_cfg.batch_size, posit_cfg.epochs, posit_cfg.warmup_epochs
        );
    }
}
