//! Ablations backing the design choices the paper asserts qualitatively in
//! §III-B (DESIGN.md experiments A1–A4):
//!
//! * `warmup`   — A1: warm-up on/off for the 8-bit CIFAR recipe;
//! * `scaling`  — A2: Eq. 2–3 distribution shifting on/off + σ sweep;
//! * `es`       — A3: es ∈ {0,1,2,3} uniform formats + §III-B criterion;
//! * `rounding` — A4: round-to-zero vs nearest-even vs stochastic;
//! * `master`   — A5: FP32 vs posit master weights (the RTZ ratchet).
//!
//! ```text
//! cargo run --release -p posit-bench --bin ablations -- <warmup|scaling|es|rounding|master|all> [--quick]
//! ```
//!
//! An unknown flag or ablation name is an error that lists the valid ones.

use posit::{PositFormat, Rounding};
use posit_bench::{args_or_exit, run_logged, CifarExperiment, Scale};
use posit_train::es_select::{select_es, LogRange};
use posit_train::{MasterWeights, QuantSpec, RunOptions, Trainer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args_or_exit(
        &args,
        &["--quick"],
        &["warmup", "scaling", "es", "rounding", "master", "all"],
    )
    .unwrap_or("all");
    let scale = Scale::from_args(&args);

    if which == "warmup" || which == "all" {
        ablate_warmup(scale);
    }
    if which == "scaling" || which == "all" {
        ablate_scaling(scale);
    }
    if which == "es" || which == "all" {
        ablate_es(scale);
    }
    if which == "rounding" || which == "all" {
        ablate_rounding(scale);
    }
    if which == "master" || which == "all" {
        ablate_master(scale);
    }
}

fn ablate_master(scale: Scale) {
    println!("=== A5: master-weight policy (DESIGN.md §5.4b — the RTZ ratchet) ===");
    let exp = CifarExperiment::new(scale);
    for (label, master) in [
        ("FP32 master (default)", MasterWeights::Fp32),
        ("posit master (ratchet)", MasterWeights::Posit),
    ] {
        let spec = QuantSpec::cifar_paper().with_master(master);
        let cfg = trimmed(&exp).with_quant(spec);
        let r = run_logged(label, &exp.train, &exp.test, &cfg);
        println!("{label}: best test acc {:.2}%", 100.0 * r.best_test_acc);
    }
}

fn trimmed(exp: &CifarExperiment) -> posit_train::TrainConfig {
    // The ablation sweeps run many configurations; cap the schedule so the
    // whole suite stays within minutes while the effects remain visible.
    let mut cfg = exp.config.clone();
    cfg.epochs = cfg.epochs.min(8);
    cfg
}

fn ablate_warmup(scale: Scale) {
    println!("=== A1: warm-up training (paper §III-B: required for convergence) ===");
    let exp = CifarExperiment::new(scale);
    for warmup in [0usize, 1, 2] {
        let cfg = trimmed(&exp)
            .with_quant(QuantSpec::cifar_paper())
            .with_warmup(warmup);
        let r = run_logged(&format!("warm-up = {warmup}"), &exp.train, &exp.test, &cfg);
        println!(
            "warmup {warmup}: best test acc {:.2}%",
            100.0 * r.best_test_acc
        );
    }
}

fn ablate_scaling(scale: Scale) {
    println!("=== A2: distribution-based shifting (Eq. 2-3) ===");
    let exp = CifarExperiment::new(scale);
    for (label, spec) in [
        ("scaling ON,  sigma=2 (paper)", QuantSpec::cifar_paper()),
        (
            "scaling ON,  sigma=0",
            QuantSpec::cifar_paper().with_sigma(0),
        ),
        (
            "scaling ON,  sigma=4",
            QuantSpec::cifar_paper().with_sigma(4),
        ),
        ("scaling OFF", QuantSpec::cifar_paper().without_scaling()),
    ] {
        let cfg = trimmed(&exp).with_quant(spec);
        let r = run_logged(label, &exp.train, &exp.test, &cfg);
        println!("{label}: best test acc {:.2}%", 100.0 * r.best_test_acc);
    }
}

fn ablate_es(scale: Scale) {
    println!("=== A3: dynamic range / es selection (paper §III-B) ===");
    // First the criterion itself, measured on real training tensors.
    let exp = CifarExperiment::new(scale);
    let cfg = trimmed(&exp);
    let mut trainer = Trainer::resnet(&cfg);
    let _ = trainer
        .run(RunOptions::new(&exp.train, &exp.test, &cfg))
        .unwrap();
    println!("log-domain spans of trained parameters (criterion inputs):");
    use posit_nn::Layer;
    for p in trainer.net().params().iter().take(8) {
        if let Some(r) = LogRange::measure(p.value.data()) {
            println!(
                "  {:<28} span {:>6.1} binades -> es(n=8) = {}",
                p.name,
                r.span(),
                select_es(8, r.span())
            );
        }
    }
    // Then end-to-end accuracy for uniform es choices.
    for es in 0..=2u32 {
        let spec = QuantSpec::uniform(PositFormat::of(8, es));
        let cfg = trimmed(&exp).with_quant(spec);
        let r = run_logged(
            &format!("uniform posit(8,{es})"),
            &exp.train,
            &exp.test,
            &cfg,
        );
        println!("es={es}: best test acc {:.2}%", 100.0 * r.best_test_acc);
    }
}

fn ablate_rounding(scale: Scale) {
    println!("=== A4: rounding mode of the P(.) operator ===");
    let exp = CifarExperiment::new(scale);
    for mode in [
        Rounding::ToZero,
        Rounding::NearestEven,
        Rounding::Stochastic,
    ] {
        let spec = QuantSpec::cifar_paper().with_rounding(mode);
        let cfg = trimmed(&exp).with_quant(spec);
        let r = run_logged(&format!("{mode}"), &exp.train, &exp.test, &cfg);
        println!("{mode}: best test acc {:.2}%", 100.0 * r.best_test_acc);
    }
}
