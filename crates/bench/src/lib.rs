//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper maps to one binary in `src/bin/`
//! (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | artifact | binary |
//! |---|---|
//! | Table I (posit structure) | `table1` |
//! | Fig. 2 (weight histograms) | `fig2` |
//! | Fig. 3 (dataflow) | asserted by `tests/fig3_dataflow.rs` at the root |
//! | Table III (training accuracy) | `table3` |
//! | Table IV (encoder/decoder) | `table4` |
//! | Fig. 4–6 (MAC circuits) | `table4`/`table5` + `mac_hardware` example |
//! | Table V (MAC power/area) | `table5` |
//! | A1–A4 ablations | `ablations` |

use posit_data::{Dataset, SyntheticCifar, SyntheticImageNet};
use posit_nn::StepLr;
use posit_train::{ComputeBackend, QuantSpec, RunOptions, TrainConfig, TrainReport, Trainer};

/// Size preset for the training experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run (CI-friendly).
    Quick,
    /// The default minutes-scale run reported in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parse from a CLI flag (`--quick`).
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// Parse a `--backend=<f32|posit-quire>` flag (default
/// `f32`) — the trainer-level A/B switch over GEMM kernel families.
///
/// # Errors
///
/// Returns the message to print for an unknown backend name, listing the
/// valid ones.
pub fn backend_from_args(args: &[String]) -> Result<ComputeBackend, String> {
    match args.iter().find_map(|a| a.strip_prefix("--backend=")) {
        None => Ok(ComputeBackend::default()),
        Some(v) => ComputeBackend::parse(v)
            .ok_or_else(|| format!("unknown backend '{v}' (valid: f32, posit-quire)")),
    }
}

/// Check a binary's arguments against what it accepts, and return the
/// experiment name (the one argument not starting with `--`), if any.
///
/// `flags` lists the accepted flags; one ending in `=` takes a value
/// (`"--backend="` accepts `--backend=f32`). `names` lists the accepted
/// experiment names (empty when the binary takes none). A typo must not
/// silently run a different experiment, so an unknown flag, an unknown
/// name or a second name is an error that lists the valid choices.
///
/// # Errors
///
/// Returns the message to print.
pub fn check_args<'a>(
    args: &'a [String],
    flags: &[&str],
    names: &[&str],
) -> Result<Option<&'a str>, String> {
    let mut name = None;
    for a in args {
        if a.starts_with("--") {
            let known = flags.iter().any(|f| match f.strip_suffix('=') {
                Some(_) => a.starts_with(f),
                None => a == f,
            });
            if !known {
                return Err(format!("unknown flag '{a}' (valid: {})", flags.join(", ")));
            }
        } else if !names.contains(&a.as_str()) {
            return Err(if names.is_empty() {
                format!("unexpected argument '{a}' (this binary takes no experiment name)")
            } else {
                format!("unknown experiment '{a}' (valid: {})", names.join(", "))
            });
        } else if let Some(first) = name.replace(a.as_str()) {
            return Err(format!("two experiment names: '{first}' and '{a}'"));
        }
    }
    Ok(name)
}

/// For a binary's `main`: unwrap a command-line check, or print its
/// error and exit with status 2.
pub fn or_exit<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`check_args`] for a binary's `main`: print the error and exit with
/// status 2 on a bad command line.
pub fn args_or_exit<'a>(args: &'a [String], flags: &[&str], names: &[&str]) -> Option<&'a str> {
    or_exit(check_args(args, flags, names))
}

/// Model family for the training-table binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableModel {
    /// The paper's scaled ResNet-18 (default; contains batch norm).
    Resnet,
    /// BN-free LeNet (needs image side >= 16).
    Lenet,
}

impl TableModel {
    /// Parse a `--model=<resnet|lenet>` flag (default `resnet`).
    ///
    /// # Errors
    ///
    /// Returns the message to print for an unknown model name, listing
    /// the valid ones.
    pub fn from_args(args: &[String]) -> Result<TableModel, String> {
        match args.iter().find_map(|a| a.strip_prefix("--model=")) {
            None | Some("resnet") => Ok(TableModel::Resnet),
            Some("lenet") => Ok(TableModel::Lenet),
            Some(v) => Err(format!("unknown model '{v}' (valid: resnet, lenet)")),
        }
    }

    /// Display name in the Table III layout.
    pub fn label(self) -> &'static str {
        match self {
            TableModel::Resnet => "ResNet-18 (scaled)",
            TableModel::Lenet => "LeNet",
        }
    }

    /// Smallest image side the model accepts (LeNet's two valid 5×5
    /// convolutions need 16; the ResNet handles anything the pools allow).
    pub fn min_side(self) -> usize {
        match self {
            TableModel::Resnet => 0,
            TableModel::Lenet => 16,
        }
    }

    /// Build the trainer for `config` on `side`-pixel RGB inputs.
    pub fn trainer(self, config: &TrainConfig, side: usize) -> Trainer {
        match self {
            TableModel::Resnet => Trainer::resnet(config),
            TableModel::Lenet => Trainer::lenet(config, 3, side),
        }
    }

    /// Per-model schedule fix-up: LeNet has no batch norm to absorb the
    /// ResNet schedule's 0.05 peak rate (it collapses to dead ReLUs), so
    /// its runs restart the same step schedule from 0.02.
    pub fn tune(self, config: TrainConfig) -> TrainConfig {
        match self {
            TableModel::Resnet => config,
            TableModel::Lenet => {
                let mut cfg = config;
                cfg.schedule =
                    StepLr::new(0.02, vec![cfg.epochs * 6 / 10, cfg.epochs * 8 / 10], 0.1);
                cfg
            }
        }
    }
}

/// The CIFAR-10 stand-in experiment fixture (Table III, left column).
pub struct CifarExperiment {
    /// Training split.
    pub train: Dataset,
    /// Held-out split.
    pub test: Dataset,
    /// Baseline config (FP32); attach quant specs for the posit runs.
    pub config: TrainConfig,
    /// Image side the splits were generated at.
    pub side: usize,
}

impl CifarExperiment {
    /// Build the fixture at a scale. The Full noise level (2.2) is chosen
    /// so the FP32 baseline lands in the 80-95% band like the paper's
    /// CIFAR-10 runs, rather than saturating at 100%.
    pub fn new(scale: Scale) -> CifarExperiment {
        CifarExperiment::with_min_side(scale, 0)
    }

    /// Same fixture with the image side clamped up to `min_side` (LeNet
    /// rejects the Quick preset's side-8 images; see
    /// [`TableModel::min_side`]).
    pub fn with_min_side(scale: Scale, min_side: usize) -> CifarExperiment {
        let (side, n_train, n_test, base, epochs, noise) = match scale {
            Scale::Quick => (8, 320, 80, 4, 6, 0.7),
            Scale::Full => (16, 2560, 640, 8, 18, 2.2),
        };
        let side = side.max(min_side);
        let gen = SyntheticCifar::with_noise(side, 42, noise);
        CifarExperiment {
            train: gen.train(n_train, 1),
            test: gen.test(n_test, 1),
            config: TrainConfig::cifar_scaled(base, epochs).with_seed(7),
            side,
        }
    }
}

/// The ImageNet stand-in experiment fixture (Table III, right column).
pub struct ImageNetExperiment {
    /// Training split.
    pub train: Dataset,
    /// Held-out split.
    pub test: Dataset,
    /// Baseline config (FP32).
    pub config: TrainConfig,
    /// Image side the splits were generated at.
    pub side: usize,
}

impl ImageNetExperiment {
    /// Build the fixture at a scale (Full noise tuned like
    /// [`CifarExperiment::new`], targeting the paper's ~71% ImageNet band).
    pub fn new(scale: Scale) -> ImageNetExperiment {
        ImageNetExperiment::with_min_side(scale, 0)
    }

    /// Same fixture with the image side clamped up to `min_side` (see
    /// [`CifarExperiment::with_min_side`]).
    pub fn with_min_side(scale: Scale, min_side: usize) -> ImageNetExperiment {
        let (side, classes, n_train, n_test, base, epochs, noise) = match scale {
            Scale::Quick => (8, 10, 400, 100, 4, 6, 0.9),
            Scale::Full => (16, 20, 3200, 800, 8, 18, 2.4),
        };
        let side = side.max(min_side);
        let gen = SyntheticImageNet::with_noise(side, classes, 43, noise);
        ImageNetExperiment {
            train: gen.train(n_train, 1),
            test: gen.test(n_test, 1),
            config: TrainConfig::imagenet_scaled(base, classes, epochs).with_seed(7),
            side,
        }
    }
}

/// Run one configuration on the scaled ResNet and return its report,
/// logging per-epoch lines to stderr.
pub fn run_logged(
    label: &str,
    train: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    run_logged_trainer(label, Trainer::resnet(config), train, test, config)
}

/// [`run_logged`] on a caller-built trainer (e.g. [`TableModel::trainer`]).
pub fn run_logged_trainer(
    label: &str,
    mut trainer: Trainer,
    train: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    eprintln!("== {label} ==");
    trainer
        .run(RunOptions::new(train, test, config).on_epoch(|e| {
            eprintln!(
                "  epoch {:>3} [{:>9}] lr {:<7.4} loss {:<7.4} train {:>5.1}% test {:>5.1}%",
                e.epoch,
                e.phase,
                e.lr,
                e.train_loss,
                100.0 * e.train_acc,
                100.0 * e.test_acc
            );
        }))
        .expect("no store, no store errors")
}

/// Print one dataset column in the paper's Table III layout.
pub fn print_table3_row(dataset: &str, model: &str, fp32: &TrainReport, posit: &TrainReport) {
    println!("Dataset            {dataset}");
    println!("model              {model}");
    println!("FP32 baseline      {:.2}", 100.0 * fp32.best_test_acc);
    println!("posit              {:.2}", 100.0 * posit.best_test_acc);
    println!(
        "gap                {:+.2} points (paper: CIFAR -0.53, ImageNet +0.07)",
        100.0 * (posit.best_test_acc - fp32.best_test_acc)
    );
}

/// The paper's Table III numbers, for reference printing.
pub mod paper {
    /// CIFAR-10 FP32 baseline top-1 (%).
    pub const CIFAR_FP32: f64 = 93.40;
    /// CIFAR-10 posit top-1 (%).
    pub const CIFAR_POSIT: f64 = 92.87;
    /// ImageNet FP32 baseline top-1 (%).
    pub const IMAGENET_FP32: f64 = 71.02;
    /// ImageNet posit top-1 (%).
    pub const IMAGENET_POSIT: f64 = 71.09;
}

/// Named spec variants for the ablation binary.
pub fn ablation_specs() -> Vec<(&'static str, QuantSpec)> {
    vec![
        ("paper (scaling on)", QuantSpec::cifar_paper()),
        (
            "no scaling (A2)",
            QuantSpec::cifar_paper().without_scaling(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: [&str; 2] = ["--quick", "--backend="];
    const NAMES: [&str; 2] = ["cifar", "all"];

    #[test]
    fn check_args_accepts_known_flags_and_names() {
        let a = args(&["--quick", "cifar", "--backend=posit-quire"]);
        assert_eq!(check_args(&a, &FLAGS, &NAMES), Ok(Some("cifar")));
        assert_eq!(check_args(&[], &FLAGS, &NAMES), Ok(None));
    }

    #[test]
    fn check_args_rejects_unknown_flags_and_names() {
        // A flag that takes no value must match exactly, and a stale flag
        // must not be ignored.
        for bad in ["--quick=1", "--grad-accum=4", "--backend"] {
            let err = check_args(&args(&[bad]), &FLAGS, &NAMES).unwrap_err();
            assert!(err.contains("unknown flag"), "{bad}: {err}");
            assert!(err.contains("(valid: --quick, --backend=)"), "{err}");
        }
        let err = check_args(&args(&["cifr"]), &FLAGS, &NAMES).unwrap_err();
        assert!(err.contains("unknown experiment 'cifr'"), "{err}");
        assert!(err.contains("cifar, all"), "{err}");
        let err = check_args(&args(&["cifar", "all"]), &FLAGS, &NAMES).unwrap_err();
        assert!(err.contains("two experiment names"), "{err}");
        let err = check_args(&args(&["cifar"]), &FLAGS, &[]).unwrap_err();
        assert!(err.contains("takes no experiment name"), "{err}");
    }

    #[test]
    fn backend_flag_parses_or_lists_the_valid_backends() {
        assert_eq!(backend_from_args(&[]), Ok(ComputeBackend::F32));
        assert_eq!(
            backend_from_args(&args(&["--backend=posit-quire"])),
            Ok(ComputeBackend::PositQuire)
        );
        let err = backend_from_args(&args(&["--backend=bogus"])).unwrap_err();
        assert_eq!(err, "unknown backend 'bogus' (valid: f32, posit-quire)");
    }

    #[test]
    fn model_flag_parses_or_lists_the_valid_models() {
        assert_eq!(TableModel::from_args(&[]), Ok(TableModel::Resnet));
        assert_eq!(
            TableModel::from_args(&args(&["--model=resnet"])),
            Ok(TableModel::Resnet)
        );
        assert_eq!(
            TableModel::from_args(&args(&["--model=lenet"])),
            Ok(TableModel::Lenet)
        );
        let err = TableModel::from_args(&args(&["--model=vgg"])).unwrap_err();
        assert_eq!(err, "unknown model 'vgg' (valid: resnet, lenet)");
    }
}
