//! The recorded outputs every run is checked against.
//!
//! `expected/outputs.txt` holds one line per checked value:
//!
//! ```text
//! train-lenet8 v2 posit-quire 7 <loss bits> <train acc bits> <test acc bits>
//! serve-lenet8 v0 f32 13 <logits digest>
//! ```
//!
//! that is workload, data variant, backend, epoch or pool index, then the
//! values as hex bit patterns. `perfbench --record <workload>` prints the
//! lines for one workload.

use std::collections::HashMap;
use std::sync::OnceLock;

const RECORDED: &str = include_str!("../expected/outputs.txt");

fn table() -> &'static HashMap<String, String> {
    static TABLE: OnceLock<HashMap<String, String>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RECORDED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                (fields.len() > 4).then(|| (fields[..4].join(" "), fields[4..].join(" ")))
            })
            .collect()
    })
}

/// The key of one checked value.
pub fn key(workload: &str, variant: u64, backend: &str, index: usize) -> String {
    format!("{workload} v{variant} {backend} {index}")
}

/// The recorded value for `key`, if any.
pub fn lookup(key: &str) -> Option<&'static str> {
    table().get(key).map(String::as_str)
}

/// How many consecutive indices from 0 are recorded under a prefix: the
/// number of epochs a training run may check.
pub fn recorded_len(workload: &str, variant: u64, backend: &str) -> usize {
    (0..)
        .take_while(|&i| lookup(&key(workload, variant, backend, i)).is_some())
        .count()
}
