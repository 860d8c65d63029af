//! Parameter checkpointing: save/restore all named parameters of a network.
//!
//! Two formats coexist:
//!
//! * **v1** — the original flat, dependency-free binary blob
//!   (little-endian): `magic "PDNN" | u32 version | u32 count | count ×
//!   entry`, each entry `u32 name_len | name bytes | u32 ndim | ndim × u64
//!   dims | f32 data…`. Always f32: posit-resident masters serialize
//!   through their exact f32 view.
//!
//! * **v2** — the chunked store-backed format: each parameter is a
//!   `posit-store` array under `{prefix}/params/{name}`, so packed
//!   `Storage::Posit` masters are written **natively** (bit-packed code
//!   words + scale exponent, no f32 round trip, 4×+ smaller for posit8)
//!   and restore bit-identically. Non-parameter layer state
//!   ([`Layer::state_entries`]: BN running stats, calibration scales)
//!   rides along under `{prefix}/state/…`. Flattened to bytes, a v2
//!   checkpoint is a `PDNN`-v2 container around the store keys (`u32
//!   count`, then per key `u32 key_len | key | u64 val_len | val`).
//!
//! The public surface is one façade pair: [`write()`]`(net, sink, Version)`
//! chooses the format explicitly and [`read`]`(net, source)` sniffs it,
//! where [`Sink`]/[`Source`] abstract the medium (a byte buffer or a
//! [`Store`] prefix). Every (format × medium) cell works: a v1 blob can
//! land in a store (under one `{prefix}/v1.pdnn` key) and a v2 checkpoint
//! can flatten into a single `PDNN`-v2 byte blob.

use crate::layer::Layer;
use posit_store::{read_tensor, write_tensor, MemoryStore, Store, StoreError};
use posit_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

const MAGIC: &[u8; 4] = b"PDNN";
const VERSION: u32 = 1;
const VERSION_V2: u32 = 2;

/// Upper bound on the entry/key count any parser will believe — far above
/// any real network, low enough that a corrupted count field cannot drive
/// a pre-allocation into the gigabytes.
const MAX_ENTRIES: usize = 1 << 20;

/// The manifest key of a v2 store checkpoint.
const MANIFEST: &str = "manifest.txt";

/// The key a v1 flat blob occupies when [`write()`] targets a store.
const V1_BLOB: &str = "v1.pdnn";

/// Error restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Not a checkpoint or corrupted framing.
    Malformed(String),
    /// A parameter present in the network is missing from the checkpoint.
    MissingParam(String),
    /// Shapes disagree for a parameter.
    ShapeMismatch(String),
    /// The backing store failed (I/O, checksum, missing chunk). The
    /// original [`StoreError`] rides along intact so callers can keep
    /// its classification — a transient read blip during recovery must
    /// not be mistaken for a corrupt checkpoint.
    Store(StoreError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            LoadError::MissingParam(p) => write!(f, "checkpoint lacks parameter {p}"),
            LoadError::ShapeMismatch(p) => write!(f, "shape mismatch for parameter {p}"),
            LoadError::Store(m) => write!(f, "checkpoint store: {m}"),
        }
    }
}

impl Error for LoadError {}

impl From<StoreError> for LoadError {
    fn from(e: StoreError) -> LoadError {
        match e {
            StoreError::MissingKey(k) => LoadError::MissingParam(k),
            other => LoadError::Store(other),
        }
    }
}

// ---------------------------------------------------------------------------
// v1: flat f32 blob
// ---------------------------------------------------------------------------

/// Stream every named parameter of a network into a writer (v1 format),
/// materializing nothing larger than one parameter's f32 view at a time.
///
/// # Errors
///
/// Propagates writer errors.
fn save_to<W: Write>(net: &dyn Layer, w: &mut W) -> io::Result<()> {
    let params = net.params();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        let name = p.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        let shape = p.value.shape();
        w.write_all(&(shape.len() as u32).to_le_bytes())?;
        for &d in shape {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        // Posit-resident masters serialize through their exact f32 view,
        // keeping the v1 on-disk format stable across storage domains.
        // One buffer (and one write) per parameter: nothing larger than a
        // single parameter is materialized, and an unbuffered writer sees
        // a handful of writes per entry instead of one per element.
        let dense = p.value.dense();
        let data = dense.data();
        let mut buf = Vec::with_capacity(4 * data.len());
        for &v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// The v1 byte blob of `net`, with its [`SaveStats`].
fn v1_blob(net: &dyn Layer) -> (Vec<u8>, SaveStats) {
    let mut out = Vec::new();
    save_to(net, &mut out).expect("Vec writer cannot fail");
    let stats = SaveStats {
        params: net.params().len(),
        chunks: 0,
        param_bytes: out.len(),
        state_bytes: 0,
    };
    (out, stats)
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.0.len() < n {
            return Err(LoadError::Malformed("truncated".into()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
    fn u32le(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64le(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn load_v1(net: &mut dyn Layer, mut cur: Cursor<'_>) -> Result<(), LoadError> {
    let count = cur.u32le()? as usize;
    // Each entry costs at least name_len + ndim fields: a count that the
    // remaining bytes cannot possibly hold is framing damage, caught here
    // before it can size any allocation.
    if count > MAX_ENTRIES || count > cur.0.len() / 8 {
        return Err(LoadError::Malformed(format!("implausible count {count}")));
    }
    let mut entries: std::collections::HashMap<String, (Vec<usize>, Vec<f32>)> =
        std::collections::HashMap::with_capacity(count);
    for _ in 0..count {
        let name_len = cur.u32le()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| LoadError::Malformed("non-utf8 name".into()))?;
        let ndim = cur.u32le()? as usize;
        if ndim > 8 {
            return Err(LoadError::Malformed(format!("implausible ndim {ndim}")));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(cur.u64le()? as usize);
        }
        let n = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| LoadError::Malformed("element count overflows".into()))?;
        let nbytes = n
            .checked_mul(4)
            .ok_or_else(|| LoadError::Malformed("byte count overflows".into()))?;
        let raw = cur.take(nbytes)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("len 4")))
            .collect();
        entries.insert(name, (shape, data));
    }
    if !cur.is_empty() {
        return Err(LoadError::Malformed(format!(
            "{} trailing bytes after the last entry",
            cur.0.len()
        )));
    }

    // Validate everything before mutating anything.
    for p in net.params() {
        match entries.get(&p.name) {
            None => return Err(LoadError::MissingParam(p.name.clone())),
            Some((shape, _)) if shape != p.value.shape() => {
                return Err(LoadError::ShapeMismatch(p.name.clone()))
            }
            _ => {}
        }
    }
    for p in net.params_mut() {
        let (_, data) = entries.remove(&p.name).expect("validated above");
        // v1 checkpoints store f32, so restore lands the parameter in the
        // f32 domain regardless of where it lived (a posit-resident master
        // is simply re-packed at the next quantized forward).
        let shape = p.value.shape().to_vec();
        p.value = Tensor::from_vec(data, &shape);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// v2: store-backed, posit-native
// ---------------------------------------------------------------------------

/// Statistics from one [`write()`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveStats {
    /// Parameters written.
    pub params: usize,
    /// Chunks written across all parameter arrays.
    pub chunks: usize,
    /// Encoded parameter payload bytes (codec output, checksums included).
    pub param_bytes: usize,
    /// Extra layer-state bytes (BN stats, calibration blobs).
    pub state_bytes: usize,
}

fn manifest_key(prefix: &str) -> String {
    format!("{prefix}/{MANIFEST}")
}

fn param_prefix(prefix: &str, name: &str) -> String {
    format!("{prefix}/params/{name}")
}

fn state_key(prefix: &str, key: &str) -> String {
    format!("{prefix}/state/{key}")
}

/// Write a v2 checkpoint of `net` under `prefix` in `store`; the manifest
/// is committed last, so a half-written checkpoint is recognizably
/// incomplete.
fn store_write(net: &dyn Layer, store: &dyn Store, prefix: &str) -> Result<SaveStats, StoreError> {
    let mut stats = SaveStats {
        params: 0,
        chunks: 0,
        param_bytes: 0,
        state_bytes: 0,
    };
    let mut manifest = String::from("posit-checkpoint.v2\n");
    for p in net.params() {
        let w = write_tensor(store, &param_prefix(prefix, &p.name), &p.value)?;
        stats.params += 1;
        stats.chunks += w.chunks;
        stats.param_bytes += w.chunk_bytes;
        manifest.push_str(&format!("P {}\n", p.name));
    }
    for (key, mut bytes) in net.state_entries() {
        // Parameter arrays get their CRC from the codec pipeline; opaque
        // state blobs (BN stats, calibration scales) carry their own
        // trailer so bit rot here is equally loud on load.
        bytes.extend_from_slice(&posit_store::crc32(&bytes).to_le_bytes());
        store.set(&state_key(prefix, &key), &bytes)?;
        stats.state_bytes += bytes.len();
        manifest.push_str(&format!("S {key}\n"));
    }
    store.set(&manifest_key(prefix), manifest.as_bytes())?;
    Ok(stats)
}

/// Parsed v2 manifest: parameter names and state keys, in write order.
fn read_manifest(store: &dyn Store, prefix: &str) -> Result<(Vec<String>, Vec<String>), LoadError> {
    let bytes = store
        .get(&manifest_key(prefix))?
        .ok_or_else(|| LoadError::Malformed(format!("no checkpoint manifest under {prefix:?}")))?;
    let text = String::from_utf8(bytes)
        .map_err(|_| LoadError::Malformed("manifest is not UTF-8".into()))?;
    let mut lines = text.lines();
    if lines.next() != Some("posit-checkpoint.v2") {
        return Err(LoadError::Malformed("bad manifest header".into()));
    }
    let mut params = Vec::new();
    let mut state = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        match line.split_once(' ') {
            Some(("P", name)) => params.push(name.to_string()),
            Some(("S", key)) => state.push(key.to_string()),
            _ => {
                return Err(LoadError::Malformed(format!(
                    "unrecognized manifest line {line:?}"
                )))
            }
        }
    }
    if params.len() > MAX_ENTRIES || state.len() > MAX_ENTRIES {
        return Err(LoadError::Malformed("implausible manifest size".into()));
    }
    Ok((params, state))
}

/// Restore a v2 checkpoint under `prefix` in `store`, validating
/// everything before mutating anything.
fn store_read(net: &mut dyn Layer, store: &dyn Store, prefix: &str) -> Result<(), LoadError> {
    let (param_names, state_keys) = read_manifest(store, prefix)?;
    let available: std::collections::HashSet<&String> = param_names.iter().collect();

    // Fetch + validate everything before mutating anything.
    let mut restored: std::collections::HashMap<String, Tensor> = std::collections::HashMap::new();
    for p in net.params() {
        if !available.contains(&p.name) {
            return Err(LoadError::MissingParam(p.name.clone()));
        }
        let t = read_tensor(store, &param_prefix(prefix, &p.name)).map_err(|e| match e {
            StoreError::MissingKey(_) => LoadError::MissingParam(p.name.clone()),
            other => LoadError::from(other),
        })?;
        if t.shape() != p.value.shape() {
            return Err(LoadError::ShapeMismatch(p.name.clone()));
        }
        restored.insert(p.name.clone(), t);
    }
    let mut state: std::collections::HashMap<String, Vec<u8>> = std::collections::HashMap::new();
    for key in &state_keys {
        let mut bytes = store
            .get(&state_key(prefix, key))?
            .ok_or_else(|| LoadError::Malformed(format!("manifest lists absent state {key:?}")))?;
        if bytes.len() < 4 {
            return Err(LoadError::Malformed(format!(
                "state entry {key:?} shorter than its checksum"
            )));
        }
        let body = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body..].try_into().expect("len 4"));
        if stored != posit_store::crc32(&bytes[..body]) {
            return Err(LoadError::Malformed(format!(
                "state entry {key:?} failed its checksum"
            )));
        }
        bytes.truncate(body);
        state.insert(key.clone(), bytes);
    }

    for p in net.params_mut() {
        if let Some(t) = restored.remove(&p.name) {
            p.value = t;
        }
    }
    net.restore_state_entries(&|key| state.get(key).cloned());
    Ok(())
}

/// The v2 checkpoint of `net` flattened into a `PDNN`-v2 byte blob, with
/// its [`SaveStats`].
fn v2_blob(net: &dyn Layer) -> (Vec<u8>, SaveStats) {
    let store = MemoryStore::new();
    let stats = store_write(net, &store, "ckpt").expect("in-memory store cannot fail");
    let keys = store.list().expect("in-memory store cannot fail");
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V2.to_le_bytes());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        let val = store
            .get(&key)
            .expect("in-memory store cannot fail")
            .expect("listed key present");
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&(val.len() as u64).to_le_bytes());
        out.extend_from_slice(&val);
    }
    (out, stats)
}

fn load_v2(net: &mut dyn Layer, mut cur: Cursor<'_>) -> Result<(), LoadError> {
    let count = cur.u32le()? as usize;
    if count > MAX_ENTRIES || count > cur.0.len() / 16 {
        return Err(LoadError::Malformed(format!("implausible count {count}")));
    }
    let store = MemoryStore::new();
    for _ in 0..count {
        let key_len = cur.u32le()? as usize;
        let key = String::from_utf8(cur.take(key_len)?.to_vec())
            .map_err(|_| LoadError::Malformed("non-utf8 key".into()))?;
        let val_len = usize::try_from(cur.u64le()?)
            .map_err(|_| LoadError::Malformed("value length overflows".into()))?;
        let val = cur.take(val_len)?;
        store
            .set(&key, val)
            .map_err(|e| LoadError::Malformed(format!("bad container key: {e}")))?;
    }
    if !cur.is_empty() {
        return Err(LoadError::Malformed(format!(
            "{} trailing bytes after the last entry",
            cur.0.len()
        )));
    }
    store_read(net, &store, "ckpt")
}

/// Restore from a `PDNN` blob, dispatching on its header version.
fn blob_read(net: &mut dyn Layer, bytes: &[u8]) -> Result<(), LoadError> {
    let mut cur = Cursor(bytes);
    if cur.take(4).ok() != Some(MAGIC.as_slice()) {
        return Err(LoadError::Malformed("bad magic".into()));
    }
    match cur.u32le()? {
        VERSION => load_v1(net, cur),
        VERSION_V2 => load_v2(net, cur),
        version => Err(LoadError::Malformed(format!(
            "unsupported version {version}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// The façade: one write/read pair over both formats and both media
// ---------------------------------------------------------------------------

/// Checkpoint format selector for [`write()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// The flat f32 blob: dependency-free, always dense (posit masters
    /// serialize through their exact f32 view and restore into f32).
    V1,
    /// The chunked, posit-native format: packed masters survive
    /// bit-identically and layer state rides along, 4×+ smaller for
    /// posit8-resident nets.
    V2,
}

/// Where [`write()`] puts a checkpoint: an in-memory byte buffer (appended
/// to) or a [`Store`] prefix.
pub enum Sink<'a> {
    /// Append the checkpoint as a self-describing `PDNN` blob.
    Bytes(&'a mut Vec<u8>),
    /// Write into a store under a key prefix. [`Version::V2`] lays out the
    /// native chunked format; [`Version::V1`] lands the flat blob under a
    /// single `{prefix}/v1.pdnn` key.
    Store {
        /// The destination store.
        store: &'a dyn Store,
        /// Key prefix the checkpoint lives under.
        prefix: &'a str,
    },
}

/// Where [`read`] finds a checkpoint — the mirror of [`Sink`].
pub enum Source<'a> {
    /// A `PDNN` byte blob (v1 or v2; the header is sniffed).
    Bytes(&'a [u8]),
    /// A store prefix: a v2 manifest is preferred, otherwise a v1 blob at
    /// `{prefix}/v1.pdnn` is accepted.
    Store {
        /// The source store.
        store: &'a dyn Store,
        /// Key prefix the checkpoint lives under.
        prefix: &'a str,
    },
}

fn v1_key(prefix: &str) -> String {
    format!("{prefix}/{V1_BLOB}")
}

/// Write a checkpoint of `net` to `sink` in the chosen format.
///
/// This is the single save entry point: format (v1 flat f32 vs v2
/// posit-native) and medium (bytes vs store) vary independently, and every
/// combination round-trips through [`read`].
///
/// In v2 every parameter becomes a chunked array: packed posit masters are
/// stored natively (bit-packed code words + format + scale exponent — the
/// paper's 4× footprint win lands on disk), f32 parameters as shuffled f32
/// chunks; everything carries CRC trailers. Layer state entries ride along
/// verbatim. In a store the manifest is committed last, so a half-written
/// checkpoint is recognizably incomplete.
///
/// # Errors
///
/// Propagates store failures; byte sinks cannot fail. Parameter names
/// must fit the store's key grammar (`[A-Za-z0-9._-]` segments — the
/// PyTorch-style dotted names all do).
pub fn write(net: &dyn Layer, sink: Sink<'_>, version: Version) -> Result<SaveStats, StoreError> {
    match (sink, version) {
        (Sink::Bytes(buf), version) => {
            let (blob, stats) = match version {
                Version::V1 => v1_blob(net),
                Version::V2 => v2_blob(net),
            };
            buf.extend_from_slice(&blob);
            Ok(stats)
        }
        (Sink::Store { store, prefix }, Version::V1) => {
            let (blob, stats) = v1_blob(net);
            store.set(&v1_key(prefix), &blob)?;
            Ok(stats)
        }
        (Sink::Store { store, prefix }, Version::V2) => store_write(net, store, prefix),
    }
}

/// Restore a checkpoint into `net` from `source`, sniffing the format.
///
/// Byte sources dispatch on the `PDNN` header version (trailing bytes
/// after the last entry are rejected); store sources prefer a v2 manifest
/// under the prefix and fall back to a v1 blob at `{prefix}/v1.pdnn`.
///
/// Restore semantics follow the format. v2 lands every parameter in the
/// exact storage domain it was saved from: a packed posit master comes
/// back **bit-identical** (code words, format, scale exponent), an f32
/// parameter as its exact bytes, and the checkpoint's layer state entries
/// are pushed back through [`Layer::restore_state_entries`]. v1 always
/// lands dense f32 (a posit-resident master is re-packed at the next
/// quantized forward).
///
/// Every parameter of `net` must be present with a matching shape; extra
/// checkpoint entries are ignored (forward-compatible with partial nets).
/// Everything is validated before anything is mutated, so nothing is
/// mutated on error.
///
/// # Errors
///
/// [`LoadError`] on malformed input, missing parameters, shape mismatches
/// or store failures.
pub fn read(net: &mut dyn Layer, source: Source<'_>) -> Result<(), LoadError> {
    match source {
        Source::Bytes(bytes) => blob_read(net, bytes),
        Source::Store { store, prefix } => {
            if store.get(&manifest_key(prefix))?.is_some() {
                return store_read(net, store, prefix);
            }
            match store.get(&v1_key(prefix))? {
                Some(blob) => blob_read(net, &blob),
                None => Err(LoadError::Malformed(format!(
                    "no checkpoint under {prefix:?}: neither a v2 manifest nor a v1 blob"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn::BatchNorm2d;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use posit_tensor::rng::Prng;
    use posit_tensor::Tensor;

    fn net(seed: u64) -> Sequential {
        let mut rng = Prng::seed(seed);
        Sequential::new("net")
            .push(Linear::new(
                "fc1",
                Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng),
                Some(Tensor::zeros(&[4])),
            ))
            .push(Linear::new(
                "fc2",
                Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng),
                None,
            ))
    }

    /// `net` as a byte blob in `version`.
    fn blob(net: &dyn Layer, version: Version) -> Vec<u8> {
        let mut out = Vec::new();
        write(net, Sink::Bytes(&mut out), version).expect("byte sinks cannot fail");
        out
    }

    fn read_bytes(net: &mut dyn Layer, bytes: &[u8]) -> Result<(), LoadError> {
        read(net, Source::Bytes(bytes))
    }

    fn write_store(net: &dyn Layer, store: &dyn Store, prefix: &str) -> SaveStats {
        write(net, Sink::Store { store, prefix }, Version::V2).unwrap()
    }

    fn read_store(net: &mut dyn Layer, store: &dyn Store, prefix: &str) -> Result<(), LoadError> {
        read(net, Source::Store { store, prefix })
    }

    #[test]
    fn roundtrip_with_posit_resident_params() {
        use posit::{PositFormat, Rounding};
        // A net whose masters live in the posit domain (the quire
        // backend's posit-master residency) must save through the exact
        // f32 view AND accept a load — which lands every parameter back
        // in the f32 domain, ready to be re-packed at the next forward.
        let fmt = PositFormat::of(8, 1);
        let mut a = net(1);
        for p in a.params_mut() {
            p.value = p.value.to_posit(fmt, 0, Rounding::NearestEven);
        }
        let grid: Vec<Vec<f32>> = a
            .params()
            .iter()
            .map(|p| p.value.dense().data().to_vec())
            .collect();
        let bytes = blob(&a, Version::V1);
        let mut b = net(2);
        // Load into a packed net too: the restore must not panic on the
        // posit-domain destination.
        for p in b.params_mut() {
            p.value = p.value.to_posit(fmt, 0, Rounding::NearestEven);
        }
        read_bytes(&mut b, &bytes).unwrap();
        for (p, want) in b.params().iter().zip(&grid) {
            assert!(!p.value.is_posit(), "v1 load lands in the f32 domain");
            assert_eq!(p.value.data(), &want[..]);
        }
    }

    #[test]
    fn v2_roundtrip_is_bit_identical_for_posit_masters() {
        use posit::{PositFormat, Rounding};
        let fmt = PositFormat::of(8, 1);
        let mut a = net(1);
        for (i, p) in a.params_mut().into_iter().enumerate() {
            p.value = p.value.to_posit(fmt, i as i32 - 1, Rounding::NearestEven);
        }
        let bytes = blob(&a, Version::V2);
        let mut b = net(2);
        read_bytes(&mut b, &bytes).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.name, pb.name);
            // Native restore: the packed plane survives verbatim.
            assert_eq!(
                pb.value.posit_bits(),
                pa.value.posit_bits(),
                "{} must restore bit-identically",
                pa.name
            );
        }
    }

    #[test]
    fn v2_is_much_smaller_for_posit_masters() {
        use posit::{PositFormat, Rounding};
        // A 4096-element posit8 net: v1 stores 4 B/param, v2 stores ~1 B
        // (+ per-chunk CRC and headers). The acceptance bar is ≥ 3×.
        let mut rng = Prng::seed(7);
        let mut a = Sequential::new("net").push(Linear::new(
            "fc",
            Tensor::rand_normal(&[64, 64], 0.0, 1.0, &mut rng),
            None,
        ));
        for p in a.params_mut() {
            p.value = p
                .value
                .to_posit(PositFormat::of(8, 1), 0, Rounding::NearestEven);
        }
        let v1 = blob(&a, Version::V1).len();
        let v2 = blob(&a, Version::V2).len();
        assert!(
            v2 * 3 <= v1,
            "v2 ({v2} B) must be at least 3x smaller than v1 ({v1} B)"
        );
    }

    #[test]
    fn v2_roundtrips_mixed_domains_and_bn_state() {
        use posit::{PositFormat, Rounding};
        let mut rng = Prng::seed(9);
        let mut bn = BatchNorm2d::new("bn1", 3);
        // Drive the running stats off their init so the round trip is
        // observable.
        let x = Tensor::rand_normal(&[4, 3, 2, 2], 1.0, 2.0, &mut rng);
        let _ = crate::layer::Layer::forward(&mut bn, &x, true);
        let mean = bn.running_mean().to_vec();
        let var = bn.running_var().to_vec();
        let mut a = Sequential::new("net").push(Linear::new(
            "fc1",
            Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng),
            Some(Tensor::zeros(&[4])),
        ));
        a.push_boxed(Box::new(bn));
        // One packed, the rest f32.
        a.params_mut()[0].value =
            a.params()[0]
                .value
                .to_posit(PositFormat::of(8, 2), 1, Rounding::NearestEven);
        let bytes = blob(&a, Version::V2);

        let mut b = Sequential::new("net").push(Linear::new(
            "fc1",
            Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng),
            Some(Tensor::zeros(&[4])),
        ));
        b.push_boxed(Box::new(BatchNorm2d::new("bn1", 3)));
        read_bytes(&mut b, &bytes).unwrap();
        assert_eq!(
            b.params()[0].value.posit_bits(),
            a.params()[0].value.posit_bits()
        );
        assert_eq!(b.params()[1].value.data(), a.params()[1].value.data());
        // BN running stats restored through the state channel.
        let restored: Vec<(String, Vec<u8>)> = b.state_entries();
        let pack = |xs: &[f32]| -> Vec<u8> { xs.iter().flat_map(|v| v.to_le_bytes()).collect() };
        assert!(restored.contains(&("bn1.running_mean".to_string(), pack(&mean))));
        assert!(restored.contains(&("bn1.running_var".to_string(), pack(&var))));
    }

    #[test]
    fn v2_state_entries_are_checksummed() {
        use posit_tensor::rng::Prng;
        // A flipped bit in a raw state blob (BN running stats) must be a
        // loud load error, not silently poisoned statistics.
        let mut rng = Prng::seed(11);
        let mut bn = BatchNorm2d::new("bn1", 2);
        let x = Tensor::rand_normal(&[4, 2, 2, 2], 0.5, 2.0, &mut rng);
        let _ = crate::layer::Layer::forward(&mut bn, &x, true);
        let mut a = Sequential::new("net");
        a.push_boxed(Box::new(bn));
        let store = MemoryStore::new();
        write_store(&a, &store, "ck");
        let key = "ck/state/bn1.running_var";
        let mut bytes = store.get(key).unwrap().unwrap();
        bytes[0] ^= 0x01;
        store.set(key, &bytes).unwrap();
        let mut b = Sequential::new("net");
        b.push_boxed(Box::new(BatchNorm2d::new("bn1", 2)));
        match read_store(&mut b, &store, "ck") {
            Err(LoadError::Malformed(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn v2_store_path_works_on_disk() {
        use posit::{PositFormat, Rounding};
        use posit_store::FsStore;
        let dir = std::env::temp_dir().join(format!("posit-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FsStore::open(&dir).unwrap();
        let mut a = net(3);
        for p in a.params_mut() {
            p.value = p
                .value
                .to_posit(PositFormat::of(8, 0), 0, Rounding::NearestEven);
        }
        let stats = write_store(&a, &store, "run1");
        assert_eq!(stats.params, 3);
        assert!(stats.param_bytes > 0);
        let mut b = net(4);
        read_store(&mut b, &store, "run1").unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value.posit_bits(), pb.value.posit_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn facade_round_trips_a_v1_blob_and_a_v2_store() {
        use posit::{PositFormat, Rounding};
        // The satellite contract: `read` sniffs and restores both a v1
        // byte blob and a v2 store checkpoint through the same call.
        let fmt = PositFormat::of(8, 1);
        let mut a = net(1);
        for p in a.params_mut() {
            p.value = p.value.to_posit(fmt, 0, Rounding::NearestEven);
        }
        let dense: Vec<Vec<f32>> = a
            .params()
            .iter()
            .map(|p| p.value.dense().data().to_vec())
            .collect();

        // v1 blob: restores dense f32 with the exact decoded values.
        let mut blob = Vec::new();
        let stats = write(&a, Sink::Bytes(&mut blob), Version::V1).unwrap();
        assert_eq!(stats.params, 3);
        assert_eq!(stats.param_bytes, blob.len());
        let mut b = net(2);
        read(&mut b, Source::Bytes(&blob)).unwrap();
        for (p, want) in b.params().iter().zip(&dense) {
            assert!(!p.value.is_posit());
            assert_eq!(p.value.data(), &want[..]);
        }

        // v2 store: packed masters restore bit-identically.
        let store = MemoryStore::new();
        let stats = write(
            &a,
            Sink::Store {
                store: &store,
                prefix: "run",
            },
            Version::V2,
        )
        .unwrap();
        assert_eq!(stats.params, 3);
        assert!(stats.chunks > 0);
        let mut c = net(3);
        read(
            &mut c,
            Source::Store {
                store: &store,
                prefix: "run",
            },
        )
        .unwrap();
        for (pa, pc) in a.params().iter().zip(c.params()) {
            assert_eq!(pa.value.posit_bits(), pc.value.posit_bits());
        }
    }

    #[test]
    fn facade_covers_the_off_diagonal_combinations() {
        // v2 → bytes and v1 → store also round-trip (and the store path
        // sniffs the v1 blob when no manifest exists).
        let a = net(1);
        let mut v2_bytes = Vec::new();
        write(&a, Sink::Bytes(&mut v2_bytes), Version::V2).unwrap();
        let mut b = net(2);
        read(&mut b, Source::Bytes(&v2_bytes)).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value.data(), pb.value.data());
        }

        let store = MemoryStore::new();
        write(
            &a,
            Sink::Store {
                store: &store,
                prefix: "old",
            },
            Version::V1,
        )
        .unwrap();
        assert!(store.get(&v1_key("old")).unwrap().is_some());
        let mut c = net(3);
        read(
            &mut c,
            Source::Store {
                store: &store,
                prefix: "old",
            },
        )
        .unwrap();
        for (pa, pc) in a.params().iter().zip(c.params()) {
            assert_eq!(pa.value.data(), pc.value.data());
        }

        // An empty prefix is a clean error, not a panic.
        let mut d = net(4);
        assert!(matches!(
            read(
                &mut d,
                Source::Store {
                    store: &store,
                    prefix: "nothing-here",
                },
            ),
            Err(LoadError::Malformed(m)) if m.contains("no checkpoint")
        ));
    }

    #[test]
    fn roundtrip() {
        let a = net(1);
        let bytes = blob(&a, Version::V1);
        let mut b = net(2);
        assert_ne!(a.params()[0].value.data(), b.params()[0].value.data());
        read_bytes(&mut b, &bytes).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.name, pb.name);
            assert_eq!(pa.value.data(), pb.value.data());
        }
    }

    #[test]
    fn save_to_streams_the_same_bytes() {
        let a = net(1);
        let mut streamed = Vec::new();
        save_to(&a, &mut streamed).unwrap();
        assert_eq!(streamed, blob(&a, Version::V1));
    }

    #[test]
    fn rejects_garbage_truncation_and_trailing_bytes() {
        let mut n = net(1);
        assert!(matches!(
            read_bytes(&mut n, b"nonsense"),
            Err(LoadError::Malformed(_))
        ));
        for bytes in [blob(&n, Version::V1), blob(&n, Version::V2)] {
            assert!(matches!(
                read_bytes(&mut n, &bytes[..bytes.len() - 3]),
                Err(LoadError::Malformed(_))
            ));
            // Bytes past the last entry are framing damage, not slack.
            let mut padded = bytes.clone();
            padded.extend_from_slice(b"JUNK");
            assert!(matches!(
                read_bytes(&mut n, &padded),
                Err(LoadError::Malformed(m)) if m.contains("trailing")
            ));
            assert!(read_bytes(&mut n, &bytes).is_ok());
        }
    }

    #[test]
    fn rejects_implausible_counts_without_allocating() {
        // A forged header claiming u32::MAX entries must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut n = net(1);
        assert!(matches!(
            read_bytes(&mut n, &bytes),
            Err(LoadError::Malformed(_))
        ));
        let mut bytes2 = Vec::new();
        bytes2.extend_from_slice(MAGIC);
        bytes2.extend_from_slice(&VERSION_V2.to_le_bytes());
        bytes2.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_bytes(&mut n, &bytes2),
            Err(LoadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_shape_mismatch_without_mutation() {
        let a = net(1);
        for bytes in [blob(&a, Version::V1), blob(&a, Version::V2)] {
            let mut rng = Prng::seed(3);
            let mut other = Sequential::new("net").push(Linear::new(
                "fc1",
                Tensor::rand_normal(&[5, 3], 0.0, 1.0, &mut rng), // 5 != 4
                Some(Tensor::zeros(&[5])),
            ));
            let before: Vec<f32> = other.params()[0].value.data().to_vec();
            assert!(matches!(
                read_bytes(&mut other, &bytes),
                Err(LoadError::ShapeMismatch(_))
            ));
            assert_eq!(other.params()[0].value.data(), &before[..]);
        }
    }

    #[test]
    fn missing_param_detected() {
        let a = net(1);
        for bytes in [blob(&a, Version::V1), blob(&a, Version::V2)] {
            let mut rng = Prng::seed(4);
            let mut bigger = Sequential::new("net").push(Linear::new(
                "fc3", // not in the checkpoint
                Tensor::rand_normal(&[2, 2], 0.0, 1.0, &mut rng),
                None,
            ));
            assert!(matches!(
                read_bytes(&mut bigger, &bytes),
                Err(LoadError::MissingParam(_))
            ));
        }
    }

    #[test]
    fn extra_entries_are_ignored() {
        let a = net(1);
        for bytes in [blob(&a, Version::V1), blob(&a, Version::V2)] {
            // A net with only fc1 loads fine from the two-layer checkpoint.
            let mut rng = Prng::seed(5);
            let mut partial = Sequential::new("net").push(Linear::new(
                "fc1",
                Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng),
                Some(Tensor::zeros(&[4])),
            ));
            read_bytes(&mut partial, &bytes).unwrap();
            assert_eq!(partial.params()[0].value.data(), a.params()[0].value.data());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Apply one structured mutation to a valid checkpoint blob.
        fn mutate(bytes: &[u8], kind: u8, at: usize, bit: u8) -> Vec<u8> {
            let mut out = bytes.to_vec();
            match kind % 3 {
                0 => {
                    // Truncate at an arbitrary point.
                    out.truncate(at % (bytes.len() + 1));
                }
                1 => {
                    // Flip one bit anywhere.
                    let i = at % bytes.len();
                    out[i] ^= 1 << (bit % 8);
                }
                _ => {
                    // Append junk.
                    out.extend_from_slice(&[bit, bit ^ 0xFF, 0, 7]);
                }
            }
            out
        }

        proptest! {
            #[test]
            fn mutated_checkpoints_never_panic_the_loader(
                v2 in any::<bool>(),
                kind in any::<u8>(),
                at in any::<usize>(),
                bit in any::<u8>(),
            ) {
                let a = net(1);
                let valid = if v2 { blob(&a, Version::V2) } else { blob(&a, Version::V1) };
                let mutated = mutate(&valid, kind, at, bit);
                let mut target = net(2);
                // The contract: mutations load cleanly or error cleanly —
                // no panic, no abort, no unbounded allocation.
                let _ = read_bytes(&mut target, &mutated);
            }
        }
    }
}
