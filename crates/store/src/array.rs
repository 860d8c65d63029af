//! Tensor ⇄ store: chunk a [`Tensor`], run each chunk through the codec
//! pipeline in parallel, and lay the results out under a key prefix.
//!
//! Layout under `prefix`:
//!
//! ```text
//! {prefix}/meta.json      — the ArrayMeta header
//! {prefix}/c/{i}.{j}.{…}  — one encoded chunk per grid cell (dotted index)
//! ```
//!
//! A posit-domain tensor is stored *natively*: its code words (not an f32
//! projection) flow into the pipeline, the default chain bit-packs them to
//! the format's true width and appends a CRC trailer, and
//! [`read_tensor`] reconstructs the packed plane bit-identically —
//! code words, format and Eq. 2 scale exponent all survive. An f32 tensor
//! is stored as shuffled little-endian bytes with the same CRC tail.

use crate::chunk::ChunkGrid;
use crate::codec::{chain_from_specs, crc32, decode_chain, encode_chain, CodecContext};
use crate::error::StoreError;
use crate::meta::{ArrayMeta, Dtype};
use crate::store::Store;
use posit_tensor::{par_map_indexed, PackedBits, Tensor};

/// Fewest chunks per thread before the codec pipeline spawns workers
/// (tiny arrays encode serially; spawn cost would dominate).
const PAR_MIN_CHUNKS: usize = 4;

/// Statistics from one [`write_tensor`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteStats {
    /// Chunks written.
    pub chunks: usize,
    /// Total encoded payload bytes (chunks only, metadata excluded).
    pub chunk_bytes: usize,
    /// Raw slab bytes before the codec chain (the in-memory footprint).
    pub raw_bytes: usize,
}

/// The default codec chain for a dtype: tight bit-packing for posit words
/// (their whole point), byte shuffle for multi-byte words, CRC everywhere.
pub fn default_codecs(dtype: Dtype) -> Vec<String> {
    let mut specs = Vec::new();
    match dtype {
        Dtype::Posit(fmt) => specs.push(format!("posit_bitpack:{}", fmt.n())),
        Dtype::F32 => specs.push("byte_shuffle:4".to_string()),
    }
    specs.push("crc32".to_string());
    specs
}

/// A sensible default chunk shape: keep every dimension, splitting only the
/// leading one so chunks stay under ~64 Ki elements — parameters and
/// activations in this codebase are small-to-medium n-d boxes, and
/// splitting dim 0 keeps inner rows contiguous for the gather.
pub fn default_chunk_shape(shape: &[usize]) -> Vec<usize> {
    const TARGET: usize = 1 << 16;
    let mut chunk: Vec<usize> = shape.iter().map(|&d| d.max(1)).collect();
    let inner: usize = chunk[1..].iter().product();
    let lead = (TARGET / inner.max(1)).clamp(1, chunk[0]);
    chunk[0] = lead;
    chunk
}

/// The store key of a chunk under a prefix (zarr-style dotted grid index).
pub fn chunk_key(prefix: &str, chunk_index: &[usize]) -> String {
    let dotted = chunk_index
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(".");
    format!("{prefix}/c/{dotted}")
}

/// The metadata key under a prefix.
pub fn meta_key(prefix: &str) -> String {
    format!("{prefix}/meta.json")
}

/// Marker opening the integrity footer appended after the meta JSON.
const META_CRC_MARKER: &str = "\n#crc32=";

/// Serialize `meta` with a `#crc32=xxxxxxxx` comment footer covering the
/// JSON text, so bit rot in the header itself (not just the chunks) is
/// detected at read time instead of silently reshaping the array.
fn meta_with_footer(meta: &ArrayMeta) -> Vec<u8> {
    let json = meta.to_json();
    let sum = crc32(json.as_bytes());
    let mut bytes = json.into_bytes();
    bytes.extend_from_slice(format!("{META_CRC_MARKER}{sum:08x}\n").as_bytes());
    bytes
}

/// Verify and strip the meta footer, returning the bare JSON text.
///
/// A footerless header (hand-written, or produced before the footer
/// existed) passes through untouched — the JSON parser's own trailing-
/// bytes check still rejects any half-damaged footer remnant.
fn verify_meta_footer(text: &str) -> Result<&str, StoreError> {
    let Some(pos) = text.rfind(META_CRC_MARKER) else {
        return Ok(text);
    };
    let tail = &text[pos + META_CRC_MARKER.len()..];
    let digits = tail.strip_suffix('\n').unwrap_or(tail);
    let actual = crc32(&text.as_bytes()[..pos]);
    // Textual comparison against the canonical lowercase rendering, so
    // even a value-preserving case flip (`a` → `A`) in the footer is loud.
    if digits != format!("{actual:08x}") {
        return Err(StoreError::Corrupt(format!(
            "metadata checksum mismatch: stored {digits:?}, computed {actual:08x}"
        )));
    }
    Ok(&text[..pos])
}

fn raw_slab(t: &Tensor) -> (Vec<u8>, Dtype, i32) {
    match t.posit_bits() {
        Some((bits, fmt, scale_exp)) => (bits.to_le_bytes(), Dtype::Posit(fmt), scale_exp),
        None => (
            t.data().iter().flat_map(|v| v.to_le_bytes()).collect(),
            Dtype::F32,
            0,
        ),
    }
}

/// Write a tensor under `prefix` with the default chunk shape and codecs.
pub fn write_tensor(store: &dyn Store, prefix: &str, t: &Tensor) -> Result<WriteStats, StoreError> {
    let chunk_shape = default_chunk_shape(t.shape());
    write_tensor_with(store, prefix, t, &chunk_shape, None)
}

/// Write a tensor under `prefix` with an explicit chunk shape and an
/// optional codec chain (`None` → [`default_codecs`] for the dtype).
///
/// Chunks are gathered and encoded in parallel (the `par_rows`-style static
/// partitioner from the tensor crate), then committed to the store in grid
/// order; `meta.json` is committed last, so a torn write is detectable as
/// "chunks without a header" rather than a header pointing at garbage.
pub fn write_tensor_with(
    store: &dyn Store,
    prefix: &str,
    t: &Tensor,
    chunk_shape: &[usize],
    codecs: Option<Vec<String>>,
) -> Result<WriteStats, StoreError> {
    // A scalar-ish rank-0 tensor never occurs (Tensor is always shaped);
    // ChunkGrid validates ranks and chunk dims.
    let grid = ChunkGrid::new(t.shape(), chunk_shape)?;
    let (slab, dtype, scale_exp) = raw_slab(t);
    let specs = codecs.unwrap_or_else(|| default_codecs(dtype));
    let chain = chain_from_specs(&specs)?;
    let word = dtype.word_bytes();
    let meta = ArrayMeta {
        shape: t.shape().to_vec(),
        chunk_shape: chunk_shape.to_vec(),
        dtype,
        scale_exp,
        codecs: specs,
    };

    let indices: Vec<Vec<usize>> = (0..grid.num_chunks())
        .map(|c| grid.chunk_index(c))
        .collect();
    let encoded: Vec<Result<Vec<u8>, StoreError>> =
        par_map_indexed(&indices, PAR_MIN_CHUNKS, |_, idx| {
            let ctx = CodecContext {
                elem_count: grid.region(idx).len(),
                word_bytes: word,
            };
            let raw = grid.gather_bytes(idx, &slab, word);
            encode_chain(&chain, raw, &ctx)
        });

    let mut stats = WriteStats {
        chunks: 0,
        chunk_bytes: 0,
        raw_bytes: slab.len(),
    };
    for (idx, enc) in indices.iter().zip(encoded) {
        let enc = enc?;
        stats.chunks += 1;
        stats.chunk_bytes += enc.len();
        store.set(&chunk_key(prefix, idx), &enc)?;
    }
    store.set(&meta_key(prefix), &meta_with_footer(&meta))?;
    Ok(stats)
}

/// Read back the tensor stored under `prefix`.
///
/// Posit arrays come back as packed planes (bit-identical code words,
/// format and scale exponent); f32 arrays as dense buffers. Chunks are
/// fetched and decoded in parallel when the store handle allows it.
///
/// # Errors
///
/// `MissingKey` when the header or a chunk is absent; `Corrupt` when a
/// codec rejects its input (checksum mismatch, bad framing).
pub fn read_tensor(store: &dyn Store, prefix: &str) -> Result<Tensor, StoreError> {
    let meta_bytes = store
        .get(&meta_key(prefix))?
        .ok_or_else(|| StoreError::MissingKey(meta_key(prefix)))?;
    let text = String::from_utf8(meta_bytes)
        .map_err(|_| StoreError::Corrupt("metadata is not UTF-8".into()))?;
    let meta = ArrayMeta::from_json(verify_meta_footer(&text)?)?;
    let grid = ChunkGrid::new(&meta.shape, &meta.chunk_shape)?;
    let chain = chain_from_specs(&meta.codecs)?;
    let word = meta.dtype.word_bytes();

    let indices: Vec<Vec<usize>> = (0..grid.num_chunks())
        .map(|c| grid.chunk_index(c))
        .collect();
    // Fetch + decode per chunk in parallel; scatter serially afterwards
    // (each chunk's destination elements interleave with its neighbours',
    // so the gather map, not the buffer split, carries the disjointness).
    let decoded: Vec<Result<Vec<u8>, StoreError>> =
        par_map_indexed(&indices, PAR_MIN_CHUNKS, |_, idx| {
            let key = chunk_key(prefix, idx);
            let enc = store.get(&key)?.ok_or(StoreError::MissingKey(key))?;
            let ctx = CodecContext {
                elem_count: grid.region(idx).len(),
                word_bytes: word,
            };
            decode_chain(&chain, enc, &ctx)
        });

    let mut slab = vec![0u8; grid.num_elements() * word];
    for (idx, dec) in indices.iter().zip(decoded) {
        grid.scatter_bytes(idx, &dec?, word, &mut slab)?;
    }

    match meta.dtype {
        Dtype::F32 => {
            let data: Vec<f32> = slab
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(Tensor::from_vec(data, &meta.shape))
        }
        Dtype::Posit(fmt) => {
            let bits = PackedBits::from_le_bytes(fmt, &slab)
                .ok_or_else(|| StoreError::Corrupt("slab width mismatch".into()))?;
            Ok(Tensor::from_posit_bits(
                bits,
                fmt,
                meta.scale_exp,
                &meta.shape,
            ))
        }
    }
}

/// Delete every key of the array under `prefix` (header and chunks).
pub fn delete_array(store: &dyn Store, prefix: &str) -> Result<(), StoreError> {
    for key in store.list_prefix(&format!("{prefix}/"))? {
        store.delete(&key)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use posit::{PositFormat, Rounding};
    use posit_tensor::rng::Prng;

    #[test]
    fn f32_roundtrip_with_edge_chunks() {
        let store = MemoryStore::new();
        let mut rng = Prng::seed(1);
        let t = Tensor::rand_normal(&[5, 7], 0.0, 1.0, &mut rng);
        let stats = write_tensor_with(&store, "arr", &t, &[2, 3], None).unwrap();
        assert_eq!(stats.chunks, 9);
        assert_eq!(stats.raw_bytes, 4 * 35);
        let back = read_tensor(&store, "arr").unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn posit_roundtrip_is_bit_identical_with_scale() {
        let store = MemoryStore::new();
        let mut rng = Prng::seed(2);
        let fmt = PositFormat::of(8, 1);
        let t = Tensor::rand_normal(&[4, 6], 0.0, 1.0, &mut rng).to_posit(
            fmt,
            -3,
            Rounding::NearestEven,
        );
        write_tensor_with(&store, "w", &t, &[3, 3], None).unwrap();
        let back = read_tensor(&store, "w").unwrap();
        let (b0, f0, e0) = t.posit_bits().unwrap();
        let (b1, f1, e1) = back.posit_bits().unwrap();
        assert_eq!(b1, b0, "code words");
        assert_eq!(f1, f0, "format");
        assert_eq!(e1, e0, "scale exponent");
        assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn sub_byte_formats_hit_true_bits_on_disk() {
        // posit(6,0): 6 bits/element on disk, not 8.
        let store = MemoryStore::new();
        let fmt = PositFormat::of(6, 0);
        let n = 64 * 64;
        let mut bits = PackedBits::for_format(fmt, n);
        for i in 0..n {
            bits.push((i % 64) as u64);
        }
        let t = Tensor::from_posit_bits(bits, fmt, 0, &[64, 64]);
        let stats = write_tensor_with(&store, "p6", &t, &[64, 64], None).unwrap();
        // One chunk: 6·4096/8 = 3072 payload + 4 CRC.
        assert_eq!(stats.chunk_bytes, 3072 + 4);
        let back = read_tensor(&store, "p6").unwrap();
        assert_eq!(back.posit_bits().unwrap().0, t.posit_bits().unwrap().0);
    }

    #[test]
    fn default_chunk_shape_caps_lead_dim() {
        assert_eq!(default_chunk_shape(&[10]), vec![10]);
        assert_eq!(default_chunk_shape(&[1 << 20]), vec![1 << 16]);
        assert_eq!(default_chunk_shape(&[100, 1024]), vec![64, 1024]);
        assert_eq!(default_chunk_shape(&[3, 1, 5, 5]), vec![3, 1, 5, 5]);
        // Zero dims survive (empty array, no chunks).
        assert_eq!(default_chunk_shape(&[0, 4]), vec![1, 4]);
    }

    #[test]
    fn empty_tensor_roundtrips() {
        let store = MemoryStore::new();
        let t = Tensor::zeros(&[0, 4]);
        let stats = write_tensor(&store, "empty", &t).unwrap();
        assert_eq!(stats.chunks, 0);
        let back = read_tensor(&store, "empty").unwrap();
        assert_eq!(back.shape(), &[0, 4]);
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn corrupt_meta_is_a_recoverable_error_not_a_panic() {
        let store = MemoryStore::new();
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]);
        write_tensor_with(&store, "arr", &t, &[2, 3], None).unwrap();
        let key = meta_key("arr");
        let good = store.get(&key).unwrap().unwrap();
        // Truncation, garbage, and field-level mangling all surface as
        // Corrupt — the caller can fall back to another replica/epoch.
        for bad in [
            good[..good.len() / 2].to_vec(),
            b"not json at all".to_vec(),
            String::from_utf8_lossy(&good)
                .replace("\"shape\"", "\"shapes\"")
                .into_bytes(),
            // An injected key, in a footerless header so no checksum
            // catches it first: the schema check must.
            {
                let text = String::from_utf8_lossy(&good);
                let bare = &text[..text.rfind("\n#crc32=").unwrap()];
                bare.replacen('{', "{\"extra\": 1,", 1).into_bytes()
            },
        ] {
            store.set(&key, &bad).unwrap();
            match read_tensor(&store, "arr") {
                Err(StoreError::Corrupt(_)) => {}
                other => panic!("expected Corrupt for mangled meta, got {other:?}"),
            }
        }
        // Restoring the original metadata fully recovers the array.
        store.set(&key, &good).unwrap();
        assert_eq!(read_tensor(&store, "arr").unwrap(), t);
    }

    #[test]
    fn any_single_bit_flip_in_meta_is_caught() {
        let store = MemoryStore::new();
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]);
        write_tensor_with(&store, "arr", &t, &[2, 3], None).unwrap();
        let key = meta_key("arr");
        let good = store.get(&key).unwrap().unwrap();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                store.set(&key, &bad).unwrap();
                match read_tensor(&store, "arr") {
                    Err(StoreError::Corrupt(_)) => {}
                    other => panic!("flip {byte}:{bit} not caught, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn footerless_meta_still_loads() {
        // A hand-written header without the checksum footer is accepted.
        let store = MemoryStore::new();
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]);
        write_tensor_with(&store, "arr", &t, &[2, 3], None).unwrap();
        let key = meta_key("arr");
        let text = String::from_utf8(store.get(&key).unwrap().unwrap()).unwrap();
        let bare = &text[..text.rfind("\n#crc32=").unwrap()];
        store.set(&key, bare.as_bytes()).unwrap();
        assert_eq!(read_tensor(&store, "arr").unwrap(), t);
    }

    #[test]
    fn corrupt_chunk_is_loud() {
        let store = MemoryStore::new();
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]);
        write_tensor_with(&store, "arr", &t, &[2, 3], None).unwrap();
        let key = chunk_key("arr", &[1, 1]);
        let mut bytes = store.get(&key).unwrap().unwrap();
        bytes[0] ^= 0x80;
        store.set(&key, &bytes).unwrap();
        match read_tensor(&store, "arr") {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("crc32"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A missing chunk is a MissingKey, not a panic.
        store.delete(&key).unwrap();
        assert!(matches!(
            read_tensor(&store, "arr"),
            Err(StoreError::MissingKey(_))
        ));
        // A missing header too.
        assert!(matches!(
            read_tensor(&store, "nope"),
            Err(StoreError::MissingKey(_))
        ));
    }

    #[test]
    fn delete_array_clears_all_keys() {
        let store = MemoryStore::new();
        let t = Tensor::zeros(&[4, 4]);
        write_tensor_with(&store, "a/b", &t, &[2, 2], None).unwrap();
        assert!(!store.list_prefix("a/b/").unwrap().is_empty());
        delete_array(&store, "a/b").unwrap();
        assert!(store.list_prefix("a/b/").unwrap().is_empty());
    }

    #[test]
    fn many_chunks_engage_the_parallel_path_deterministically() {
        let store1 = MemoryStore::new();
        let store2 = MemoryStore::new();
        let mut rng = Prng::seed(3);
        let t = Tensor::rand_normal(&[64, 33], 0.0, 1.0, &mut rng).to_posit(
            PositFormat::of(16, 1),
            0,
            Rounding::NearestEven,
        );
        write_tensor_with(&store1, "x", &t, &[4, 8], None).unwrap(); // 16×5 chunks
        write_tensor_with(&store2, "x", &t, &[4, 8], None).unwrap();
        assert_eq!(store1.list().unwrap(), store2.list().unwrap());
        for k in store1.list().unwrap() {
            assert_eq!(store1.get(&k).unwrap(), store2.get(&k).unwrap(), "{k}");
        }
        assert_eq!(read_tensor(&store1, "x").unwrap(), t);
    }
}
