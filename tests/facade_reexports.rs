//! Smoke test for the `posit_dnn` facade: every re-exported namespace must
//! resolve, and its headline types must construct and do one real thing.
//!
//! This is the contract the README quickstart and the examples rely on —
//! if a workspace refactor renames or drops a re-export, this file fails
//! to compile rather than silently breaking downstream imports.

use posit_dnn::data::{toy, DataLoader, Dataset, SyntheticCifar, SyntheticImageNet};
use posit_dnn::hw::cost::CostModel;
use posit_dnn::hw::decoder::PositDecoder;
use posit_dnn::hw::{DecoderOptimized, EncoderOptimized, PositMac, PositMacUnit};
use posit_dnn::models::{lenet, mlp, resnet18_cifar, PlainBuilder};
use posit_dnn::nn::{metrics, Layer, Sgd, SoftmaxCrossEntropy};
use posit_dnn::posit::{
    quant, InvalidFormatError, PositFormat, PositQuantizer, Quire, Rounding, P16E1, P8E1,
};
use posit_dnn::tensor::rng::Prng;
use posit_dnn::tensor::Tensor;
use posit_dnn::train::es_select::{select_es, LogRange};
use posit_dnn::train::{
    scale, ClassFormats, Phase, QuantBuilder, QuantControl, QuantSpec, TensorClass, TrainConfig,
    Trainer,
};

#[test]
fn posit_reexports_construct() -> Result<(), InvalidFormatError> {
    let fmt = PositFormat::new(16, 1)?;
    let bits = fmt.from_f64(2.5, Rounding::NearestEven);
    assert_eq!(fmt.to_f64(bits), 2.5);

    let mut q = PositQuantizer::new(PositFormat::new(8, 1)?, Rounding::ToZero);
    assert!(q.quantize(0.3).abs() <= 0.3);
    assert_eq!(quant::quantize_f64(&fmt, 0.0, Rounding::ToZero), 0.0);

    let mut quire = Quire::new(fmt);
    quire.add_product(fmt.from_f64(1.5, Rounding::NearestEven), bits);
    assert_eq!(fmt.to_f64(quire.to_posit(Rounding::NearestEven, 0)), 3.75);

    assert_eq!(
        (P16E1::from_f64(1.5) + P16E1::from_f64(0.25)).to_f64(),
        1.75
    );
    assert_eq!(P8E1::from_f64(1.0).to_f64(), 1.0);
    Ok(())
}

#[test]
fn hw_reexports_construct() {
    let fmt = PositFormat::of(16, 1);
    let dec = DecoderOptimized::new(fmt);
    let enc = EncoderOptimized::new(fmt);
    let code = fmt.from_f64(-6.5, Rounding::NearestEven);
    let fields = dec.decode(code);
    assert_eq!(fields.to_f64(), -6.5);
    let _ = enc;

    let mac = PositMac::new(fmt);
    let _ = mac;
    let mut unit = PositMacUnit::new(fmt);
    let out = unit.dot(
        &[fmt.from_f64(2.0, Rounding::NearestEven)],
        &[fmt.from_f64(3.0, Rounding::NearestEven)],
    );
    assert_eq!(fmt.to_f64(out), 6.0);

    let model = CostModel::tsmc28();
    let _ = model;
}

#[test]
fn tensor_reexports_construct() {
    let t = Tensor::zeros(&[2, 3]);
    assert_eq!(t.shape(), &[2, 3]);
    let v = Tensor::from_vec(vec![1.0, 2.0], &[2]);
    assert_eq!(v.data(), &[1.0, 2.0]);
    let mut rng = Prng::seed(7);
    assert!(rng.below(10) < 10);
}

#[test]
fn storage_reexports_construct() {
    use posit_dnn::tensor::{Backend, Layout, Operand, PackedBits, Storage, StorageDomain};
    let fmt = PositFormat::of(8, 1);
    let t = Tensor::from_vec(vec![1.0, -0.5, 2.0, 0.25], &[2, 2]);
    assert_eq!(t.domain(), StorageDomain::F32);
    let p = t.to_posit(fmt, 0, Rounding::NearestEven);
    assert!(matches!(p.storage(), Storage::Posit { .. }));
    assert_eq!(p.nbytes(), 4, "posit8 packs 1 byte/element");
    assert_eq!(p.to_f32().data(), t.data());
    assert_eq!(PackedBits::bytes_per_elem(fmt), 1);
    let op: Operand<'_> = p.operand();
    assert_eq!(op.len(), 4);
    // Packed planes feed the quire backend directly.
    let bk = Backend::PositQuire {
        fmt,
        rounding: Rounding::NearestEven,
    };
    let mut c = vec![0.0f32; 4];
    bk.prepare_operand(p.operand())
        .gemm_with(Layout::AB, 2, 2, 2, p.operand(), &mut c);
    let want = t.matmul(&t);
    assert_eq!(c, want.data(), "exact operands: packed quire == f32");
    // Config validation re-exports.
    use posit_dnn::train::ConfigError;
    let mut bad = TrainConfig::cifar_scaled(4, 2);
    bad.batch_size = 0;
    assert_eq!(bad.validate(), Err(ConfigError::ZeroBatchSize));
}

#[test]
fn nn_models_data_reexports_construct() {
    let mut rng = Prng::seed(1);
    let mut builder = PlainBuilder;
    let mut net = mlp(&mut builder, &[4, 8, 3], &mut rng);

    let ds: Dataset = toy::gaussian_blobs(30, 3, 4, 6.0, 2);
    let mut loader = DataLoader::new(&ds, 10, true, 0);
    let loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(0.1).momentum(0.9);
    for (x, t) in loader.epoch() {
        let y = net.forward(&x, true);
        let (l, g) = loss.forward(&y, &t);
        assert!(l.is_finite());
        opt.zero_grad(&mut net.params_mut());
        net.backward(&g);
        opt.step(&mut net.params_mut());
        let _ = metrics::top1_accuracy(&y, &t);
    }

    // The conv models and both synthetic generators construct.
    let lenet_net = lenet(&mut builder, 1, 16, 10, &mut rng);
    assert!(!lenet_net.params().is_empty());
    let resnet = resnet18_cifar(&mut builder, 10, &mut rng);
    assert!(!resnet.params().is_empty());
    let cifar = SyntheticCifar::new(8, 42);
    assert_eq!(cifar.train(4, 1).len(), 4);
    let imagenet = SyntheticImageNet::new(8, 20, 43);
    assert_eq!(imagenet.train(4, 1).len(), 4);
}

#[test]
fn train_reexports_construct() {
    let config = TrainConfig::cifar_scaled(4, 1).with_quant(QuantSpec::cifar_paper());
    let trainer = Trainer::resnet(&config);
    let _ = trainer;

    let qb = QuantBuilder::new(QuantSpec::cifar_paper());
    let control: QuantControl = qb.control();
    control.set_phase(Phase::Posit);

    // Eq. 2-3 scaling helpers and the §III-B es criterion.
    let xs = [0.5f32, 1.0, 2.0, 4.0];
    // log2 values are [-1, 0, 1, 2]: mean 0.5 rounds to 1.
    assert_eq!(scale::log2_center(&xs), Some(1));
    let span = LogRange::measure(&xs).expect("nonzero tensor").span();
    let es = select_es(8, span);
    assert!(es <= 3, "criterion picked es={es}");

    // The four Fig. 3 insertion points are all addressable.
    let formats = ClassFormats::paper_rule(8);
    for class in [
        TensorClass::Weight,
        TensorClass::Activation,
        TensorClass::Error,
        TensorClass::WeightGrad,
    ] {
        let fmt = formats.format(class);
        assert!(fmt.es() <= 2, "paper rule uses es in {{1, 2}}");
    }
}

#[test]
fn store_reexports_construct() {
    use posit_dnn::store::{read_tensor, write_tensor, ChunkGrid, MemoryStore, Store};

    // A packed posit tensor survives the chunked store bit-identically.
    let store = MemoryStore::new();
    let t = Tensor::from_vec(vec![0.5, -2.0, 1.5, 0.0], &[2, 2]).to_posit(
        PositFormat::of(8, 1),
        0,
        Rounding::NearestEven,
    );
    write_tensor(&store, "w", &t).expect("write");
    let back = read_tensor(&store, "w").expect("read");
    assert_eq!(back.posit_bits(), t.posit_bits());
    assert!(!store.list().expect("list").is_empty());

    let grid = ChunkGrid::new(&[5, 7], &[2, 3]).expect("grid");
    assert_eq!(grid.num_chunks(), 9);

    // Checkpoint v2 flows through the same store machinery.
    let mut rng = Prng::seed(6);
    let mut net = lenet(&mut PlainBuilder, 1, 16, 10, &mut rng);
    use posit_dnn::nn::checkpoint::{self, Sink, Source, Version};
    let mut blob = Vec::new();
    checkpoint::write(&net, Sink::Bytes(&mut blob), Version::V2).expect("byte sinks cannot fail");
    checkpoint::read(&mut net, Source::Bytes(&blob)).expect("v2 self-load");
}

#[test]
fn serve_reexports_construct() {
    use posit_dnn::serve::{InferenceServer, ServeConfig, ServedModel};

    // An FP32 MLP served end to end: submit, deadline flush, poll.
    let mut rng = Prng::seed(8);
    let net = mlp(&mut PlainBuilder, &[4, 8, 3], &mut rng);
    let mut srv = InferenceServer::new(
        ServedModel::fp32(net),
        &[4],
        ServeConfig {
            max_batch: 4,
            max_wait_ticks: 1,
            ..ServeConfig::default()
        },
    )
    .expect("valid config");
    let id = srv
        .submit(&Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], &[4]))
        .expect("f32 sample");
    assert!(
        srv.poll(id).is_none(),
        "partial batch waits for its deadline"
    );
    srv.tick().expect("tick");
    let reply = srv
        .poll(id)
        .expect("deadline flush completed the request")
        .expect("served");
    assert_eq!(reply.logits.len(), 3);
    assert_eq!(srv.stats().completed, 1);
}
