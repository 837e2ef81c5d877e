//! Cross-crate integration tests: the full stack from bit-level decode to
//! application results.

use m3xu::fp::Kulisch;
use m3xu::kernels::gemm::GemmPrecision;
use m3xu::{default_context, Complex, GemmExecutor, M3xu, Matrix, C32};

/// The repository's headline invariant, end to end: a tiled GEMM through
/// device API -> driver -> MMA -> data-assignment -> integer DPU equals
/// per-fragment exact accumulation, bit for bit.
#[test]
fn device_gemm_is_bit_exact_through_the_whole_stack() {
    let dev = M3xu::new();
    let a = Matrix::<f32>::random(33, 18, 101);
    let b = Matrix::<f32>::random(18, 29, 102);
    let d = dev.gemm(&a, &b);

    let frag_k = 2; // M3XU FP32 fragment depth
    let expect = Matrix::from_fn(33, 29, |i, j| {
        let mut acc = 0.0f32;
        for k0 in (0..18).step_by(frag_k) {
            let mut kul = Kulisch::new();
            kul.add_f64(acc as f64);
            for k in k0..(k0 + frag_k).min(18) {
                kul.add_product_f32(a.get(i, k), b.get(k, j));
            }
            acc = kul.to_f32();
        }
        acc
    });
    assert_eq!(d, expect);
}

/// FP32C through the device API matches the f64 complex reference within
/// FP32 rounding of the fragment chain.
#[test]
fn device_cgemm_matches_f64_reference() {
    let dev = M3xu::new();
    let a = Matrix::random_c32(16, 12, 103);
    let b = Matrix::random_c32(12, 16, 104);
    let d = dev.cgemm(&a, &b);
    let gold = Matrix::reference_cgemm_f64(&a, &b, &Matrix::zeros(16, 16));
    for i in 0..16 {
        for j in 0..16 {
            let (x, g) = (d.get(i, j), gold.get(i, j));
            assert!((x.re - g.re).abs() <= 8.0 * f32::EPSILON * g.re.abs().max(4.0));
            assert!((x.im - g.im).abs() <= 8.0 * f32::EPSILON * g.im.abs().max(4.0));
        }
    }
}

/// Associativity of blocking: computing a GEMM with different matrix
/// partitions must agree to FP32 rounding (catches tile-boundary bugs).
#[test]
fn blocked_and_whole_gemm_agree() {
    let a = Matrix::<f32>::random(32, 32, 105);
    let b = Matrix::<f32>::random(32, 32, 106);
    let whole = default_context()
        .try_matmul_f32(GemmPrecision::M3xuFp32, &a, &b)
        .unwrap();

    // Split the K dimension in half and sum the two partial GEMMs.
    let a1 = a.tile(0, 0, 32, 16);
    let a2 = a.tile(0, 16, 32, 16);
    let b1 = b.tile(0, 0, 16, 32);
    let b2 = b.tile(16, 0, 16, 32);
    let p1 = default_context()
        .try_matmul_f32(GemmPrecision::M3xuFp32, &a1, &b1)
        .unwrap();
    let split = default_context()
        .try_gemm_f32(GemmPrecision::M3xuFp32, &a2, &b2, &p1)
        .unwrap()
        .d;
    for (x, y) in whole.as_slice().iter().zip(split.as_slice()) {
        assert!(
            (x - y).abs() <= 16.0 * f32::EPSILON * y.abs().max(4.0),
            "{x} vs {y}"
        );
    }
}

/// FFT consistency across the stack: device FFT == radix-2 == reference
/// DFT within FP32 tolerance; convolution theorem holds.
#[test]
fn fft_convolution_theorem() {
    use m3xu::kernels::fft;
    let dev = M3xu::new();
    let n = 128;
    let ma = Matrix::random_c32(n, 1, 107);
    let mb = Matrix::random_c32(n, 1, 108);
    let x: Vec<C32> = (0..n).map(|i| ma.get(i, 0)).collect();
    let h: Vec<C32> = (0..n).map(|i| mb.get(i, 0)).collect();

    // Circular convolution in time domain (f64 accumulation).
    let direct: Vec<C32> = (0..n)
        .map(|k| {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for j in 0..n {
                let a = x[j];
                let b = h[(n + k - j) % n];
                re += a.re as f64 * b.re as f64 - a.im as f64 * b.im as f64;
                im += a.re as f64 * b.im as f64 + a.im as f64 * b.re as f64;
            }
            Complex::new(re as f32, im as f32)
        })
        .collect();

    // Via the device FFT: ifft(fft(x) .* fft(h)).
    let fx = dev.fft(&x);
    let fh = dev.fft(&h);
    let prod: Vec<C32> = fx.iter().zip(&fh).map(|(a, b)| *a * *b).collect();
    let via_fft = dev.ifft(&prod);

    let err = fft::spectrum_rel_error(&via_fft, &direct);
    assert!(err < 1e-4, "convolution theorem violated: rel err {err}");
}

/// The whole-stack precision ladder: M3XU-FP32 strictly more accurate than
/// TF32, which is more accurate than FP16 on the same workload.
#[test]
fn precision_ladder_holds() {
    let a = Matrix::<f32>::random(40, 40, 109);
    let b = Matrix::<f32>::random(40, 40, 110);
    let gold = Matrix::reference_gemm_f64(&a, &b, &Matrix::zeros(40, 40));
    let err = |p: GemmPrecision| -> f64 {
        let d = default_context().try_matmul_f32(p, &a, &b).unwrap();
        d.as_slice()
            .iter()
            .zip(gold.as_slice())
            .map(|(x, g)| ((x - g) as f64).abs())
            .sum::<f64>()
    };
    let e_m3xu = err(GemmPrecision::M3xuFp32);
    let e_tf32 = err(GemmPrecision::Tf32);
    let e_fp16 = err(GemmPrecision::Fp16);
    assert!(e_m3xu < e_tf32 / 10.0, "m3xu {e_m3xu} vs tf32 {e_tf32}");
    assert!(e_tf32 < e_fp16, "tf32 {e_tf32} vs fp16 {e_fp16}");
}

/// The performance model's headline numbers stay in the paper's bands
/// (regression guard for the calibrated constants).
#[test]
fn performance_headlines_within_paper_bands() {
    let gpu = m3xu::gpu::GpuConfig::a100_40gb();
    let fa = m3xu::gpu::figures::figure4a(&gpu);
    let m3xu_s = fa
        .iter()
        .find(|s| s.kernel == "M3XU_sgemm_pipelined")
        .unwrap();
    assert!((3.3..3.95).contains(&m3xu_s.mean()));
    let fb = m3xu::gpu::figures::figure4b(&gpu);
    let m3xu_c = fb
        .iter()
        .find(|s| s.kernel == "M3XU_cgemm_pipelined")
        .unwrap();
    assert!((3.3..3.95).contains(&m3xu_c.mean()));

    let t3 = m3xu::synth::report::table3();
    assert!((t3[4].area - 1.47).abs() < 0.15); // pipelined M3XU area
    assert!((t3[1].area - 3.55).abs() < 0.4); // native FP32 MXU area
}

/// End-to-end application sanity: KNN classification and MRF matching both
/// work through the public API.
#[test]
fn applications_work_through_facade() {
    let dev = M3xu::new();
    // KNN: nearest neighbour of a reference point is itself.
    let refs = Matrix::<f32>::random(24, 6, 111);
    let r = dev.knn(&refs, &refs, 2);
    for (i, idx) in r.indices.iter().enumerate() {
        assert_eq!(idx[0], i);
    }
    // MRF: a two-atom dictionary has distinct fingerprints.
    use m3xu::kernels::mrf;
    let atoms = vec![
        mrf::Atom {
            t1_ms: 500.0,
            t2_ms: 50.0,
        },
        mrf::Atom {
            t1_ms: 2000.0,
            t2_ms: 200.0,
        },
    ];
    let dict = mrf::generate_dictionary(&atoms, &mrf::example_sequence(16), 6);
    let d: f32 = dict.iter().map(|t| (t[0].abs() - t[1].abs()).abs()).sum();
    assert!(d > 0.01);
}
