//! Quickstart: bit-exact FP32 and complex GEMM on the M3XU.
//!
//! Run with `cargo run --release --example quickstart`.

use m3xu::{default_context, Complex, M3xu, Matrix, C32};

fn main() {
    let dev = M3xu::new();

    // --- True FP32 GEMM -----------------------------------------------
    let a = Matrix::<f32>::random(128, 96, 1);
    let b = Matrix::<f32>::random(96, 64, 2);
    let d = dev.gemm(&a, &b);
    println!(
        "FP32 GEMM: {}x{} * {}x{} -> {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols(),
        d.rows(),
        d.cols()
    );

    // The result is bit-exact FP32 — compare against an exact-accumulation
    // reference on a few elements.
    let zero = Matrix::zeros(128, 64);
    let gold = Matrix::reference_gemm_f64(&a, &b, &zero);
    let max_err = d
        .as_slice()
        .iter()
        .zip(gold.as_slice())
        .map(|(x, g)| (x - g).abs() as f64)
        .fold(0.0f64, f64::max);
    println!("  max |M3XU - f64 reference| = {max_err:.3e}  (pure FP32 rounding noise)");

    // TF32 — the precision the paper replaces — visibly diverges. Any
    // precision of the dial runs on an execution context; the process-wide
    // default one is what `dev` uses too.
    let tf32 = default_context()
        .try_gemm_f32(m3xu::GemmPrecision::Tf32, &a, &b, &zero)
        .unwrap()
        .d;
    let tf_err = tf32
        .as_slice()
        .iter()
        .zip(gold.as_slice())
        .map(|(x, g)| (x - g).abs() as f64)
        .fold(0.0f64, f64::max);
    println!("  max |TF32 - f64 reference| = {tf_err:.3e}  (~13 lost mantissa bits)");

    // --- FP32C complex GEMM --------------------------------------------
    let ca = Matrix::random_c32(32, 32, 3);
    let cb = Matrix::random_c32(32, 32, 4);
    let cd = dev.cgemm(&ca, &cb);
    println!(
        "\nFP32C CGEMM: 32x32 complex product, e.g. D[0][0] = {}",
        cd.get(0, 0)
    );

    // A rotation by i: multiplying by the imaginary unit swaps components.
    let i_mat = {
        let mut m = Matrix::<C32>::zeros(2, 2);
        m.set(0, 0, C32::I);
        m.set(1, 1, C32::I);
        m
    };
    let v = Matrix::from_vec(
        2,
        1,
        vec![Complex::new(1.0f32, 0.0), Complex::new(0.0, 1.0)],
    );
    let rotated = dev.cgemm(&i_mat, &v);
    println!(
        "  i * (1, i) = ({}, {})",
        rotated.get(0, 0),
        rotated.get(1, 0)
    );

    // --- Fallible API ---------------------------------------------------
    // Every entry point has a `try_` form returning Result<_, M3xuError>
    // instead of panicking on bad input.
    let tall = Matrix::<f32>::random(8, 3, 7);
    match dev.try_gemm(&tall, &tall) {
        Ok(_) => unreachable!("8x3 * 8x3 has mismatched inner dimensions"),
        Err(e) => println!("\ntry_gemm rejected the shape: {e}"),
    }
    match dev.try_fft(&[C32::ZERO; 12]) {
        Ok(_) => unreachable!("12 is not a power of two"),
        Err(e) => println!("try_fft rejected the length: {e}"),
    }

    // --- Performance estimate ------------------------------------------
    let timed = dev.gemm_timed(
        &Matrix::<f32>::random(256, 256, 5),
        &Matrix::<f32>::random(256, 256, 6),
    );
    println!(
        "\nModelled A100 execution: {:.1} us, {:.2}x over CUDA cores at this size",
        timed.estimated_time_s * 1e6,
        timed.estimated_speedup
    );
    println!("(speedup saturates near 3.9x for 8K-class problems — see `cargo run -p m3xu-bench --bin fig4`)");
}
