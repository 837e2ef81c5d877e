//! Microbenchmarks of the *functional* library: MMA instruction
//! execution, tiled GEMM/CGEMM throughput, the GEMM-formulated FFT, and
//! GEMM-based KNN — the hot paths a downstream user of the simulator
//! exercises. Plain `harness = false` binary: no external bench
//! framework.

use m3xu_bench::timing::bench;
use m3xu_kernels::fft;
use m3xu_kernels::gemm::GemmPrecision;
use m3xu_kernels::knn::knn_gemm;
use m3xu_kernels::{default_context, GemmExecutor};
use m3xu_mxu::matrix::Matrix;
use m3xu_mxu::mma::{self, MmaStats};
use std::hint::black_box;
use std::time::Duration;

const BUDGET: Duration = Duration::from_millis(800);

fn bench_mma() {
    let a = Matrix::<f32>::random(8, 2, 1);
    let b = Matrix::<f32>::random(2, 8, 2);
    let cc = Matrix::<f32>::zeros(8, 8);
    bench("mma/m3xu_fp32_8x8x2", BUDGET, || {
        let mut s = MmaStats::default();
        black_box(mma::mma_fp32(&a, &b, &cc, &mut s));
    });
    let a4 = Matrix::<f32>::random(8, 4, 3);
    let b4 = Matrix::<f32>::random(4, 8, 4);
    bench("mma/fp16_8x8x4", BUDGET, || {
        let mut s = MmaStats::default();
        black_box(mma::mma_narrow(
            m3xu_fp::format::FP16,
            &a4,
            &b4,
            &cc,
            &mut s,
        ));
    });
    bench("mma/tf32_8x8x4", BUDGET, || {
        let mut s = MmaStats::default();
        black_box(mma::mma_tf32(&a4, &b4, &cc, &mut s));
    });
    let ac = Matrix::random_c32(8, 1, 5);
    let bc = Matrix::random_c32(1, 8, 6);
    let ccc = Matrix::<m3xu_fp::C32>::zeros(8, 8);
    bench("mma/m3xu_fp32c_8x8x1", BUDGET, || {
        let mut s = MmaStats::default();
        black_box(mma::mma_fp32c(&ac, &bc, &ccc, &mut s));
    });
}

fn bench_gemm() {
    for n in [32usize, 64, 128] {
        let a = Matrix::<f32>::random(n, n, 7);
        let b = Matrix::<f32>::random(n, n, 8);
        bench(&format!("tiled_gemm/m3xu_fp32/{n}"), BUDGET, || {
            black_box(
                default_context()
                    .try_matmul_f32(GemmPrecision::M3xuFp32, &a, &b)
                    .unwrap(),
            );
        });
        bench(&format!("tiled_gemm/tf32/{n}"), BUDGET, || {
            black_box(
                default_context()
                    .try_matmul_f32(GemmPrecision::Tf32, &a, &b)
                    .unwrap(),
            );
        });
    }
}

fn bench_cgemm() {
    for n in [16usize, 32, 64] {
        let a = Matrix::random_c32(n, n, 9);
        let b = Matrix::random_c32(n, n, 10);
        bench(&format!("tiled_cgemm/m3xu_fp32c/{n}"), BUDGET, || {
            black_box(default_context().try_cmatmul_c32(&a, &b).unwrap());
        });
    }
}

fn bench_fft() {
    for n in [256usize, 1024] {
        let m = Matrix::random_c32(n, 1, 11);
        let x: Vec<m3xu_fp::C32> = (0..n).map(|i| m.get(i, 0)).collect();
        bench(&format!("fft/gemm_fft/{n}"), BUDGET, || {
            black_box(fft::gemm_fft(&x));
        });
        bench(&format!("fft/radix2/{n}"), BUDGET, || {
            black_box(fft::radix2(&x));
        });
    }
}

fn bench_knn() {
    let refs = Matrix::<f32>::random(128, 16, 12);
    let queries = Matrix::<f32>::random(16, 16, 13);
    bench("knn_gemm_128x16_k16", BUDGET, || {
        black_box(knn_gemm(GemmPrecision::M3xuFp32, &refs, &queries, 16));
    });
}

fn main() {
    bench_mma();
    bench_gemm();
    bench_cgemm();
    bench_fft();
    bench_knn();
}
