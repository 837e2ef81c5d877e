//! A real, trainable MLP whose GEMMs run on the functional M3XU.
//!
//! This demonstrates the paper's deployment claim end to end: an FP32
//! training loop needs **zero** software changes to run on M3XU, and its
//! numerics match FP32 expectations (no TF32-style divergence). The
//! network is a two-layer MLP with ReLU and mean-squared-error loss,
//! trained by plain SGD; forward and backward matrix products all route
//! through a [`GemmExecutor`]'s `try_gemm_f32` (by default the
//! process-wide [`default_context`]).

use crate::context::{default_context, GemmExecutor};
use crate::gemm::GemmPrecision;
use m3xu_mxu::matrix::Matrix;

/// A two-layer perceptron `y = W2 · relu(W1 · x + b1) + b2`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// First-layer weights, `hidden x inputs`.
    pub w1: Matrix<f32>,
    /// First-layer bias, `hidden x 1`.
    pub b1: Vec<f32>,
    /// Second-layer weights, `outputs x hidden`.
    pub w2: Matrix<f32>,
    /// Second-layer bias, `outputs x 1`.
    pub b2: Vec<f32>,
    /// Which GEMM engine runs the matrix products.
    pub precision: GemmPrecision,
}

/// One forward pass's intermediates (kept for the backward pass).
pub struct ForwardState {
    /// Input batch, `inputs x batch`.
    pub x: Matrix<f32>,
    /// Pre-activation of layer 1, `hidden x batch`.
    pub z1: Matrix<f32>,
    /// Post-ReLU activation, `hidden x batch`.
    pub a1: Matrix<f32>,
    /// Network output, `outputs x batch`.
    pub y: Matrix<f32>,
}

impl Mlp {
    /// Random initialisation (scaled uniform).
    pub fn new(
        inputs: usize,
        hidden: usize,
        outputs: usize,
        precision: GemmPrecision,
        seed: u64,
    ) -> Self {
        let scale1 = (2.0 / inputs as f32).sqrt();
        let scale2 = (2.0 / hidden as f32).sqrt();
        let mut w1 = Matrix::<f32>::random(hidden, inputs, seed);
        for v in w1.as_mut_slice() {
            *v *= scale1;
        }
        let mut w2 = Matrix::<f32>::random(outputs, hidden, seed ^ 0xBEEF);
        for v in w2.as_mut_slice() {
            *v *= scale2;
        }
        Mlp {
            w1,
            b1: vec![0.0; hidden],
            w2,
            b2: vec![0.0; outputs],
            precision,
        }
    }

    /// Forward pass on a batch (`inputs x batch`), on the process-wide
    /// default context.
    pub fn forward(&self, x: &Matrix<f32>) -> ForwardState {
        self.forward_on(default_context(), x)
    }

    /// [`Mlp::forward`] on an explicit [`GemmExecutor`].
    pub fn forward_on<X: GemmExecutor>(&self, exec: &X, x: &Matrix<f32>) -> ForwardState {
        let gemm = |a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>| {
            exec.try_gemm_f32(self.precision, a, b, c)
                .unwrap_or_else(|e| panic!("{e}"))
                .d
        };
        let batch = x.cols();
        let c1 = Matrix::from_fn(self.w1.rows(), batch, |i, _| self.b1[i]);
        let z1 = gemm(&self.w1, x, &c1);
        let a1 = Matrix::from_fn(z1.rows(), z1.cols(), |i, j| z1.get(i, j).max(0.0));
        let c2 = Matrix::from_fn(self.w2.rows(), batch, |i, _| self.b2[i]);
        let y = gemm(&self.w2, &a1, &c2);
        ForwardState {
            x: x.clone(),
            z1,
            a1,
            y,
        }
    }

    /// Mean-squared-error loss against targets (`outputs x batch`).
    pub fn mse(&self, y: &Matrix<f32>, t: &Matrix<f32>) -> f32 {
        let n = (y.rows() * y.cols()) as f32;
        y.as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / n
    }

    /// One SGD step on a batch; returns the pre-update loss.
    ///
    /// All four backward matrix products (`dW2 = dy·a1ᵀ`, `da1 = W2ᵀ·dy`,
    /// `dW1 = dz1·xᵀ` and the next `dx` if chained) run on the same GEMM
    /// engine as the forward — the paper's point about the backward pass.
    pub fn train_step(&mut self, x: &Matrix<f32>, t: &Matrix<f32>, lr: f32) -> f32 {
        self.train_step_on(default_context(), x, t, lr)
    }

    /// [`Mlp::train_step`] on an explicit [`GemmExecutor`].
    pub fn train_step_on<X: GemmExecutor>(
        &mut self,
        exec: &X,
        x: &Matrix<f32>,
        t: &Matrix<f32>,
        lr: f32,
    ) -> f32 {
        let matmul = |a: &Matrix<f32>, b: &Matrix<f32>| {
            exec.try_matmul_f32(self.precision, a, b)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let fs = self.forward_on(exec, x);
        let loss = self.mse(&fs.y, t);
        let batch = x.cols() as f32;
        let scale = 2.0 / (fs.y.rows() as f32 * batch);
        // dL/dy
        let dy = Matrix::from_fn(fs.y.rows(), fs.y.cols(), |i, j| {
            scale * (fs.y.get(i, j) - t.get(i, j))
        });
        // dW2 = dy · a1^T ; db2 = row-sum(dy)
        let dw2 = matmul(&dy, &fs.a1.transpose());
        // da1 = W2^T · dy, masked by ReLU'(z1)
        let da1 = matmul(&self.w2.transpose(), &dy);
        let dz1 = Matrix::from_fn(da1.rows(), da1.cols(), |i, j| {
            if fs.z1.get(i, j) > 0.0 {
                da1.get(i, j)
            } else {
                0.0
            }
        });
        // dW1 = dz1 · x^T
        let dw1 = matmul(&dz1, &fs.x.transpose());

        // SGD update.
        for i in 0..self.w2.rows() {
            let mut db = 0.0;
            for j in 0..dy.cols() {
                db += dy.get(i, j);
            }
            self.b2[i] -= lr * db;
            for j in 0..self.w2.cols() {
                self.w2.set(i, j, self.w2.get(i, j) - lr * dw2.get(i, j));
            }
        }
        for i in 0..self.w1.rows() {
            let mut db = 0.0;
            for j in 0..dz1.cols() {
                db += dz1.get(i, j);
            }
            self.b1[i] -= lr * db;
            for j in 0..self.w1.cols() {
                self.w1.set(i, j, self.w1.get(i, j) - lr * dw1.get(i, j));
            }
        }
        loss
    }
}

/// Train on a synthetic regression task (`t = P·x` for a hidden random
/// projection) and return the loss trajectory.
pub fn train_synthetic(precision: GemmPrecision, steps: usize, seed: u64) -> Vec<f32> {
    let (inputs, hidden, outputs, batch) = (16, 32, 4, 16);
    let projection = Matrix::<f32>::random(outputs, inputs, seed ^ 0x5151);
    let mut mlp = Mlp::new(inputs, hidden, outputs, precision, seed);
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        let x = Matrix::<f32>::random(inputs, batch, seed + step as u64 * 7919);
        let t = Matrix::reference_gemm(&projection, &x, &Matrix::zeros(outputs, batch));
        losses.push(mlp.train_step(&x, &t, 0.05));
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(8, 16, 4, GemmPrecision::M3xuFp32, 1);
        let x = Matrix::<f32>::random(8, 5, 2);
        let fs = mlp.forward(&x);
        assert_eq!((fs.z1.rows(), fs.z1.cols()), (16, 5));
        assert_eq!((fs.y.rows(), fs.y.cols()), (4, 5));
        // ReLU: activations non-negative.
        assert!(fs.a1.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn training_reduces_loss_on_m3xu() {
        let losses = train_synthetic(GemmPrecision::M3xuFp32, 150, 3);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(
            tail < head * 0.5,
            "loss did not halve: head {head} tail {tail}"
        );
    }

    #[test]
    fn m3xu_training_tracks_fp32_semantics() {
        // The M3XU run and an FP16-quantised run diverge; the M3XU run
        // should end with a loss at least as good (FP32 precision).
        let m3xu = train_synthetic(GemmPrecision::M3xuFp32, 60, 4);
        let fp16 = train_synthetic(GemmPrecision::Fp16, 60, 4);
        let last = |v: &[f32]| v[v.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last(&m3xu) <= last(&fp16) * 1.5,
            "m3xu {} vs fp16 {}",
            last(&m3xu),
            last(&fp16)
        );
    }

    #[test]
    fn gradients_are_finite() {
        let mut mlp = Mlp::new(8, 8, 2, GemmPrecision::M3xuFp32, 5);
        let x = Matrix::<f32>::random(8, 4, 6);
        let t = Matrix::<f32>::random(2, 4, 7);
        for _ in 0..5 {
            let loss = mlp.train_step(&x, &t, 0.01);
            assert!(loss.is_finite());
        }
        assert!(mlp.w1.as_slice().iter().all(|v| v.is_finite()));
        assert!(mlp.w2.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn overfits_single_batch() {
        // Sanity: the network can drive loss near zero on one fixed batch.
        let mut mlp = Mlp::new(4, 24, 2, GemmPrecision::M3xuFp32, 8);
        let x = Matrix::<f32>::random(4, 8, 9);
        let t = Matrix::<f32>::random(2, 8, 10);
        let mut last = f32::MAX;
        for _ in 0..300 {
            last = mlp.train_step(&x, &t, 0.1);
        }
        assert!(last < 0.01, "final loss = {last}");
    }
}
