//! Quantum-circuit state-vector simulation — the §I complex-GEMM workload
//! ("simulating quantum computing needs complex matrix multiplications to
//! represent qubits and their operations").
//!
//! A library-grade version of the `quantum_sim` example: gates build
//! full-register unitaries and every application is a batched FP32C GEMM
//! on the M3XU. Unitarity is exactly the property that exposes complex
//! arithmetic error, so the tests double as numerics validation.

use crate::context::{default_context, GemmExecutor};
use m3xu_fp::complex::Complex;
use m3xu_mxu::error::M3xuError;
use m3xu_mxu::matrix::Matrix;

type C32 = Complex<f32>;

/// Common single- and two-qubit gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Z-rotation by `theta`.
    Rz(f32),
}

impl Gate {
    /// The gate's 2x2 unitary.
    pub fn matrix(self) -> Matrix<C32> {
        let s = std::f32::consts::FRAC_1_SQRT_2;
        let c = |re: f32, im: f32| Complex::new(re, im);
        let m = match self {
            Gate::H => vec![c(s, 0.0), c(s, 0.0), c(s, 0.0), c(-s, 0.0)],
            Gate::X => vec![c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0)],
            Gate::Y => vec![c(0.0, 0.0), c(0.0, -1.0), c(0.0, 1.0), c(0.0, 0.0)],
            Gate::Z => vec![c(1.0, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(-1.0, 0.0)],
            Gate::S => vec![c(1.0, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(0.0, 1.0)],
            Gate::T => {
                vec![
                    c(1.0, 0.0),
                    c(0.0, 0.0),
                    c(0.0, 0.0),
                    C32::cis(std::f32::consts::FRAC_PI_4),
                ]
            }
            Gate::Rz(theta) => {
                vec![
                    C32::cis(-theta / 2.0),
                    c(0.0, 0.0),
                    c(0.0, 0.0),
                    C32::cis(theta / 2.0),
                ]
            }
        };
        Matrix::from_vec(2, 2, m)
    }
}

/// An `n`-qubit register simulated by full state-vector evolution.
#[derive(Debug)]
pub struct QuantumRegister {
    n: usize,
    /// `2^n x 1` amplitude vector.
    state: Matrix<C32>,
    /// Total FP32C GEMM MMA instructions issued.
    pub mma_instructions: u64,
}

/// Kronecker product.
fn kron(a: &Matrix<C32>, b: &Matrix<C32>) -> Matrix<C32> {
    Matrix::from_fn(a.rows() * b.rows(), a.cols() * b.cols(), |i, j| {
        a.get(i / b.rows(), j / b.cols()) * b.get(i % b.rows(), j % b.cols())
    })
}

/// The largest register the full state-vector simulation accepts
/// (`2^n` amplitudes; every gate is a dense `2^n x 2^n` unitary).
pub const MAX_QUBITS: usize = 10;

impl QuantumRegister {
    /// `|0...0>` on `n` qubits. Panics on an out-of-range `n`; see
    /// [`QuantumRegister::try_new`] for the fallible form.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QuantumRegister::new`]: `n` must lie in
    /// `1..=`[`MAX_QUBITS`] (the state vector is `2^n` amplitudes).
    pub fn try_new(n: usize) -> Result<Self, M3xuError> {
        if !(1..=MAX_QUBITS).contains(&n) {
            return Err(M3xuError::OutOfRange {
                context: "QuantumRegister::new(qubits)",
                value: n,
                min: 1,
                max: MAX_QUBITS,
            });
        }
        let mut state = Matrix::<C32>::zeros(1 << n, 1);
        state.set(0, 0, Complex::new(1.0, 0.0));
        Ok(QuantumRegister {
            n,
            state,
            mma_instructions: 0,
        })
    }

    /// Number of qubits.
    pub fn qubits(&self) -> usize {
        self.n
    }

    /// Current amplitudes.
    pub fn amplitudes(&self) -> Vec<C32> {
        (0..1usize << self.n)
            .map(|i| self.state.get(i, 0))
            .collect()
    }

    /// Measurement probability of each basis state.
    pub fn probabilities(&self) -> Vec<f32> {
        self.amplitudes().iter().map(|a| a.norm_sqr()).collect()
    }

    /// `sum |a|^2` — must stay 1 under unitary evolution.
    pub fn norm_sqr(&self) -> f32 {
        self.probabilities().iter().sum()
    }

    fn apply_unitary_on<X: GemmExecutor>(&mut self, exec: &X, u: &Matrix<C32>) {
        let r = exec
            .try_cgemm_c32(u, &self.state, &Matrix::zeros(1 << self.n, 1))
            .unwrap_or_else(|e| panic!("{e}"));
        self.state = r.d;
        self.mma_instructions += r.stats.instructions;
    }

    /// Apply a single-qubit gate to qubit `q` (0 = most significant).
    /// Panics on an out-of-range qubit; see [`QuantumRegister::try_apply`].
    pub fn apply(&mut self, gate: Gate, q: usize) {
        self.try_apply(gate, q).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QuantumRegister::apply`], on the process-wide default
    /// context.
    pub fn try_apply(&mut self, gate: Gate, q: usize) -> Result<(), M3xuError> {
        self.try_apply_on(default_context(), gate, q)
    }

    /// [`QuantumRegister::try_apply`] on an explicit [`GemmExecutor`].
    pub fn try_apply_on<X: GemmExecutor>(
        &mut self,
        exec: &X,
        gate: Gate,
        q: usize,
    ) -> Result<(), M3xuError> {
        if q >= self.n {
            return Err(M3xuError::OutOfRange {
                context: "QuantumRegister::apply(qubit)",
                value: q,
                min: 0,
                max: self.n - 1,
            });
        }
        let mut u = Matrix::identity_c32(1 << q);
        u = kron(&u, &gate.matrix());
        let u = kron(&u, &Matrix::identity_c32(1 << (self.n - q - 1)));
        self.apply_unitary_on(exec, &u);
        Ok(())
    }

    /// Apply CNOT with control `c` and target `t`. Panics on invalid
    /// qubit indices; see [`QuantumRegister::try_cnot`].
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.try_cnot(c, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QuantumRegister::cnot`]: both qubits must be in range
    /// and distinct. Executes on the process-wide default context.
    pub fn try_cnot(&mut self, c: usize, t: usize) -> Result<(), M3xuError> {
        self.try_cnot_on(default_context(), c, t)
    }

    /// [`QuantumRegister::try_cnot`] on an explicit [`GemmExecutor`].
    pub fn try_cnot_on<X: GemmExecutor>(
        &mut self,
        exec: &X,
        c: usize,
        t: usize,
    ) -> Result<(), M3xuError> {
        for (context, q) in [
            ("QuantumRegister::cnot(control)", c),
            ("QuantumRegister::cnot(target)", t),
        ] {
            if q >= self.n {
                return Err(M3xuError::OutOfRange {
                    context,
                    value: q,
                    min: 0,
                    max: self.n - 1,
                });
            }
        }
        if c == t {
            return Err(M3xuError::InvalidArgument {
                context: "QuantumRegister::cnot: control and target must differ",
            });
        }
        let dim = 1usize << self.n;
        let u = Matrix::from_fn(dim, dim, |row, col| {
            let cbit = (col >> (self.n - 1 - c)) & 1;
            let expect = if cbit == 1 {
                col ^ (1 << (self.n - 1 - t))
            } else {
                col
            };
            if row == expect {
                Complex::new(1.0, 0.0)
            } else {
                C32::ZERO
            }
        });
        self.apply_unitary_on(exec, &u);
        Ok(())
    }

    /// Expectation of Z on qubit `q`: `P(0) - P(1)`.
    pub fn expect_z(&self, q: usize) -> f32 {
        let probs = self.probabilities();
        let mut e = 0.0;
        for (i, p) in probs.iter().enumerate() {
            let bit = (i >> (self.n - 1 - q)) & 1;
            e += if bit == 0 { *p } else { -*p };
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_are_unitary() {
        for g in [
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::T,
            Gate::Rz(0.7),
        ] {
            let u = g.matrix();
            // U U† = I.
            let udag = Matrix::from_fn(2, 2, |i, j| u.get(j, i).conj());
            let prod = default_context().try_cmatmul_c32(&u, &udag).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    let v = prod.get(i, j);
                    assert!((v.re - expect).abs() < 1e-6 && v.im.abs() < 1e-6, "{g:?}");
                }
            }
        }
    }

    #[test]
    fn x_flips_and_h_superposes() {
        let mut reg = QuantumRegister::new(1);
        reg.apply(Gate::X, 0);
        assert!((reg.probabilities()[1] - 1.0).abs() < 1e-6);
        let mut reg = QuantumRegister::new(1);
        reg.apply(Gate::H, 0);
        let p = reg.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-6 && (p[1] - 0.5).abs() < 1e-6);
        // H twice is identity.
        reg.apply(Gate::H, 0);
        assert!((reg.probabilities()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bell_state() {
        let mut reg = QuantumRegister::new(2);
        reg.apply(Gate::H, 0);
        reg.cnot(0, 1);
        let p = reg.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-6);
        assert!((p[0b11] - 0.5).abs() < 1e-6);
        assert!(p[0b01] < 1e-9 && p[0b10] < 1e-9);
        // Perfect correlation: <Z0> = <Z1> = 0.
        assert!(reg.expect_z(0).abs() < 1e-6);
        assert!(reg.expect_z(1).abs() < 1e-6);
        assert!(reg.mma_instructions > 0, "must have used the M3XU");
    }

    #[test]
    fn unitarity_preserved_through_deep_circuit() {
        // 60 gates on 4 qubits: the norm drifts only by FP32C rounding.
        let mut reg = QuantumRegister::new(4);
        let gates = [Gate::H, Gate::T, Gate::S, Gate::X, Gate::Rz(0.3), Gate::Y];
        for (i, g) in gates.iter().cycle().take(60).enumerate() {
            reg.apply(*g, i % 4);
            if i % 7 == 0 {
                reg.cnot(i % 4, (i + 1) % 4);
            }
        }
        let norm = reg.norm_sqr();
        assert!((norm - 1.0).abs() < 1e-4, "norm drifted to {norm}");
    }

    #[test]
    fn rz_phase_is_invisible_to_z_basis() {
        let mut reg = QuantumRegister::new(1);
        reg.apply(Gate::H, 0);
        let before = reg.probabilities();
        reg.apply(Gate::Rz(1.234), 0);
        let after = reg.probabilities();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
        // ... but visible after another H (interference).
        reg.apply(Gate::H, 0);
        let p = reg.probabilities();
        assert!((p[0] - 1.0).abs() > 0.1, "phase should shift interference");
    }

    #[test]
    fn try_register_rejects_bad_sizes_and_qubits() {
        assert!(matches!(
            QuantumRegister::try_new(0).unwrap_err(),
            M3xuError::OutOfRange { value: 0, .. }
        ));
        assert!(matches!(
            QuantumRegister::try_new(MAX_QUBITS + 1).unwrap_err(),
            M3xuError::OutOfRange { .. }
        ));
        let mut reg = QuantumRegister::try_new(2).unwrap();
        assert!(matches!(
            reg.try_apply(Gate::H, 2).unwrap_err(),
            M3xuError::OutOfRange { value: 2, .. }
        ));
        assert!(matches!(
            reg.try_cnot(0, 3).unwrap_err(),
            M3xuError::OutOfRange { value: 3, .. }
        ));
        assert!(matches!(
            reg.try_cnot(1, 1).unwrap_err(),
            M3xuError::InvalidArgument { .. }
        ));
        // A failed gate application leaves the register untouched.
        assert!((reg.probabilities()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cnot_truth_table() {
        for (input, expect) in [
            (0b00usize, 0b00usize),
            (0b01, 0b01),
            (0b10, 0b11),
            (0b11, 0b10),
        ] {
            let mut reg = QuantumRegister::new(2);
            if input & 0b10 != 0 {
                reg.apply(Gate::X, 0);
            }
            if input & 0b01 != 0 {
                reg.apply(Gate::X, 1);
            }
            reg.cnot(0, 1);
            let p = reg.probabilities();
            assert!((p[expect] - 1.0).abs() < 1e-5, "input {input:02b}");
        }
    }
}
