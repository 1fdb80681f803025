//! Minimal complex arithmetic and complex linear solves.
//!
//! The circuit simulator's small-signal AC analysis solves
//! `(G + jωC)·x = b` per frequency point; this module provides the complex
//! scalar type and a dense complex LU solver for exactly that job.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Complex;
///
/// let j = Complex::new(0.0, 1.0);
/// assert_eq!(j * j, Complex::new(-1.0, 0.0));
/// assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Returns an infinite value for zero input, matching `f64` semantics.
    pub fn recip(self) -> Complex {
        let d = self.re * self.re + self.im * self.im;
        Complex::new(self.re / d, -self.im / d)
    }

    /// Magnitude in decibels (`20·log10 |z|`).
    pub fn abs_db(self) -> f64 {
        20.0 * self.abs().log10()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division is deliberately multiply-by-reciprocal: recip() carries
    // the numerically safe |rhs|² scaling in one place.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Dense complex square matrix in row-major order, only as featureful as
/// AC analysis requires.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        ComplexMatrix {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, i: usize, j: usize) -> Complex {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// Writes entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, i: usize, j: usize, v: Complex) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j] = v;
    }

    /// Adds `v` to entry `(i, j)` — the natural operation for MNA stamps.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn add_at(&mut self, i: usize, j: usize, v: Complex) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j] += v;
    }

    /// Solves `A·x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrong-length rhs or
    /// [`LinalgError::Singular`] when a pivot vanishes.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "complex solve: expected rhs of length {n}, got {}",
                b.len()
            )));
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            // Pivot on largest magnitude.
            let mut p = k;
            let mut pmax = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                x.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let m = a[i * n + k] / pivot;
                if m == Complex::ZERO {
                    continue;
                }
                for j in k..n {
                    let akj = a[k * n + j];
                    a[i * n + j] = a[i * n + j] - m * akj;
                }
                x[i] = x[i] - m * x[k];
            }
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s = s - a[i * n + j] * x[j];
            }
            x[i] = s / a[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex::new(0.0, 2.0);
        assert!((z.abs() - 2.0).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!((Complex::from_real(10.0).abs_db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn solve_identity() {
        let mut m = ComplexMatrix::zeros(2);
        m.set(0, 0, Complex::ONE);
        m.set(1, 1, Complex::ONE);
        let x = m
            .solve(&[Complex::new(2.0, 1.0), Complex::new(0.0, -3.0)])
            .unwrap();
        assert!((x[0] - Complex::new(2.0, 1.0)).abs() < 1e-14);
        assert!((x[1] - Complex::new(0.0, -3.0)).abs() < 1e-14);
    }

    #[test]
    fn solve_known_complex_system() {
        // (1+j) x = 2 -> x = 1 - j
        let mut m = ComplexMatrix::zeros(1);
        m.set(0, 0, Complex::new(1.0, 1.0));
        let x = m.solve(&[Complex::from_real(2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-14);
    }

    #[test]
    fn solve_with_pivoting() {
        let mut m = ComplexMatrix::zeros(2);
        m.set(0, 1, Complex::ONE);
        m.set(1, 0, Complex::ONE);
        let x = m
            .solve(&[Complex::from_real(3.0), Complex::from_real(5.0)])
            .unwrap();
        assert!((x[0] - Complex::from_real(5.0)).abs() < 1e-14);
        assert!((x[1] - Complex::from_real(3.0)).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let m = ComplexMatrix::zeros(2);
        assert!(matches!(
            m.solve(&[Complex::ZERO, Complex::ZERO]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
