//! Dense column vector.

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Neg, Sub};

/// Dense column vector over a [`Scalar`].
///
/// Used for residuals, right-hand sides, and state increments throughout the
/// solver. Arithmetic on references avoids cloning in hot loops:
///
/// ```
/// use archytas_math::DVec;
/// let a = DVec::from(vec![1.0, 2.0]);
/// let b = DVec::from(vec![3.0, 4.0]);
/// let c = &a + &b;
/// assert_eq!(c.as_slice(), &[4.0, 6.0]);
/// ```
#[derive(PartialEq, Default)]
pub struct Vector<T: Scalar> {
    data: Vec<T>,
}

impl<T: Scalar> Clone for Vector<T> {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`, reusing the existing allocation when it is
    /// large enough (the derived impl would reallocate on every call).
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
    }
}

impl<T: Scalar> Vector<T> {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: vec![T::ZERO; n],
        }
    }

    /// Resizes to `n` elements, all set to `value`, reusing the allocation.
    pub fn resize_fill(&mut self, n: usize, value: T) {
        self.data.clear();
        self.data.resize(n, value);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Euclidean norm.
    pub fn norm(&self) -> T {
        self.dot(self).sqrt()
    }

    /// Inner product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Self) -> T {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Scales every element by `alpha`.
    pub fn scale(&self, alpha: T) -> Self {
        Self {
            data: self.data.iter().map(|&a| a * alpha).collect(),
        }
    }

    /// Largest absolute element, or zero for the empty vector.
    pub fn max_abs(&self) -> T {
        self.data
            .iter()
            .map(|v| v.abs())
            .fold(T::ZERO, |acc, v| if v > acc { v } else { acc })
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Converts element-wise to another scalar width (e.g. `f64` → `f32` when
    /// handing data to the hardware functional model).
    pub fn cast<U: Scalar>(&self) -> Vector<U> {
        let mut out = Vector::zeros(0);
        self.cast_into(&mut out);
        out
    }

    /// [`Vector::cast`] into a caller-owned vector — allocation-free once
    /// `out`'s buffer has grown to this length.
    pub fn cast_into<U: Scalar>(&self, out: &mut Vector<U>) {
        out.data.clear();
        out.data
            .extend(self.data.iter().map(|v| U::from_f64(v.to_f64())));
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T: Scalar> From<Vec<T>> for Vector<T> {
    fn from(data: Vec<T>) -> Self {
        Self { data }
    }
}

impl<T: Scalar> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T: Scalar> Extend<T> for Vector<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<T: Scalar> Index<usize> for Vector<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Scalar> IndexMut<usize> for Vector<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: Scalar> fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector(len={}) {:?}", self.len(), self.data)
    }
}

impl<T: Scalar> Add for &Vector<T> {
    type Output = Vector<T>;
    fn add(self, rhs: Self) -> Vector<T> {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect()
    }
}

impl<T: Scalar> Sub for &Vector<T> {
    type Output = Vector<T>;
    fn sub(self, rhs: Self) -> Vector<T> {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect()
    }
}

impl<T: Scalar> Neg for &Vector<T> {
    type Output = Vector<T>;
    fn neg(self) -> Vector<T> {
        self.data.iter().map(|&a| -a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type V = Vector<f64>;

    #[test]
    fn zeros_and_len() {
        let v = V::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.norm(), 0.0);
        assert!(V::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norm() {
        let v = V::from(vec![3.0, 4.0]);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.norm(), 5.0);
    }

    #[test]
    fn indexing() {
        let v = V::from(vec![0.0, 0.0, 1.0, 2.0, 0.0]);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[2], 1.0);
    }

    #[test]
    fn arithmetic_on_refs() {
        let a = V::from(vec![1.0, 2.0]);
        let b = V::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn max_abs_and_finite() {
        let v = V::from(vec![-7.0, 3.0]);
        assert_eq!(v.max_abs(), 7.0);
        assert!(v.all_finite());
        let bad = V::from(vec![f64::NAN]);
        assert!(!bad.all_finite());
        assert_eq!(V::zeros(0).max_abs(), 0.0);
    }

    #[test]
    fn cast_narrows() {
        let v = V::from(vec![1.0 + 1e-12]);
        let f: Vector<f32> = v.cast();
        assert_eq!(f[0], 1.0f32);
    }

    #[test]
    fn collect() {
        let collected: V = (0..3).map(|i| i as f64).collect();
        assert_eq!(collected.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_mismatch_panics() {
        let _ = V::zeros(2).dot(&V::zeros(3));
    }
}
