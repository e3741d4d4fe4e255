//! Bitwise equality for determinism certification.
//!
//! Floating-point `==` is the wrong comparison for a race detector:
//! `-0.0 == 0.0` and `NaN != NaN`, so a schedule perturbation that flips a
//! sign bit or produces a NaN from a different operand order would slip
//! through (or false-positive). [`BitEq`] compares the *representation* —
//! two runs are equivalent only if they are indistinguishable to the bit.

/// Bit-level equality. Implemented for the result types
/// [`run_perturbed`](crate::run_perturbed) certifies.
pub trait BitEq {
    /// True iff `self` and `other` have identical bit representations.
    fn bit_eq(&self, other: &Self) -> bool;
}

impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

macro_rules! impl_biteq_exact {
    ($($t:ty),*) => {$(
        impl BitEq for $t {
            fn bit_eq(&self, other: &Self) -> bool {
                self == other
            }
        }
    )*};
}

impl_biteq_exact!(bool, u32, u64, usize, i64, String, ());

impl<T: BitEq> BitEq for Vec<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bit_eq(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_bits_not_values() {
        assert!(1.5f64.bit_eq(&1.5));
        assert!(!0.0f64.bit_eq(&-0.0), "signed zeros differ bitwise");
        assert!(f64::NAN.bit_eq(&f64::NAN), "same NaN payload is equal");
    }

    #[test]
    fn compounds_recurse() {
        assert!(vec![1.0f64, 2.0].bit_eq(&vec![1.0, 2.0]));
        assert!(!vec![1.0f64].bit_eq(&vec![1.0, 2.0]), "length mismatch");
        assert!(!vec![0.0f64].bit_eq(&vec![-0.0]));
    }
}
