//! Bitwise equality for determinism certification.
//!
//! Floating-point `==` is the wrong comparison for a race detector:
//! `-0.0 == 0.0` and `NaN != NaN`, so a schedule perturbation that flips a
//! sign bit or produces a NaN from a different operand order would slip
//! through (or false-positive). [`BitEq`] compares the *representation* —
//! two runs are equivalent only if they are indistinguishable to the bit.

/// Where two results differ, bounded whatever their size: the first
/// differing entry (0 for a scalar), how many entries differ (extra
/// entries count), and the two entries there with their bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    pub first: usize,
    pub count: usize,
    pub left: String,
    pub right: String,
}

/// Bit-level equality. Implemented for the result types
/// [`run_perturbed`](crate::run_perturbed) certifies.
pub trait BitEq {
    /// True iff `self` and `other` have identical bit representations.
    fn bit_eq(&self, other: &Self) -> bool;

    /// The value with its bit pattern, for a mismatch report.
    fn show_bits(&self) -> String;

    /// True iff the value holds a NaN: under the audit, the poison of a
    /// ghost slot read inside the scatter window.
    fn has_nan(&self) -> bool {
        false
    }

    /// Where `self` and `other` differ; `None` when they are bit-equal.
    fn mismatch(&self, other: &Self) -> Option<Mismatch> {
        (!self.bit_eq(other)).then(|| Mismatch {
            first: 0,
            count: 1,
            left: self.show_bits(),
            right: other.show_bits(),
        })
    }
}

impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }

    fn show_bits(&self) -> String {
        format!("{self:e} ({:#018x})", self.to_bits())
    }

    fn has_nan(&self) -> bool {
        self.is_nan()
    }
}

macro_rules! impl_biteq_exact {
    ($($t:ty),*) => {$(
        impl BitEq for $t {
            fn bit_eq(&self, other: &Self) -> bool {
                self == other
            }

            fn show_bits(&self) -> String {
                format!("{self:?}")
            }
        }
    )*};
}

impl_biteq_exact!(bool, u32, u64, usize, i64, String, ());

impl<T: BitEq> BitEq for Vec<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bit_eq(b))
    }

    fn show_bits(&self) -> String {
        format!("[{} entries]", self.len())
    }

    fn has_nan(&self) -> bool {
        self.iter().any(BitEq::has_nan)
    }

    fn mismatch(&self, other: &Self) -> Option<Mismatch> {
        let show = |v: &Self, i: usize| v.get(i).map_or("(absent)".into(), BitEq::show_bits);
        let differ: Vec<usize> = (0..self.len().max(other.len()))
            .filter(|&i| !matches!((self.get(i), other.get(i)), (Some(a), Some(b)) if a.bit_eq(b)))
            .collect();
        differ.first().map(|&first| Mismatch {
            first,
            count: differ.len(),
            left: show(self, first),
            right: show(other, first),
        })
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
        let m = vec![1.0f64, 2.0, 3.0].mismatch(&vec![1.0, -2.0, 3.0, 5.0]);
        let expect = (1, 2, "-2e0 (0xc000000000000000)".to_string());
        assert_eq!(m.map(|m| (m.first, m.count, m.right)), Some(expect));
    }
}
