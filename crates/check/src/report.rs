//! The shared violations-list report every analysis pass emits.
//!
//! A pass — dynamic (`hymv-check`) or static (`hymv-verify`) — collects
//! one human-readable string per violated invariant instead of stopping at
//! the first, so a CLI run shows the complete damage and a test can assert
//! on the exact diagnostic. [`PassReport`] is that list plus a title.

use std::fmt;

/// The outcome of one named analysis pass: empty means it proved clean.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// What was checked (rendered as the report header).
    pub title: String,
    /// One entry per violated invariant, in detection order.
    pub violations: Vec<String>,
}

impl PassReport {
    /// A clean report for the named pass.
    pub fn new(title: impl Into<String>) -> Self {
        PassReport {
            title: title.into(),
            violations: Vec::new(),
        }
    }

    /// Record one violation.
    pub fn push(&mut self, violation: impl Into<String>) {
        self.violations.push(violation.into());
    }

    /// Fold another pass's violations into this one, prefixing each with
    /// a context label (e.g. the rank or file it came from).
    pub fn absorb(&mut self, context: &str, violations: Vec<String>) {
        for v in violations {
            self.violations.push(format!("{context}: {v}"));
        }
    }

    /// True iff no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "{}: clean", self.title)
        } else {
            writeln!(f, "{}: {} violation(s)", self.title, self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_dirty_render() {
        let mut r = PassReport::new("demo pass");
        assert!(r.is_clean());
        assert!(format!("{r}").contains("clean"));
        r.push("first violation");
        r.absorb("rank 2", vec!["second".into()]);
        assert!(!r.is_clean());
        let s = format!("{r}");
        assert!(s.contains("2 violation(s)"), "{s}");
        assert!(s.contains("first violation"), "{s}");
        assert!(s.contains("rank 2: second"), "{s}");
    }
}
