//! The protocol auditor's front door.
//!
//! The auditor itself lives inside `hymv-comm` (it has to see every
//! mailbox and collective slot); this module re-exports its types and adds
//! [`run_audited`], which runs a rank program with auditing **forced on**
//! and hands back the report instead of panicking — the shape an analysis
//! tool or test wants when it intends to *inspect* violations.

pub use hymv_comm::{AuditEvent, AuditEventKind, AuditMode, AuditReport, AuditViolation};

use hymv_comm::{Comm, RunConfig, Universe};

/// Run `f` on `p` ranks with the protocol auditor enabled regardless of
/// build profile, returning the per-rank results and the
/// audit report (never panics on violations — callers inspect the report).
pub fn run_audited<T, F>(p: usize, f: F) -> (Vec<T>, AuditReport)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let cfg = RunConfig {
        audit: AuditMode::Enabled,
        ..RunConfig::default()
    };
    let (out, report) = Universe::run_configured(cfg, p, f);
    (out, report.expect("audit forced on"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Payload;

    #[test]
    fn clean_program_clean_report() {
        let (out, report) = run_audited(3, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.isend(next, 1, Payload::from_u64(vec![comm.rank() as u64]));
            comm.recv(prev, 1).into_u64()[0]
        });
        assert_eq!(out, vec![2, 0, 1]);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn leaked_send_reported_not_panicked() {
        let (_, report) = run_audited(2, |comm| {
            if comm.rank() == 1 {
                comm.isend(0, 4, Payload::from_u64(vec![7]));
            }
            comm.barrier();
        });
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            AuditViolation::UnmatchedSend {
                src: 1,
                dst: 0,
                tag: 4,
                ..
            }
        )));
        // The trace for the offending rank contains its send.
        let trace = report.rank_trace(1);
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, AuditEventKind::SendPosted { dst: 0, tag: 4, .. })));
    }
}
