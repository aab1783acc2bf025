//! The query pipeline's failure policy ([`QueryOptions::fail_soft`]).
//!
//! Every stage of the online pipeline that can meet a recoverable fault
//! — a failed or panicking shard probe, a deadline expiring at or inside
//! a stage, a failed column-map batch — hands the error to
//! [`FailSoft::absorb`] together with the reason it would degrade for:
//!
//! * **strict** (the default) returns the error, so `absorb(..)?`
//!   propagates it exactly as a bare `?` would;
//! * **fail-soft** records the reason and returns `Ok(())`, and the
//!   stage carries on with what it has: a failed shard is dropped from
//!   the merge, an expired stage is truncated or skipped, a failed
//!   mapping batch falls back to the stage-1 pre-mapping.
//!
//! The engine surfaces the recorded reasons, in the order they were
//! absorbed, as
//! [`QueryDiagnostics::degraded_reasons`](crate::QueryDiagnostics).
//!
//! Reasons live behind a `Mutex` because probe workers run on the shared
//! pool; contention is nil (a handful of pushes per degraded request).
//!
//! [`QueryOptions::fail_soft`]: crate::QueryOptions::fail_soft

use std::sync::Mutex;
use wwt_model::WwtError;

/// A query's failure policy: strict, or fail-soft with the reasons for
/// every fault it absorbed.
#[derive(Debug)]
pub struct FailSoft {
    enabled: bool,
    reasons: Mutex<Vec<String>>,
}

impl FailSoft {
    /// The strict policy: faults propagate exactly as without fail-soft.
    pub fn off() -> Self {
        Self::from_option(false)
    }

    /// The fail-soft policy: recoverable faults degrade instead of failing.
    pub fn on() -> Self {
        Self::from_option(true)
    }

    /// The policy matching the request option.
    pub fn from_option(fail_soft: bool) -> Self {
        FailSoft {
            enabled: fail_soft,
            reasons: Mutex::new(Vec::new()),
        }
    }

    /// True iff faults are absorbed.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Applies the policy to one stage fault: strict returns `err`;
    /// fail-soft records `reason` and returns `Ok(())`, so the caller
    /// continues with its degraded fallback.
    pub fn absorb(&self, reason: impl Into<String>, err: WwtError) -> Result<(), WwtError> {
        if !self.enabled {
            return Err(err);
        }
        self.note(reason);
        Ok(())
    }

    /// Records why a stage degraded without an error to absorb (e.g. a
    /// pre-emptive downgrade). No-op under the strict policy.
    pub fn note(&self, reason: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.reasons
            .lock()
            .expect("fail-soft reason lock poisoned")
            .push(reason.into());
    }

    /// Drains the recorded reasons (insertion order).
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.reasons.lock().expect("fail-soft reason lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inert() {
        let s = FailSoft::off();
        assert!(!s.is_on());
        s.note("ignored");
        assert!(s.take().is_empty());
        assert!(!FailSoft::from_option(false).is_on());
    }

    #[test]
    fn strict_absorb_returns_the_error() {
        let s = FailSoft::off();
        let err = WwtError::DeadlineExceeded("second probe".into());
        match s.absorb("second probe: skipped", err) {
            Err(WwtError::DeadlineExceeded(stage)) => assert_eq!(stage, "second probe"),
            other => panic!("strict absorb must return the error, got {other:?}"),
        }
        assert!(s.take().is_empty());
    }

    #[test]
    fn on_collects_in_order() {
        let s = FailSoft::on();
        assert!(s.is_on());
        assert!(s.take().is_empty());
        s.absorb("probe1: shard 2 dropped", WwtError::Internal("boom".into()))
            .unwrap();
        s.note(String::from("second probe: skipped"));
        assert_eq!(
            s.take(),
            vec![
                "probe1: shard 2 dropped".to_string(),
                "second probe: skipped".to_string()
            ]
        );
        assert!(s.take().is_empty());
        assert!(FailSoft::from_option(true).is_on());
    }
}
