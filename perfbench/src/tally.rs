//! Operation accounting. An operation is one kernel run, one simulation
//! or one request. It fails on a wrong checksum or result, on a refused
//! or non-200 request, or on a replay that differs from the original.
//! A failure is counted and reported, never a panic, so one bad output
//! cannot hide the rest of a run; a run with any failure is not correct.

/// Failures printed in full before the rest are only counted.
const SHOWN: u64 = 8;

/// Attempted and failed operations of one run (or one thread of it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed for any reason.
    pub failed: u64,
}

impl Tally {
    /// Records an operation that produced `got` where `expected` was
    /// due; returns whether it was right.
    pub fn check(&mut self, op: &str, got: i64, expected: i64) -> bool {
        if got == expected {
            self.attempted += 1;
            true
        } else {
            self.fail(op, &format!("got {got}, expected {expected}"));
            false
        }
    }

    /// Records a successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records an operation that produced a wrong output, was refused
    /// or errored.
    pub fn fail(&mut self, op: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= SHOWN {
            println!("FAILED {op}: {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_injected_wrong_checksum_is_counted_not_raised() {
        let mut t = Tally::default();
        assert!(t.check("serial plus-reduce-array", 42, 42));
        assert!(!t.check("heartbeat plus-reduce-array", 41, 42));
        t.fail("POST /run", "status 429");
        t.ok();
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2,
            }
        );
    }
}
