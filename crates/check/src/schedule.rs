//! The replayable schedule artifact.
//!
//! A [`Schedule`] is the complete record of one explored execution: the
//! candidate index chosen at each branch point, in order. Everything else
//! about a run is deterministic (the scenario builder constructs the same
//! machine every time), so the choice vector *is* the execution — feeding
//! it back through a [`ReplayScheduler`](crate::explore::ExploreScheduler)
//! re-executes the run byte-identically. Choices past the end of the
//! vector default to `0` (the FIFO candidate), which is what makes
//! truncation a valid shrinking move.

use std::fmt;

/// A serialized sequence of branch choices.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// The candidate index taken at each branch point, in encounter
    /// order. Implicitly extended with zeros (FIFO choices).
    pub choices: Vec<u16>,
}

impl Schedule {
    /// The all-FIFO schedule (no perturbation).
    pub(crate) fn fifo() -> Self {
        Schedule::default()
    }

    /// A schedule from explicit choices.
    pub fn new(choices: Vec<u16>) -> Self {
        Schedule { choices }
    }

    /// Number of recorded branch choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether no choices are recorded (pure FIFO).
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Number of non-FIFO choices — the "preemption count" bounded by
    /// [`Bounds::preemption_bound`](crate::explore::Bounds).
    pub fn preemptions(&self) -> usize {
        self.choices.iter().filter(|c| **c != 0).count()
    }

    /// Drop trailing FIFO choices; they are implicit.
    pub(crate) fn normalized(mut self) -> Self {
        while self.choices.last() == Some(&0) {
            self.choices.pop();
        }
        self
    }

    /// Serialize to the textual artifact format: `sched:v1:0,2,0,1`.
    /// Stable across versions of this crate with the same `v1` tag.
    pub fn serialize(&self) -> String {
        let body: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        format!("sched:v1:{}", body.join(","))
    }

    /// Parse the textual artifact format produced by [`Schedule::serialize`].
    pub fn parse(s: &str) -> Result<Self, ScheduleParseError> {
        let body = s
            .trim()
            .strip_prefix("sched:v1:")
            .ok_or(ScheduleParseError::BadHeader)?;
        if body.is_empty() {
            return Ok(Schedule::fifo());
        }
        let choices = body
            .split(',')
            .map(|t| t.trim().parse::<u16>())
            .collect::<Result<Vec<u16>, _>>()
            .map_err(|_| ScheduleParseError::BadChoice)?;
        Ok(Schedule { choices })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.serialize())
    }
}

/// Failure to parse a serialized schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleParseError {
    /// The `sched:v1:` header is missing.
    BadHeader,
    /// A choice token was not a `u16`.
    BadChoice,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleParseError::BadHeader => write!(f, "missing sched:v1: header"),
            ScheduleParseError::BadChoice => write!(f, "choice token is not a u16"),
        }
    }
}

impl std::error::Error for ScheduleParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for s in [
            Schedule::fifo(),
            Schedule::new(vec![0, 3, 1]),
            Schedule::new(vec![65535]),
        ] {
            assert_eq!(Schedule::parse(&s.serialize()), Ok(s));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Schedule::parse("nope"), Err(ScheduleParseError::BadHeader));
        assert_eq!(
            Schedule::parse("sched:v1:1,x"),
            Err(ScheduleParseError::BadChoice)
        );
    }

    #[test]
    fn normalization_and_preemptions() {
        let s = Schedule::new(vec![0, 2, 0, 0]).normalized();
        assert_eq!(s.choices, vec![0, 2]);
        assert_eq!(s.preemptions(), 1);
        assert!(Schedule::new(vec![0, 0]).normalized().is_empty());
    }
}
