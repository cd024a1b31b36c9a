//! Simulated time.
//!
//! Every component of the backscatter system — resolver caches, diurnal
//! activity models, the sensor's 30-second deduplication window — measures
//! time in whole seconds since the start of a simulation scenario. Using a
//! dedicated newtype instead of `std::time` keeps simulations deterministic
//! (no wall clock anywhere) and makes unit confusion a type error.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time: seconds since the scenario epoch.
///
/// The scenario epoch is whatever instant a dataset generator declares as
/// second zero (e.g. `2014-04-15 11:00 UTC` for the JP-ditl replica).
/// Ordering and arithmetic behave like plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The scenario epoch (second zero).
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since the scenario epoch.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Construct from a count of whole minutes.
    #[inline]
    pub fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60)
    }

    /// Construct from a count of whole hours.
    #[inline]
    pub fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3600)
    }

    /// Construct from a count of whole days.
    #[inline]
    pub fn from_days(days: u64) -> Self {
        SimTime(days * 86_400)
    }

    /// The day index (0-based) this instant falls in.
    #[inline]
    pub fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// The second-of-day in `[0, 86_400)`.
    #[inline]
    pub fn second_of_day(self) -> u64 {
        self.0 % 86_400
    }

    /// The hour-of-day in `[0, 24)`, useful for diurnal models.
    #[inline]
    pub fn hour_of_day(self) -> u64 {
        self.second_of_day() / 3600
    }

    /// The week index (0-based, 7-day weeks from the epoch).
    #[inline]
    pub fn week(self) -> u64 {
        self.0 / (7 * 86_400)
    }

    /// Saturating subtraction; clamps at the epoch.
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Span of `secs` seconds.
    #[inline]
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Span of `mins` minutes.
    #[inline]
    pub fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Span of `hours` hours.
    #[inline]
    pub fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    /// Span of `days` days.
    #[inline]
    pub fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// The span in whole seconds.
    #[inline]
    pub fn secs(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            (self.second_of_day() / 60) % 60,
            self.second_of_day() % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_days(2).secs(), 172_800);
        assert_eq!(SimTime::from_hours(3).secs(), 10_800);
        assert_eq!(SimTime::from_mins(5).secs(), 300);
        let t = SimTime::from_days(1) + SimDuration::from_hours(13) + SimDuration::from_mins(30);
        assert_eq!(t.day(), 1);
        assert_eq!(t.hour_of_day(), 13);
        assert_eq!(t.second_of_day(), 13 * 3600 + 30 * 60);
    }

    #[test]
    fn week_index() {
        assert_eq!(SimTime::from_days(6).week(), 0);
        assert_eq!(SimTime::from_days(7).week(), 1);
        assert_eq!(SimTime::from_days(20).week(), 2);
    }

    #[test]
    fn arithmetic_saturates_at_epoch() {
        let t = SimTime(10);
        assert_eq!(t.saturating_sub(SimDuration(20)), SimTime::ZERO);
        assert_eq!(SimTime(5) - SimTime(9), SimDuration::ZERO);
        assert_eq!(SimTime(9) - SimTime(5), SimDuration(4));
    }

    #[test]
    fn since_behaves_like_sub() {
        assert_eq!(SimTime(100).since(SimTime(40)), SimDuration(60));
        assert_eq!(SimTime(40).since(SimTime(100)), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(3) + SimDuration::from_secs(3723);
        assert_eq!(t.to_string(), "d3+01:02:03");
        assert_eq!(SimDuration::from_mins(2).to_string(), "120s");
    }
}
