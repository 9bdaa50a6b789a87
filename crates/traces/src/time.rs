//! Calendar and hour-index arithmetic for the 2020–2023 trace horizon.
//!
//! All traces in this workspace are hourly and share a common epoch:
//! **2020-01-01 00:00 UTC**. An [`Hour`] is an absolute index into that
//! horizon. Keeping time as a plain index (instead of a datetime library)
//! makes every scheduling kernel a straightforward array computation, which
//! is exactly how the paper's analysis operates.

/// Hours in a day.
pub const HOURS_PER_DAY: usize = 24;
/// Hours in a non-leap year.
pub const HOURS_PER_YEAR: usize = 8760;

/// First year covered by the built-in dataset.
pub const EPOCH_YEAR: i32 = 2020;
/// Last year covered by the built-in dataset (inclusive).
pub const LAST_YEAR: i32 = 2023;

/// Day of week of the epoch (2020-01-01 was a Wednesday; Monday = 0).
const EPOCH_WEEKDAY: usize = 2;

/// Wall-clock hours from the epoch that the `u32` slot clock can
/// address at the finest resolution (1-minute slots, 60 per hour). A
/// window that ends by this hour keeps its slot arithmetic in range on
/// every axis; scenario files and `decarb_sim::Scenario` reject any
/// window that ends later.
pub const CLOCK_HOURS: usize = (u32::MAX / 60) as usize;

/// An absolute hour index since 2020-01-01 00:00 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hour(pub u32);

impl Hour {
    /// Returns the hour index as a `usize`, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the hour-of-day in UTC (0–23).
    #[inline]
    pub fn hour_of_day(self) -> usize {
        self.index() % HOURS_PER_DAY
    }

    /// Returns the day-of-week (Monday = 0 … Sunday = 6).
    #[inline]
    pub fn day_of_week(self) -> usize {
        (self.index() / HOURS_PER_DAY + EPOCH_WEEKDAY) % 7
    }

    /// Returns `true` if the hour falls on a Saturday or Sunday.
    #[inline]
    pub fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// Returns the calendar year containing this hour.
    ///
    /// # Panics
    ///
    /// Panics if the hour lies beyond [`LAST_YEAR`].
    pub fn year(self) -> i32 {
        let mut rest = self.index();
        for year in EPOCH_YEAR..=LAST_YEAR {
            let len = hours_in_year(year);
            if rest < len {
                return year;
            }
            rest -= len;
        }
        // decarb-analyze: allow(no-panic) -- documented panicking accessor (# Panics: beyond LAST_YEAR)
        panic!("hour {} beyond dataset horizon", self.0);
    }

    /// Returns the hour offset within its calendar year.
    pub fn hour_of_year(self) -> usize {
        self.index() - year_start(self.year()).index()
    }

    /// Returns the (zero-based) day-of-year containing this hour.
    pub fn day_of_year(self) -> usize {
        self.hour_of_year() / HOURS_PER_DAY
    }

    /// Returns a new hour advanced by `delta` hours.
    #[inline]
    pub fn plus(self, delta: usize) -> Hour {
        Hour(self.0 + delta as u32)
    }
}

/// `2021y+0042h` inside the horizon; past [`LAST_YEAR`], where there
/// is no calendar year, the raw index, so formatting never panics.
impl std::fmt::Display for Hour {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.index() >= horizon_hours() {
            return write!(f, "{}", self.0);
        }
        write!(f, "{}y+{:04}h", self.year(), self.hour_of_year())
    }
}

/// The sample resolution of a dataset: how many minutes one slot spans.
///
/// A [`Hour`] is really a *slot index*: at the default hourly resolution
/// slot `n` covers `[epoch + n·60min, epoch + (n+1)·60min)`; at 5-minute
/// resolution the same index type counts 5-minute slots from the same
/// epoch. Every dataset carries exactly one resolution, and all
/// wall-clock quantities (job lengths, slack, horizons) convert to slot
/// counts once at the edge via the helpers here. Only divisors of 60
/// are valid, so an hour is always a whole number of slots and hourly
/// data embeds losslessly in any finer axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    minutes: u32,
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution::HOURLY
    }
}

impl Resolution {
    /// The default hourly resolution (60-minute slots).
    pub const HOURLY: Resolution = Resolution { minutes: 60 };

    /// Creates a resolution from a slot length in minutes.
    ///
    /// Only divisors of 60 in `1..=60` are accepted: an hour must be a
    /// whole number of slots for hour-denominated quantities (slack,
    /// horizons) to convert exactly.
    pub fn from_minutes(minutes: u32) -> Result<Resolution, String> {
        if !(1..=60).contains(&minutes) || 60 % minutes != 0 {
            return Err(format!(
                "invalid resolution {minutes} min (must divide 60 and lie in 1..=60: \
                 1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, or 60)"
            ));
        }
        Ok(Resolution { minutes })
    }

    /// The slot length in minutes.
    #[inline]
    pub fn minutes(self) -> u32 {
        self.minutes
    }

    /// Returns `true` at the default 60-minute resolution.
    #[inline]
    pub fn is_hourly(self) -> bool {
        self.minutes == 60
    }

    /// Slots per wall-clock hour (1 at hourly, 12 at 5-minute).
    #[inline]
    pub fn slots_per_hour(self) -> usize {
        (60 / self.minutes) as usize
    }

    /// Slots per wall-clock day.
    #[inline]
    pub fn slots_per_day(self) -> usize {
        HOURS_PER_DAY * self.slots_per_hour()
    }

    /// Converts a whole number of wall-clock hours to slots (exact).
    #[inline]
    pub fn hours_to_slots(self, hours: usize) -> usize {
        hours * self.slots_per_hour()
    }

    /// Converts a fractional wall-clock duration in hours to the number
    /// of slots needed to cover it (ceiling, at least 1).
    #[inline]
    pub fn duration_to_slots(self, hours: f64) -> usize {
        let slots = hours * self.slots_per_hour() as f64;
        (slots.ceil() as usize).max(1)
    }

    /// Returns `true` when `hours` wall-clock hours convert to a whole
    /// number of slots — trivially true for integer hours; used by the
    /// scenario checker for fractional durations.
    pub fn aligns(self, hours: f64) -> bool {
        let slots = hours * self.slots_per_hour() as f64;
        slots.fract() == 0.0
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}min", self.minutes)
    }
}

/// Returns `true` if `year` is a leap year.
#[inline]
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Returns the number of hours in `year`.
#[inline]
pub fn hours_in_year(year: i32) -> usize {
    if is_leap_year(year) {
        HOURS_PER_YEAR + HOURS_PER_DAY
    } else {
        HOURS_PER_YEAR
    }
}

/// Returns the number of days in `year`.
#[inline]
pub fn days_in_year(year: i32) -> usize {
    hours_in_year(year) / HOURS_PER_DAY
}

/// Returns the absolute hour at which `year` starts.
///
/// # Panics
///
/// Panics if `year` lies outside the `2020..=2023` dataset horizon.
pub fn year_start(year: i32) -> Hour {
    assert!(
        (EPOCH_YEAR..=LAST_YEAR).contains(&year),
        "year {year} outside dataset horizon"
    );
    let mut acc = 0usize;
    for y in EPOCH_YEAR..year {
        acc += hours_in_year(y);
    }
    Hour(acc as u32)
}

/// Returns the total number of hours in the full 2020–2023 horizon.
pub fn horizon_hours() -> usize {
    (EPOCH_YEAR..=LAST_YEAR).map(hours_in_year).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2021));
        assert!(!is_leap_year(2022));
        assert!(!is_leap_year(2023));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
    }

    #[test]
    fn year_lengths() {
        assert_eq!(hours_in_year(2020), 8784);
        assert_eq!(hours_in_year(2021), 8760);
        assert_eq!(horizon_hours(), 8784 + 3 * 8760);
    }

    #[test]
    fn display_is_total_past_the_horizon() {
        assert_eq!(year_start(2021).plus(42).to_string(), "2021y+0042h");
        let end = Hour(horizon_hours() as u32);
        assert_eq!(end.to_string(), end.0.to_string());
        assert_eq!(Hour(u32::MAX).to_string(), "4294967295");
    }

    #[test]
    fn year_starts_chain() {
        assert_eq!(year_start(2020), Hour(0));
        assert_eq!(year_start(2021), Hour(8784));
        assert_eq!(year_start(2022), Hour(8784 + 8760));
        assert_eq!(year_start(2023), Hour(8784 + 2 * 8760));
    }

    #[test]
    fn hour_year_roundtrip() {
        for year in EPOCH_YEAR..=LAST_YEAR {
            let start = year_start(year);
            assert_eq!(start.year(), year);
            assert_eq!(start.hour_of_year(), 0);
            let last = Hour(start.0 + hours_in_year(year) as u32 - 1);
            assert_eq!(last.year(), year);
            assert_eq!(last.hour_of_year(), hours_in_year(year) - 1);
        }
    }

    #[test]
    fn epoch_weekday_is_wednesday() {
        // 2020-01-01 was a Wednesday (Monday = 0 → Wednesday = 2).
        assert_eq!(Hour(0).day_of_week(), 2);
        // 2020-01-04 was a Saturday.
        assert!(Hour(3 * 24).is_weekend());
        // 2020-01-06 was a Monday.
        assert_eq!(Hour(5 * 24).day_of_week(), 0);
        assert!(!Hour(5 * 24).is_weekend());
    }

    #[test]
    fn hour_of_day_cycles() {
        assert_eq!(Hour(0).hour_of_day(), 0);
        assert_eq!(Hour(23).hour_of_day(), 23);
        assert_eq!(Hour(24).hour_of_day(), 0);
    }

    #[test]
    fn display_formats() {
        let h = year_start(2022).plus(5);
        assert_eq!(format!("{h}"), "2022y+0005h");
    }

    #[test]
    #[should_panic(expected = "outside dataset horizon")]
    fn year_start_out_of_range_panics() {
        let _ = year_start(2019);
    }

    #[test]
    fn resolution_accepts_only_divisors_of_sixty() {
        for minutes in [1u32, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60] {
            let res = Resolution::from_minutes(minutes).unwrap();
            assert_eq!(res.minutes(), minutes);
            assert_eq!(res.slots_per_hour() * minutes as usize, 60);
        }
        for minutes in [0u32, 7, 8, 9, 11, 13, 25, 45, 61, 90, 120] {
            assert!(Resolution::from_minutes(minutes).is_err(), "{minutes}");
        }
    }

    #[test]
    fn resolution_slot_arithmetic() {
        let five = Resolution::from_minutes(5).unwrap();
        assert!(!five.is_hourly());
        assert_eq!(five.slots_per_hour(), 12);
        assert_eq!(five.slots_per_day(), 288);
        assert_eq!(five.hours_to_slots(24), 288);
        assert_eq!(five.duration_to_slots(8.0), 96);
        assert_eq!(five.duration_to_slots(0.01), 1, "at least one slot");
        assert_eq!(five.duration_to_slots(6.5), 78);
        assert!(five.aligns(6.5));
        assert!(!five.aligns(6.51));
        assert_eq!(format!("{five}"), "5min");
    }

    #[test]
    fn hourly_resolution_is_identity() {
        let hourly = Resolution::default();
        assert!(hourly.is_hourly());
        assert_eq!(hourly, Resolution::HOURLY);
        assert_eq!(hourly.slots_per_hour(), 1);
        assert_eq!(hourly.hours_to_slots(17), 17);
        assert_eq!(hourly.duration_to_slots(8.0), 8);
        assert_eq!(hourly.duration_to_slots(7.2), 8, "ceiling");
        assert!(hourly.aligns(3.0));
        assert!(!hourly.aligns(2.5));
    }
}
