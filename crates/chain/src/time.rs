//! Timestamps, civil-calendar arithmetic, timestamp parsing, and
//! measurement granularities.
//!
//! Window assignment in the paper is calendar-based: blocks are bucketed
//! into the *day*, *week*, or *month* (UTC) in which they were produced.
//! We implement proleptic-Gregorian conversions with Howard Hinnant's
//! `days_from_civil` / `civil_from_days` algorithms — exact over the whole
//! `i64` second range we care about — rather than pulling in a time crate.

use crate::error::ChainError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Range, Sub};

/// Seconds per day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A UTC timestamp in whole seconds since the Unix epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

/// A proleptic-Gregorian calendar date (UTC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CivilDate {
    /// Year (astronomical numbering; 2019 means 2019 CE).
    pub year: i32,
    /// Month, 1..=12.
    pub month: u8,
    /// Day of month, 1..=31.
    pub day: u8,
}

/// The measurement granularities used throughout the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, PartialOrd, Ord)]
pub enum Granularity {
    /// Calendar day (UTC).
    Day,
    /// Seven consecutive days counted from the measurement origin
    /// (the paper indexes weeks 0..52 from Jan 1).
    Week,
    /// Calendar month.
    Month,
}

impl Granularity {
    /// All granularities, in the order the paper presents them.
    pub const ALL: [Granularity; 3] = [Granularity::Day, Granularity::Week, Granularity::Month];

    /// Short lowercase label used in reports and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Day => "day",
            Granularity::Week => "week",
            Granularity::Month => "month",
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Granularity {
    type Err = String;

    /// Parse a granularity by its [`Granularity::label`].
    fn from_str(s: &str) -> Result<Granularity, String> {
        Granularity::ALL
            .iter()
            .copied()
            .find(|g| g.label() == s)
            .ok_or_else(|| format!("unknown granularity {s:?} (day|week|month)"))
    }
}

/// Days from the civil epoch (1970-01-01) for a proleptic-Gregorian date.
///
/// Hinnant's algorithm; exact for all representable dates.
pub fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    days_from_civil_i64(i64::from(y), m, d)
}

/// [`days_from_civil`] for an `i64` year: the days at either end of the
/// `i64` second range lie in years outside the `i32` range.
fn days_from_civil_i64(y: i64, m: u8, d: u8) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Parse a timestamp in one of the forms BigQuery exports, CSV files and
/// queries use; `None` when unrecognized. Accepted forms:
/// * integer seconds since the epoch (`1546300800`);
/// * integer milliseconds (heuristically: ≥ 10^12);
/// * `YYYY-MM-DD HH:MM:SS UTC` (BigQuery's default TIMESTAMP rendering);
/// * `YYYY-MM-DDTHH:MM:SSZ` (ISO 8601, optional fractional seconds,
///   which are truncated, and a `+00:00` offset);
/// * `YYYY-MM-DD` (midnight).
pub fn parse_timestamp(s: &str) -> Option<Timestamp> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    // Pure integer: seconds or milliseconds.
    if let Ok(n) = s.parse::<i64>() {
        return Some(if n.unsigned_abs() >= 1_000_000_000_000 {
            Timestamp(n / 1000)
        } else {
            Timestamp(n)
        });
    }
    // Date part.
    let bytes = s.as_bytes();
    if bytes.len() < 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let year: i32 = s.get(0..4)?.parse().ok()?;
    let month: u8 = s.get(5..7)?.parse().ok()?;
    let day: u8 = s.get(8..10)?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let midnight = days_from_civil(year, month, day) * SECS_PER_DAY;

    let rest = &s[10..];
    if rest.is_empty() {
        return Some(Timestamp(midnight));
    }
    // Separator: space or 'T'.
    let rest = rest.strip_prefix(['T', ' '])?;
    if rest.len() < 8 {
        return None;
    }
    let hour: i64 = rest.get(0..2)?.parse().ok()?;
    let min: i64 = rest.get(3..5)?.parse().ok()?;
    let sec: i64 = rest.get(6..8)?.parse().ok()?;
    if rest.as_bytes().get(2) != Some(&b':') || rest.as_bytes().get(5) != Some(&b':') {
        return None;
    }
    if hour > 23 || min > 59 || sec > 60 {
        return None;
    }
    // Tail: optional fractional seconds, then "Z", " UTC", "+00:00" or
    // nothing.
    let mut tail = &rest[8..];
    if let Some(stripped) = tail.strip_prefix('.') {
        let digits = stripped.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return None;
        }
        tail = &stripped[digits..];
    }
    match tail {
        "" | "Z" | " UTC" | "+00:00" | "+00" | " +00:00" => {}
        _ => return None,
    }
    Some(Timestamp(midnight + hour * 3600 + min * 60 + sec))
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> CivilDate {
    let (year, month, day) = civil_from_days_i64(z);
    CivilDate {
        year: year as i32,
        month,
        day,
    }
}

/// [`civil_from_days`] as `(year, month, day)` with an `i64` year, which
/// the days at either end of the `i64` second range need.
fn civil_from_days_i64(z: i64) -> (i64, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    (y + i64::from(m <= 2), m, d)
}

/// `origin + days` whole days, in seconds, saturated to the `i64` range.
fn secs_after_days(origin: Timestamp, days: i64) -> i64 {
    let secs = i128::from(origin.0) + i128::from(days) * i128::from(SECS_PER_DAY);
    secs.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

impl CivilDate {
    /// Construct, validating month/day ranges (including leap years).
    pub fn new(year: i32, month: u8, day: u8) -> Result<CivilDate, ChainError> {
        let invalid = |reason: &str| ChainError::InvalidBlock {
            height: 0,
            reason: format!("invalid date {year:04}-{month:02}-{day:02}: {reason}"),
        };
        if !(1..=12).contains(&month) {
            return Err(invalid("month out of range"));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(invalid("day out of range"));
        }
        Ok(CivilDate { year, month, day })
    }

    /// Midnight UTC at the start of this date.
    pub fn midnight(self) -> Timestamp {
        Timestamp(days_from_civil(self.year, self.month, self.day) * SECS_PER_DAY)
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Debug for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CivilDate({self})")
    }
}

/// True for Gregorian leap years.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Timestamp {
    /// 2019-01-01T00:00:00Z — the origin of the paper's measurement year.
    pub fn year_2019_start() -> Timestamp {
        CivilDate {
            year: 2019,
            month: 1,
            day: 1,
        }
        .midnight()
    }

    /// 2020-01-01T00:00:00Z — exclusive end of the measurement year.
    pub fn year_2020_start() -> Timestamp {
        CivilDate {
            year: 2020,
            month: 1,
            day: 1,
        }
        .midnight()
    }

    /// Seconds since the Unix epoch.
    pub fn secs(self) -> i64 {
        self.0
    }

    /// The civil date (UTC) containing this instant.
    pub fn date(self) -> CivilDate {
        civil_from_days(self.0.div_euclid(SECS_PER_DAY))
    }

    /// Seconds past UTC midnight.
    pub fn seconds_of_day(self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }

    /// Zero-based day index relative to an origin timestamp. Negative
    /// before the origin.
    pub fn day_index(self, origin: Timestamp) -> i64 {
        // floor((self - origin) / day), without forming a difference that
        // can overflow: whole days of each, less one when self's time of
        // day is earlier than origin's.
        let borrow = self.seconds_of_day() < origin.seconds_of_day();
        self.0.div_euclid(SECS_PER_DAY) - origin.0.div_euclid(SECS_PER_DAY) - i64::from(borrow)
    }

    /// Zero-based 7-day week index relative to an origin timestamp.
    pub fn week_index(self, origin: Timestamp) -> i64 {
        self.day_index(origin).div_euclid(7)
    }

    /// Zero-based calendar-month index relative to an origin timestamp
    /// (months since the origin's month).
    pub fn month_index(self, origin: Timestamp) -> i64 {
        let (year, month, _) = civil_from_days_i64(self.0.div_euclid(SECS_PER_DAY));
        let (from_year, from_month, _) = civil_from_days_i64(origin.0.div_euclid(SECS_PER_DAY));
        (year - from_year) * 12 + i64::from(month) - i64::from(from_month)
    }

    /// Bucket index for a granularity relative to an origin.
    pub fn bucket(self, g: Granularity, origin: Timestamp) -> i64 {
        match g {
            Granularity::Day => self.day_index(origin),
            Granularity::Week => self.week_index(origin),
            Granularity::Month => self.month_index(origin),
        }
    }

    /// This instant's [`Timestamp::bucket`] and the half-open range of
    /// seconds that share it, so a caller bucketing a run of timestamps
    /// calls `bucket` again only for one outside the range.
    ///
    /// Day and week ranges are aligned to `origin`. A month range is the
    /// UTC calendar month, because [`Timestamp::month_index`] depends only
    /// on the UTC date. Range ends saturate at the `i64` range, so an
    /// extreme timestamp cannot overflow; an instant past a saturated end
    /// lies outside the range and is bucketed afresh.
    pub fn bucket_span(self, g: Granularity, origin: Timestamp) -> (i64, Range<i64>) {
        let bucket = self.bucket(g, origin);
        let span = match g {
            Granularity::Day => {
                secs_after_days(origin, bucket)..secs_after_days(origin, bucket + 1)
            }
            Granularity::Week => {
                secs_after_days(origin, bucket * 7)..secs_after_days(origin, (bucket + 1) * 7)
            }
            Granularity::Month => {
                let (year, month, _) = civil_from_days_i64(self.0.div_euclid(SECS_PER_DAY));
                let (next_year, next_month) = if month == 12 {
                    (year + 1, 1)
                } else {
                    (year, month + 1)
                };
                let epoch = Timestamp(0);
                let first = days_from_civil_i64(year, month, 1);
                let next = days_from_civil_i64(next_year, next_month, 1);
                secs_after_days(epoch, first)..secs_after_days(epoch, next)
            }
        };
        (bucket, span)
    }

    /// ISO-8601 rendering (`YYYY-MM-DDTHH:MM:SSZ`).
    pub fn to_iso8601(self) -> String {
        let d = self.date();
        let s = self.seconds_of_day();
        format!(
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            d.year,
            d.month,
            d.day,
            s / 3600,
            (s / 60) % 60,
            s % 60
        )
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: i64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Timestamp({} = {})", self.0, self.to_iso8601())
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_iso8601())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        let d = civil_from_days(0);
        assert_eq!((d.year, d.month, d.day), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // 2019-01-01 is 17897 days after the epoch (1546300800 secs).
        assert_eq!(Timestamp::year_2019_start().secs(), 1_546_300_800);
        assert_eq!(Timestamp::year_2020_start().secs(), 1_577_836_800);
        // 2019 is not a leap year: exactly 365 days.
        assert_eq!(
            Timestamp::year_2020_start().day_index(Timestamp::year_2019_start()),
            365
        );
    }

    #[test]
    fn civil_roundtrip_over_decades() {
        for z in (-200_000..200_000).step_by(97) {
            let d = civil_from_days(z);
            assert_eq!(days_from_civil(d.year, d.month, d.day), z, "day {z}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2019));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2019, 2), 28);
        assert_eq!(days_in_month(2019, 12), 31);
    }

    #[test]
    fn date_validation() {
        assert!(CivilDate::new(2019, 2, 28).is_ok());
        assert!(CivilDate::new(2019, 2, 29).is_err());
        assert!(CivilDate::new(2020, 2, 29).is_ok());
        assert!(CivilDate::new(2019, 13, 1).is_err());
        assert!(CivilDate::new(2019, 0, 1).is_err());
        assert!(CivilDate::new(2019, 6, 0).is_err());
    }

    #[test]
    fn bucket_indices() {
        let origin = Timestamp::year_2019_start();
        let jan14_noon = CivilDate::new(2019, 1, 14).unwrap().midnight() + 12 * 3600;
        assert_eq!(jan14_noon.day_index(origin), 13);
        assert_eq!(jan14_noon.week_index(origin), 1);
        assert_eq!(jan14_noon.month_index(origin), 0);

        let dec7 = CivilDate::new(2019, 12, 7).unwrap().midnight() + 1;
        assert_eq!(dec7.day_index(origin), 340);
        assert_eq!(dec7.month_index(origin), 11);
        assert_eq!(dec7.bucket(Granularity::Month, origin), 11);
    }

    #[test]
    fn negative_times_floor_correctly() {
        let origin = Timestamp::year_2019_start();
        let before = origin + (-1);
        assert_eq!(before.day_index(origin), -1);
        assert_eq!(before.week_index(origin), -1);
        assert_eq!(before.month_index(origin), -1);
        // Pre-epoch timestamps still resolve to valid dates.
        let d = Timestamp(-1).date();
        assert_eq!((d.year, d.month, d.day), (1969, 12, 31));
        assert_eq!(Timestamp(-1).seconds_of_day(), SECS_PER_DAY - 1);
    }

    /// Seeded instants between 1900 and 2100, plus the last and first
    /// second of every month end of 2019 and 2020 (2020-02-29 among
    /// them) and of the year ends 1969/1970 and 2019/2020.
    fn sample_instants() -> Vec<Timestamp> {
        let lo = CivilDate::new(1900, 1, 1).unwrap().midnight().secs();
        let hi = CivilDate::new(2100, 1, 1).unwrap().midnight().secs();
        let width = (hi - lo) as u64;
        let mut out: Vec<Timestamp> = (0..2_000u64)
            .map(|k| Timestamp(lo + (crate::hash::splitmix64(k) % width) as i64))
            .collect();
        let mut firsts = vec![CivilDate::new(1970, 1, 1).unwrap()];
        for year in [2019, 2020] {
            firsts.extend((1..=12).map(|m| CivilDate::new(year, m, 1).unwrap()));
        }
        firsts.push(CivilDate::new(2021, 1, 1).unwrap());
        for first in firsts {
            out.extend([first.midnight() + (-1), first.midnight()]);
        }
        out.push(CivilDate::new(2020, 2, 29).unwrap().midnight() + 43_200);
        out
    }

    #[test]
    fn bucket_span_agrees_with_bucket() {
        let origins = [
            Timestamp::year_2019_start(),
            Timestamp::year_2019_start() + 12_345,
            CivilDate::new(1969, 7, 20).unwrap().midnight() + 73_800,
            CivilDate::new(1900, 3, 1).unwrap().midnight(),
        ];
        for t in sample_instants() {
            for g in Granularity::ALL {
                for origin in origins {
                    let what = format!("{t:?} {g} from {origin:?}");
                    let (bucket, span) = t.bucket_span(g, origin);
                    assert_eq!(bucket, t.bucket(g, origin), "{what}");
                    assert!(span.contains(&t.secs()), "{what}: {span:?}");
                    let at = |secs: i64| Timestamp(secs).bucket(g, origin);
                    assert_eq!(at(span.start), bucket, "{what}: start");
                    assert_eq!(at(span.end - 1), bucket, "{what}: last");
                    assert_ne!(at(span.start - 1), bucket, "{what}: before");
                    assert_ne!(at(span.end), bucket, "{what}: end");
                }
            }
        }
        // Month ranges are UTC calendar months, whatever the origin.
        let feb29 = CivilDate::new(2020, 2, 29).unwrap().midnight();
        let (_, span) = feb29.bucket_span(Granularity::Month, origins[1]);
        let feb1 = CivilDate::new(2020, 2, 1).unwrap().midnight();
        let mar1 = CivilDate::new(2020, 3, 1).unwrap().midnight();
        assert_eq!(span, feb1.secs()..mar1.secs());
    }

    #[test]
    fn bucket_span_of_extreme_instants_does_not_panic() {
        let day = SECS_PER_DAY;
        let extremes = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN + 40 * day,
            i64::MAX - 40 * day,
            i64::MAX - 1,
            i64::MAX,
        ];
        let origins = [
            Timestamp::year_2019_start(),
            Timestamp(-1),
            Timestamp(i64::MIN),
            Timestamp(i64::MAX),
        ];
        for t in extremes.map(Timestamp) {
            for g in Granularity::ALL {
                for origin in origins {
                    let (bucket, span) = t.bucket_span(g, origin);
                    assert_eq!(bucket, t.bucket(g, origin), "{t:?} {g} from {origin:?}");
                    assert!(span.start <= t.secs(), "{t:?} {g}: {span:?}");
                    assert!(t.secs() < span.end || span.end == i64::MAX, "{t:?} {g}");
                }
            }
        }
    }

    #[test]
    fn iso_rendering() {
        let t = CivilDate::new(2019, 7, 4).unwrap().midnight() + 3661;
        assert_eq!(t.to_iso8601(), "2019-07-04T01:01:01Z");
    }

    #[test]
    fn month_lengths_sum_to_year() {
        let total: u32 = (1..=12).map(|m| u32::from(days_in_month(2019, m))).sum();
        assert_eq!(total, 365);
        let total: u32 = (1..=12).map(|m| u32::from(days_in_month(2020, m))).sum();
        assert_eq!(total, 366);
    }

    #[test]
    fn granularity_labels() {
        assert_eq!(Granularity::Day.label(), "day");
        assert_eq!(Granularity::Week.to_string(), "week");
        assert_eq!(Granularity::ALL.len(), 3);
    }

    #[test]
    fn granularity_from_str() {
        for g in Granularity::ALL {
            assert_eq!(g.label().parse::<Granularity>().unwrap(), g);
        }
        assert!("decade".parse::<Granularity>().is_err());
    }

    const JAN1_2019: i64 = 1_546_300_800;

    #[test]
    fn integer_seconds_and_millis() {
        assert_eq!(parse_timestamp("1546300800").unwrap().secs(), JAN1_2019);
        assert_eq!(parse_timestamp("1546300800000").unwrap().secs(), JAN1_2019);
        assert_eq!(parse_timestamp(" 1546300800 ").unwrap().secs(), JAN1_2019);
        let min = parse_timestamp(&i64::MIN.to_string()).unwrap();
        assert_eq!(min.secs(), i64::MIN / 1000);
    }

    #[test]
    fn bigquery_format() {
        assert_eq!(
            parse_timestamp("2019-01-01 00:00:00 UTC").unwrap().secs(),
            JAN1_2019
        );
        assert_eq!(
            parse_timestamp("2019-01-14 12:30:45 UTC").unwrap().secs(),
            JAN1_2019 + 13 * 86_400 + 12 * 3600 + 30 * 60 + 45
        );
    }

    #[test]
    fn iso_formats() {
        assert_eq!(
            parse_timestamp("2019-01-01T00:00:00Z").unwrap().secs(),
            JAN1_2019
        );
        assert_eq!(
            parse_timestamp("2019-01-01T00:00:00.123Z").unwrap().secs(),
            JAN1_2019
        );
        assert_eq!(
            parse_timestamp("2019-01-01T00:00:00+00:00").unwrap().secs(),
            JAN1_2019
        );
        assert_eq!(
            parse_timestamp("2019-01-01 00:00:00").unwrap().secs(),
            JAN1_2019
        );
    }

    #[test]
    fn date_only_is_midnight() {
        assert_eq!(parse_timestamp("2019-01-01").unwrap().secs(), JAN1_2019);
    }

    #[test]
    fn rejects_garbage() {
        for s in [
            "",
            "not a date",
            "2019-13-01",
            "2019-01-32",
            "2019-01-01 25:00:00",
            "2019-01-01 00:61:00",
            "2019-01-01 00:00:00 PST",
            "2019/01/01",
            "2019-01-01T00:00:00.Z",
        ] {
            assert!(parse_timestamp(s).is_none(), "accepted {s:?}");
        }
    }

    #[test]
    fn roundtrips_with_chain_rendering() {
        let t = Timestamp(JAN1_2019 + 3661);
        assert_eq!(parse_timestamp(&t.to_iso8601()).unwrap(), t);
    }
}
