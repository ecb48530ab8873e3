//! Time quantities: validated arc delays and exact rationals.

use std::fmt;

/// A non-negative, finite arc delay (the `δ` labels of a Timed Signal Graph).
///
/// The paper defines delays over `[0, +∞)`; this newtype enforces that range
/// at construction so the analyses never have to re-validate.
///
/// # Examples
///
/// ```
/// use tsg_core::time::Delay;
///
/// let d = Delay::new(2.5)?;
/// assert_eq!(d.get(), 2.5);
/// assert!(Delay::new(-1.0).is_err());
/// assert!(Delay::new(f64::NAN).is_err());
/// # Ok::<(), tsg_core::time::InvalidDelay>(())
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Delay(f64);

/// Error returned when constructing a [`Delay`] from a negative, infinite or
/// NaN value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidDelay(pub f64);

impl fmt::Display for InvalidDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid delay {}: must be finite and >= 0", self.0)
    }
}

impl std::error::Error for InvalidDelay {}

impl Delay {
    /// The zero delay.
    pub const ZERO: Delay = Delay(0.0);

    /// Creates a delay, validating that `value` is finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDelay`] for negative, infinite or NaN inputs.
    pub fn new(value: f64) -> Result<Self, InvalidDelay> {
        if value.is_finite() && value >= 0.0 {
            Ok(Delay(value))
        } else {
            Err(InvalidDelay(value))
        }
    }

    /// Returns the delay as an `f64`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl TryFrom<f64> for Delay {
    type Error = InvalidDelay;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Delay::new(value)
    }
}

impl From<Delay> for f64 {
    fn from(d: Delay) -> f64 {
        d.get()
    }
}

/// An exact rational number with `i64` numerator and denominator.
///
/// Cycle times of integral-delay graphs are rationals (e.g. the Muller ring
/// of Section VIII.D has τ = 20/3); [`Ratio`] lets tests and reports state
/// them exactly.
///
/// The representation is always reduced, with a strictly positive
/// denominator.
///
/// # Examples
///
/// ```
/// use tsg_core::time::Ratio;
///
/// let r = Ratio::new(20, 3);
/// assert_eq!(r.to_string(), "20/3");
/// assert_eq!(Ratio::new(10, 5), Ratio::new(2, 1));
/// assert!(Ratio::new(20, 3) > Ratio::new(13, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ratio {
    numer: i64,
    denom: i64,
}

impl Ratio {
    /// Creates the reduced rational `numer / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: i64, denom: i64) -> Self {
        assert!(denom != 0, "denominator must be non-zero");
        let g = gcd(numer.unsigned_abs(), denom.unsigned_abs()) as i64;
        let sign = if denom < 0 { -1 } else { 1 };
        Ratio {
            numer: sign * numer / g,
            denom: sign * denom / g,
        }
    }

    /// The reduced numerator.
    pub fn numer(self) -> i64 {
        self.numer
    }

    /// The reduced (positive) denominator.
    pub fn denom(self) -> i64 {
        self.denom
    }

    /// Converts to `f64`.
    pub fn as_f64(self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Returns the integer value when the ratio is integral.
    pub fn as_integer(self) -> Option<i64> {
        (self.denom == 1).then_some(self.numer)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        let lhs = self.numer as i128 * other.denom as i128;
        let rhs = other.numer as i128 * self.denom as i128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_validation() {
        assert!(Delay::new(0.0).is_ok());
        assert!(Delay::new(3.5).is_ok());
        assert_eq!(Delay::new(-0.1), Err(InvalidDelay(-0.1)));
        assert!(Delay::new(f64::INFINITY).is_err());
        assert!(Delay::new(f64::NAN).is_err());
    }

    #[test]
    fn delay_display_and_conversion() {
        let d = Delay::new(2.0).unwrap();
        assert_eq!(d.to_string(), "2");
        assert_eq!(f64::from(d), 2.0);
        assert_eq!(Delay::try_from(1.0).unwrap().get(), 1.0);
    }

    #[test]
    fn ratio_reduces() {
        assert_eq!(Ratio::new(20, 3).to_string(), "20/3");
        assert_eq!(Ratio::new(10, 2), Ratio::new(5, 1));
        assert_eq!(Ratio::new(5, 1).as_integer(), Some(5));
        assert_eq!(Ratio::new(20, 3).as_integer(), None);
    }

    #[test]
    fn ratio_negative_denominator_normalizes() {
        assert_eq!(Ratio::new(1, -2), Ratio::new(-1, 2));
        assert!(Ratio::new(1, -2).denom() > 0);
    }

    #[test]
    fn ratio_ordering_is_exact() {
        assert!(Ratio::new(20, 3) > Ratio::new(13, 2)); // 6.67 > 6.5
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert_eq!(
            Ratio::new(2, 4).cmp(&Ratio::new(1, 2)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn ratio_zero() {
        assert_eq!(Ratio::new(0, 5), Ratio::new(0, 1));
        assert_eq!(Ratio::new(0, 5).as_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn ratio_zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }
}
