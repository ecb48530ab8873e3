//! Byte-exact `f64` text without `core::fmt` on the common path.
//!
//! The `analyze` report prints every average occurrence distance
//! `δ(i) = t/i` of every border event: b² cells, each an `f64` written
//! once with `{}` and once with `{:.4}`. Through `write!` that costs
//! about as much as the analysis itself. The two functions here append
//! the same bytes as `write!(out, "{x}")` and `write!(out, "{x:.4}")`
//! do, with integer arithmetic where that is exact:
//!
//! * [`push_display`] writes a finite, sign-positive, integral value
//!   below 2⁵³ as its integer digits — every integer in that range is an
//!   `f64` and its own shortest round-trip form;
//! * [`push_fixed4`] scales the mantissa by 10⁴ in `u128`, shifts it by
//!   the binary exponent, and rounds the dropped bits half to even, as
//!   `std`'s exact formatting does.
//!
//! Anything outside those domains (negative values and `-0.0`,
//! non-integral `{}`, infinities, NaN, values whose scaled form
//! overflows `u128`) falls back to `write!`.

use std::fmt::Write as _;

/// 2⁵³: below it every integer is exactly representable.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Appends `x` as `write!(out, "{x}")` would.
pub fn push_display(out: &mut String, x: f64) {
    if x.is_sign_positive() && x < EXACT_INTEGERS && x.fract() == 0.0 {
        push_u64(out, x as u64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `x` as `write!(out, "{x:.4}")` would.
pub fn push_fixed4(out: &mut String, x: f64) {
    match scaled_by_10k(x) {
        Some(n) => {
            // `u128` division is a library call; the common case fits
            // `u64`, whose division by a constant is a multiply.
            let frac = match u64::try_from(n) {
                Ok(n) => {
                    push_u64(out, n / 10_000);
                    (n % 10_000) as u16
                }
                Err(_) => {
                    let _ = write!(out, "{}", n / 10_000);
                    (n % 10_000) as u16
                }
            };
            out.push('.');
            for digit in [frac / 1000, frac / 100 % 10, frac / 10 % 10, frac % 10] {
                out.push(char::from(b'0' + digit as u8));
            }
        }
        None => {
            let _ = write!(out, "{x:.4}");
        }
    }
}

/// `x · 10⁴` rounded half to even, when `x` is finite and sign-positive
/// and the product fits `u128`.
fn scaled_by_10k(x: f64) -> Option<u128> {
    let bits = x.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    if bits >> 63 != 0 || biased == 0x7ff {
        return None;
    }
    let fraction = bits & ((1 << 52) - 1);
    // x = mantissa · 2^exp exactly; subnormals have no implicit bit.
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased as i32 - 1075)
    };
    // mantissa · 10⁴ < 2⁶⁷.
    let n = u128::from(mantissa) * 10_000;
    if exp >= 0 {
        // Exact; 2⁶⁷ · 2⁶⁰ still fits.
        return (exp <= 60).then(|| n << exp);
    }
    let shift = exp.unsigned_abs();
    if shift >= 128 {
        // n < 2⁶⁷ is below half of 2^shift: rounds to zero.
        return Some(0);
    }
    let q = n >> shift;
    let rest = n - (q << shift);
    let half = 1u128 << (shift - 1);
    let round_up = rest > half || (rest == half && q & 1 == 1);
    Some(q + u128::from(round_up))
}

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display(x: f64) -> String {
        let mut s = String::new();
        push_display(&mut s, x);
        s
    }

    fn fixed4(x: f64) -> String {
        let mut s = String::new();
        push_fixed4(&mut s, x);
        s
    }

    /// Edge cases at and around each fast path's domain, then random
    /// bit patterns over the whole exponent range and random values
    /// near the report's magnitudes.
    #[test]
    fn byte_identical_to_std_formatting() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};

        let mut values = vec![
            1.0,
            10.0,
            37.0,
            0.5,
            2.25,
            1234.5678,
            0.00005,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::MAX,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            EXACT_INTEGERS,
            EXACT_INTEGERS - 1.0,
            EXACT_INTEGERS + 2.0,
            u64::MAX as f64,
            -1.0,
            -2.5,
            // Largest exponents left on the fast path and first past it.
            f64::from_bits((1023 + 52 + 60) << 52 | 0xf_ffff_ffff_ffff),
            f64::from_bits((1023 + 52 + 61) << 52),
            // The largest shift on the fast path and the first past it.
            f64::from_bits((1075 - 127) << 52 | 1),
            f64::from_bits((1075 - 128) << 52 | 1),
        ];
        // The exact `{:.4}` ties (x·10⁴ ending in .5 exactly) are the odd
        // multiples of 1/32; each with its neighbours, small and large.
        for k in 0..256u64 {
            let odd = (2 * k + 1) as f64 / 32.0;
            for tie in [odd, (1u64 << 20) as f64 + odd, (1u64 << 45) as f64 + odd] {
                values.extend([tie, tie.next_up(), tie.next_down()]);
            }
        }
        let mut rng = SmallRng::seed_from_u64(0x0064_6563_696d_616c);
        for _ in 0..100_000 {
            values.push(f64::from_bits(rng.next_u64()));
        }
        for _ in 0..100_000 {
            // Sums of small integers over a period count, as in δ(i).
            let t = (rng.next_u64() % 100_000) as f64;
            let i = (rng.next_u64() % 200 + 1) as f64;
            values.extend([t, t / i, t / 100.0, (t / 100.0) / i]);
        }
        for x in values {
            assert_eq!(
                display(x),
                format!("{x}"),
                "{{}} of bits {:#x}",
                x.to_bits()
            );
            assert_eq!(
                fixed4(x),
                format!("{x:.4}"),
                "{{:.4}} of bits {:#x}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        // 1/32 = 0.03125 sits exactly between 0.0312 and 0.0313.
        assert_eq!(fixed4(0.03125), "0.0312");
        assert_eq!(fixed4(0.09375), "0.0938");
    }
}
