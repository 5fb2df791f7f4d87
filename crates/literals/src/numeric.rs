//! Numeric literal handling.
//!
//! §5.3: "We normalize numeric values by removing all data type or
//! dimension information", and "the probability that two numeric values of
//! the same dimension are equal can be a function of their proportional
//! difference".

use std::io::Write;

/// Attempts to read a literal's lexical form as a number.
///
/// Accepts optional surrounding whitespace, a leading sign, decimal point,
/// and exponent — i.e. the union of the XSD numeric lexical spaces. Returns
/// `None` for NaN/infinite results and non-numeric strings.
pub fn parse_numeric(value: &str) -> Option<f64> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return None;
    }
    let parsed: f64 = trimmed.parse().ok()?;
    parsed.is_finite().then_some(parsed)
}

/// Proportional difference `|a − b| / max(|a|, |b|)`, with 0 for two zeros.
pub fn proportional_difference(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Equality probability for two numbers: linear fall-off from 1 at equal
/// values to 0 at `tolerance` proportional difference.
pub fn numeric_probability(a: f64, b: f64, tolerance: f64) -> f64 {
    debug_assert!(tolerance > 0.0, "tolerance must be positive");
    let d = proportional_difference(a, b);
    (1.0 - d / tolerance).max(0.0)
}

/// A canonical blocking key so that numerically-equal lexical forms ("42",
/// "42.0", "4.2e1") land in the same candidate bucket: the bits of `x`
/// rounded to 12 significant digits after the point (13 in all), which
/// absorbs parse noise. Distinct bits are distinct keys, so `0` and `-0`
/// block apart.
pub fn canonical_bits(x: f64) -> u64 {
    // An integer of at most 12 digits is its own rounding.
    if x.fract() == 0.0 && x.abs() < 1e12 {
        return x.to_bits();
    }
    // `{:.12e}` is at most 20 bytes ("-d.dddddddddddde-308"), so the
    // round trip stays on the stack.
    let mut buf = [0u8; 32];
    let mut out = &mut buf[..];
    let rounded = match write!(out, "{x:.12e}") {
        Ok(()) => {
            let len = 32 - out.len();
            std::str::from_utf8(&buf[..len])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
        }
        Err(_) => None,
    };
    rounded.unwrap_or(x).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_xsd_forms() {
        assert_eq!(parse_numeric("42"), Some(42.0));
        assert_eq!(parse_numeric("-3.25"), Some(-3.25));
        assert_eq!(parse_numeric(" 4.2e1 "), Some(42.0));
        assert_eq!(parse_numeric("+0.5"), Some(0.5));
    }

    #[test]
    fn parse_rejects_non_numbers() {
        assert_eq!(parse_numeric(""), None);
        assert_eq!(parse_numeric("abc"), None);
        assert_eq!(parse_numeric("1 2"), None);
        assert_eq!(parse_numeric("NaN"), None);
        assert_eq!(parse_numeric("inf"), None);
    }

    #[test]
    fn proportional_difference_cases() {
        assert_eq!(proportional_difference(0.0, 0.0), 0.0);
        assert_eq!(proportional_difference(100.0, 100.0), 0.0);
        assert!((proportional_difference(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((proportional_difference(-100.0, 100.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probability_fall_off() {
        assert_eq!(numeric_probability(10.0, 10.0, 0.05), 1.0);
        assert_eq!(numeric_probability(10.0, 20.0, 0.05), 0.0);
        let p = numeric_probability(100.0, 99.0, 0.05);
        assert!(p > 0.0 && p < 1.0);
    }

    /// The string key blocking used before keys became bits: rounding
    /// through `{:.12e}`, then the shortest decimal form.
    fn string_key(x: f64) -> String {
        let rounded = format!("{x:.12e}").parse::<f64>().unwrap_or(x);
        format!("{rounded}")
    }

    #[test]
    fn canonical_keys_unify_lexical_forms() {
        let k = |s: &str| canonical_bits(parse_numeric(s).unwrap());
        assert_eq!(k("42"), k("42.0"));
        assert_eq!(k("42"), k("4.2e1"));
        assert_eq!(k("1975"), k("1975.0"));
        assert_eq!(k("1e21"), k("1000000000000000000000"));
        assert_ne!(k("42"), k("42.1"));
        assert_ne!(k("0"), k("-0"), "string keys kept 0 and -0 apart");
        assert_eq!(k("0.1"), k("0.1000000000000001"), "parse noise is absorbed");
    }

    /// Bit keys partition numbers exactly as the string keys did.
    #[test]
    fn bit_keys_match_string_keys() {
        let mut values = vec![
            0.0,
            -0.0,
            1975.0,
            -1975.0,
            1e21,
            1e12,
            1e12 - 1.0,
            999_999_999_999.5,
            0.1,
            0.1 + 0.2,
            1.0 / 3.0,
            2.0 / 3.0,
            123_456_789_012_345.0,
            1e-300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MAX,
        ];
        // A deterministic spread of magnitudes and mantissas.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..1000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let x = f64::from_bits(state >> 1);
            if x.is_finite() {
                values.push(x);
                values.push((x * 1e6).round() / 1e6);
            }
            values.push((state % 100_000) as f64 / 8.0);
        }
        let keys: Vec<(u64, String)> = values
            .iter()
            .map(|&x| (canonical_bits(x), string_key(x)))
            .collect();
        for (i, (a, ka)) in values.iter().zip(&keys).enumerate() {
            for (b, kb) in values.iter().zip(&keys).skip(i % 7).step_by(7) {
                assert_eq!(ka.0 == kb.0, ka.1 == kb.1, "{a:e} vs {b:e}");
            }
            let near = f64::from_bits(a.to_bits() + 1);
            if near.is_finite() {
                assert_eq!(
                    ka.0 == canonical_bits(near),
                    ka.1 == string_key(near),
                    "{a:e} vs its neighbour"
                );
            }
        }
    }
}
