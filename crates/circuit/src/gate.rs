//! Gate kinds and their next-state functions.

use std::fmt;
use std::str::FromStr;

/// The gate types of the speed-independent circuit library.
///
/// Sequential elements (the C-element and the majority gate on a tie) hold
/// their previous output; combinational gates ignore it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Muller C-element: output follows the inputs when they agree,
    /// otherwise holds.
    CElement,
    /// NOR: high exactly when all inputs are low.
    Nor,
    /// NAND: low exactly when all inputs are high.
    Nand,
    /// AND of all inputs.
    And,
    /// OR of all inputs.
    Or,
    /// XOR (parity) of all inputs.
    Xor,
    /// XNOR (complement parity).
    Xnor,
    /// Single-input inverter.
    Inverter,
    /// Single-input buffer (delay element).
    Buffer,
    /// Majority vote; holds on a tie (requires >= 3 inputs in validation,
    /// odd arities never tie).
    Majority,
}

impl GateKind {
    /// Evaluates the gate: next output value given the input values and the
    /// current output (`current` matters only for sequential kinds).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs` is empty; arity rules are
    /// enforced by [`NetlistBuilder`](crate::netlist::NetlistBuilder).
    pub fn eval(self, inputs: &[bool], current: bool) -> bool {
        debug_assert!(!inputs.is_empty(), "gates need at least one input");
        match self {
            GateKind::CElement => {
                if inputs.iter().all(|&x| x) {
                    true
                } else if inputs.iter().all(|&x| !x) {
                    false
                } else {
                    current
                }
            }
            GateKind::Nor => !inputs.iter().any(|&x| x),
            GateKind::Nand => !inputs.iter().all(|&x| x),
            GateKind::And => inputs.iter().all(|&x| x),
            GateKind::Or => inputs.iter().any(|&x| x),
            GateKind::Xor => inputs.iter().fold(false, |acc, &x| acc ^ x),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &x| acc ^ x),
            GateKind::Inverter => !inputs[0],
            GateKind::Buffer => inputs[0],
            GateKind::Majority => {
                let ones = inputs.iter().filter(|&&x| x).count();
                let zeros = inputs.len() - ones;
                if ones > zeros {
                    true
                } else if zeros > ones {
                    false
                } else {
                    current
                }
            }
        }
    }

    /// Permitted input arities.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Inverter | GateKind::Buffer => n == 1,
            GateKind::Majority => n >= 3,
            _ => n >= 1,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::CElement => "c",
            GateKind::Nor => "nor",
            GateKind::Nand => "nand",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Inverter => "inv",
            GateKind::Buffer => "buf",
            GateKind::Majority => "maj",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an unknown gate kind name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseGateKindError(pub String);

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind {:?}", self.0)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "c" | "celement" | "c-element" => GateKind::CElement,
            "nor" => GateKind::Nor,
            "nand" => GateKind::Nand,
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "inv" | "not" | "inverter" => GateKind::Inverter,
            "buf" | "buffer" => GateKind::Buffer,
            "maj" | "majority" => GateKind::Majority,
            other => return Err(ParseGateKindError(other.to_owned())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_element_truth_table() {
        assert!(GateKind::CElement.eval(&[true, true], false));
        assert!(!GateKind::CElement.eval(&[false, false], true));
        assert!(GateKind::CElement.eval(&[true, false], true)); // hold
        assert!(!GateKind::CElement.eval(&[true, false], false)); // hold
    }

    #[test]
    fn combinational_gates() {
        assert!(GateKind::Nor.eval(&[false, false], false));
        assert!(!GateKind::Nor.eval(&[true, false], false));
        assert!(!GateKind::Nand.eval(&[true, true], true));
        assert!(GateKind::And.eval(&[true, true], false));
        assert!(GateKind::Or.eval(&[false, true], false));
        assert!(GateKind::Xor.eval(&[true, false], false));
        assert!(!GateKind::Xor.eval(&[true, true], false));
        assert!(GateKind::Xnor.eval(&[true, true], false));
        assert!(!GateKind::Inverter.eval(&[true], false));
        assert!(GateKind::Buffer.eval(&[true], false));
    }

    #[test]
    fn majority_votes_and_holds() {
        assert!(GateKind::Majority.eval(&[true, true, false], false));
        assert!(!GateKind::Majority.eval(&[true, false, false], true));
        assert!(GateKind::Majority.eval(&[true, true, false, false], true)); // tie holds
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Inverter.arity_ok(1));
        assert!(!GateKind::Inverter.arity_ok(2));
        assert!(GateKind::Majority.arity_ok(3));
        assert!(!GateKind::Majority.arity_ok(2));
        assert!(GateKind::CElement.arity_ok(2));
    }

    #[test]
    fn parse_roundtrip() {
        for k in [
            GateKind::CElement,
            GateKind::Nor,
            GateKind::Nand,
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Inverter,
            GateKind::Buffer,
            GateKind::Majority,
        ] {
            let parsed: GateKind = k.to_string().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("frobnicator".parse::<GateKind>().is_err());
    }
}
