//! Transformation overhead accounting (paper, Table 3).
//!
//! Table 3 reports, per benchmark, the number of states and transitions of
//! the 1-, 2-, and 4-nibble designs normalized to the original 8-bit
//! automaton. [`TransformStats`] computes exactly those ratios.

use std::fmt;

use sunder_automata::{AutomataError, Nfa};

use crate::rate::{transform_to_rate_with, Rate, TransformOptions};

/// State/transition counts of one automaton at one rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateCounts {
    /// Processing rate the counts apply to.
    pub rate: Rate,
    /// Number of states after transformation.
    pub states: usize,
    /// Number of transitions after transformation.
    pub transitions: usize,
}

/// Overheads of every rate, normalized against the 8-bit original.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformStats {
    /// Original (8-bit) state count.
    pub original_states: usize,
    /// Original (8-bit) transition count.
    pub original_transitions: usize,
    /// Counts per rate, in [`Rate::ALL`] order.
    pub per_rate: Vec<RateCounts>,
}

impl TransformStats {
    /// Runs the raw transform ([`transform_to_rate_with`], default
    /// options) of `nfa` to every rate and collects the counts.
    ///
    /// # Errors
    ///
    /// Propagates transformation errors (unsupported width, strided input).
    pub fn measure(nfa: &Nfa) -> Result<Self, AutomataError> {
        let mut per_rate = Vec::with_capacity(Rate::ALL.len());
        for rate in Rate::ALL {
            let t = transform_to_rate_with(nfa, rate, TransformOptions::default())?;
            per_rate.push(RateCounts {
                rate,
                states: t.num_states(),
                transitions: t.num_transitions(),
            });
        }
        Ok(TransformStats {
            original_states: nfa.num_states(),
            original_transitions: nfa.num_transitions(),
            per_rate,
        })
    }

    /// State-count ratio vs. the original for `rate` (Table 3, left half).
    pub fn state_ratio(&self, rate: Rate) -> f64 {
        let c = self.counts(rate);
        ratio(c.states, self.original_states)
    }

    /// Transition-count ratio vs. the original (Table 3, right half).
    pub fn transition_ratio(&self, rate: Rate) -> f64 {
        let c = self.counts(rate);
        ratio(c.transitions, self.original_transitions)
    }

    /// Counts for one rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate was not measured (cannot happen for values
    /// produced by [`TransformStats::measure`]).
    pub fn counts(&self, rate: Rate) -> RateCounts {
        *self
            .per_rate
            .iter()
            .find(|c| c.rate == rate)
            .expect("all rates measured")
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

impl fmt::Display for TransformStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states ×[{:.1}, {:.1}, {:.1}] transitions ×[{:.1}, {:.1}, {:.1}] (1/2/4-nibble vs 8-bit)",
            self.state_ratio(Rate::Nibble1),
            self.state_ratio(Rate::Nibble2),
            self.state_ratio(Rate::Nibble4),
            self.transition_ratio(Rate::Nibble1),
            self.transition_ratio(Rate::Nibble2),
            self.transition_ratio(Rate::Nibble4),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;

    #[test]
    fn exact_match_style_overhead_is_about_2x_for_1_nibble() {
        // Single-symbol charsets double in the nibble domain (hi+lo), which
        // is exactly the paper's ExactMatch row (2.0×).
        let nfa = compile_rule_set(&["abcdefgh", "ijklmnop"]).unwrap();
        let stats = TransformStats::measure(&nfa).unwrap();
        let r1 = stats.state_ratio(Rate::Nibble1);
        assert!(
            (1.5..=2.1).contains(&r1),
            "1-nibble ratio {r1} out of the expected band"
        );
    }

    #[test]
    fn two_nibble_close_to_original() {
        let nfa = compile_rule_set(&["hello", "world", "foobar"]).unwrap();
        let stats = TransformStats::measure(&nfa).unwrap();
        let r2 = stats.state_ratio(Rate::Nibble2);
        assert!(
            (0.5..=1.6).contains(&r2),
            "2-nibble ratio {r2} should be near 1.0"
        );
    }

    #[test]
    fn ratios_consistent_with_counts() {
        let nfa = compile_rule_set(&["ab"]).unwrap();
        let stats = TransformStats::measure(&nfa).unwrap();
        for rate in Rate::ALL {
            let c = stats.counts(rate);
            assert!(c.states > 0);
            assert!(
                (stats.state_ratio(rate) - c.states as f64 / stats.original_states as f64).abs()
                    < 1e-12
            );
        }
        let text = stats.to_string();
        assert!(text.contains("states"));
    }

    #[test]
    fn empty_automaton_ratio_is_one() {
        let nfa = Nfa::new(8);
        let stats = TransformStats::measure(&nfa).unwrap();
        assert_eq!(stats.state_ratio(Rate::Nibble1), 1.0);
    }
}
