//! The end-to-end transformation pipeline for a configured processing rate.
//!
//! Sunder processes 1, 2, or 4 nibbles per cycle (4-, 8-, or 16-bit rate),
//! selected per application at configuration time (paper, Section 5.1.1).
//! [`transform_to_rate`] runs the full FlexAmata + temporal-striding
//! pipeline: byte automaton → nibble automaton → repeated stride doubling →
//! cleanup (pruning and forward-equivalence minimization).

use sunder_automata::graph::{drop_start_subsumed, prune_useless};
use sunder_automata::minimize::merge_equivalent_states;
use sunder_automata::{AutomataError, Nfa};

use crate::map::PositionMap;
use crate::nibble::to_nibble_automaton;
use crate::stride::double_stride;

/// A Sunder processing rate: how many 4-bit nibbles each cycle consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rate {
    /// One nibble (4 bits) per cycle: maximum state density, half the
    /// throughput of byte processing. 16 subarray rows used for matching.
    Nibble1,
    /// Two nibbles (8 bits) per cycle: byte-rate processing, 32 rows.
    Nibble2,
    /// Four nibbles (16 bits) per cycle: double byte-rate, 64 rows.
    Nibble4,
}

impl Rate {
    /// All rates, in increasing throughput order.
    pub const ALL: [Rate; 3] = [Rate::Nibble1, Rate::Nibble2, Rate::Nibble4];

    /// Nibbles consumed per cycle (the automaton stride).
    pub fn nibbles_per_cycle(self) -> usize {
        match self {
            Rate::Nibble1 => 1,
            Rate::Nibble2 => 2,
            Rate::Nibble4 => 4,
        }
    }

    /// Input bits consumed per cycle.
    pub fn bits_per_cycle(self) -> usize {
        self.nibbles_per_cycle() * 4
    }

    /// Number of stride doublings applied after the nibble transformation.
    pub fn doublings(self) -> u32 {
        match self {
            Rate::Nibble1 => 0,
            Rate::Nibble2 => 1,
            Rate::Nibble4 => 2,
        }
    }

    /// Subarray rows occupied by state matching at this rate
    /// (`16 × nibbles`); the remaining rows store reporting data
    /// (paper, Section 5.1.1).
    pub fn matching_rows(self) -> usize {
        16 * self.nibbles_per_cycle()
    }
}

impl std::fmt::Display for Rate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-nibble ({}-bit)",
            self.nibbles_per_cycle(),
            self.bits_per_cycle()
        )
    }
}

/// Options controlling the transformation pipeline; the defaults reproduce
/// the paper's flow. The flags exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformOptions {
    /// Run forward-equivalence minimization after each stage.
    pub minimize: bool,
    /// Drop states that are unreachable or cannot reach a report.
    pub prune: bool,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            minimize: true,
            prune: true,
        }
    }
}

/// Transforms a stride-1 byte (or 16-bit) automaton to the given processing
/// rate with default options.
///
/// # Errors
///
/// Propagates [`to_nibble_automaton`]'s errors (unsupported width, already
/// strided input).
pub fn transform_to_rate(nfa: &Nfa, rate: Rate) -> Result<Nfa, AutomataError> {
    transform_to_rate_with(nfa, rate, TransformOptions::default())
}

/// Transforms with explicit [`TransformOptions`].
///
/// # Errors
///
/// Propagates [`to_nibble_automaton`]'s errors.
pub fn transform_to_rate_with(
    nfa: &Nfa,
    rate: Rate,
    options: TransformOptions,
) -> Result<Nfa, AutomataError> {
    let mut current = to_nibble_automaton(nfa)?;
    cleanup(&mut current, options);
    for _ in 0..rate.doublings() {
        current = double_stride(&current);
        cleanup(&mut current, options);
    }
    Ok(current)
}

fn cleanup(nfa: &mut Nfa, options: TransformOptions) {
    if options.prune {
        prune_useless(nfa);
    }
    if options.minimize {
        merge_equivalent_states(nfa);
    }
    if options.prune {
        prune_useless(nfa);
    }
}

/// One way the pipeline can prepare an automaton for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineConfig {
    /// No rate transformation.
    Identity,
    /// FlexAmata nibble decomposition, one nibble per cycle.
    Nibble,
    /// Nibble decomposition plus one stride doubling (8-bit rate).
    Stride2,
    /// Nibble decomposition plus two stride doublings (16-bit rate).
    Stride4,
}

impl PipelineConfig {
    /// Every configuration, in increasing transformation depth.
    pub const ALL: [PipelineConfig; 4] = [
        PipelineConfig::Identity,
        PipelineConfig::Nibble,
        PipelineConfig::Stride2,
        PipelineConfig::Stride4,
    ];

    /// A short stable name (`identity`/`nibble`/`stride2`/`stride4`).
    pub fn name(self) -> &'static str {
        match self {
            PipelineConfig::Identity => "identity",
            PipelineConfig::Nibble => "nibble",
            PipelineConfig::Stride2 => "stride2",
            PipelineConfig::Stride4 => "stride4",
        }
    }

    /// The processing rate this configuration transforms to, if any.
    pub fn rate(self) -> Option<Rate> {
        match self {
            PipelineConfig::Identity => None,
            PipelineConfig::Nibble => Some(Rate::Nibble1),
            PipelineConfig::Stride2 => Some(Rate::Nibble2),
            PipelineConfig::Stride4 => Some(Rate::Nibble4),
        }
    }

    /// Prepares `nfa` under this configuration: the executable automaton
    /// plus the [`PositionMap`] folding its report positions back to
    /// original-symbol coordinates.
    ///
    /// The executable automaton is the rate transformation followed by
    /// [`drop_start_subsumed`], which deletes always-on `.*` heads whose
    /// enables the start states already supply; its reports are the
    /// source's.
    ///
    /// # Errors
    ///
    /// Propagates transformation errors (unsupported width, strided
    /// input).
    pub fn apply(self, nfa: &Nfa) -> Result<(Nfa, PositionMap), AutomataError> {
        let (mut prepared, map) = match self.rate() {
            None => (nfa.clone(), PositionMap::identity()),
            Some(rate) => (
                transform_to_rate(nfa, rate)?,
                PositionMap::nibble_of(nfa.symbol_bits())?,
            ),
        };
        drop_start_subsumed(&mut prepared);
        Ok((prepared, map))
    }
}

impl std::fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;

    #[test]
    fn config_names_and_rates() {
        assert_eq!(PipelineConfig::ALL.len(), 4);
        assert_eq!(PipelineConfig::Identity.rate(), None);
        assert_eq!(PipelineConfig::Stride4.rate(), Some(Rate::Nibble4));
        assert_eq!(PipelineConfig::Stride2.to_string(), "stride2");
    }

    #[test]
    fn rate_arithmetic() {
        assert_eq!(Rate::Nibble1.bits_per_cycle(), 4);
        assert_eq!(Rate::Nibble2.bits_per_cycle(), 8);
        assert_eq!(Rate::Nibble4.bits_per_cycle(), 16);
        assert_eq!(Rate::Nibble4.matching_rows(), 64);
        assert_eq!(Rate::Nibble1.matching_rows(), 16);
        assert_eq!(Rate::Nibble2.doublings(), 1);
        assert_eq!(format!("{}", Rate::Nibble4), "4-nibble (16-bit)");
    }

    #[test]
    fn pipeline_produces_requested_stride() {
        let nfa = compile_rule_set(&["abc", "x[0-9]y"]).unwrap();
        for rate in Rate::ALL {
            let t = transform_to_rate(&nfa, rate).unwrap();
            assert_eq!(t.symbol_bits(), 4);
            assert_eq!(t.stride(), rate.nibbles_per_cycle());
            assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn minimization_shrinks_or_equals() {
        let nfa = compile_rule_set(&["abcd", "abce", "abcf"]).unwrap();
        let min = transform_to_rate(&nfa, Rate::Nibble1).unwrap();
        let raw = transform_to_rate_with(
            &nfa,
            Rate::Nibble1,
            TransformOptions {
                minimize: false,
                prune: false,
            },
        )
        .unwrap();
        assert!(min.num_states() <= raw.num_states());
        // The shared "abc" prefix must actually collapse.
        assert!(min.num_states() < raw.num_states());
    }

    #[test]
    fn equivalence_through_full_pipeline() {
        let patterns = ["ab+c", ".*net", "[0-9]{3}"];
        let nfa = compile_rule_set(&patterns).unwrap();
        let input = b"zab-bc 192net abbbc 007x";
        let expected = sunder_sim::run_trace(&nfa, input)
            .unwrap()
            .position_id_pairs(1);
        for rate in Rate::ALL {
            let t = transform_to_rate(&nfa, rate).unwrap();
            let got: Vec<(u64, u32)> = sunder_sim::run_trace(&t, input)
                .unwrap()
                .position_id_pairs(t.stride())
                .into_iter()
                .map(|(pos, id)| {
                    assert_eq!(pos % 2, 1);
                    ((pos - 1) / 2, id)
                })
                .collect();
            assert_eq!(got, expected, "rate {rate} diverged");
        }
    }
}
