//! Spatial partitioning of an automaton into STE-budgeted shards.
//!
//! In-memory automata hardware places STEs into fixed-capacity subarrays
//! (the paper's 256×256 arrays hold one STE per memory column, so a
//! subarray fits 256 STEs). Multi-pattern rule sets decompose into many
//! small weakly-connected components, and the mapper's job is to pack
//! whole components into as few subarrays as possible without ever
//! splitting a component — a cut transition would have to cross the
//! subarray interconnect every cycle, and worse, software shards could no
//! longer execute independently.
//!
//! This module is the software analogue: [`partition`] bin-packs the
//! connected components of an [`Nfa`] toward a per-shard STE budget and
//! extracts each shard as a standalone sub-automaton. Because shards are
//! unions of whole components, running every shard over the same input
//! and merging the report traces is observably identical to running the
//! monolithic automaton (see `sunder-sim`'s `ShardedEngine`, which is
//! locked to that property by the conformance oracle).
//!
//! Determinism: components are packed first-fit in decreasing size order
//! (ties broken by lowest member id), so the same automaton and options
//! always produce the same plan.

use crate::error::AutomataError;
use crate::graph::{connected_components, extract_subautomaton};
use crate::nfa::{Nfa, StateId};

/// Default per-shard STE budget: one 256×256 subarray, one STE per column.
pub const DEFAULT_STE_BUDGET: usize = 256;

/// What to do with a connected component larger than the STE budget.
///
/// Components are never split across shards — a shard must be executable
/// on its own, and cut transitions would break that — so an oversized
/// component either fails the plan or gets a dedicated over-budget shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OversizePolicy {
    /// Reject the automaton with [`AutomataError::Capacity`]. This is the
    /// hardware-faithful behavior: a component that does not fit in a
    /// subarray cannot be placed.
    #[default]
    Error,
    /// Give the component its own shard, flagged
    /// [`Shard::oversized`]. Software execution does not share the
    /// hardware capacity limit, so this keeps batch services running on
    /// pathological rule sets while still surfacing the violation.
    Dedicate,
}

/// Options controlling [`partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Maximum STEs per shard (default [`DEFAULT_STE_BUDGET`]).
    pub ste_budget: usize,
    /// Policy for components exceeding the budget.
    pub oversize: OversizePolicy,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            ste_budget: DEFAULT_STE_BUDGET,
            oversize: OversizePolicy::Error,
        }
    }
}

impl PartitionOptions {
    /// Options with an explicit budget and the default [`OversizePolicy`].
    pub fn with_budget(ste_budget: usize) -> Self {
        PartitionOptions {
            ste_budget,
            ..PartitionOptions::default()
        }
    }
}

/// One shard: a union of whole connected components, extracted as a
/// standalone automaton.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Original state ids of the shard's members, ascending. Local state
    /// `StateId(i)` of [`Shard::nfa`] corresponds to `members[i]`.
    pub members: Vec<StateId>,
    /// The extracted sub-automaton (same symbol width, stride, and start
    /// period as the source).
    pub nfa: Nfa,
    /// `true` when the shard holds a single component that exceeded the
    /// STE budget under [`OversizePolicy::Dedicate`].
    pub oversized: bool,
}

impl Shard {
    /// Number of STEs in this shard.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the shard holds no states.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Maps a shard-local state id back to the original automaton.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for this shard.
    pub fn to_original(&self, local: StateId) -> StateId {
        self.members[local.index()]
    }
}

/// A complete partitioning of an automaton into executable shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The shards, in packing order. Every original state appears in
    /// exactly one shard.
    pub shards: Vec<Shard>,
    /// The budget the plan was packed toward.
    pub ste_budget: usize,
    /// Total states in the source automaton.
    pub total_states: usize,
}

impl ShardPlan {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Largest shard size in STEs.
    pub fn max_shard_states(&self) -> usize {
        self.shards.iter().map(Shard::len).max().unwrap_or(0)
    }

    /// Verifies the exact-cover invariant: every state of `nfa` appears
    /// in exactly one shard, and shard members match their extracted
    /// automata. Used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] naming the first state
    /// covered zero or multiple times.
    pub fn validate_cover(&self, nfa: &Nfa) -> Result<(), AutomataError> {
        let n = nfa.num_states();
        let mut seen = vec![0usize; n];
        for shard in &self.shards {
            debug_assert_eq!(shard.members.len(), shard.nfa.num_states());
            for &m in &shard.members {
                if m.index() >= n {
                    return Err(AutomataError::InvalidState {
                        index: m.0,
                        len: n as u32,
                    });
                }
                seen[m.index()] += 1;
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(AutomataError::InvalidState {
                    index: i as u32,
                    len: n as u32,
                });
            }
        }
        Ok(())
    }
}

/// Connected components in deterministic packing order: decreasing size,
/// ties broken by the smallest member id (components are produced with
/// sorted members, so `members[0]` is the minimum).
fn ordered_components(nfa: &Nfa) -> Vec<Vec<StateId>> {
    let mut comps = connected_components(nfa);
    comps.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    comps
}

fn build_shard(nfa: &Nfa, mut members: Vec<StateId>, oversized: bool) -> Shard {
    members.sort_unstable();
    let sub = extract_subautomaton(nfa, &members);
    Shard {
        members,
        nfa: sub,
        oversized,
    }
}

/// Partitions `nfa` into shards of at most `opts.ste_budget` STEs using
/// first-fit-decreasing bin packing over whole connected components.
///
/// An empty automaton yields an empty plan. The result satisfies
/// [`ShardPlan::validate_cover`] by construction.
///
/// # Errors
///
/// Returns [`AutomataError::Capacity`] when a component exceeds the
/// budget under [`OversizePolicy::Error`], and propagates
/// [`AutomataError::InvalidState`] from malformed automata.
pub fn partition(nfa: &Nfa, opts: &PartitionOptions) -> Result<ShardPlan, AutomataError> {
    let budget = opts.ste_budget.max(1);
    let mut bins: Vec<Vec<StateId>> = Vec::new();
    let mut oversized_bins: Vec<Vec<StateId>> = Vec::new();
    for comp in ordered_components(nfa) {
        if comp.len() > budget {
            match opts.oversize {
                OversizePolicy::Error => {
                    return Err(AutomataError::Capacity {
                        needed: comp.len(),
                        budget,
                    });
                }
                OversizePolicy::Dedicate => {
                    oversized_bins.push(comp);
                    continue;
                }
            }
        }
        // First fit: the earliest bin with room. Components arrive in
        // decreasing size order, so this is classic FFD.
        match bins.iter_mut().find(|bin| bin.len() + comp.len() <= budget) {
            Some(bin) => bin.extend(comp),
            None => bins.push(comp),
        }
    }
    let shards = bins
        .into_iter()
        .map(|members| build_shard(nfa, members, false))
        .chain(
            oversized_bins
                .into_iter()
                .map(|members| build_shard(nfa, members, true)),
        )
        .collect();
    let plan = ShardPlan {
        shards,
        ste_budget: budget,
        total_states: nfa.num_states(),
    };
    debug_assert!(plan.validate_cover(nfa).is_ok());
    Ok(plan)
}

/// Partitions `nfa` into at most `max_shards` shards, balancing STE
/// counts with greedy longest-processing-time scheduling (each component,
/// largest first, goes to the currently smallest shard).
///
/// This is the count-driven form used by throughput sweeps ("run this
/// automaton as 4 shards"); [`partition`] is the capacity-driven form
/// modeling subarray budgets. Yields `min(max_shards, components)`
/// shards; an empty automaton yields an empty plan.
///
/// # Errors
///
/// Returns [`AutomataError::Capacity`] when `max_shards` is zero and the
/// automaton is non-empty.
pub fn partition_into(nfa: &Nfa, max_shards: usize) -> Result<ShardPlan, AutomataError> {
    let comps = ordered_components(nfa);
    if max_shards == 0 && !comps.is_empty() {
        return Err(AutomataError::Capacity {
            needed: nfa.num_states(),
            budget: 0,
        });
    }
    let mut bins: Vec<Vec<StateId>> = Vec::new();
    for comp in comps {
        if bins.len() < max_shards {
            bins.push(comp);
            continue;
        }
        let smallest = bins
            .iter_mut()
            .min_by_key(|bin| bin.len())
            .expect("max_shards > 0 implies at least one bin");
        smallest.extend(comp);
    }
    let ste_budget = bins.iter().map(Vec::len).max().unwrap_or(0).max(1);
    let shards = bins
        .into_iter()
        .map(|members| build_shard(nfa, members, false))
        .collect();
    let plan = ShardPlan {
        shards,
        ste_budget,
        total_states: nfa.num_states(),
    };
    debug_assert!(plan.validate_cover(nfa).is_ok());
    Ok(plan)
}

/// How an automaton is split into shards. One value names the sharding
/// of a compiled pipeline everywhere: the compile step, the pipeline key
/// and the `.sdb` metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Balance into at most this many shards ([`partition_into`]).
    MaxShards(usize),
    /// Pack toward a per-shard STE budget ([`partition`]).
    Budget(PartitionOptions),
}

impl ShardSpec {
    /// Partitions `nfa` under this spec.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures.
    pub fn plan(self, nfa: &Nfa) -> Result<ShardPlan, AutomataError> {
        match self {
            ShardSpec::MaxShards(k) => partition_into(nfa, k),
            ShardSpec::Budget(opts) => partition(nfa, &opts),
        }
    }

    /// Stable text folded into the pipeline key.
    pub fn key_text(self) -> String {
        match self {
            ShardSpec::MaxShards(k) => format!("max-shards={k}"),
            ShardSpec::Budget(o) => format!("budget={} policy={:?}", o.ste_budget, o.oversize),
        }
    }

    /// The `(spec_tag, spec_value, oversize_tag)` triple a compiled
    /// database stores.
    pub fn tags(self) -> (u64, u64, u64) {
        match self {
            ShardSpec::MaxShards(k) => (0, k as u64, 0),
            ShardSpec::Budget(o) => (
                1,
                o.ste_budget as u64,
                match o.oversize {
                    OversizePolicy::Error => 0,
                    OversizePolicy::Dedicate => 1,
                },
            ),
        }
    }

    /// Reconstructs a spec from stored tags; `None` for any out-of-range
    /// tag or value.
    pub fn from_tags(spec_tag: u64, spec_value: u64, oversize_tag: u64) -> Option<ShardSpec> {
        let value = usize::try_from(spec_value).ok()?;
        let budget = |oversize| {
            Some(ShardSpec::Budget(PartitionOptions {
                ste_budget: value,
                oversize,
            }))
        };
        match (spec_tag, oversize_tag) {
            (0, 0) => Some(ShardSpec::MaxShards(value)),
            (1, 0) => budget(OversizePolicy::Error),
            (1, 1) => budget(OversizePolicy::Dedicate),
            _ => None,
        }
    }

    /// The spec itself. Kept only because the `benchmark/` package still
    /// calls it; nothing in the workspace does.
    #[doc(hidden)]
    pub fn params(self) -> ShardSpec {
        self
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{StartKind, Ste};
    use crate::symbol::SymbolSet;

    /// A chain of singleton-charset states; the last one reports.
    fn add_chain(nfa: &mut Nfa, syms: &[u8], report: u32) -> Vec<StateId> {
        let mut ids = Vec::new();
        for (i, &c) in syms.iter().enumerate() {
            let mut ste = Ste::new(SymbolSet::singleton(8, u16::from(c)));
            if i == 0 {
                ste = ste.start(StartKind::AllInput);
            }
            if i == syms.len() - 1 {
                ste = ste.report(report);
            }
            ids.push(nfa.add_state(ste));
        }
        for w in ids.windows(2) {
            nfa.add_edge(w[0], w[1]);
        }
        ids
    }

    #[test]
    fn empty_nfa_yields_empty_plan() {
        let nfa = Nfa::new(8);
        let plan = partition(&nfa, &PartitionOptions::default()).unwrap();
        assert_eq!(plan.num_shards(), 0);
        assert_eq!(plan.max_shard_states(), 0);
        plan.validate_cover(&nfa).unwrap();
        let plan = partition_into(&nfa, 4).unwrap();
        assert_eq!(plan.num_shards(), 0);
        // Zero shards is only an error when there are states to place.
        partition_into(&nfa, 0).unwrap();
    }

    #[test]
    fn oversized_component_errors_deterministically() {
        let mut nfa = Nfa::new(8);
        add_chain(&mut nfa, b"abcdef", 0);
        let opts = PartitionOptions::with_budget(4);
        let err = partition(&nfa, &opts).unwrap_err();
        assert_eq!(
            err,
            AutomataError::Capacity {
                needed: 6,
                budget: 4
            }
        );
        // Same input, same error, every time.
        assert_eq!(partition(&nfa, &opts).unwrap_err(), err);
        assert!(err.to_string().contains("6"), "{err}");
    }

    #[test]
    fn oversized_component_dedicates_under_policy() {
        let mut nfa = Nfa::new(8);
        add_chain(&mut nfa, b"abcdef", 0);
        add_chain(&mut nfa, b"xy", 1);
        let opts = PartitionOptions {
            ste_budget: 4,
            oversize: OversizePolicy::Dedicate,
        };
        let plan = partition(&nfa, &opts).unwrap();
        plan.validate_cover(&nfa).unwrap();
        assert_eq!(plan.num_shards(), 2);
        let oversized: Vec<_> = plan.shards.iter().filter(|s| s.oversized).collect();
        assert_eq!(oversized.len(), 1);
        assert_eq!(oversized[0].len(), 6);
    }

    #[test]
    fn report_only_states_are_their_own_components() {
        // Isolated reporting STEs (no edges at all) must each land in
        // exactly one shard and survive extraction with reports intact.
        let mut nfa = Nfa::new(8);
        let a = nfa.add_state(Ste::new(SymbolSet::singleton(8, 1)).report(7));
        let b = nfa.add_state(Ste::new(SymbolSet::singleton(8, 2)).report(8));
        let plan = partition(&nfa, &PartitionOptions::with_budget(1)).unwrap();
        plan.validate_cover(&nfa).unwrap();
        assert_eq!(plan.num_shards(), 2);
        for shard in &plan.shards {
            assert_eq!(shard.nfa.num_states(), 1);
            assert!(shard.nfa.state(StateId(0)).is_reporting());
        }
        let covered: Vec<_> = plan
            .shards
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect();
        assert!(covered.contains(&a) && covered.contains(&b));
    }

    #[test]
    fn self_loop_start_states_survive_extraction() {
        let mut nfa = Nfa::new(8);
        let s = nfa.add_state(
            Ste::new(SymbolSet::singleton(8, b'a' as u16))
                .start(StartKind::StartOfData)
                .report(0),
        );
        nfa.add_edge(s, s);
        add_chain(&mut nfa, b"zz", 1);
        let plan = partition(&nfa, &PartitionOptions::with_budget(2)).unwrap();
        plan.validate_cover(&nfa).unwrap();
        let shard = plan
            .shards
            .iter()
            .find(|sh| sh.members.contains(&s))
            .expect("self-loop state must be covered");
        let local = StateId(shard.members.iter().position(|&m| m == s).unwrap() as u32);
        assert_eq!(shard.nfa.successors(local), &[local], "self-loop kept");
        assert_eq!(shard.nfa.state(local).start_kind(), StartKind::StartOfData);
    }

    #[test]
    fn union_covers_every_ste_exactly_once() {
        let mut nfa = Nfa::new(8);
        for (i, pat) in [b"abc".as_slice(), b"de", b"fghi", b"j", b"klm"]
            .iter()
            .enumerate()
        {
            add_chain(&mut nfa, pat, i as u32);
        }
        for budget in 1..=nfa.num_states() + 1 {
            let plan = partition(
                &nfa,
                &PartitionOptions {
                    ste_budget: budget,
                    oversize: OversizePolicy::Dedicate,
                },
            )
            .unwrap();
            plan.validate_cover(&nfa).unwrap();
            let total: usize = plan.shards.iter().map(Shard::len).sum();
            assert_eq!(total, nfa.num_states(), "budget {budget}");
        }
        for k in 1..=8 {
            let plan = partition_into(&nfa, k).unwrap();
            plan.validate_cover(&nfa).unwrap();
            assert!(plan.num_shards() <= k);
            assert_eq!(plan.num_shards(), k.min(5));
        }
    }

    #[test]
    fn packing_is_deterministic_and_respects_budget() {
        let mut nfa = Nfa::new(8);
        for (i, pat) in [b"abcd".as_slice(), b"ef", b"ghj", b"k", b"lmnop"]
            .iter()
            .enumerate()
        {
            add_chain(&mut nfa, pat, i as u32);
        }
        let opts = PartitionOptions::with_budget(5);
        let a = partition(&nfa, &opts).unwrap();
        let b = partition(&nfa, &opts).unwrap();
        let sizes = |p: &ShardPlan| {
            p.shards
                .iter()
                .map(|s| s.members.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&a), sizes(&b));
        for shard in &a.shards {
            assert!(shard.len() <= 5);
        }
        // FFD: the 5-chain and 4-chain each anchor a bin; small ones fill in.
        assert_eq!(a.num_shards(), 3);
    }

    #[test]
    fn spec_tags_round_trip() {
        let specs = [
            ShardSpec::MaxShards(0),
            ShardSpec::MaxShards(7),
            ShardSpec::Budget(PartitionOptions {
                ste_budget: 256,
                oversize: OversizePolicy::Error,
            }),
            ShardSpec::Budget(PartitionOptions {
                ste_budget: 1,
                oversize: OversizePolicy::Dedicate,
            }),
        ];
        for spec in specs {
            let (t, v, o) = spec.tags();
            assert_eq!(ShardSpec::from_tags(t, v, o), Some(spec));
        }
        assert_eq!(ShardSpec::from_tags(2, 0, 0), None);
        assert_eq!(ShardSpec::from_tags(0, 1, 1), None);
        assert_eq!(ShardSpec::from_tags(1, 1, 2), None);
    }

    #[test]
    fn validate_cover_rejects_double_cover() {
        let mut nfa = Nfa::new(8);
        add_chain(&mut nfa, b"ab", 0);
        let mut plan = partition(&nfa, &PartitionOptions::default()).unwrap();
        let dup = plan.shards[0].clone();
        plan.shards.push(dup);
        assert!(plan.validate_cover(&nfa).is_err());
    }
}
