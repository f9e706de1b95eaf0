//! Graph utilities over the automaton transition structure.
//!
//! Placement onto processing units, pruning, and the workload statistics all
//! view the automaton as a directed graph; this module collects the shared
//! algorithms.

use crate::nfa::{Nfa, StartKind, StateId};

/// Weakly connected components of the transition graph.
///
/// Each component is a sorted list of state ids. Multi-pattern rule sets
/// decompose into one component per independent pattern, which is the unit
/// the hardware mapper bin-packs into processing units.
pub fn connected_components(nfa: &Nfa) -> Vec<Vec<StateId>> {
    let n = nfa.num_states();
    let mut comp = vec![usize::MAX; n];
    let pred = nfa.predecessors();
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let cid = components.len();
        let mut members = Vec::new();
        stack.push(start);
        comp[start] = cid;
        while let Some(v) = stack.pop() {
            members.push(StateId(v as u32));
            for &t in nfa.successors(StateId(v as u32)) {
                if comp[t.index()] == usize::MAX {
                    comp[t.index()] = cid;
                    stack.push(t.index());
                }
            }
            for &p in &pred[v] {
                if comp[p.index()] == usize::MAX {
                    comp[p.index()] = cid;
                    stack.push(p.index());
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// States reachable from any start state by following transitions.
pub fn reachable_from_starts(nfa: &Nfa) -> Vec<bool> {
    let n = nfa.num_states();
    let mut seen = vec![false; n];
    let mut stack: Vec<StateId> = nfa.start_states();
    for s in &stack {
        seen[s.index()] = true;
    }
    while let Some(v) = stack.pop() {
        for &t in nfa.successors(v) {
            if !seen[t.index()] {
                seen[t.index()] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// States from which some reporting state is reachable (including reporting
/// states themselves).
pub fn can_reach_report(nfa: &Nfa) -> Vec<bool> {
    can_reach_report_with(nfa, &nfa.predecessors())
}

/// [`can_reach_report`] over predecessor lists the caller already built.
fn can_reach_report_with(nfa: &Nfa, pred: &[Vec<StateId>]) -> Vec<bool> {
    let n = nfa.num_states();
    let mut useful = vec![false; n];
    let mut stack: Vec<StateId> = nfa.report_states();
    for s in &stack {
        useful[s.index()] = true;
    }
    while let Some(v) = stack.pop() {
        for &p in &pred[v.index()] {
            if !useful[p.index()] {
                useful[p.index()] = true;
                stack.push(p);
            }
        }
    }
    useful
}

/// Removes states that are unreachable from the starts or cannot contribute
/// to a report. Returns the number of states removed.
///
/// Transformations can leave such dead states behind; hardware capacity is
/// too precious to configure them (cf. Liu et al. (MICRO '18) in the paper, who
/// exploit the same observation dynamically).
pub fn prune_useless(nfa: &mut Nfa) -> usize {
    let reach = reachable_from_starts(nfa);
    let useful = can_reach_report(nfa);
    let keep: Vec<bool> = reach.iter().zip(&useful).map(|(&r, &u)| r && u).collect();
    let removed = keep.iter().filter(|&&k| !k).count();
    if removed > 0 {
        nfa.retain_states(&keep);
    }
    removed
}

/// Removes the states whose only effect is to enable [`AllInput`] starts
/// on cycles where the start enable fires anyway — the always-on `.*`
/// head of an unanchored pattern, whose successor is already a start (the
/// Glushkov form of `.*lit`). Returns the number of states removed.
///
/// The removed set H is the largest set of states that each
/// * carry no report and can reach one;
/// * have every predecessor in H;
/// * leave H only through edges into [`AllInput`] starts, on a cycle the
///   start period enables.
///
/// Phases are taken modulo [`Nfa::start_period`]: a start member is active
/// at phase 0 and each edge adds one, so a member with phase set Φ may
/// leave H only when Φ + 1 ⊆ {0}. Φ is computed once over the initial
/// candidates, a superset of H, so it covers every phase a member of H can
/// be active in. Deleting H therefore only drops enables that the start
/// enable supplies on the same cycle: reports are unchanged for every
/// engine and configuration. The nibble-mode hi→lo→hi ring of a
/// transformed `.*` (period 2) goes as one unit.
///
/// Dead states (no report reachable) are left to [`prune_useless`], and a
/// mid-pattern `.*` (as in `a.*b`) stays: its successor is not a start.
///
/// [`AllInput`]: StartKind::AllInput
pub fn drop_start_subsumed(nfa: &mut Nfa) -> usize {
    let n = nfa.num_states();
    let period = nfa.start_period() as usize;
    if period > 64 {
        // Phase sets are one u64 of bits; no transform produces a longer
        // period.
        return 0;
    }
    let pred = nfa.predecessors();
    let live = can_reach_report_with(nfa, &pred);
    let mut member: Vec<bool> = nfa
        .states()
        .map(|(id, s)| live[id.index()] && !s.is_reporting())
        .collect();

    // Phase sets over the candidates, bit `p` for phase `p`.
    let all = u64::MAX >> (64 - period);
    let advance = |m: u64| ((m << 1) | (m >> (period - 1))) & all;
    let mut phases = vec![0u64; n];
    let mut stack: Vec<StateId> = nfa
        .start_states()
        .into_iter()
        .filter(|s| member[s.index()])
        .collect();
    for s in &stack {
        phases[s.index()] = 1;
    }
    while let Some(v) = stack.pop() {
        let next = advance(phases[v.index()]);
        for &t in nfa.successors(v) {
            let p = &mut phases[t.index()];
            if member[t.index()] && *p | next != *p {
                *p |= next;
                stack.push(t);
            }
        }
    }
    // A member may leave the set along `from → to` only into an `AllInput`
    // start, and only if every phase `from` is active in is followed by an
    // aligned cycle.
    let may_exit = |from: StateId, to: StateId| {
        nfa.state(to).start_kind() == StartKind::AllInput
            && phases[from.index()] & !(1u64 << (period - 1)) == 0
    };

    // Shrink to the largest set satisfying the rules: evict violators, and
    // re-examine the neighbours an eviction can invalidate.
    let mut evict: Vec<StateId> = nfa
        .states()
        .map(|(id, _)| id)
        .filter(|&v| {
            member[v.index()]
                && (pred[v.index()].iter().any(|p| !member[p.index()])
                    || nfa
                        .successors(v)
                        .iter()
                        .any(|&t| !(member[t.index()] || may_exit(v, t))))
        })
        .collect();
    while let Some(v) = evict.pop() {
        if !std::mem::replace(&mut member[v.index()], false) {
            continue;
        }
        evict.extend(
            nfa.successors(v)
                .iter()
                .filter(|t| member[t.index()])
                .copied(),
        );
        evict.extend(
            pred[v.index()]
                .iter()
                .filter(|&&p| member[p.index()] && !may_exit(p, v))
                .copied(),
        );
    }

    let removed = member.iter().filter(|&&m| m).count();
    if removed > 0 {
        let keep: Vec<bool> = member.iter().map(|&m| !m).collect();
        nfa.retain_states(&keep);
    }
    removed
}

/// Extracts the sub-automaton induced by `members`, remapping ids densely.
///
/// States outside `members` are dropped along with any edges touching them.
/// Returned ids follow the order of `members`.
pub fn extract_subautomaton(nfa: &Nfa, members: &[StateId]) -> Nfa {
    let mut map = vec![None; nfa.num_states()];
    for (new, old) in members.iter().enumerate() {
        map[old.index()] = Some(StateId(new as u32));
    }
    let mut out = Nfa::with_stride(nfa.symbol_bits(), nfa.stride());
    out.set_start_period(nfa.start_period());
    for &old in members {
        out.add_state(nfa.state(old).clone());
    }
    for &old in members {
        let from = map[old.index()].expect("member must be mapped");
        for &t in nfa.successors(old) {
            if let Some(to) = map[t.index()] {
                out.add_edge(from, to);
            }
        }
    }
    out
}

/// Breadth-first layering from the start states; states unreachable from a
/// start get layer `usize::MAX`.
///
/// Used by the placement heuristics to split oversized components along
/// "time" layers, which minimizes the number of cut transitions for the
/// chain-like automata that dominate pattern-matching rule sets.
pub fn bfs_layers(nfa: &Nfa) -> Vec<usize> {
    let n = nfa.num_states();
    let mut layer = vec![usize::MAX; n];
    let mut frontier: Vec<StateId> = nfa.start_states();
    for s in &frontier {
        layer[s.index()] = 0;
    }
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for v in frontier.drain(..) {
            for &t in nfa.successors(v) {
                if layer[t.index()] == usize::MAX {
                    layer[t.index()] = depth;
                    next.push(t);
                }
            }
        }
        frontier = next;
    }
    layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{ReportInfo, Ste};
    use crate::symbol::SymbolSet;

    fn chain(nfa: &mut Nfa, syms: &[u8], report: u32) -> Vec<StateId> {
        let mut ids = Vec::new();
        for (i, &c) in syms.iter().enumerate() {
            let mut ste = Ste::new(SymbolSet::singleton(8, c as u16));
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
    fn components_of_two_chains() {
        let mut nfa = Nfa::new(8);
        chain(&mut nfa, b"abc", 0);
        chain(&mut nfa, b"xy", 1);
        let comps = connected_components(&nfa);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn components_follow_reverse_edges() {
        // a → c ← b : one component even though no path a→b.
        let mut nfa = Nfa::new(8);
        let a = nfa.add_state(Ste::new(SymbolSet::singleton(8, 1)));
        let b = nfa.add_state(Ste::new(SymbolSet::singleton(8, 2)));
        let c = nfa.add_state(Ste::new(SymbolSet::singleton(8, 3)));
        nfa.add_edge(a, c);
        nfa.add_edge(b, c);
        assert_eq!(connected_components(&nfa).len(), 1);
    }

    #[test]
    fn prune_removes_dead_states() {
        let mut nfa = Nfa::new(8);
        let ids = chain(&mut nfa, b"ab", 0);
        // Orphan state: unreachable and reportless.
        nfa.add_state(Ste::new(SymbolSet::singleton(8, 99)));
        // Reachable but cannot reach a report.
        let dead_end = nfa.add_state(Ste::new(SymbolSet::singleton(8, 98)));
        nfa.add_edge(ids[1], dead_end);
        let removed = prune_useless(&mut nfa);
        assert_eq!(removed, 2);
        assert_eq!(nfa.num_states(), 2);
        assert!(nfa.validate().is_ok());
    }

    /// A full-charset, self-looping `AllInput` state: a `.*` head.
    fn dotstar_head(nfa: &mut Nfa, bits: u8) -> StateId {
        let head = nfa.add_state(Ste::new(SymbolSet::full(bits)).start(StartKind::AllInput));
        nfa.add_edge(head, head);
        head
    }

    #[test]
    fn drops_the_head_of_an_unanchored_dotstar() {
        let mut nfa = crate::regex::compile_regex(".*ab", 0).unwrap();
        assert_eq!(nfa.num_states(), 3);
        assert_eq!(drop_start_subsumed(&mut nfa), 1);
        assert_eq!(nfa.num_states(), 2);
        assert_eq!(nfa.num_transitions(), 1);
        let a = nfa.state(StateId(0));
        assert_eq!(a.charset(), &SymbolSet::singleton(8, u16::from(b'a')));
        assert_eq!(a.start_kind(), StartKind::AllInput);
        assert!(nfa.validate().is_ok());
    }

    #[test]
    fn drops_the_nibble_ring_of_a_dotstar() {
        // `.*ab` in nibble mode: the head is a hi→lo→hi ring over full
        // nibbles; starts are enabled on even (byte-aligned) cycles only.
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        let hi = nfa.add_state(Ste::new(SymbolSet::full(4)).start(StartKind::AllInput));
        let lo = nfa.add_state(Ste::new(SymbolSet::full(4)));
        nfa.add_edge(hi, lo);
        nfa.add_edge(lo, hi);
        let mut prev = lo;
        for (i, nib) in [6u16, 1, 6, 2].into_iter().enumerate() {
            let mut ste = Ste::new(SymbolSet::singleton(4, nib));
            if i == 0 {
                ste = ste.start(StartKind::AllInput);
            }
            if i == 3 {
                ste = ste.report(0);
            }
            let s = nfa.add_state(ste);
            nfa.add_edge(prev, s);
            prev = s;
        }
        assert_eq!(drop_start_subsumed(&mut nfa), 2);
        assert_eq!(nfa.num_states(), 4);
        assert_eq!(nfa.state(StateId(0)).start_kind(), StartKind::AllInput);
    }

    #[test]
    fn keeps_a_mid_pattern_dotstar() {
        let mut nfa = crate::regex::compile_regex("a.*b", 0).unwrap();
        let before = nfa.clone();
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa, before);
    }

    #[test]
    fn keeps_a_reporting_dotstar() {
        let mut nfa = Nfa::new(8);
        let head = dotstar_head(&mut nfa, 8);
        nfa.state_mut(head).add_report(ReportInfo::new(1));
        let ids = chain(&mut nfa, b"ab", 0);
        nfa.add_edge(head, ids[0]);
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa.num_states(), 3);
    }

    #[test]
    fn keeps_a_dotstar_whose_exit_misses_the_start_phase() {
        // One self-looping state at period 2 is active on odd cycles too,
        // so it enables the start on cycles the start enable skips.
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        let head = dotstar_head(&mut nfa, 4);
        let a = nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 3))
                .start(StartKind::AllInput)
                .report(0),
        );
        nfa.add_edge(head, a);
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa.num_states(), 2);
    }

    #[test]
    fn keeps_a_state_entered_from_outside_the_set() {
        // `h` looks like a head (reportless, exits only into a start), but
        // the reporting `x1` enables it on even cycles, so its exit lands
        // on odd ones, which the period-2 start enable skips.
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        let x0 = nfa.add_state(Ste::new(SymbolSet::singleton(4, 1)).start(StartKind::AllInput));
        let x1 = nfa.add_state(Ste::new(SymbolSet::singleton(4, 2)).report(0));
        let h = nfa.add_state(Ste::new(SymbolSet::full(4)));
        let s = nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 3))
                .start(StartKind::AllInput)
                .report(1),
        );
        nfa.add_edge(x0, x1);
        nfa.add_edge(x1, h);
        nfa.add_edge(h, s);
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa.num_states(), 4);
    }

    #[test]
    fn keeps_a_dotstar_feeding_a_start_of_data_state() {
        let mut nfa = Nfa::new(8);
        let head = dotstar_head(&mut nfa, 8);
        let ids = chain(&mut nfa, b"ab", 0);
        nfa.state_mut(ids[0]).set_start_kind(StartKind::StartOfData);
        nfa.add_edge(head, ids[0]);
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa.num_states(), 3);
    }

    #[test]
    fn leaves_a_dead_reportless_chain_alone() {
        let mut nfa = Nfa::new(8);
        chain(&mut nfa, b"ab", 0);
        let head = dotstar_head(&mut nfa, 8);
        let tail = chain(&mut nfa, b"xy", 0);
        nfa.state_mut(tail[1]).clear_reports();
        nfa.add_edge(head, tail[0]);
        let before = nfa.clone();
        assert_eq!(drop_start_subsumed(&mut nfa), 0);
        assert_eq!(nfa, before);
    }

    #[test]
    fn extract_preserves_internal_edges() {
        let mut nfa = Nfa::new(8);
        let ids = chain(&mut nfa, b"abcd", 0);
        let sub = extract_subautomaton(&nfa, &ids[1..3]);
        assert_eq!(sub.num_states(), 2);
        assert_eq!(sub.num_transitions(), 1);
        assert_eq!(sub.successors(StateId(0)), &[StateId(1)]);
    }

    #[test]
    fn bfs_layers_count_depth() {
        let mut nfa = Nfa::new(8);
        let ids = chain(&mut nfa, b"abc", 0);
        let layers = bfs_layers(&nfa);
        assert_eq!(layers[ids[0].index()], 0);
        assert_eq!(layers[ids[1].index()], 1);
        assert_eq!(layers[ids[2].index()], 2);
    }

    #[test]
    fn reachability_and_usefulness() {
        let mut nfa = Nfa::new(8);
        let ids = chain(&mut nfa, b"ab", 3);
        let orphan = nfa.add_state(Ste::new(SymbolSet::singleton(8, 9)).report(4));
        let reach = reachable_from_starts(&nfa);
        assert!(reach[ids[0].index()] && reach[ids[1].index()]);
        assert!(!reach[orphan.index()]);
        let useful = can_reach_report(&nfa);
        assert!(useful[ids[0].index()]);
        assert!(useful[orphan.index()]); // it reports, even if unreachable
    }
}
