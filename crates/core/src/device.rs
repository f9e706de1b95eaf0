//! Capacity-limited devices and reconfiguration rounds.
//!
//! A real Sunder deployment has a fixed number of processing units (the
//! repurposed LLC ways hold only so many subarrays). When an application
//! does not fit, "either more hardware units or multiple rounds of
//! reconfigurations are required" (paper, Section 1): the rule set is
//! split into resident subsets and the input is streamed once per round.
//! This is exactly the pressure that makes the *processing rate* a real
//! trade-off — a higher rate costs more states (Table 3), which can tip a
//! large application into an extra round and cost more than the rate
//! gains (Section 5.1.1).

use sunder_arch::placement::place;
use sunder_automata::graph::{connected_components, extract_subautomaton};
use sunder_automata::stats::StaticStats;
use sunder_automata::Nfa;

use crate::{CoreError, Engine, Outcome, Program};

/// A device with a bounded number of processing units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceModel {
    /// Processing units available (256 states each).
    pub pus: usize,
    /// Cycles to reconfigure one PU between rounds (writing 256 matching
    /// rows and 256 crossbar rows through Port 1).
    pub reconfig_cycles_per_pu: u64,
}

impl DeviceModel {
    /// A device with `pus` processing units and the default
    /// reconfiguration cost.
    pub fn with_pus(pus: usize) -> Self {
        assert!(pus >= 1, "a device needs at least one PU");
        DeviceModel {
            pus,
            reconfig_cycles_per_pu: 512,
        }
    }

    /// Resident state capacity (256 states per PU upper bound).
    pub fn state_capacity(&self) -> usize {
        self.pus * 256
    }
}

/// A program split into device-resident rounds.
#[derive(Debug)]
pub struct RoundPlan {
    rounds: Vec<Program>,
    device: DeviceModel,
}

impl RoundPlan {
    /// Number of rounds (input passes) required.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The per-round programs.
    pub fn programs(&self) -> &[Program] {
        &self.rounds
    }

    /// The device this plan targets.
    pub fn device(&self) -> DeviceModel {
        self.device
    }
}

/// Result of a multi-round execution.
#[derive(Debug, Clone)]
pub struct RoundsOutcome {
    /// Merged rule-level outcome (reports summed, matched rules unioned).
    pub merged: Outcome,
    /// Total cycles including every round's kernel, stalls, and the
    /// reconfiguration between rounds.
    pub total_cycles: u64,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Cycles spent reconfiguring.
    pub reconfig_cycles: u64,
}

impl Engine {
    /// Splits a compiled program into rounds that each fit the device.
    ///
    /// Connected components are the placement unit (a component split
    /// across rounds would lose transitions); they are packed greedily in
    /// order, validating each accumulation with a real placement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DeviceTooSmall`] if any single component alone
    /// exceeds the device, and placement errors for degenerate programs.
    pub fn plan_rounds(
        &self,
        program: &Program,
        device: DeviceModel,
    ) -> Result<RoundPlan, CoreError> {
        let nfa = program.automaton();
        let full = place(nfa, self.config())?;
        if full.pus.len() <= device.pus {
            return Ok(RoundPlan {
                rounds: vec![program.clone()],
                device,
            });
        }

        let pus_needed = |members: &[sunder_automata::StateId]| -> Result<usize, CoreError> {
            let sub = extract_subautomaton(nfa, members);
            Ok(place(&sub, self.config())?.pus.len())
        };

        let components = connected_components(nfa);
        let mut rounds = Vec::new();
        let mut current: Vec<sunder_automata::StateId> = Vec::new();
        for comp in components {
            let mut candidate = current.clone();
            candidate.extend_from_slice(&comp);
            if pus_needed(&candidate)? <= device.pus {
                current = candidate;
                continue;
            }
            if current.is_empty() {
                // A single component that alone exceeds the device.
                return Err(CoreError::DeviceTooSmall {
                    needed_pus: pus_needed(&comp)?,
                    device_pus: device.pus,
                });
            }
            rounds.push(self.round_program(nfa, &current));
            let demand = pus_needed(&comp)?;
            if demand > device.pus {
                return Err(CoreError::DeviceTooSmall {
                    needed_pus: demand,
                    device_pus: device.pus,
                });
            }
            current = comp;
        }
        if !current.is_empty() {
            rounds.push(self.round_program(nfa, &current));
        }
        Ok(RoundPlan { rounds, device })
    }

    fn round_program(&self, nfa: &Nfa, members: &[sunder_automata::StateId]) -> Program {
        let sub = extract_subautomaton(nfa, members);
        Program {
            rate: self.config().rate,
            source_stats: StaticStats::of(&sub),
            strided_stats: StaticStats::of(&sub),
            strided: sub,
        }
    }

    /// Executes every round over the input and merges the results,
    /// charging the reconfiguration cost between rounds.
    ///
    /// # Errors
    ///
    /// Propagates placement and input errors from the individual rounds.
    pub fn run_rounds(&self, plan: &RoundPlan, input: &[u8]) -> Result<RoundsOutcome, CoreError> {
        let mut merged: Option<Outcome> = None;
        let mut total_cycles = 0u64;
        let mut reconfig_cycles = 0u64;
        for (i, program) in plan.programs().iter().enumerate() {
            let mut session = self.load(program)?;
            let outcome = session.run(input)?;
            total_cycles += outcome.stats.total_cycles();
            if i > 0 {
                let pus = session.machine().num_pus() as u64;
                let cost = pus * plan.device().reconfig_cycles_per_pu;
                reconfig_cycles += cost;
                total_cycles += cost;
            }
            merged = Some(match merged.take() {
                None => outcome,
                Some(mut acc) => {
                    acc.reports += outcome.reports;
                    acc.report_cycles += outcome.report_cycles;
                    acc.matched_rules.extend(outcome.matched_rules);
                    acc.stats.stall_cycles += outcome.stats.stall_cycles;
                    acc.stats.flushes += outcome.stats.flushes;
                    acc.stats.reports += outcome.stats.reports;
                    acc
                }
            });
        }
        let merged = merged.expect("a plan has at least one round");
        Ok(RoundsOutcome {
            rounds: plan.rounds(),
            reconfig_cycles,
            total_cycles,
            merged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use sunder_transform::Rate;

    /// Patterns with distinct head bytes (regex-safe alphanumerics), so
    /// prefix merging cannot fuse them into one component.
    fn many_patterns(n: usize) -> Vec<String> {
        const SAFE: &[u8] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
        assert!(n <= SAFE.len());
        (0..n)
            .map(|i| format!("{}qrs{}", SAFE[i] as char, SAFE[i] as char))
            .collect()
    }

    #[test]
    fn small_program_is_single_round() {
        let engine = Engine::builder().rate(Rate::Nibble2).build();
        let program = engine.compile_patterns(&["ab", "cd"]).unwrap();
        let plan = engine
            .plan_rounds(&program, DeviceModel::with_pus(16))
            .unwrap();
        assert_eq!(plan.rounds(), 1);
    }

    #[test]
    fn oversubscribed_device_splits_into_rounds() {
        // 60 reporting patterns need ≥5 PUs (m = 12); a 2-PU device needs
        // at least 3 rounds.
        let patterns = many_patterns(60);
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let engine = Engine::builder().rate(Rate::Nibble4).build();
        let program = engine.compile_patterns(&refs).unwrap();
        let device = DeviceModel::with_pus(2);
        let plan = engine.plan_rounds(&program, device).unwrap();
        assert!(plan.rounds() >= 3, "got {} rounds", plan.rounds());
        // Every round actually fits.
        for p in plan.programs() {
            let session = engine.load(p).unwrap();
            let mut s = session;
            assert!(s.machine().num_pus() <= device.pus);
        }
    }

    #[test]
    fn rounds_find_all_matches() {
        let patterns = many_patterns(40);
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let engine = Engine::builder().rate(Rate::Nibble4).build();
        let program = engine.compile_patterns(&refs).unwrap();

        let mut input = Vec::new();
        for p in patterns.iter().step_by(7) {
            input.extend_from_slice(p.as_bytes());
            input.push(b'-');
        }

        // Ground truth: unlimited device.
        let mut big = engine.load(&program).unwrap();
        let reference = big.run(&input).unwrap();

        let plan = engine
            .plan_rounds(&program, DeviceModel::with_pus(1))
            .unwrap();
        assert!(plan.rounds() > 1);
        let outcome = engine.run_rounds(&plan, &input).unwrap();
        assert_eq!(outcome.merged.matched_rules, reference.matched_rules);
        assert_eq!(outcome.merged.reports, reference.reports);
        assert!(outcome.reconfig_cycles > 0);
        assert!(outcome.total_cycles > reference.stats.total_cycles());
    }

    #[test]
    fn device_capacity_arithmetic() {
        let d = DeviceModel::with_pus(4);
        assert_eq!(d.state_capacity(), 1024);
    }
}
