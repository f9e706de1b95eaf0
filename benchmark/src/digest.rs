//! The correctness gate: report traces checked against
//! `sunder_oracle::ReferenceOracle`.
//!
//! A trace's canonical form is the oracle's: `(offset, rule id)` pairs in
//! original-byte coordinates, sorted and deduplicated. Its [`Digest`] is
//! the pair count plus an FNV-1a hash folded over the pairs (one round per
//! 64-bit word rather than per byte, so folding ~10⁶ pairs/s on the client
//! side of a serve workload stays far below the server's own cost).
//!
//! The oracle determinises lazily and is slower than the engines, so it
//! checks the first [`Expected::prefix_len`] bytes of each stream, pair by
//! pair. Beyond the prefix every measured path must reproduce the running
//! digest of the *reference* — the monolithic sparse engine on the source
//! automaton, no transformation and no sharding, itself checked against
//! the oracle on the prefix — which is kept at every [`GRAIN`] bytes, so a
//! stream cut short by the clock is checked up to where it stopped. A
//! report at offset `p` depends only on bytes `..=p`, so a prefix of the
//! trace is the trace of the prefix.

use sunder_automata::{InputView, Nfa};
use sunder_oracle::ReferenceOracle;
use sunder_sim::{ReportEvent, ReportSink, Simulator};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Spacing of the reference's running-digest checkpoints. Every chunk and
/// stream size the workloads use is a multiple of it.
pub const GRAIN: u64 = 1024;

/// `(report count, FNV-1a over the canonical pairs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

impl Digest {
    const EMPTY: Digest = Digest {
        count: 0,
        hash: FNV_OFFSET,
    };

    fn fold(&mut self, (pos, rule): (u64, u32)) {
        self.count += 1;
        self.hash = (self.hash ^ pos).wrapping_mul(FNV_PRIME);
        self.hash = (self.hash ^ u64::from(rule)).wrapping_mul(FNV_PRIME);
    }
}

/// Brings one batch of pairs (one chunk's or one stream's reports, in
/// engine order: by cycle, then state, possibly with duplicates) into
/// canonical form. Sorts only when the batch is not already canonical.
fn canonicalize(pairs: &mut Vec<(u64, u32)>) {
    if !pairs.windows(2).all(|w| w[0] < w[1]) {
        pairs.sort_unstable();
        pairs.dedup();
    }
}

/// Where a measured trace first left the expected one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// Inside the oracle-checked prefix: the exact pair.
    Pair {
        index: usize,
        got: Option<(u64, u32)>,
        oracle: Option<(u64, u32)>,
    },
    /// Beyond it: the first [`GRAIN`]-byte block after which the running
    /// digest differs from the reference's.
    Block {
        offsets: std::ops::Range<u64>,
        got: Digest,
        reference: Digest,
    },
    /// A batch started at or before the previous batch's last pair.
    OutOfOrder { pair: (u64, u32) },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |p: &Option<(u64, u32)>| match p {
            Some((offset, rule)) => format!("(offset {offset}, rule {rule})"),
            None => "nothing".to_string(),
        };
        match self {
            Mismatch::Pair { index, got, oracle } => write!(
                f,
                "report #{index}: got {}, oracle has {}",
                show(got),
                show(oracle)
            ),
            Mismatch::Block {
                offsets,
                got,
                reference,
            } => write!(
                f,
                "first difference at offsets {}..{} (beyond the oracle prefix): \
                 running digest {got:?}, reference {reference:?}",
                offsets.start, offsets.end
            ),
            Mismatch::OutOfOrder { pair } => write!(
                f,
                "reports out of order: batch starts at (offset {}, rule {}), \
                 not after the previous batch",
                pair.0, pair.1
            ),
        }
    }
}

/// What one stream's reports must be.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Bytes checked pair by pair against the oracle.
    pub prefix_len: u64,
    oracle_prefix: Vec<(u64, u32)>,
    /// `checkpoints[i]`: reference digest of all pairs at offsets below
    /// `(i + 1) × GRAIN`.
    checkpoints: Vec<Digest>,
}

/// Digests a stride-1, untransformed engine's reports as they fire, so a
/// report-dense stream (Brill: ~1.1 reports per byte) is never
/// materialised.
struct CheckpointSink {
    running: Digest,
    checkpoints: Vec<Digest>,
    scratch: Vec<(u64, u32)>,
}

impl CheckpointSink {
    fn advance_to(&mut self, offset: u64) {
        while (self.checkpoints.len() as u64 + 1) * GRAIN <= offset {
            self.checkpoints.push(self.running);
        }
    }
}

impl ReportSink for CheckpointSink {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]) {
        self.advance_to(cycle);
        self.scratch.clear();
        self.scratch
            .extend(reports.iter().map(|e| (cycle, e.info.id)));
        canonicalize(&mut self.scratch);
        for &pair in &self.scratch {
            self.running.fold(pair);
        }
    }

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

impl Expected {
    /// Runs the oracle over the first `prefix_len` bytes and the reference
    /// engine over the whole stream.
    ///
    /// # Errors
    ///
    /// When the reference engine itself disagrees with the oracle on the
    /// prefix: nothing measured against it could then be trusted.
    pub fn compute(
        oracle: &mut ReferenceOracle<'_>,
        bytes: &[u8],
        prefix_len: usize,
    ) -> Result<Expected, String> {
        assert!(
            (bytes.len() as u64).is_multiple_of(GRAIN) && (prefix_len as u64).is_multiple_of(GRAIN),
            "stream and prefix lengths are whole grains"
        );
        let prefix_len = prefix_len.min(bytes.len());
        let oracle_prefix = oracle
            .trace(&bytes[..prefix_len])
            .map_err(|e| format!("oracle: {e}"))?;
        let expected = Expected {
            prefix_len: prefix_len as u64,
            oracle_prefix,
            checkpoints: reference_checkpoints(oracle.nfa(), bytes),
        };
        let mut oracle_digest = Digest::EMPTY;
        for &pair in &expected.oracle_prefix {
            oracle_digest.fold(pair);
        }
        let reference = expected.at(expected.prefix_len);
        if reference != oracle_digest {
            return Err(format!(
                "reference engine disagrees with the oracle on the first {prefix_len} bytes: \
                 {reference:?} vs oracle {oracle_digest:?}"
            ));
        }
        Ok(expected)
    }

    /// Reports (canonical pairs) in the first `len` bytes.
    pub fn reports_in(&self, len: u64) -> u64 {
        self.at(len).count
    }

    fn at(&self, len: u64) -> Digest {
        assert!(
            len.is_multiple_of(GRAIN),
            "checked lengths are whole grains"
        );
        match (len / GRAIN) as usize {
            0 => Digest::EMPTY,
            n => self.checkpoints[n - 1],
        }
    }

    /// A checker for one measured pass over this stream.
    pub fn checker(&self) -> Checker<'_> {
        Checker {
            expected: self,
            running: Digest::EMPTY,
            cursor: 0,
            blocks_done: 0,
            last: None,
            mismatch: None,
        }
    }
}

fn reference_checkpoints(nfa: &Nfa, bytes: &[u8]) -> Vec<Digest> {
    assert_eq!(nfa.stride(), 1, "the source automaton is stride 1");
    let view = InputView::new(bytes, nfa.symbol_bits(), 1).expect("workload automata are 8-bit");
    let mut sink = CheckpointSink {
        running: Digest::EMPTY,
        checkpoints: Vec::with_capacity(bytes.len() / GRAIN as usize),
        scratch: Vec::new(),
    };
    Simulator::new(nfa).run(&view, &mut sink);
    sink.advance_to(bytes.len() as u64);
    sink.checkpoints
}

/// Streams one measured path's reports against an [`Expected`]: exact
/// pairs inside the oracle prefix, running digests per block beyond it.
/// Nothing is stored, so it can sit in a serve client's receive loop.
#[derive(Debug)]
pub struct Checker<'a> {
    expected: &'a Expected,
    running: Digest,
    /// Next oracle pair to match.
    cursor: usize,
    /// Blocks whose closing digest has been compared.
    blocks_done: u64,
    last: Option<(u64, u32)>,
    mismatch: Option<Mismatch>,
}

impl Checker<'_> {
    fn close_blocks_up_to(&mut self, offset: u64) {
        let total = self.expected.checkpoints.len() as u64;
        while self.blocks_done < total && (self.blocks_done + 1) * GRAIN <= offset {
            let reference = self.expected.checkpoints[self.blocks_done as usize];
            if self.running != reference && self.mismatch.is_none() {
                self.mismatch = Some(Mismatch::Block {
                    offsets: self.blocks_done * GRAIN..(self.blocks_done + 1) * GRAIN,
                    got: self.running,
                    reference,
                });
            }
            self.blocks_done += 1;
        }
    }

    /// Takes the next batch of `(offset, rule id)` pairs: one chunk's
    /// reply, or a whole stream's trace. Batches must cover increasing,
    /// disjoint offset ranges.
    pub fn push_batch(&mut self, pairs: &mut Vec<(u64, u32)>) {
        canonicalize(pairs);
        if let (Some(last), Some(&first)) = (self.last, pairs.first()) {
            if first <= last && self.mismatch.is_none() {
                self.mismatch = Some(Mismatch::OutOfOrder { pair: first });
            }
        }
        for &pair in pairs.iter() {
            // The exact pair first, so that inside the prefix a difference
            // is reported as the pair and not as the block it falls in.
            if pair.0 < self.expected.prefix_len {
                let oracle = self.expected.oracle_prefix.get(self.cursor).copied();
                if oracle != Some(pair) && self.mismatch.is_none() {
                    self.mismatch = Some(Mismatch::Pair {
                        index: self.cursor,
                        got: Some(pair),
                        oracle,
                    });
                }
                self.cursor += 1;
            }
            self.close_blocks_up_to(pair.0);
            self.running.fold(pair);
        }
        self.last = pairs.last().copied().or(self.last);
    }

    /// Ends the pass after `len` bytes of the stream were matched.
    ///
    /// # Errors
    ///
    /// The first point at which the trace left the expected one.
    pub fn finish(mut self, len: u64) -> Result<(), Mismatch> {
        let due = self
            .expected
            .oracle_prefix
            .partition_point(|p| p.0 < len.min(self.expected.prefix_len));
        if self.cursor < due && self.mismatch.is_none() {
            self.mismatch = Some(Mismatch::Pair {
                index: self.cursor,
                got: None,
                oracle: Some(self.expected.oracle_prefix[self.cursor]),
            });
        }
        self.close_blocks_up_to(len);
        match self.mismatch {
            Some(m) => Err(m),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;

    /// `"ab"` is rule 0, `"b"` rule 1; a `b` every 512 bytes, an `ab`
    /// every 1024.
    fn fixture() -> (Nfa, Vec<u8>) {
        let nfa = compile_rule_set(&["ab", "b"]).unwrap();
        let mut bytes = vec![b'-'; 4 * GRAIN as usize];
        for i in (511..bytes.len()).step_by(512) {
            bytes[i] = b'b';
        }
        for i in (1022..bytes.len()).step_by(1024) {
            bytes[i] = b'a';
        }
        (nfa, bytes)
    }

    fn expected(nfa: &Nfa, bytes: &[u8], prefix: usize) -> Expected {
        Expected::compute(&mut ReferenceOracle::new(nfa).unwrap(), bytes, prefix).unwrap()
    }

    #[test]
    fn the_true_trace_passes_whole_chunked_and_cut_short() {
        let (nfa, bytes) = fixture();
        let e = expected(&nfa, &bytes, 2 * GRAIN as usize);
        let truth = ReferenceOracle::new(&nfa).unwrap().trace(&bytes).unwrap();
        assert_eq!(truth.len(), 12);
        assert_eq!(e.reports_in(bytes.len() as u64), 12);
        assert_eq!(e.reports_in(GRAIN), 3);

        let mut whole = e.checker();
        whole.push_batch(&mut truth.clone());
        assert_eq!(whole.finish(bytes.len() as u64), Ok(()));

        // Per-KiB batches in engine order (unsorted, with a duplicate).
        let mut chunked = e.checker();
        for k in 0..4u64 {
            let mut batch: Vec<_> = truth.iter().copied().filter(|p| p.0 / GRAIN == k).collect();
            batch.reverse();
            batch.push(batch[0]);
            chunked.push_batch(&mut batch);
        }
        assert_eq!(chunked.finish(bytes.len() as u64), Ok(()));

        // A session stopped by the clock after 3 KiB.
        let mut cut = e.checker();
        cut.push_batch(&mut truth.iter().copied().filter(|p| p.0 < 3 * GRAIN).collect());
        assert_eq!(cut.finish(3 * GRAIN), Ok(()));
    }

    #[test]
    fn a_wrong_pair_in_the_prefix_is_located_exactly() {
        let (nfa, bytes) = fixture();
        let e = expected(&nfa, &bytes, 2 * GRAIN as usize);
        let mut wrong = ReferenceOracle::new(&nfa).unwrap().trace(&bytes).unwrap();
        // The last pair at its offset, so that it keeps its place when the
        // checker sorts the batch.
        let truth = wrong[2];
        wrong[2].1 += 5;
        let mut c = e.checker();
        c.push_batch(&mut wrong);
        assert_eq!(
            c.finish(bytes.len() as u64),
            Err(Mismatch::Pair {
                index: 2,
                got: Some((truth.0, truth.1 + 5)),
                oracle: Some(truth),
            })
        );
    }

    #[test]
    fn a_missing_report_is_caught_in_and_beyond_the_prefix() {
        let (nfa, bytes) = fixture();
        let e = expected(&nfa, &bytes, GRAIN as usize);
        let truth = ReferenceOracle::new(&nfa).unwrap().trace(&bytes).unwrap();

        let mut in_prefix = e.checker();
        in_prefix.push_batch(&mut truth[..2].to_vec());
        assert!(matches!(
            in_prefix.finish(GRAIN),
            Err(Mismatch::Pair {
                index: 2,
                got: None,
                ..
            })
        ));

        let mut beyond = e.checker();
        beyond.push_batch(&mut truth[..truth.len() - 1].to_vec());
        match beyond.finish(bytes.len() as u64) {
            Err(Mismatch::Block { offsets, .. }) => assert_eq!(offsets, 3 * GRAIN..4 * GRAIN),
            other => panic!("expected a block mismatch, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_batches_are_flagged() {
        let (nfa, bytes) = fixture();
        let e = expected(&nfa, &bytes, 0);
        let truth = ReferenceOracle::new(&nfa).unwrap().trace(&bytes).unwrap();
        let mut c = e.checker();
        c.push_batch(&mut truth[..2].to_vec());
        c.push_batch(&mut truth[1..].to_vec());
        assert!(matches!(
            c.finish(bytes.len() as u64),
            Err(Mismatch::OutOfOrder { .. })
        ));
    }
}
