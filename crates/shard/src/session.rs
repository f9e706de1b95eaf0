//! Streaming sessions: suspend/resume execution across chunk arrivals.
//!
//! A [`StreamSession`] is the unit of state the `sunder serve` daemon
//! keeps per connection: an [`Arc<CompiledPipeline>`] pinned at session
//! open (hot reloads never swap a live session's automaton), the
//! suspended engine state ([`sunder_sim::ShardedState`]),
//! and a [`SymbolFramer`] that buffers the partial symbols a chunk
//! boundary can leave behind. Between chunks the session holds **no
//! engine**: just the frontier (a few dozen bytes for typical automata)
//! and the stream's subset cache, which is empty until the stream first
//! steps, grows with the frontiers it reaches up to a fixed per-stream
//! budget (1 MiB), and is dropped for good if the stream falls back to
//! the plain sparse step. Feeding a chunk rebuilds the engine from the
//! pipeline's shared compiled tables, lends it the cache, resumes it from
//! the suspended frontier, runs exactly the chunk's complete cycles, and
//! suspends again.
//!
//! The framing rules make a chunked run byte-identical to a whole-input
//! run, no matter where the boundaries fall:
//!
//! * the engine cycle clock is global across chunks, so report cycles
//!   (and thus [`ReportEvent::symbol_position`]) match the monolithic run;
//! * symbols that do not fill a complete stride vector are buffered, not
//!   padded — padding happens exactly once, at [`StreamSession::finish`],
//!   mirroring the tail handling of a one-shot [`InputView`];
//! * for 16-bit symbols an odd trailing byte is carried to the next
//!   chunk, so a mid-symbol split never fabricates a `hi|00` pair.

use std::sync::Arc;

use sunder_artifact::CompiledPipeline;
use sunder_automata::input::{byte_to_nibbles, InputView};
use sunder_automata::AutomataError;
use sunder_resilience::{Budget, RunOutcome, StopReason};
use sunder_sim::{ShardedState, TraceSink};
use sunder_transform::MisalignedReport;

/// Re-frames an arbitrary byte-chunk stream into complete-cycle
/// [`InputView`]s for a given `(symbol_bits, stride)` pipeline.
///
/// # Examples
///
/// ```
/// use sunder_shard::SymbolFramer;
///
/// // 4-bit symbols, stride 2: each byte is exactly one cycle.
/// let mut framer = SymbolFramer::new(4, 2)?;
/// let ready = framer.push(b"ab").expect("two complete cycles");
/// assert_eq!(ready.num_cycles(), 2);
/// assert!(framer.finish().is_none(), "nothing left over");
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolFramer {
    symbol_bits: u8,
    stride: usize,
    /// 16-bit symbols only: first byte of a pair split across chunks.
    carry: Option<u8>,
    /// Symbols of the trailing incomplete cycle (`len < stride`).
    pending: Vec<u16>,
}

impl SymbolFramer {
    /// A framer for `symbol_bits`-wide symbols at `stride` per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnsupportedWidth`] unless `symbol_bits`
    /// is 4, 8, or 16 (the widths [`InputView`] supports).
    pub fn new(symbol_bits: u8, stride: usize) -> Result<SymbolFramer, AutomataError> {
        assert!(stride >= 1, "stride must be at least 1");
        if !matches!(symbol_bits, 4 | 8 | 16) {
            return Err(AutomataError::UnsupportedWidth(symbol_bits));
        }
        Ok(SymbolFramer {
            symbol_bits,
            stride,
            carry: None,
            pending: Vec::new(),
        })
    }

    /// Absorbs `chunk` and returns a view over every *complete* cycle now
    /// available (buffered remainder + chunk), or `None` if the chunk did
    /// not complete any cycle. The returned view never contains padding.
    pub fn push(&mut self, chunk: &[u8]) -> Option<InputView> {
        let mut symbols = std::mem::take(&mut self.pending);
        match self.symbol_bits {
            4 => {
                symbols.reserve(chunk.len() * 2);
                for &b in chunk {
                    let (hi, lo) = byte_to_nibbles(b);
                    symbols.extend([u16::from(hi), u16::from(lo)]);
                }
            }
            8 => symbols.extend(chunk.iter().map(|&b| u16::from(b))),
            16 => {
                let mut bytes = chunk;
                if let Some(hi) = self.carry.take() {
                    if let Some((&lo, rest)) = bytes.split_first() {
                        symbols.push(u16::from(hi) << 8 | u16::from(lo));
                        bytes = rest;
                    } else {
                        self.carry = Some(hi);
                    }
                }
                let mut pairs = bytes.chunks_exact(2);
                for p in &mut pairs {
                    symbols.push(u16::from(p[0]) << 8 | u16::from(p[1]));
                }
                if let [odd] = pairs.remainder() {
                    debug_assert!(self.carry.is_none());
                    self.carry = Some(*odd);
                }
            }
            _ => unreachable!("validated in SymbolFramer::new"),
        }
        let complete = symbols.len() - symbols.len() % self.stride;
        self.pending = symbols.split_off(complete);
        if symbols.is_empty() {
            return None;
        }
        Some(InputView::from_symbols(symbols, self.stride))
    }

    /// Flushes the buffered remainder as a final (padded) partial view,
    /// exactly as a one-shot [`InputView`] would pad its tail. `None`
    /// when the stream ended on a cycle boundary.
    pub fn finish(&mut self) -> Option<InputView> {
        let mut symbols = std::mem::take(&mut self.pending);
        if let Some(hi) = self.carry.take() {
            // Odd trailing byte of a 16-bit stream: high byte real,
            // low byte zero — InputView::new does the same.
            symbols.push(u16::from(hi) << 8);
        }
        if symbols.is_empty() {
            return None;
        }
        Some(InputView::from_symbols(symbols, self.stride))
    }
}

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A previous chunk failed; the engine state is unusable.
    Poisoned,
    /// [`StreamSession::finish`] was already called.
    AlreadyFinished,
    /// The chunk's execution budget tripped (deadline or cancellation).
    /// The suspended frontier was NOT advanced by the failed chunk.
    Interrupted(StopReason),
    /// A transformed report position did not fold back to an original
    /// symbol — a pipeline bug surfaced mid-stream.
    Misaligned(MisalignedReport),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Poisoned => f.write_str("session poisoned by an earlier failure"),
            SessionError::AlreadyFinished => f.write_str("session already finished"),
            SessionError::Interrupted(reason) => write!(f, "chunk interrupted: {reason}"),
            SessionError::Misaligned(m) => write!(f, "misaligned report: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// End-of-stream accounting returned by [`StreamSession::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Chunks fed (excluding the implicit finish flush).
    pub chunks: u64,
    /// Input bytes fed.
    pub bytes: u64,
    /// Reports emitted over the whole stream.
    pub reports: u64,
    /// Pipeline epoch the session executed on.
    pub epoch: u64,
}

/// One suspended match stream over a pinned compiled pipeline.
pub struct StreamSession {
    pipeline: Arc<CompiledPipeline>,
    epoch: u64,
    framer: SymbolFramer,
    state: ShardedState,
    chunks: u64,
    bytes: u64,
    reports: u64,
    finished: bool,
    poisoned: bool,
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("key", &self.pipeline.key)
            .field("epoch", &self.epoch)
            .field("chunks", &self.chunks)
            .field("bytes", &self.bytes)
            .field("reports", &self.reports)
            .field("frontier", &self.state.frontier_len())
            .field("finished", &self.finished)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl StreamSession {
    /// Opens a session on `pipeline`, pinning it for the session's
    /// lifetime. `epoch` tags which hot-reload generation the pipeline
    /// came from (attribution only; the pin is the `Arc` itself).
    pub fn new(pipeline: Arc<CompiledPipeline>, epoch: u64) -> StreamSession {
        let framer = SymbolFramer::new(pipeline.nfa.symbol_bits(), pipeline.nfa.stride())
            .expect("compiled pipelines only use supported widths");
        let state = pipeline.sharded.initial_state();
        StreamSession {
            pipeline,
            epoch,
            framer,
            state,
            chunks: 0,
            bytes: 0,
            reports: 0,
            finished: false,
            poisoned: false,
        }
    }

    /// The pinned pipeline.
    pub fn pipeline(&self) -> &Arc<CompiledPipeline> {
        &self.pipeline
    }

    /// The pipeline epoch pinned at open.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Chunks fed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Bytes fed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reports emitted so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Suspended frontier size (a gauge of how much
    /// match state the stream is carrying between chunks).
    pub fn frontier_len(&self) -> usize {
        self.state.frontier_len()
    }

    /// `true` once [`StreamSession::finish`] has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// `true` once a chunk has failed; all further operations error.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Feeds one chunk, returning the reports it completed in
    /// **original-symbol coordinates** as `(position, rule id)` pairs,
    /// ordered exactly as the monolithic trace orders them.
    ///
    /// # Errors
    ///
    /// [`SessionError::Interrupted`] when `budget` trips mid-chunk (the
    /// suspended frontier is left at the pre-chunk state and the session
    /// is poisoned — the stream's remaining reports cannot be trusted);
    /// [`SessionError::Poisoned`] / [`SessionError::AlreadyFinished`] for
    /// use after failure or finish.
    pub fn feed(&mut self, chunk: &[u8], budget: &Budget) -> Result<Vec<(u64, u32)>, SessionError> {
        self.check_open()?;
        self.chunks += 1;
        self.bytes += chunk.len() as u64;
        let Some(view) = self.framer.push(chunk) else {
            return Ok(Vec::new());
        };
        self.run_view(&view, budget)
    }

    /// Ends the stream: flushes the buffered partial cycle (padded, as a
    /// one-shot run would pad its tail) and returns its reports plus the
    /// whole-stream accounting.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`StreamSession::feed`].
    pub fn finish(
        &mut self,
        budget: &Budget,
    ) -> Result<(Vec<(u64, u32)>, SessionSummary), SessionError> {
        self.check_open()?;
        let tail = match self.framer.finish() {
            Some(view) => self.run_view(&view, budget)?,
            None => Vec::new(),
        };
        self.finished = true;
        Ok((
            tail,
            SessionSummary {
                chunks: self.chunks,
                bytes: self.bytes,
                reports: self.reports,
                epoch: self.epoch,
            },
        ))
    }

    fn check_open(&self) -> Result<(), SessionError> {
        if self.poisoned {
            return Err(SessionError::Poisoned);
        }
        if self.finished {
            return Err(SessionError::AlreadyFinished);
        }
        Ok(())
    }

    fn run_view(
        &mut self,
        view: &InputView,
        budget: &Budget,
    ) -> Result<Vec<(u64, u32)>, SessionError> {
        let mut trace = TraceSink::new();
        let outcome = self
            .pipeline
            .sharded
            .run_chunk(view, &mut trace, &mut self.state, budget);
        if let RunOutcome::Interrupted { reason, .. } = outcome {
            self.poisoned = true;
            return Err(SessionError::Interrupted(reason));
        }
        let stride = self.pipeline.nfa.stride();
        let mut out = Vec::with_capacity(trace.events.len());
        for event in &trace.events {
            let pos = self
                .pipeline
                .map
                .to_original(event.symbol_position(stride))
                .map_err(|m| {
                    self.poisoned = true;
                    SessionError::Misaligned(m)
                })?;
            out.push((pos, event.info.id));
        }
        self.reports += out.len() as u64;
        Ok(out)
    }
}

/// The whole-input reference a chunked session must reproduce: runs
/// `input` monolithically through `pipeline`'s transformed automaton and
/// folds the trace to original-symbol `(position, rule id)` coordinates.
///
/// # Errors
///
/// Returns input framing errors.
pub fn expected_reports(
    pipeline: &CompiledPipeline,
    input: &[u8],
) -> Result<Vec<(u64, u32)>, AutomataError> {
    let events = crate::monolithic_trace(pipeline, pipeline.sharded.kind(), input)?;
    let stride = pipeline.nfa.stride();
    Ok(events
        .iter()
        .map(|e| {
            let pos = pipeline
                .map
                .to_original(e.symbol_position(stride))
                .expect("compiled pipelines report on aligned positions");
            (pos, e.info.id)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::ShardSpec;
    use sunder_automata::regex::compile_rule_set;
    use sunder_resilience::CancelToken;
    use sunder_sim::EngineKind;
    use sunder_transform::PipelineConfig;

    fn pipeline(config: PipelineConfig) -> Arc<CompiledPipeline> {
        let nfa = compile_rule_set(&["ab+c", "[0-9]{3}", ".*net"]).unwrap();
        Arc::new(
            CompiledPipeline::compile(&nfa, config, ShardSpec::MaxShards(4), EngineKind::Adaptive)
                .unwrap(),
        )
    }

    const INPUT: &[u8] = b"zab-bc 192net abbbc 007xyq xy123net q";

    #[test]
    fn chunked_session_matches_whole_run_for_every_config() {
        for config in PipelineConfig::ALL {
            let p = pipeline(config);
            let expected = expected_reports(&p, INPUT).unwrap();
            assert!(!expected.is_empty(), "{config:?}");
            // Chunk sizes chosen to split mid-cycle for every config:
            // 1-byte chunks split stride-2 nibble cycles; 3-byte chunks
            // split stride-4 cycles.
            for chunk_size in [1usize, 2, 3, 5, INPUT.len()] {
                let mut session = StreamSession::new(Arc::clone(&p), 1);
                let mut got = Vec::new();
                for chunk in INPUT.chunks(chunk_size) {
                    got.extend(session.feed(chunk, &Budget::unlimited()).unwrap());
                }
                let (tail, summary) = session.finish(&Budget::unlimited()).unwrap();
                got.extend(tail);
                assert_eq!(got, expected, "{config:?} chunk_size={chunk_size}");
                assert_eq!(summary.bytes, INPUT.len() as u64);
                assert_eq!(summary.reports, expected.len() as u64);
            }
        }
    }

    #[test]
    fn empty_chunks_are_harmless() {
        let p = pipeline(PipelineConfig::Stride2);
        let expected = expected_reports(&p, INPUT).unwrap();
        let mut session = StreamSession::new(Arc::clone(&p), 1);
        let mut got = Vec::new();
        got.extend(session.feed(&[], &Budget::unlimited()).unwrap());
        for chunk in INPUT.chunks(7) {
            got.extend(session.feed(chunk, &Budget::unlimited()).unwrap());
            got.extend(session.feed(&[], &Budget::unlimited()).unwrap());
        }
        let (tail, _) = session.finish(&Budget::unlimited()).unwrap();
        got.extend(tail);
        assert_eq!(got, expected);
    }

    #[test]
    fn sixteen_bit_carry_byte_survives_chunk_splits() {
        // A 16-bit automaton via Stride2 on a 16-bit rule set is not a
        // thing the oracle configs build; exercise the framer directly.
        let mut framer = SymbolFramer::new(16, 1).unwrap();
        let whole = InputView::new(&[0xAB, 0xCD, 0xEF], 16, 1).unwrap();
        let mut symbols = Vec::new();
        for chunk in [&[0xAB][..], &[0xCD, 0xEF][..]] {
            if let Some(v) = framer.push(chunk) {
                symbols.extend_from_slice(v.symbols());
            }
        }
        if let Some(v) = framer.finish() {
            symbols.extend_from_slice(v.symbols());
        }
        assert_eq!(symbols, whole.symbols());
    }

    #[test]
    fn framer_rejects_unsupported_widths() {
        assert!(matches!(
            SymbolFramer::new(5, 1),
            Err(AutomataError::UnsupportedWidth(5))
        ));
    }

    #[test]
    fn interrupted_feed_poisons_the_session() {
        let p = pipeline(PipelineConfig::Identity);
        let mut session = StreamSession::new(p, 1);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::with_cancel(token).check_every(1);
        let err = session.feed(&[b'x'; 256], &budget).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Interrupted(StopReason::Cancelled)
        ));
        assert!(session.is_poisoned());
        assert_eq!(
            session.feed(b"more", &Budget::unlimited()),
            Err(SessionError::Poisoned)
        );
        assert!(matches!(
            session.finish(&Budget::unlimited()),
            Err(SessionError::Poisoned)
        ));
    }

    #[test]
    fn finishing_twice_errors() {
        let p = pipeline(PipelineConfig::Identity);
        let mut session = StreamSession::new(p, 1);
        session.feed(b"ab", &Budget::unlimited()).unwrap();
        session.finish(&Budget::unlimited()).unwrap();
        assert!(matches!(
            session.finish(&Budget::unlimited()),
            Err(SessionError::AlreadyFinished)
        ));
        assert!(session.is_finished());
    }
}
