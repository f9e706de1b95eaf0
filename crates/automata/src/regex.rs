//! A regular-expression subset compiler targeting homogeneous NFAs.
//!
//! The Glushkov (position) construction is a perfect fit for the homogeneous
//! automata executed by in-memory accelerators: every *position* of the
//! pattern becomes exactly one STE whose charset is the position's character
//! class, start states are the `first` set, reports are the `last` set, and
//! transitions are the `follow` relation — no epsilon transitions and no
//! labels on edges.
//!
//! Supported syntax: literals, escapes (`\n \t \r \0 \\ \xHH \d \w \s` and
//! escaped metacharacters), `.` (any byte), character classes
//! `[a-z0-9]` / negated `[^...]`, grouping `(...)`, alternation `|`,
//! repetition `* + ?` and counted `{m} {m,} {m,n}`, and a leading `^` anchor.
//! A pattern that can match the empty string is rejected: a homogeneous
//! automaton reports by activating a state on a consumed symbol, so an
//! empty match has no hardware meaning.

use std::collections::BTreeSet;

use crate::error::AutomataError;
use crate::nfa::{Nfa, StartKind, Ste};
use crate::symbol::SymbolSet;

/// Maximum expansion of a counted repetition, to bound state blowup.
const MAX_COUNTED_REPEAT: u32 = 256;

/// Most symbol positions (one state each) a pattern may expand to. Each
/// counted repeat is capped above, but nesting multiplies, so the product
/// is checked before the atom is cloned.
pub const MAX_PATTERN_POSITIONS: usize = 1 << 16;

/// Most follow pairs (transitions) a pattern may add while it compiles.
/// Nested optional repeats stay under [`MAX_PATTERN_POSITIONS`] yet make
/// every position follow every earlier one, so the pairs are counted, and
/// refused, before each batch is added. `(a?){255}b` adds 32 640.
pub const MAX_PATTERN_TRANSITIONS: usize = 1 << 18;

#[derive(Debug, Clone)]
enum Ast {
    Sym(SymbolSet),
    Cat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
}

/// The symbol positions (states) `ast` expands to, counted bottom-up.
fn positions(ast: &Ast) -> usize {
    match ast {
        Ast::Sym(_) => 1,
        Ast::Cat(parts) | Ast::Alt(parts) => parts.iter().map(positions).sum(),
        Ast::Star(inner) | Ast::Plus(inner) | Ast::Opt(inner) => positions(inner),
    }
}

/// Compiles one pattern into a fresh 8-bit automaton.
///
/// All states in the `last` set report with id `report_id`. Unanchored
/// patterns (no leading `^`) get [`StartKind::AllInput`] starts, matching at
/// any offset of the stream, like an IDS rule.
///
/// # Errors
///
/// Returns [`AutomataError::Regex`] on syntax errors, unsupported syntax
/// (`$`, backreferences), or a pattern that matches the empty string, and
/// [`AutomataError::Capacity`] when nested counted repeats would expand
/// past [`MAX_PATTERN_POSITIONS`] states or add more than
/// [`MAX_PATTERN_TRANSITIONS`] follow pairs.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
///
/// let nfa = compile_regex(r"ab[0-9]+c", 42)?;
/// assert_eq!(nfa.num_states(), 4);
/// assert_eq!(nfa.report_states().len(), 1);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
pub fn compile_regex(pattern: &str, report_id: u32) -> Result<Nfa, AutomataError> {
    let mut parser = Parser {
        bytes: pattern.as_bytes(),
        pos: 0,
    };
    let anchored = parser.eat(b'^');
    let ast = parser.parse_alt()?;
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("unexpected trailing input"));
    }

    let mut glushkov = Glushkov::default();
    let info = glushkov.analyze(&ast)?;
    if info.nullable {
        return Err(AutomataError::Regex {
            position: 0,
            message: "pattern matches the empty string".into(),
        });
    }

    let start_kind = if anchored {
        StartKind::StartOfData
    } else {
        StartKind::AllInput
    };
    let mut nfa = Nfa::new(8);
    let last: BTreeSet<usize> = info.last.iter().copied().collect();
    let first: BTreeSet<usize> = info.first.iter().copied().collect();
    for (i, cs) in glushkov.positions.iter().enumerate() {
        let mut ste = Ste::new(cs.clone());
        if first.contains(&i) {
            ste = ste.start(start_kind);
        }
        if last.contains(&i) {
            ste = ste.report(report_id);
        }
        nfa.add_state(ste);
    }
    for (i, follows) in glushkov.follow.iter_mut().enumerate() {
        follows.sort_unstable();
        follows.dedup();
        for &j in follows.iter() {
            nfa.add_edge(crate::nfa::StateId(i as u32), crate::nfa::StateId(j as u32));
        }
    }
    Ok(nfa)
}

/// Compiles a rule set: one automaton per pattern, unioned, with report ids
/// equal to the pattern's index.
///
/// # Errors
///
/// Returns the first pattern's compilation error, annotated with its index
/// in the message.
pub fn compile_rule_set<S: AsRef<str>>(patterns: &[S]) -> Result<Nfa, AutomataError> {
    let mut out = Nfa::new(8);
    for (i, p) in patterns.iter().enumerate() {
        let one = compile_regex(p.as_ref(), i as u32).map_err(|e| match e {
            AutomataError::Regex { position, message } => AutomataError::Regex {
                position,
                message: format!("rule {i}: {message}"),
            },
            other => other,
        })?;
        out.absorb(&one).expect("same width and stride");
    }
    Ok(out)
}

#[derive(Debug)]
struct Info {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

/// The Glushkov construction under way: each position's symbol set, its
/// followers in insertion order (repeats included; sorted and
/// deduplicated once at the end), and the follow pairs added so far.
#[derive(Default)]
struct Glushkov {
    positions: Vec<SymbolSet>,
    follow: Vec<Vec<usize>>,
    pairs: usize,
}

impl Glushkov {
    /// Makes every position in `from` followed by every one in `to`,
    /// refusing first if that would pass [`MAX_PATTERN_TRANSITIONS`].
    fn link(&mut self, from: &[usize], to: &[usize]) -> Result<(), AutomataError> {
        let (needed, budget) = (self.pairs + from.len() * to.len(), MAX_PATTERN_TRANSITIONS);
        if needed > budget {
            return Err(AutomataError::Capacity { needed, budget });
        }
        self.pairs = needed;
        for &l in from {
            self.follow[l].extend_from_slice(to);
        }
        Ok(())
    }

    fn analyze(&mut self, ast: &Ast) -> Result<Info, AutomataError> {
        Ok(match ast {
            Ast::Sym(cs) => {
                let p = self.positions.len();
                self.positions.push(cs.clone());
                self.follow.push(Vec::new());
                Info {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                }
            }
            Ast::Cat(parts) => {
                let mut nullable = true;
                let mut first: Vec<usize> = Vec::new();
                let mut last: Vec<usize> = Vec::new();
                for part in parts {
                    let info = self.analyze(part)?;
                    // follow: every last-so-far flows into this part's first.
                    self.link(&last, &info.first)?;
                    if nullable {
                        first.extend(&info.first);
                    }
                    if info.nullable {
                        last.extend(&info.last);
                    } else {
                        last = info.last;
                    }
                    nullable &= info.nullable;
                }
                Info {
                    nullable,
                    first,
                    last,
                }
            }
            Ast::Alt(parts) => {
                let mut nullable = false;
                let mut first = Vec::new();
                let mut last = Vec::new();
                for part in parts {
                    let info = self.analyze(part)?;
                    nullable |= info.nullable;
                    first.extend(info.first);
                    last.extend(info.last);
                }
                Info {
                    nullable,
                    first,
                    last,
                }
            }
            Ast::Star(inner) | Ast::Plus(inner) => {
                let info = self.analyze(inner)?;
                self.link(&info.last, &info.first)?;
                Info {
                    nullable: matches!(ast, Ast::Star(_)) || info.nullable,
                    first: info.first,
                    last: info.last,
                }
            }
            Ast::Opt(inner) => {
                let info = self.analyze(inner)?;
                Info {
                    nullable: true,
                    first: info.first,
                    last: info.last,
                }
            }
        })
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> AutomataError {
        AutomataError::Regex {
            position: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn parse_alt(&mut self) -> Result<Ast, AutomataError> {
        let mut parts = vec![self.parse_cat()?];
        while self.eat(b'|') {
            parts.push(self.parse_cat()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Ast::Alt(parts)
        })
    }

    fn parse_cat(&mut self) -> Result<Ast, AutomataError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.parse_rep()?);
        }
        if parts.is_empty() {
            return Err(self.error("empty expression"));
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Ast::Cat(parts)
        })
    }

    fn parse_rep(&mut self) -> Result<Ast, AutomataError> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    atom = Ast::Star(Box::new(atom));
                }
                Some(b'+') => {
                    self.pos += 1;
                    atom = Ast::Plus(Box::new(atom));
                }
                Some(b'?') => {
                    self.pos += 1;
                    atom = Ast::Opt(Box::new(atom));
                }
                Some(b'{') => {
                    self.pos += 1;
                    atom = self.parse_counted(atom)?;
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    fn parse_counted(&mut self, atom: Ast) -> Result<Ast, AutomataError> {
        let m = self.parse_number()?;
        let (m, n) = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                (m, None) // {m,}
            } else {
                (m, Some(self.parse_number()?))
            }
        } else {
            (m, Some(m))
        };
        if !self.eat(b'}') {
            return Err(self.error("expected '}' in counted repetition"));
        }
        if let Some(n) = n {
            if n < m {
                return Err(self.error("counted repetition with max < min"));
            }
            if n > MAX_COUNTED_REPEAT {
                return Err(self.error("counted repetition too large"));
            }
        }
        if m > MAX_COUNTED_REPEAT {
            return Err(self.error("counted repetition too large"));
        }
        let needed = positions(&atom).saturating_mul(n.unwrap_or(m).max(1) as usize);
        if needed > MAX_PATTERN_POSITIONS {
            return Err(AutomataError::Capacity {
                needed,
                budget: MAX_PATTERN_POSITIONS,
            });
        }
        // Expand: X{m,n} = X^m (X?)^(n-m) ; X{m,} = X^(m-1) X+ ; X{0,..} ok.
        let mut parts: Vec<Ast> = Vec::new();
        match n {
            Some(n) => {
                for _ in 0..m {
                    parts.push(atom.clone());
                }
                for _ in m..n {
                    parts.push(Ast::Opt(Box::new(atom.clone())));
                }
            }
            None => {
                if m == 0 {
                    return Ok(Ast::Star(Box::new(atom)));
                }
                for _ in 0..m - 1 {
                    parts.push(atom.clone());
                }
                parts.push(Ast::Plus(Box::new(atom)));
            }
        }
        Ok(match parts.len() {
            0 => return Err(self.error("counted repetition of zero length")),
            1 => parts.pop().expect("one part"),
            _ => Ast::Cat(parts),
        })
    }

    fn parse_number(&mut self) -> Result<u32, AutomataError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are utf8")
            .parse()
            .map_err(|_| self.error("number too large"))
    }

    fn parse_atom(&mut self) -> Result<Ast, AutomataError> {
        match self.bump() {
            None => Err(self.error("unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.parse_alt()?;
                if !self.eat(b')') {
                    return Err(self.error("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'.') => Ok(Ast::Sym(SymbolSet::full(8))),
            Some(b'[') => self.parse_class(),
            Some(b'\\') => Ok(Ast::Sym(self.parse_escape()?)),
            Some(b'$') => Err(self.error("end anchor '$' is not supported")),
            Some(b @ (b'*' | b'+' | b'?' | b'{' | b')')) => {
                Err(self.error(format!("unexpected metacharacter '{}'", b as char)))
            }
            Some(b) => Ok(Ast::Sym(SymbolSet::singleton(8, u16::from(b)))),
        }
    }

    fn parse_escape(&mut self) -> Result<SymbolSet, AutomataError> {
        let Some(b) = self.bump() else {
            return Err(self.error("dangling escape"));
        };
        let set = match b {
            b'n' => SymbolSet::singleton(8, u16::from(b'\n')),
            b't' => SymbolSet::singleton(8, u16::from(b'\t')),
            b'r' => SymbolSet::singleton(8, u16::from(b'\r')),
            b'0' => SymbolSet::singleton(8, 0),
            b'd' => SymbolSet::range(8, u16::from(b'0'), u16::from(b'9')),
            b'D' => SymbolSet::range(8, u16::from(b'0'), u16::from(b'9')).complement(),
            b'w' => {
                let mut s = SymbolSet::range(8, u16::from(b'0'), u16::from(b'9'));
                s.insert_range(u16::from(b'a'), u16::from(b'z'));
                s.insert_range(u16::from(b'A'), u16::from(b'Z'));
                s.insert(u16::from(b'_'));
                s
            }
            b's' => {
                SymbolSet::from_symbols(8, [b' ', b'\t', b'\r', b'\n', 0x0b, 0x0c].map(u16::from))
            }
            b'x' => {
                let hi = self.parse_hex_digit()?;
                let lo = self.parse_hex_digit()?;
                SymbolSet::singleton(8, u16::from(hi * 16 + lo))
            }
            // Escaped metacharacters and everything else: the literal byte.
            other => SymbolSet::singleton(8, u16::from(other)),
        };
        Ok(set)
    }

    fn parse_hex_digit(&mut self) -> Result<u8, AutomataError> {
        match self.bump() {
            Some(b @ b'0'..=b'9') => Ok(b - b'0'),
            Some(b @ b'a'..=b'f') => Ok(b - b'a' + 10),
            Some(b @ b'A'..=b'F') => Ok(b - b'A' + 10),
            _ => Err(self.error("expected a hex digit")),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, AutomataError> {
        let negated = self.eat(b'^');
        let mut set = SymbolSet::empty(8);
        let mut any = false;
        loop {
            match self.peek() {
                None => return Err(self.error("unclosed character class")),
                Some(b']') if any => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            let lo_set = self.parse_class_item()?;
            // Range only when the item was a single literal byte and '-' is
            // followed by something other than ']'.
            if lo_set.len() == 1
                && self.peek() == Some(b'-')
                && self.bytes.get(self.pos + 1) != Some(&b']')
            {
                self.pos += 1; // consume '-'
                let hi_set = self.parse_class_item()?;
                if hi_set.len() != 1 {
                    return Err(self.error("invalid range bound in class"));
                }
                let lo = lo_set.iter().next().expect("singleton");
                let hi = hi_set.iter().next().expect("singleton");
                if hi < lo {
                    return Err(self.error("class range out of order"));
                }
                set.insert_range(lo, hi);
            } else {
                set.union_with(&lo_set);
            }
            any = true;
        }
        let set = if negated { set.complement() } else { set };
        if set.is_empty() {
            return Err(self.error("empty character class"));
        }
        Ok(Ast::Sym(set))
    }

    fn parse_class_item(&mut self) -> Result<SymbolSet, AutomataError> {
        match self.bump() {
            None => Err(self.error("unclosed character class")),
            Some(b'\\') => self.parse_escape(),
            Some(b) => Ok(SymbolSet::singleton(8, u16::from(b))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_chain() {
        let nfa = compile_regex("abc", 0).unwrap();
        assert_eq!(nfa.num_states(), 3);
        assert_eq!(nfa.num_transitions(), 2);
        assert_eq!(nfa.start_states().len(), 1);
        assert_eq!(nfa.report_states().len(), 1);
        assert_eq!(
            nfa.state(nfa.start_states()[0]).start_kind(),
            StartKind::AllInput
        );
    }

    #[test]
    fn anchored_pattern() {
        let nfa = compile_regex("^abc", 0).unwrap();
        assert_eq!(
            nfa.state(nfa.start_states()[0]).start_kind(),
            StartKind::StartOfData
        );
    }

    #[test]
    fn alternation_multiplies_starts_and_reports() {
        let nfa = compile_regex("ab|cd|ef", 0).unwrap();
        assert_eq!(nfa.num_states(), 6);
        assert_eq!(nfa.start_states().len(), 3);
        assert_eq!(nfa.report_states().len(), 3);
    }

    #[test]
    fn star_creates_loop() {
        // ab*c : b follows itself.
        let nfa = compile_regex("ab*c", 0).unwrap();
        assert_eq!(nfa.num_states(), 3);
        // b's successors include b and c; a's include b and c (b nullable).
        let b = crate::nfa::StateId(1);
        assert!(nfa.successors(b).contains(&b));
        assert_eq!(nfa.successors(crate::nfa::StateId(0)).len(), 2);
    }

    #[test]
    fn plus_is_not_nullable() {
        assert!(compile_regex("a*", 0).is_err()); // empty match
        let nfa = compile_regex("a+", 0).unwrap();
        assert_eq!(nfa.num_states(), 1);
        let a = crate::nfa::StateId(0);
        assert!(nfa.successors(a).contains(&a));
        assert!(nfa.state(a).is_reporting());
    }

    #[test]
    fn classes_and_ranges() {
        let nfa = compile_regex("[a-c0]", 0).unwrap();
        let cs = nfa.state(crate::nfa::StateId(0)).charset();
        assert_eq!(cs.len(), 4);
        assert!(cs.contains(u16::from(b'b')));
        assert!(cs.contains(u16::from(b'0')));
    }

    #[test]
    fn negated_class() {
        let nfa = compile_regex("[^a]", 0).unwrap();
        let cs = nfa.state(crate::nfa::StateId(0)).charset();
        assert_eq!(cs.len(), 255);
        assert!(!cs.contains(u16::from(b'a')));
    }

    #[test]
    fn dot_matches_everything() {
        let nfa = compile_regex(".", 0).unwrap();
        assert!(nfa.state(crate::nfa::StateId(0)).charset().is_full());
    }

    #[test]
    fn escapes() {
        let nfa = compile_regex(r"\d\x41\\", 0).unwrap();
        assert_eq!(nfa.num_states(), 3);
        assert_eq!(nfa.state(crate::nfa::StateId(0)).charset().len(), 10);
        assert!(nfa
            .state(crate::nfa::StateId(1))
            .charset()
            .contains(u16::from(b'A')));
        assert!(nfa
            .state(crate::nfa::StateId(2))
            .charset()
            .contains(u16::from(b'\\')));
    }

    #[test]
    fn counted_repetitions() {
        assert_eq!(compile_regex("a{3}", 0).unwrap().num_states(), 3);
        assert_eq!(compile_regex("a{2,4}", 0).unwrap().num_states(), 4);
        let open = compile_regex("a{2,}", 0).unwrap();
        assert_eq!(open.num_states(), 2);
        let last = crate::nfa::StateId(1);
        assert!(open.successors(last).contains(&last));
    }

    #[test]
    fn counted_repetition_errors() {
        assert!(compile_regex("a{4,2}", 0).is_err());
        assert!(compile_regex("a{999}", 0).is_err());
        assert!(compile_regex("a{", 0).is_err());
    }

    #[test]
    fn nested_counted_repeats_are_bounded_before_expanding() {
        let start = std::time::Instant::now();
        match compile_regex("((a{256}){256}){256}", 0) {
            Err(AutomataError::Capacity { needed, budget }) => {
                assert_eq!(budget, MAX_PATTERN_POSITIONS);
                assert_eq!(needed, 256 * 256 * 256);
            }
            other => panic!("expected a capacity error, got {other:?}"),
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "refused only after expanding"
        );
        assert_eq!(
            compile_regex("(a{256}){64}", 0).unwrap().num_states(),
            256 * 64
        );
        assert!(matches!(
            compile_regex("(ab{256}){256}", 0),
            Err(AutomataError::Capacity { needed: 65_792, .. })
        ));
    }

    #[test]
    fn quadratic_follow_sets_are_bounded_before_adding() {
        // Every optional position follows every earlier one: 2 048
        // positions (far under the position cap) need ~2.1 M pairs.
        for pattern in ["((a?){256}){8}", "((a?){256}){256}"] {
            let start = std::time::Instant::now();
            match compile_regex(pattern, 0) {
                Err(AutomataError::Capacity { needed, budget }) => {
                    assert_eq!(budget, MAX_PATTERN_TRANSITIONS, "{pattern}");
                    assert!(needed > MAX_PATTERN_TRANSITIONS, "{pattern}");
                }
                other => panic!("{pattern}: expected a capacity error, got {other:?}"),
            }
            assert!(
                start.elapsed() < std::time::Duration::from_millis(100),
                "{pattern}: refused after {:?}",
                start.elapsed()
            );
        }
        // One level of optional repeats stays well inside the budget.
        let nfa = compile_regex("(a?){255}b", 0).unwrap();
        assert_eq!(nfa.num_states(), 256);
        // a_i -> a_j for i < j, and every a_i -> b.
        assert_eq!(nfa.num_transitions(), 255 * 254 / 2 + 255);
    }

    #[test]
    fn dotstar_prefix() {
        // The classic unanchored-with-dotstar IDS idiom.
        let nfa = compile_regex(".*evil", 0).unwrap();
        // dot position loops on itself and feeds 'e'.
        assert!(nfa.validate().is_ok());
        assert_eq!(nfa.num_states(), 5);
    }

    #[test]
    fn syntax_errors() {
        assert!(compile_regex("", 0).is_err());
        assert!(compile_regex("(ab", 0).is_err());
        assert!(compile_regex("ab)", 0).is_err());
        assert!(compile_regex("[z-a]", 0).is_err());
        assert!(compile_regex("[", 0).is_err());
        assert!(compile_regex("*a", 0).is_err());
        assert!(compile_regex("a$", 0).is_err());
        assert!(compile_regex("a\\", 0).is_err());
        assert!(compile_regex(r"\xZZ", 0).is_err());
    }

    #[test]
    fn class_with_leading_bracket_meta() {
        // ']' right after '[' is a literal in common dialects; we require
        // at least one item first, so escape it instead.
        let nfa = compile_regex(r"[\]]", 0).unwrap();
        assert!(nfa
            .state(crate::nfa::StateId(0))
            .charset()
            .contains(u16::from(b']')));
    }

    #[test]
    fn rule_set_assigns_sequential_ids() {
        let nfa = compile_rule_set(&["ab", "cd"]).unwrap();
        assert_eq!(nfa.num_states(), 4);
        let reports = nfa.report_states();
        assert_eq!(nfa.state(reports[0]).reports()[0].id, 0);
        assert_eq!(nfa.state(reports[1]).reports()[0].id, 1);
    }

    #[test]
    fn rule_set_error_names_rule() {
        let err = compile_rule_set(&["ab", "("]).unwrap_err();
        assert!(err.to_string().contains("rule 1"));
    }

    #[test]
    fn nested_groups() {
        let nfa = compile_regex("(a(b|c))+d", 0).unwrap();
        assert!(nfa.validate().is_ok());
        assert_eq!(nfa.num_states(), 4);
    }
}
