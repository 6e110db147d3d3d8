//! A parser for the paper's textual history notation.
//!
//! Item-level histories can be written exactly as they appear in the
//! paper and parsed directly in tests and examples:
//!
//! ```
//! use adya_history::parse_history;
//!
//! // H2 of §3 (T2 observes a violated invariant x + y = 10):
//! let h = parse_history(
//!     "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) c1 r2(y1,9) c2",
//! ).unwrap();
//! assert_eq!(h.committed_txns().count(), 2);
//! ```
//!
//! Grammar (whitespace-separated tokens):
//!
//! * `w1(x)` / `w1(x,5)` / `w1(x,dead)` — write/delete by `T1`; version
//!   sequence numbers are assigned automatically.
//! * `r2(x1)` — `T2` reads the version of `x` most recently written by
//!   `T1`; `r2(x1:2)` reads `T1`'s second modification; `r2(xinit)`
//!   reads the initial version. An optional value after a comma is
//!   accepted and ignored (`r2(x1,5)` — values live on writes).
//! * `rc2(x1)` — cursor read (Cursor Stability extension).
//! * `b1` / `c1` / `a1` — begin / commit / abort.
//! * `#pred(NAME,lo,hi)` — declares predicate `NAME` matching integer
//!   values in `[lo, hi]` over the default relation; `rp2(NAME: x1,y0)`
//!   is then `T2`'s predicate read with the given version set (objects
//!   not listed are implicitly selected at their initial versions).
//! * A trailing `[x2 << x1, y1 << y2]` section fixes explicit version
//!   orders (writers' final versions; `init` is implicit and first).
//!
//! Objects are registered on first mention, **preloaded** with the
//! value of the first `w`/`r` that mentions them at `init` (or `0`).
//! For richer predicates (string matchers, multiple relations) use
//! [`crate::HistoryBuilder`], which can derive match tables from
//! arbitrary closures.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::builder::HistoryBuilder;
use crate::error::HistoryError;
use crate::history::History;
use crate::ids::{IdMap, ObjectId, TxnId, VersionId};
use crate::lexer::{lex, split_version_target, LexError, Token, VersionRef};
use crate::value::Value;

/// A failure to parse the textual notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A token that is not an operation or order section.
    UnexpectedToken(String),
    /// A malformed operation target (e.g. `r2()` or `r2(x)` without a
    /// writer).
    BadTarget(String),
    /// A version-order chain mixing objects (`[x1 << y2]`).
    MixedChain(String),
    /// A version-order entry referencing a transaction that never
    /// wrote the object.
    UnknownWriter(String),
    /// The parsed history failed §4.2 validation.
    History(HistoryError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedToken(t) => write!(f, "unexpected token {t:?}"),
            ParseError::BadTarget(t) => write!(f, "malformed operation target {t:?}"),
            ParseError::MixedChain(t) => write!(f, "version-order chain mixes objects: {t:?}"),
            ParseError::UnknownWriter(t) => {
                write!(f, "version order references unknown writer: {t:?}")
            }
            ParseError::History(e) => write!(f, "history invalid: {e}"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::History(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HistoryError> for ParseError {
    fn from(e: HistoryError) -> Self {
        ParseError::History(e)
    }
}

/// Parses the paper's textual notation into a validated [`History`].
///
/// All transactions run at the default requested level (PL-3); use
/// [`crate::HistoryBuilder`] for mixed-level histories.
pub fn parse_history(input: &str) -> Result<History, ParseError> {
    Parser::default().parse(input, false)
}

/// Like [`parse_history`], but applies the paper's completion rule:
/// transactions left open at the end of the text get an appended
/// abort (§4.2 — "a history that is not complete can be completed by
/// appending abort events").
pub fn parse_history_completed(input: &str) -> Result<History, ParseError> {
    Parser::default().parse(input, true)
}

/// `events` without the whitespace inside parentheses, which is noise
/// ("rp1(P: x0, y0)"), not a token boundary. Borrowed when there is
/// none, as in most histories.
fn compact(events: &str) -> Cow<'_, str> {
    // Fed the characters in order, says which ones are noise.
    let noise = || {
        let mut depth = 0usize;
        move |c: char| {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            depth > 0 && c.is_whitespace()
        }
    };
    if !events.chars().any(noise()) {
        return Cow::Borrowed(events);
    }
    let mut is_noise = noise();
    Cow::Owned(events.chars().filter(|&c| !is_noise(c)).collect())
}

#[derive(Default)]
struct Parser {
    b: HistoryBuilder,
    objects: IdMap<String, ObjectId>,
    /// Declared predicates: name -> (id, lo, hi).
    preds: BTreeMap<String, (crate::ids::PredicateId, i64, i64)>,
    /// Deferred version orders: (object name, writer chain).
    orders: Vec<(String, Vec<TxnId>)>,
}

impl Parser {
    fn parse(mut self, input: &str, complete: bool) -> Result<History, ParseError> {
        let (events_part, order_part) = match input.find('[') {
            Some(ix) => (&input[..ix], Some(&input[ix..])),
            None => (input, None),
        };
        for token in compact(events_part).split_whitespace() {
            self.parse_op(token)?;
        }
        if let Some(order) = order_part {
            self.parse_orders(order)?;
        }
        for (name, writers) in std::mem::take(&mut self.orders) {
            let obj = self.objects[&name];
            // Resolve writers defensively: naming a transaction that
            // never wrote the object is a parse error, not a panic.
            let mut order = Vec::with_capacity(writers.len());
            for w in writers {
                match self.b.last_seq(w, obj) {
                    Some(seq) => order.push(VersionId::new(w, seq)),
                    None => {
                        return Err(ParseError::UnknownWriter(format!("{w} never wrote {name}")))
                    }
                }
            }
            self.b.version_order(obj, &order);
        }
        if complete {
            self.b.build_completed().map_err(ParseError::from)
        } else {
            self.b.build().map_err(ParseError::from)
        }
    }

    fn object(&mut self, name: &str, preload: Value) -> ObjectId {
        if let Some(&o) = self.objects.get(name) {
            return o;
        }
        let o = self.b.preloaded_object(name, preload);
        self.objects.insert(name.to_string(), o);
        o
    }

    fn parse_op(&mut self, token: &str) -> Result<(), ParseError> {
        // #pred(NAME,lo,hi)
        if let Some(rest) = token.strip_prefix("#pred(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseError::UnexpectedToken(token.to_string()))?;
            let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
            let [name, lo, hi] = parts.as_slice() else {
                return Err(ParseError::UnexpectedToken(token.to_string()));
            };
            let lo: i64 = lo
                .parse()
                .map_err(|_| ParseError::UnexpectedToken(token.to_string()))?;
            let hi: i64 = hi
                .parse()
                .map_err(|_| ParseError::UnexpectedToken(token.to_string()))?;
            let rel = self.b.default_relation();
            let pid = self.b.predicate(format!("{name}:{lo}..={hi}"), &[rel]);
            self.b.derive_matches(
                pid,
                move |v| matches!(v, Value::Int(i) if (lo..=hi).contains(i)),
            );
            self.preds.insert(name.to_string(), (pid, lo, hi));
            return Ok(());
        }
        // rp1(NAME: targets…) — predicate read.
        if let Some(rest) = token.strip_prefix("rp") {
            if let Some(open) = rest.find('(') {
                if rest[..open].chars().all(|c| c.is_ascii_digit()) && open > 0 {
                    let txn = TxnId(
                        rest[..open]
                            .parse()
                            .map_err(|_| ParseError::UnexpectedToken(token.to_string()))?,
                    );
                    let inner = rest[open + 1..]
                        .strip_suffix(')')
                        .ok_or_else(|| ParseError::UnexpectedToken(token.to_string()))?;
                    let (pname, targets) = inner
                        .split_once(':')
                        .ok_or_else(|| ParseError::BadTarget(token.to_string()))?;
                    let &(pid, _, _) = self
                        .preds
                        .get(pname.trim())
                        .ok_or_else(|| ParseError::UnknownWriter(token.to_string()))?;
                    let mut vset = Vec::new();
                    for t in targets.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                        let (name, vref) = split_version_target(t)
                            .ok_or_else(|| ParseError::BadTarget(t.to_string()))?;
                        let obj = self.object(name, Value::Int(0));
                        let vid = match vref {
                            VersionRef::Init => VersionId::INIT,
                            VersionRef::Latest(w) => {
                                VersionId::new(w, self.b.last_seq(w, obj).unwrap_or(1))
                            }
                            VersionRef::Exact(w, seq) => VersionId::new(w, seq),
                        };
                        vset.push((obj, vid));
                    }
                    self.b.predicate_read_versions(txn, pid, vset);
                    return Ok(());
                }
            }
        }
        // Everything else is the vocabulary shared with the streaming
        // parser: b1 / c1 / a1 / w1(...) / r1(...) / rc1(...).
        let unexpected = || ParseError::UnexpectedToken(token.to_string());
        let op = lex(token).map_err(|e| match e {
            LexError::Unrecognized | LexError::BadTxn | LexError::Unclosed => unexpected(),
            LexError::NoTarget | LexError::BadVersionTarget(_) => {
                ParseError::BadTarget(token.to_string())
            }
        })?;
        match op {
            Token::Begin(t) => self.b.begin(t),
            Token::Commit(t) => self.b.commit(t),
            Token::Abort(t) => self.b.abort(t),
            Token::Write { txn, target, value } => {
                let obj = self.object(target, Value::Int(0));
                match value {
                    Some("dead") => {
                        self.b.delete(txn, obj);
                    }
                    Some(v) => {
                        let val = v
                            .parse::<i64>()
                            .map(Value::Int)
                            .unwrap_or_else(|_| Value::str(v));
                        self.b.write(txn, obj, val);
                    }
                    None => {
                        self.b.write_unvalued(txn, obj);
                    }
                }
            }
            Token::Read {
                txn,
                cursor,
                object,
                version,
                value,
            } => {
                // Preload with the value of an init read when given, so
                // `r2(xinit,5)` round-trips the paper's notation.
                let preload = match (version, value) {
                    (VersionRef::Init, Some(v)) => {
                        v.parse::<i64>().map(Value::Int).unwrap_or(Value::Int(0))
                    }
                    _ => Value::Int(0),
                };
                let obj = self.object(object, preload);
                let vid = match version {
                    VersionRef::Init => VersionId::INIT,
                    VersionRef::Latest(writer) => {
                        // A read of a never-written version surfaces as
                        // a ReadBeforeWrite validation error at build
                        // time, not a panic here.
                        let seq = self.b.last_seq(writer, obj).unwrap_or(1);
                        VersionId::new(writer, seq)
                    }
                    VersionRef::Exact(writer, seq) => VersionId::new(writer, seq),
                };
                if cursor {
                    self.b.cursor_read_version(txn, obj, vid);
                } else {
                    self.b.read_version(txn, obj, vid);
                }
            }
        }
        Ok(())
    }

    fn parse_orders(&mut self, section: &str) -> Result<(), ParseError> {
        let inner = section
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| ParseError::UnexpectedToken(section.to_string()))?;
        for chain in inner.split(',') {
            let chain = chain.trim();
            if chain.is_empty() {
                continue;
            }
            let mut obj_name: Option<String> = None;
            let mut writers: Vec<TxnId> = Vec::new();
            for elem in chain.split("<<") {
                let elem = elem.trim();
                let (name, vref) = split_version_target(elem)
                    .ok_or_else(|| ParseError::BadTarget(elem.to_string()))?;
                match &obj_name {
                    None => obj_name = Some(name.to_string()),
                    Some(prev) if prev != name => {
                        return Err(ParseError::MixedChain(chain.to_string()))
                    }
                    _ => {}
                }
                match vref {
                    VersionRef::Init => {} // implicit leading init
                    VersionRef::Latest(w) | VersionRef::Exact(w, _) => writers.push(w),
                }
            }
            let name = obj_name.ok_or_else(|| ParseError::BadTarget(chain.to_string()))?;
            if !self.objects.contains_key(&name) {
                return Err(ParseError::UnknownWriter(chain.to_string()));
            }
            self.orders.push((name, writers));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxnStatus;

    #[test]
    fn parses_simple_history() {
        let h = parse_history("w1(x,2) c1 r2(x1) c2").unwrap();
        assert_eq!(h.len(), 4);
        let x = h.object_by_name("x").unwrap();
        assert_eq!(h.version_order(x).len(), 2);
    }

    #[test]
    fn parses_h1_prime() {
        // H1' of §3.
        let h = parse_history("r1(xinit,5) w1(x,1) r1(yinit,5) w1(y,9) r2(x1,1) r2(y1,9) c1 c2")
            .unwrap();
        assert_eq!(h.committed_txns().count(), 2);
        let x = h.object_by_name("x").unwrap();
        assert_eq!(h.version_value(x, VersionId::INIT), Some(&Value::Int(5)));
    }

    #[test]
    fn parses_version_order_section() {
        // H_write_order of §4.2 (T4's write aborted, T3 uncommitted →
        // completion appends nothing here since we commit/abort all).
        let h =
            parse_history("w1(x) w2(x) w2(y) c1 c2 r3(x1) w3(x) w4(y) a4 a3  [x2 << x1]").unwrap();
        let x = h.object_by_name("x").unwrap();
        let v1 = VersionId::new(TxnId(1), 1);
        let v2 = VersionId::new(TxnId(2), 1);
        assert!(h.version_precedes(x, v2, v1));
    }

    #[test]
    fn parses_abort_and_dead() {
        let h = parse_history("w1(x,5) c1 w2(x,dead) a2").unwrap();
        assert_eq!(h.txn(TxnId(2)).unwrap().status, TxnStatus::Aborted);
        let x = h.object_by_name("x").unwrap();
        // Aborted delete: only init + x1 committed.
        assert_eq!(h.version_order(x).len(), 2);
    }

    #[test]
    fn parses_intermediate_version_read() {
        let h = parse_history("w1(x,1) w1(x,2) r2(x1:1) c1 c2").unwrap();
        let x = h.object_by_name("x").unwrap();
        assert!(!h.is_final_version(x, VersionId::new(TxnId(1), 1)));
        assert!(h.is_final_version(x, VersionId::new(TxnId(1), 2)));
    }

    #[test]
    fn parses_begin_and_cursor_read() {
        let h = parse_history("b1 w1(x,1) c1 b2 rc2(x1) c2").unwrap();
        assert_eq!(h.txn(TxnId(1)).unwrap().begin_event, Some(0));
        let r = h.reads_of(TxnId(2)).next().unwrap().1;
        assert!(r.through_cursor);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_history("nonsense"),
            Err(ParseError::UnexpectedToken(_))
        ));
        assert!(matches!(
            parse_history("r1()"),
            Err(ParseError::BadTarget(_))
        ));
        assert!(matches!(
            parse_history("w1(x) c1 [x1 << y1]"),
            Err(ParseError::MixedChain(_))
        ));
    }

    #[test]
    fn version_order_with_unknown_writer_is_an_error() {
        // Regression: used to panic inside the builder.
        assert!(matches!(
            parse_history("w1(x,1) c1 [x9]"),
            Err(ParseError::UnknownWriter(_))
        ));
    }

    #[test]
    fn rejects_invalid_history() {
        // T2 reads a version that is never written.
        assert!(matches!(
            parse_history("r2(x1) c2"),
            Err(ParseError::History(_))
        ));
    }

    #[test]
    fn string_values_accepted() {
        let h = parse_history("w1(x,Sales) c1").unwrap();
        let x = h.object_by_name("x").unwrap();
        assert_eq!(
            h.version_value(x, VersionId::new(TxnId(1), 1)),
            Some(&Value::str("Sales"))
        );
    }

    #[test]
    fn predicate_declaration_and_read() {
        // An Hphantom-like shape in pure text: T1 queries positives,
        // T2 inserts a matching row afterwards.
        let h = parse_history("#pred(POS,1,100) w0(x,10) c0 rp1(POS: x0) w2(z,10) c2 c1").unwrap();
        let (pid, info) = h.predicates().next().unwrap();
        assert!(info.name.starts_with("POS"));
        let x = h.object_by_name("x").unwrap();
        let z = h.object_by_name("z").unwrap();
        assert!(h.matches(pid, x, VersionId::new(TxnId(0), 1)));
        assert!(h.matches(pid, z, VersionId::new(TxnId(2), 1)));
        assert!(!h.matches(pid, x, VersionId::INIT), "init preload is 0");
        let pr = h.predicate_reads_of(TxnId(1)).next().unwrap().1;
        assert_eq!(pr.vset.len(), 1);
        // z is implicitly selected at init: x explicit + z implicit.
        assert_eq!(h.resolve_vset(pr).len(), 2);
    }

    #[test]
    fn predicate_read_of_unknown_predicate_fails() {
        assert!(matches!(
            parse_history("rp1(NOPE: x0) c1"),
            Err(ParseError::UnknownWriter(_))
        ));
    }

    #[test]
    fn empty_vset_predicate_read() {
        let h = parse_history("#pred(P,0,5) w1(x,3) c1 rp2(P:) c2").unwrap();
        let pr = h.predicate_reads_of(TxnId(2)).next().unwrap().1;
        assert!(pr.vset.is_empty());
    }

    #[test]
    fn multi_char_object_names() {
        let h = parse_history("w1(sum,30) c1 r2(sum1) c2").unwrap();
        assert!(h.object_by_name("sum").is_some());
    }
}
