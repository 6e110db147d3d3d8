//! The token lexer for the paper's textual history notation — the one
//! reading of `b1`, `c1`, `a1`, `w1(x,5)`, `r2(x1:2)`, `rc2(xinit)`
//! shared by the batch parser ([`parse_history`](crate::parse_history))
//! and the streaming parser in `adya-online`, so a token cannot mean
//! one thing to one checker and another to the other.
//!
//! [`lex`] splits one whitespace-free token into borrowed pieces and
//! allocates nothing; what the pieces *mean* (interning the object,
//! resolving "latest version by T1", preloading values) stays with the
//! caller. Predicate declarations, predicate reads and the trailing
//! version-order section are batch-only notation and are not tokens
//! here, though the order section's `x1`-style elements go through
//! the same [`split_version_target`].

use crate::ids::TxnId;

/// Which version of an object a read names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionRef {
    /// `xinit`: the initial version.
    Init,
    /// `x1`: the latest version `T1` has written so far.
    Latest(TxnId),
    /// `x1:2`: `T1`'s second modification.
    Exact(TxnId, u32),
}

/// One operation token, borrowing from the token text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'a> {
    /// `b1`
    Begin(TxnId),
    /// `c1`
    Commit(TxnId),
    /// `a1`
    Abort(TxnId),
    /// `w1(x)` / `w1(x,5)` / `w1(x,dead)`
    Write {
        /// The writing transaction.
        txn: TxnId,
        /// The first argument, verbatim.
        target: &'a str,
        /// The second argument, when present.
        value: Option<&'a str>,
    },
    /// `r2(x1)` / `r2(x1:2)` / `r2(xinit,5)` / `rc2(x1)`
    Read {
        /// The reading transaction.
        txn: TxnId,
        /// `rc…`: a read through a cursor.
        cursor: bool,
        /// The object name inside the version target.
        object: &'a str,
        /// The version the target names.
        version: VersionRef,
        /// The second argument, when present.
        value: Option<&'a str>,
    },
}

/// Why a token is not in the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexError<'a> {
    /// No operation starts like this (or a call has no `(`).
    Unrecognized,
    /// The transaction number before `(` is not a `u32`.
    BadTxn,
    /// A call without its closing `)`.
    Unclosed,
    /// A call with an empty first argument.
    NoTarget,
    /// A read whose first argument is not `<name><writer>[:<seq>]` or
    /// `<name>init`.
    BadVersionTarget(&'a str),
}

/// Lexes one whitespace-free token.
// Inlined across the crate boundary: the streaming caller runs this once
// per event, and as a plain call it measured ~5 % slower per token.
#[inline]
pub fn lex(tok: &str) -> Result<Token<'_>, LexError<'_>> {
    for (prefix, make) in [
        ('b', Token::Begin as fn(TxnId) -> Token<'static>),
        ('c', Token::Commit),
        ('a', Token::Abort),
    ] {
        if let Some(Ok(n)) = tok.strip_prefix(prefix).map(str::parse::<u32>) {
            return Ok(make(TxnId(n)));
        }
    }
    let (cursor, rest) = if let Some(r) = tok.strip_prefix("rc") {
        (Some(true), r)
    } else if let Some(r) = tok.strip_prefix('r') {
        (Some(false), r)
    } else if let Some(r) = tok.strip_prefix('w') {
        (None, r)
    } else {
        return Err(LexError::Unrecognized);
    };
    let open = rest.find('(').ok_or(LexError::Unrecognized)?;
    let txn = TxnId(rest[..open].parse().map_err(|_| LexError::BadTxn)?);
    let inner = rest[open + 1..]
        .strip_suffix(')')
        .ok_or(LexError::Unclosed)?;
    let mut args = inner.split(',').map(str::trim);
    let target = args
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(LexError::NoTarget)?;
    let value = args.next();
    Ok(match cursor {
        None => Token::Write { txn, target, value },
        Some(cursor) => {
            let (object, version) =
                split_version_target(target).ok_or(LexError::BadVersionTarget(target))?;
            Token::Read {
                txn,
                cursor,
                object,
                version,
                value,
            }
        }
    })
}

/// Splits `x1`, `x1:2`, `xinit` into object name and version
/// reference. The object name is the maximal prefix that does not end
/// in a digit.
pub fn split_version_target(target: &str) -> Option<(&str, VersionRef)> {
    if let Some(name) = target.strip_suffix("init") {
        if !name.is_empty() {
            return Some((name, VersionRef::Init));
        }
    }
    let (base, seq) = match target.split_once(':') {
        Some((b, s)) => (b, Some(s.parse::<u32>().ok()?)),
        None => (target, None),
    };
    let digits_at = base
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_ascii_digit())
        .last()
        .map(|(i, _)| i)?;
    let (name, writer) = base.split_at(digits_at);
    if name.is_empty() {
        return None;
    }
    let writer: u32 = writer.parse().ok()?;
    Some(match seq {
        Some(s) => (name, VersionRef::Exact(TxnId(writer), s)),
        None => (name, VersionRef::Latest(TxnId(writer))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_vocabulary() {
        assert_eq!(lex("b1"), Ok(Token::Begin(TxnId(1))));
        assert_eq!(lex("c42"), Ok(Token::Commit(TxnId(42))));
        assert_eq!(lex("a0"), Ok(Token::Abort(TxnId(0))));
        assert_eq!(
            lex("w12(sum,-3)"),
            Ok(Token::Write {
                txn: TxnId(12),
                target: "sum",
                value: Some("-3"),
            })
        );
        assert_eq!(
            lex("w1(x)"),
            Ok(Token::Write {
                txn: TxnId(1),
                target: "x",
                value: None,
            })
        );
        assert_eq!(
            lex("rc2(x1:3, 9)"),
            Ok(Token::Read {
                txn: TxnId(2),
                cursor: true,
                object: "x",
                version: VersionRef::Exact(TxnId(1), 3),
                value: Some("9"),
            })
        );
        assert_eq!(
            lex("r2(sum10)"),
            Ok(Token::Read {
                txn: TxnId(2),
                cursor: false,
                object: "sum",
                version: VersionRef::Latest(TxnId(10)),
                value: None,
            })
        );
        assert_eq!(
            lex("r3(yinit,5)"),
            Ok(Token::Read {
                txn: TxnId(3),
                cursor: false,
                object: "y",
                version: VersionRef::Init,
                value: Some("5"),
            })
        );
    }

    #[test]
    fn names_each_way_a_token_can_be_wrong() {
        assert_eq!(lex("zzz"), Err(LexError::Unrecognized));
        assert_eq!(lex(""), Err(LexError::Unrecognized));
        assert_eq!(lex("c"), Err(LexError::Unrecognized));
        assert_eq!(lex("w1"), Err(LexError::Unrecognized));
        assert_eq!(lex("wx(y)"), Err(LexError::BadTxn));
        assert_eq!(lex("w(y)"), Err(LexError::BadTxn));
        assert_eq!(lex("r99999999999(x1)"), Err(LexError::BadTxn));
        assert_eq!(lex("w1(x"), Err(LexError::Unclosed));
        assert_eq!(lex("r1()"), Err(LexError::NoTarget));
        assert_eq!(lex("w1( ,5)"), Err(LexError::NoTarget));
        assert_eq!(lex("r1(x)"), Err(LexError::BadVersionTarget("x")));
        assert_eq!(lex("r1(7)"), Err(LexError::BadVersionTarget("7")));
        assert_eq!(lex("r1(init)"), Err(LexError::BadVersionTarget("init")));
        assert_eq!(lex("r1(x1:z)"), Err(LexError::BadVersionTarget("x1:z")));
    }
}
