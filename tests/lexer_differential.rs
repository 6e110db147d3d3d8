//! Differential test of the two notation front-ends. The batch parser
//! (`parse_history`) and the streaming parser (`StreamParser`) read
//! tokens through one shared lexer; this pins that they keep doing so:
//! over the paper's own histories and generated ones, every token of
//! the shared vocabulary becomes the same event in both, and over
//! arbitrary token soup both accept and reject exactly what the lexer
//! does.

use adya::history::{lex, parse_history_completed, Event, ParseError, Token};
use adya::online::StreamParser;
use adya::workloads::histgen::{random_history, HistGenConfig};
use proptest::prelude::*;

/// Parses `text` with both front-ends and demands the same events.
/// Both intern objects at first mention, so ids line up too.
fn assert_same_events(text: &str) {
    let batch = parse_history_completed(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut stream = StreamParser::new();
    // A trailing `[x1 << x2]` version-order section is batch-only.
    let (ops, _orders) = text.split_once('[').unwrap_or((text, ""));
    let streamed: Vec<Event> = ops
        .split_whitespace()
        .map(|tok| {
            stream
                .parse_token(tok)
                .unwrap_or_else(|e| panic!("{text}: {e}"))
        })
        .collect();
    // Completion may append aborts for transactions left open.
    assert_eq!(
        &batch.events()[..streamed.len()],
        &streamed[..],
        "front-ends disagree on {text}"
    );
}

#[test]
fn paper_histories_read_the_same_in_both_front_ends() {
    let mut compared = 0;
    for (_, h) in adya::core::paper::all() {
        // Predicate histories are batch-only notation.
        let Some(text) = h.to_notation() else {
            continue;
        };
        assert_same_events(&text);
        compared += 1;
    }
    assert!(compared >= 7, "only {compared} item-level paper histories");
    // The spellings `to_notation` never emits: latest-version reads,
    // cursor reads, dead and string-valued writes, explicit begins.
    assert_same_events("b1 w1(x,5) w1(x,6) b2 r2(x1) rc2(x1:1) w2(y,dead) w2(z,Sales) c1 c2");
    assert_same_events("r1(xinit,5) w1(sum,-3) r2(sum1,7) a1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_histories_read_the_same_in_both_front_ends(
        txns in 2usize..10,
        objects in 1usize..5,
        ops in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let cfg = HistGenConfig {
            txns,
            objects,
            ops_per_txn: ops,
            write_prob: 0.5,
            dirty_read_prob: 0.3,
            abort_prob: 0.2,
            shuffle_order_prob: 0.0,
            max_concurrent: 3,
        };
        let text = random_history(&cfg, seed)
            .to_notation()
            .expect("item-level histories have a notation");
        assert_same_events(&text);
    }

    /// Token soup over the notation's own alphabet: whatever the lexer
    /// says about a token, both front-ends say too.
    #[test]
    fn both_front_ends_accept_exactly_what_the_lexer_accepts(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 1..9),
    ) {
        let tok: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        // Batch-only notation never reaches the shared lexer.
        prop_assume!(!tok.starts_with("rp") && !tok.contains('[') && !tok.starts_with('#'));
        let lexed = lex(&tok);
        let batch_lexical_error = matches!(
            parse_history_completed(&tok),
            Err(ParseError::UnexpectedToken(_) | ParseError::BadTarget(_))
        );
        prop_assert_eq!(batch_lexical_error, lexed.is_err(), "batch vs lexer on {tok:?}");
        // The one streaming-only rule on top of the lexer: write
        // targets carry no digits (they would read as version refs).
        let digit_target = matches!(
            lexed,
            Ok(Token::Write { target, .. }) if target.chars().any(|c| c.is_ascii_digit())
        );
        let streamed = StreamParser::new().parse_token(&tok);
        prop_assert_eq!(
            streamed.is_err(),
            lexed.is_err() || digit_target,
            "stream vs lexer on {tok:?}: {streamed:?}"
        );
    }
}

const ALPHABET: [&str; 16] = [
    "b", "c", "a", "r", "w", "rc", "1", "2", "0", "(", ")", ",", ":", "x", "init", "+",
];
