//! Properties of the one JSON codec every byte boundary now leans on:
//! `parse` inverts the writer over arbitrary Unicode and nesting, and
//! hostile documents are refused — with an `Err`, on a small stack —
//! instead of panicking or recursing as deep as the peer asks.

use adya_obs::json::{parse, write_escaped, Value, MAX_DEPTH};
use proptest::prelude::*;

/// Compact rendering of `v`; strings go through the production
/// escaper, which is the half of the writer that can get this wrong.
fn render(v: &Value, out: &mut String) {
    let quoted = |s: &str, out: &mut String| {
        out.push('"');
        write_escaped(out, s);
        out.push('"');
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Str(s) => quoted(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quoted(k, out);
                out.push_str(": ");
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (i64::MIN..i64::MAX).prop_map(|n| Value::Int(n.into())),
        (0..u64::MAX).prop_map(|n| Value::Int(n.into())),
        Just(Value::Int(u64::MAX.into())),
        text().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        let inner = std::rc::Rc::new(inner);
        prop_oneof![
            proptest::collection::vec(std::rc::Rc::clone(&inner), 0..4).prop_map(Value::Array),
            proptest::collection::vec((text(), inner), 0..4).prop_map(Value::Object),
        ]
    })
}

proptest! {
    #[test]
    fn parse_inverts_write(v in value()) {
        let mut doc = String::new();
        render(&v, &mut doc);
        prop_assert_eq!(parse(&doc), Ok(v), "{doc}");
    }

    #[test]
    fn every_truncation_is_an_error(v in value()) {
        // Wrapped in an array so that no proper prefix is itself a
        // complete document (a bare `12` truncates to a valid `1`).
        let mut doc = String::from("[");
        render(&v, &mut doc);
        doc.push(']');
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            prop_assert!(parse(&doc[..cut]).is_err(), "{:?} parsed", &doc[..cut]);
        }
    }
}

#[test]
fn every_c0_control_round_trips_escaped() {
    for c in (0u32..0x20).filter_map(char::from_u32) {
        let s = format!("a{c}b");
        let mut doc = String::from("\"");
        write_escaped(&mut doc, &s);
        doc.push('"');
        assert!(doc.bytes().all(|b| b >= 0x20), "raw control in {doc:?}");
        assert_eq!(parse(&doc), Ok(Value::Str(s)));
        // And unescaped it is refused, not passed through.
        assert!(parse(&format!("\"a{c}b\"")).is_err(), "U+{:04X}", c as u32);
    }
}

#[test]
fn hostile_documents_are_errors_on_a_small_stack() {
    // If refusing depth 10⁴ took recursion proportional to the input,
    // this thread's stack would not survive it.
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            for open in ["[", "{\"k\": "] {
                assert!(parse(&open.repeat(10_000)).is_err());
                let closed = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
                assert!(parse(&closed).is_err());
            }
            // The bound itself: MAX_DEPTH levels parse, one more does not.
            let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        })
        .expect("spawn")
        .join()
        .expect("no panic, no overflow");
    for bad in [
        "",
        " ",
        "nul",
        "{\"a\": 1} x",
        "{\"a\": 1}{",
        "[1,]",
        "{,}",
        "{\"a\" 1}",
        "{1: 2}",
        "\"\\ud800\"",        // lone high surrogate
        "\"\\ud800\\u0041\"", // high surrogate, then a non-surrogate
        "\"\\udc00\"",        // lone low surrogate
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\x41\"",
        "\"open",
        "123456789012345678901234567890", // 30 digits
        "18446744073709551616",           // u64::MAX + 1
        "-9223372036854775809",           // i64::MIN - 1
        "-",
        "01",
        "1.5",
        "1e3",
        "\u{feff}1",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn the_escapes_stock_encoders_emit_all_decode() {
    // Python's json.dumps of "café 😀 a/b" with ensure_ascii, plus the
    // short escapes our own writer never produces.
    let doc =
        r#"{"s": "caf\u00e9 \ud83d\ude00 a\/b \b\f\r\n\t\"\\", "n": -7, "t": true, "z": null}"#;
    let v = parse(doc).unwrap();
    assert_eq!(v.str_at("s"), Some("café 😀 a/b \u{8}\u{c}\r\n\t\"\\"));
    assert_eq!(v.get("n"), Some(&Value::Int(-7)));
    assert_eq!(v.u64_at("n"), None);
    assert_eq!(v.get("t"), Some(&Value::Bool(true)));
    assert_eq!(v.get("z"), Some(&Value::Null));
    assert_eq!(v.get("absent"), None);
    // Repeated keys: the first wins, deterministically.
    assert_eq!(parse(r#"{"k": 1, "k": 2}"#).unwrap().u64_at("k"), Some(1));
}
