//! The session-directory file-name grammar is a bijection: every
//! [`FileName`] prints to a string that reads back as itself, and a
//! string is accepted only when it is exactly what its reading prints —
//! so no two spellings ever name one file, whichever path (recovery,
//! compaction, replication frames, inventories) reads them. The
//! replication codecs built on it round-trip too: a follower's
//! inventory listing and the hex payloads of `append`/`put` frames.

use adya_serve::{proto, FileName};
use proptest::prelude::*;

fn file_name() -> impl Strategy<Value = FileName> {
    let number = prop_oneof![
        0u64..20,
        0u64..u64::MAX,
        Just(u64::MAX),
        // Powers of ten: where a digit count changes.
        (0u32..20).prop_map(|e| 10u64.pow(e)),
    ];
    (0u8..5, number).prop_map(|(kind, n)| match kind {
        0 => FileName::LegacyNames,
        1 => FileName::Names(n),
        2 => FileName::Segment(n),
        3 => FileName::Snapshot(n),
        _ => FileName::Closed,
    })
}

/// Strings near the grammar: its own fragments shuffled with the
/// characters a sloppy reader lets through.
fn near_miss() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("seg-"),
        Just("snap-"),
        Just("names-"),
        Just("names"),
        Just("closed"),
        Just(".log"),
        Just(".snap"),
        Just(".tmp"),
        Just("0"),
        Just("00"),
        Just("7"),
        Just("18446744073709551615"),
        Just("18446744073709551616"),
        Just("+"),
        Just("-"),
        Just(" "),
        Just("/"),
        Just(".."),
        Just("٣"),
        Just("x"),
        Just(""),
    ];
    proptest::collection::vec(piece, 0..5).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_then_parse_is_identity(f in file_name()) {
        prop_assert_eq!(FileName::parse(&f.to_string()), Some(f));
    }

    #[test]
    fn near_misses_are_accepted_only_in_canonical_form(s in near_miss()) {
        if let Some(f) = FileName::parse(&s) {
            prop_assert_eq!(f.to_string(), s);
        }
    }

    #[test]
    fn inventories_round_trip(files in proptest::collection::vec((file_name(), 0u64..u64::MAX), 0..8)) {
        let mut files = files;
        files.sort_unstable();
        files.dedup_by_key(|f| f.0);
        let reply = adya_obs::json::parse(&proto::inventory_frame("t", &files)).unwrap();
        prop_assert_eq!(proto::parse_inventory(reply.str_at("files").unwrap()), Ok(files));
    }

    #[test]
    fn hex_round_trips(bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96)) {
        prop_assert_eq!(proto::decode_hex(&proto::encode_hex(&bytes)), Ok(bytes));
    }

    #[test]
    fn arbitrary_strings_never_panic(chars in proptest::collection::vec(any::<char>(), 0..24)) {
        let s: String = chars.into_iter().collect();
        let _ = (proto::parse_inventory(&s), proto::decode_hex(&s));
        if let Some(f) = FileName::parse(&s) {
            prop_assert_eq!(f.to_string(), s);
        }
    }
}
