//! Generalized isolation level definitions (Adya, Liskov, O'Neil —
//! ICDE 2000), executable.
//!
//! This crate is the paper's primary contribution as a library:
//!
//! * **Direct conflicts** (§4.4, Definitions 2–6): read-dependencies,
//!   anti-dependencies and write-dependencies, in both item and
//!   predicate flavours — derived from a validated
//!   [`adya_history::History`] ([`direct_conflicts`]).
//! * **Serialization graphs**: the Direct Serialization Graph
//!   ([`Dsg`], Definition 7), the Start-ordered Serialization Graph
//!   ([`Ssg`], for Snapshot Isolation) and the Mixed Serialization
//!   Graph ([`Msg`], §5.5).
//! * **Phenomena** (§5): G0, G1a, G1b, G1c, G2-item and G2, plus the
//!   extension phenomena of Adya's thesis the paper points to —
//!   G-single (PL-2+), G-SIa/G-SIb (Snapshot Isolation) and G-cursor
//!   (Cursor Stability). Every detector returns a concrete witness.
//! * **Levels** ([`IsolationLevel`]): PL-1, PL-2, PL-CS, PL-2+,
//!   PL-2.99, PL-SI and PL-3, a [`check_level`] entry point, a
//!   [`classify`] routine computing the strongest satisfied levels,
//!   and [`check_mixing`] implementing Definition 9.
//! * **The paper's histories** ([`paper`]): every named history from
//!   the text (H1, H2, H1′, H2′, H_serial, H_wcycle, H_phantom, …) as
//!   ready-made values, used by the figure-regeneration harness.
//!
//! # Quick start
//!
//! ```
//! use adya_core::{classify, IsolationLevel};
//! use adya_history::parse_history;
//!
//! // H_wcycle (§5.1): writes of T1 and T2 interleave on x and y.
//! let h = parse_history(
//!     "w1(x,2) w2(x,5) w2(y,5) c2 w1(y,8) c1 [x1 << x2, y2 << y1]",
//! ).unwrap();
//! let report = classify(&h);
//! assert!(!report.satisfies(IsolationLevel::PL1)); // G0 cycle
//! ```

#![warn(missing_docs)]

mod analysis;
mod conflicts;
mod dsg;
mod executing;
mod levels;
mod mixing;
pub mod paper;
mod phenomena;
mod ssg;
pub mod usg;

pub use analysis::{
    analyze, analyze_in, check_level, check_mixing, classify, detect_all, Analysis,
};
pub use conflicts::{direct_conflicts, Conflict, DepKind};
pub use dsg::Dsg;
pub use executing::{check_running, is_doomed};
pub use levels::{IsolationLevel, LevelCheck, LevelReport};
pub use mixing::{MixingReport, Msg};
pub use phenomena::{
    g0, g1a, g1a_where, g1b, g1b_where, g1c, g2, g2_item, Phenomenon, PhenomenonKind,
};
pub use ssg::Ssg;

/// Re-export of the history model this crate analyzes.
pub use adya_history as history;
