//! # adya — Generalized Isolation Level Definitions, executable
//!
//! A comprehensive Rust reproduction of Atul Adya, Barbara Liskov and
//! Patrick O'Neil, **"Generalized Isolation Level Definitions"**
//! (IEEE ICDE 2000): the multi-version history model, the Direct
//! Serialization Graph, the phenomena G0/G1/G2 (and the thesis
//! extensions G-single, G-SI, G-cursor), the portable isolation levels
//! PL-1 … PL-3 (plus PL-2+, PL-SI, PL-CS), mixed-level analysis
//! (Definition 9) — together with everything needed to *exercise* the
//! theory: a preventative-definitions baseline (P0–P3), a
//! multi-scheme transactional engine (2PL per Figure 1 row,
//! Kung–Robinson OCC, an SGT certifier, MVCC snapshot isolation and
//! read committed, multiversion timestamp ordering), and
//! workload/history generators.
//!
//! This crate is a facade: it re-exports the workspace members under
//! stable module names.
//!
//! ```
//! use adya::core::{classify, IsolationLevel};
//! use adya::history::parse_history;
//!
//! // H2' of the paper: rejected by lock-flavoured definitions (P2),
//! // admitted — and serializable — under the generalized ones.
//! let h = parse_history(
//!     "r2(xinit,5) r1(xinit,5) w1(x,1) r1(yinit,5) r2(yinit,5) w1(y,9) c2 c1",
//! ).unwrap();
//! assert!(classify(&h).satisfies(IsolationLevel::PL3));
//! ```

#![warn(missing_docs)]

/// The history model (§4): events, versions, version orders,
/// predicates, builder and parser.
pub use adya_history as history;

/// The generalized definitions (§4.4–§5): conflicts, DSG/SSG/MSG,
/// phenomena, levels, classification, mixing, and the paper's named
/// histories.
pub use adya_core as core;

/// The preventative baseline (Berenson et al.): P0–P3 and the Figure 1
/// locking levels.
pub use adya_prevent as prevent;

/// The transactional engine substrate: 2PL / OCC / SGT / MVCC / MVTO
/// behind one trait, recording checkable histories.
pub use adya_engine as engine;

/// Workload programs, the deterministic driver, generators, the
/// random-history sampler and the roster of engine schemes.
pub use adya_workloads as workloads;

/// Generic serialization-graph machinery (SCC, witness cycles, DOT).
pub use adya_graph as graph;

/// The streaming checker: per-transaction verdicts at commit time with
/// incremental cycle detection and bounded-memory GC.
pub use adya_online as online;

/// Violation forensics: minimal witnesses, explain narratives,
/// cycle-scoped DOT and Chrome-trace timeline export.
pub use adya_forensics as forensics;

/// The checker service: durable multi-tenant sessions over sockets
/// with kill-and-restart recovery and graceful shutdown.
pub use adya_serve as serve;
