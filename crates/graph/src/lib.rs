//! Generic directed-graph utilities for serialization graphs.
//!
//! The paper "Generalized Isolation Level Definitions" (Adya, Liskov,
//! O'Neil — ICDE 2000) defines every isolation level by proscribing a
//! class of cycles in a serialization graph: cycles of only
//! write-dependencies (G0), cycles of only dependencies (G1c), cycles
//! containing an anti-dependency (G2), and so on. This crate provides the
//! one graph implementation shared by the Direct Serialization Graph
//! (DSG), the Mixed Serialization Graph (MSG), the Start-ordered
//! Serialization Graph (SSG, for Snapshot Isolation) and the lock
//! manager's wait-for graph:
//!
//! * a labelled multi-digraph [`DiGraph`] over arbitrary node keys,
//! * the one strongly-connected-component labelling
//!   ([`label_components`], an iterative Tarjan; [`DiGraph::components`]
//!   over filtered edges, and [`DiGraph::topo_order`] read off it),
//! * the one closing-edge search: [`DiGraph::first_closing`] tries the
//!   qualifying edges inside a component in edge order, and
//!   [`BackPaths`] closes each with a shortest path kept inside the
//!   component; [`DiGraph::find_cycle`] and
//!   [`DiGraph::find_cycle_exactly_one`] are the two shapes over them,
//! * Graphviz DOT export ([`DiGraph::to_dot`], over the one [`Dot`] writer).
//!
//! Cycle searches never return a bare boolean: they return a [`Cycle`]
//! listing the exact edges, so a checker can explain *why* a history was
//! rejected.
//!
//! For the *online* checker there is additionally [`IncrementalDag`]:
//! Pearce–Kelly incremental topological ordering with cycle
//! condensation and removal of singleton nodes, so a streaming checker
//! can detect new cycles edge-by-edge and take off the graph the
//! sources that can no longer join one.

#![warn(missing_docs)]

mod cycle;
mod digraph;
mod dot;
mod incremental;
mod scc;

pub use cycle::{BackPaths, Cycle, CycleEdge};
pub use digraph::{DiGraph, EdgeRef, NodeIdx};
pub use dot::Dot;
pub use incremental::{DagParts, EdgeParts, IncrementalDag, Insert, SccInfo, SlotParts, SlotView};
pub use scc::{label_components, topo_order_of};
