//! Directed-graph algorithms substrate for the `tsg` workspace.
//!
//! This crate provides the small set of classical graph algorithms that the
//! Timed-Signal-Graph analyses in `tsg-core` and the baseline
//! maximum-cycle-ratio solvers in `tsg-baselines` are built on:
//!
//! * [`DiGraph`] — a compact directed multigraph with stable integer ids,
//! * [`topo::topological_order`] — Kahn's algorithm with cycle detection,
//! * [`cycles::simple_cycles`] — Johnson's simple-cycle enumeration,
//! * [`bellman::positive_cycle`] — Bellman–Ford positive-cycle detection
//!   (the feasibility oracle used by Lawler's binary search).
//!
//! The types here are deliberately free of any Signal-Graph semantics; nodes
//! and edges are plain indices and all labelling lives in the caller.
//!
//! # Examples
//!
//! ```
//! use tsg_graph::DiGraph;
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b);
//! assert_eq!(tsg_graph::topo::topological_order(&g).unwrap(), [a, b]);
//! g.add_edge(b, a);
//! assert!(tsg_graph::topo::topological_order(&g).is_err());
//! ```

pub mod bellman;
pub mod cycles;
pub mod digraph;
pub mod topo;

pub use digraph::{DiGraph, EdgeId, NodeId};
