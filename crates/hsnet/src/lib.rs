#![warn(missing_docs)]
//! # bmbe-hsnet
//!
//! The handshake-circuit netlist intermediate representation — the Rust
//! equivalent of Balsa's `.sbreeze` files. A [`netlist::Netlist`] is a graph
//! of handshake [`kind::ComponentKind`] instances wired by four-phase
//! channels; [`netlist::Netlist::partition`] performs the control/datapath
//! split that feeds the burst-mode back-end (Fig. 1 of the paper).
//!
//! # Examples
//!
//! ```
//! use bmbe_hsnet::{Netlist, ComponentKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut n = Netlist::new("pipeline");
//! let a = n.add_channel("activate", 0);
//! let s0 = n.add_channel("stage0", 0);
//! let s1 = n.add_channel("stage1", 0);
//! n.add_component(ComponentKind::Sequence { branches: 2 }, &[a, s0, s1])?;
//! n.expose(a);
//! n.expose(s0);
//! n.expose(s1);
//! n.validate()?;
//! assert_eq!(n.partition().control.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod kind;
pub mod levelize;
pub mod netlist;

pub use kind::{Activity, BinOp, ComponentKind, PortSpec, UnOp};
pub use levelize::{levelize, CycleError, Levelization};
pub use netlist::{
    Channel, ChannelId, Component, ComponentId, Endpoint, Netlist, NetlistError, Partition,
};
