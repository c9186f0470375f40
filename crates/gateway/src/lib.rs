//! Cloud gateway services and forwarding tables.
//!
//! The GW pod's CPU side: the 1st-gen x86 gateway code Albatross reuses
//! wholesale (§3.1 "the CPU can reuse the entire code from the 1st x86
//! gateway"). This crate implements:
//!
//! * [`lpm::LpmTable`] — longest-prefix-match routing, DRAM-resident, sized
//!   for >10 M VXLAN routes (the Tab. 6 capacity advantage over Sailfish's
//!   0.2 M).
//! * [`vmnc::VmNcMap`] — the exact-match VM→NC mapping that dominates
//!   Sailfish's SRAM (Tab. 1).
//! * [`acl::AclTable`] — ordered 5-tuple security rules (the drop source in
//!   the Fig. 12 drop-flag experiment).
//! * [`nat::SnatTable`] — stateful source NAT with port allocation and
//!   session aging (the §2.1 self-updating-table case Tofino cannot do).
//! * [`session::{LockedSessionTable, ShardedSessionTable}`] — the
//!   write-heavy/write-light stateful-NF state backends behind the §7
//!   scaling lesson (lock + cache-coherence contention vs per-core shards).
//! * [`services::ServicePipeline`] — the four Tab. 2 services as lookup
//!   chains over [`albatross_mem`]'s cache/DRAM model, which is what makes
//!   VPC-Internet slower than VPC-VPC (more tables, longer code).
//! * [`worker::DataCore`] — the data-core execution model with utilization
//!   accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod flowstate;
pub mod lpm;
pub mod nat;
pub mod services;
pub mod session;
pub mod vmnc;
pub mod worker;

pub use acl::{AclAction, AclTable};
pub use flowstate::{FlowStateConfig, FlowStateEngine, FlowStats, FlowVerdict};
pub use lpm::LpmTable;
pub use nat::SnatTable;
pub use services::{ServiceKind, ServicePipeline};
pub use vmnc::VmNcMap;
pub use worker::DataCore;
