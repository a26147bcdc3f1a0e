//! Convenience re-exports for downstream crates.
//!
//! `use pps_core::prelude::*;` brings in every type needed to configure a
//! switch, author traffic, implement a demultiplexing algorithm, or consume
//! run logs.

pub use crate::cell::{Cell, RoutedCell};
pub use crate::cell_pool::CellPool;
pub use crate::config::{BufferSpec, OutputDiscipline, PpsConfig};
pub use crate::demux::{
    ArrivalAction, BufferedDecision, BufferedDemultiplexor, Demultiplexor, DispatchCtx,
    ExplorableDemux, FlowHashDemux, InfoClass, LocalView,
};
pub use crate::error::ModelError;
pub use crate::fault::{FaultEvent, FaultPlan, PlaneMask};
pub use crate::ids::{CellId, FlowId, PlaneId, PortId};
pub use crate::link::{LinkBank, LinkSide};
pub use crate::queue::FifoQueue;
pub use crate::rate::{speedup, Ratio};
pub use crate::record::{CellRecord, RunLog};
pub use crate::snapshot::{GlobalSnapshot, SnapshotRing};
pub use crate::stepping::{SlotEngine, Stepping};
pub use crate::time::Slot;
pub use crate::trace::{Arrival, Trace};
