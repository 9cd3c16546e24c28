//! Memory-hierarchy characterization over the Agave reference stream.
//!
//! The paper measures every memory reference on gem5's atomic, cache-less
//! CPU model and leaves the locality question open: Android spreads
//! instruction fetches over more than 65 VMA regions (data over ~170)
//! where SPEC uses little more than the application binary and the
//! kernel — what does that do to a real cache? This crate answers it in
//! simulation. It consumes the classified reference stream through the
//! [`agave_trace::ReferenceSink`] observer API and replays it through a
//! configurable hierarchy — split L1I/L1D, unified L2, split I/D TLBs,
//! exact LRU — accounting hits and misses per (process, region, level).
//!
//! # Example
//!
//! ```
//! use agave_cache::{HierarchyGeometry, Level, MemoryHierarchy};
//! use agave_trace::{RefKind, SharedSink, Tracer};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut tracer = Tracer::new();
//! let sink = Rc::new(RefCell::new(MemoryHierarchy::new(HierarchyGeometry::tiny())));
//! tracer.add_sink(sink.clone() as SharedSink);
//!
//! let pid = tracer.register_process("app_process");
//! let tid = tracer.register_thread(pid, "main");
//! let region = tracer.intern_region("libdvm.so");
//! tracer.charge(pid, tid, region, RefKind::InstrFetch, 10_000);
//! tracer.flush_sinks(); // sink delivery is batched
//!
//! let report = sink.borrow().report("demo", &tracer.name_directory());
//! assert_eq!(report.total(Level::L1i).accesses(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod hierarchy;
mod model;
mod report;
mod stack;

pub use geometry::{
    format_size, parse_size, CacheGeometry, GeometryError, HierarchyGeometry, TlbGeometry,
    MODEL_BUDGET_BYTES,
};
pub use hierarchy::{Level, MemoryHierarchy};
pub use model::SetAssocCache;
pub use report::{CacheReport, LevelStats, RegionRow};
pub use stack::{SweepFront, SweepShape};
