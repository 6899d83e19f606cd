//! In-memory time-series database, the stand-in for the paper's
//! Heapster + InfluxDB monitoring pipeline (§V-C).
//!
//! The SGX-aware scheduler never talks to nodes directly: probes push
//! per-pod metrics into a time-series database, and the scheduler runs
//! sliding-window queries against it. This crate reproduces that data
//! path:
//!
//! * [`Point`] — a tagged, timestamped observation
//!   (`sgx/epc{pod_name=...,nodename=...} value=N t`).
//! * [`Database`] — tagged series storage with retention enforcement:
//!   an ordered index from `(measurement, tag set)` — the tag set packed
//!   into one byte string that sorts as the [`TagSet`] does — to a slab
//!   of sample vectors. [`Database::resolve`] names a series once and
//!   returns a [`SeriesId`]; [`Database::append`] writes through it at
//!   the cost of a push. Every tagged insert is the two composed.
//! * [`PointBatch`] — the one-frame-per-node-per-scrape transport unit
//!   probes ship to the store across a wire.
//! * [`WindowRollup`] — Listing 1 as a continuous query, the way
//!   InfluxDB runs one: the per-node window state every [`Database`]
//!   maintains as it ingests ([`Database::window`]) — fed by every write
//!   path, trimmed by its retention, a node forgotten when its series
//!   are dropped — and read by the scheduler instead of re-evaluating
//!   the query. A probe writes through a [`Scrape`]: one node's rows,
//!   appended by [`SeriesId`] where the window remembers the pod.
//! * [`query`] — a structured query AST and executor supporting the
//!   nested sliding-window aggregation of the paper's Listing 1:
//!   [`Database::query`] seeks each series to the window, and
//!   [`Database::query_full_scan`] is the naive reference it is tested
//!   against. The rollup is in turn held to `query`.
//! * [`influxql`] — a parser for the InfluxQL subset the paper uses, so
//!   the exact query text from Listing 1 runs against [`Database`].
//!
//! # Examples
//!
//! Running the paper's Listing 1 — "EPC used over the last 25 s per pod
//! (max), summed per node":
//!
//! ```
//! use des::SimTime;
//! use tsdb::{Database, Point};
//!
//! let mut db = Database::new();
//! for (t, pod, node, pages) in [
//!     (10, "pod-a", "node-1", 500.0),
//!     (20, "pod-a", "node-1", 700.0),
//!     (20, "pod-b", "node-1", 300.0),
//!     (20, "pod-c", "node-2", 900.0),
//! ] {
//!     db.insert(
//!         Point::new("sgx/epc", SimTime::from_secs(t), pages)
//!             .with_tag("pod_name", pod)
//!             .with_tag("nodename", node),
//!     );
//! }
//!
//! let query = tsdb::influxql::parse(
//!     r#"SELECT SUM(epc) AS epc FROM
//!        (SELECT MAX(value) AS epc FROM "sgx/epc"
//!         WHERE value <> 0 AND time >= now() - 25s
//!         GROUP BY pod_name, nodename)
//!        GROUP BY nodename"#,
//! )?;
//! let rows = db.query(&query, SimTime::from_secs(30));
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0].tag("nodename"), Some("node-1"));
//! assert_eq!(rows[0].value, 1000.0); // max(pod-a)=700 + max(pod-b)=300
//! # Ok::<(), tsdb::TsdbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod influxql;
pub mod query;
pub mod wire;

mod batch;
mod error;
mod key;
mod point;
mod rollup;
mod storage;

pub use batch::PointBatch;
pub use error::TsdbError;
pub use point::{Point, TagSet};
pub use query::{Aggregate, Predicate, Row, Select, TimeBound};
pub use rollup::{RollupStats, WindowRollup};
pub use storage::{Database, Scrape, SeriesId};
