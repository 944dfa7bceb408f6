//! The micro-partition storage substrate for `snowprune`.
//!
//! Models the decoupled compute/storage architecture of §2: immutable
//! columnar micro-partitions with zone-map metadata, a metadata service
//! (the [`catalog`]), I/O accounting for the simulated object store, and an
//! Iceberg/Parquet-like [`lake`] format with layered, backfillable
//! metadata (§8.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod column;
pub mod io;
pub mod lake;
pub mod partition;
pub mod prefetch;
pub mod schema;
pub mod table;
pub mod zones;

pub use catalog::{Catalog, TableRef};
pub use column::{Bitmap, ColumnBuilder, ColumnChunk, ColumnValues, StrColumn};
pub use io::{IoCostModel, IoSnapshot, IoStats};
pub use lake::{DataFile, LakePruneStats, LakeTable, ManifestEntry, PageMeta, RowGroup};
pub use partition::{MicroPartition, PartitionId, PartitionMeta};
pub use prefetch::{AsyncLake, LoadTicket};
pub use schema::{Field, Schema};
pub use table::{DmlResult, Layout, PartitionEdit, Table, TableBuilder};
pub use zones::{IntZones, TableMetadata};
