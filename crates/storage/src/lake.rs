//! Data-lake tables: Iceberg-like layered metadata over Parquet-like files
//! (§8.1 of the paper).
//!
//! Pruning in a lake happens at three granularities — **file** (manifest
//! metadata), **row group**, and **page** — and any level's metadata may be
//! missing, in which case it can be *backfilled* by scanning the level
//! below (or the data itself).

use snowprune_types::{Verdict, ZoneMap, DEFAULT_STRING_PREFIX};

use crate::column::{chunks_from_rows, ColumnChunk};
use crate::io::{IoCostModel, IoStats};
use crate::schema::Schema;
use crate::table::Table;

/// Page-level metadata within a row group (like the Parquet page index).
#[derive(Clone, Debug)]
pub struct PageMeta {
    /// First row of the page within its row group.
    pub row_offset: usize,
    /// Rows in the page.
    pub row_count: usize,
    /// One zone map per column; may be absent (no page index written).
    pub zone_maps: Option<Vec<ZoneMap>>,
}

/// A row group: column chunks plus optional metadata.
#[derive(Clone, Debug)]
pub struct RowGroup {
    /// One chunk per schema column.
    pub columns: Vec<ColumnChunk>,
    /// Row-group level zone maps; absent for writers that skipped stats.
    pub zone_maps: Option<Vec<ZoneMap>>,
    /// Page index of the row group.
    pub pages: Vec<PageMeta>,
}

impl RowGroup {
    /// Rows in the group.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, ColumnChunk::len)
    }

    /// Approximate encoded size of the group's chunks.
    pub fn bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(ColumnChunk::approx_bytes)
            .sum::<usize>() as u64
    }
}

/// A data file holding one or more row groups.
#[derive(Clone, Debug)]
pub struct DataFile {
    /// Object-store path of the file.
    pub path: String,
    /// The file's row groups.
    pub row_groups: Vec<RowGroup>,
}

impl DataFile {
    /// Rows across all row groups.
    pub fn row_count(&self) -> usize {
        self.row_groups.iter().map(RowGroup::row_count).sum()
    }
}

/// Manifest entry: file-level metadata, possibly missing.
#[derive(Clone, Debug)]
pub struct ManifestEntry {
    /// Index into [`LakeTable::files`].
    pub file_index: usize,
    /// File-level zone maps; absent for writers that skipped stats.
    pub zone_maps: Option<Vec<ZoneMap>>,
    /// Rows in the file.
    pub row_count: u64,
}

/// An Iceberg-like table: a manifest over data files.
#[derive(Clone, Debug)]
pub struct LakeTable {
    /// Table name.
    pub name: String,
    /// Table schema.
    pub schema: Schema,
    /// The table's data files.
    pub files: Vec<DataFile>,
    /// File-level manifest (one entry per file).
    pub manifest: Vec<ManifestEntry>,
}

/// What a hierarchical prune kept and skipped at each level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LakePruneStats {
    /// Files considered.
    pub files_total: usize,
    /// Files skipped by manifest zone maps.
    pub files_pruned: usize,
    /// Row groups considered (in surviving files).
    pub row_groups_total: usize,
    /// Row groups skipped by group zone maps.
    pub row_groups_pruned: usize,
    /// Pages considered (in surviving row groups).
    pub pages_total: usize,
    /// Pages skipped by the page index.
    pub pages_pruned: usize,
    /// Rows of surviving pages actually scanned.
    pub rows_scanned: u64,
}

impl LakeTable {
    /// Build a lake table from rows, splitting into files × row groups ×
    /// pages. `with_stats` controls which levels get metadata written, so
    /// tests can exercise the backfill path.
    #[allow(clippy::too_many_arguments)]
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<snowprune_types::Value>>,
        rows_per_file: usize,
        rows_per_group: usize,
        rows_per_page: usize,
        file_stats: bool,
        group_stats: bool,
        page_stats: bool,
    ) -> Self {
        assert!(rows_per_page <= rows_per_group && rows_per_group <= rows_per_file);
        let mut files = Vec::new();
        let mut manifest = Vec::new();
        for (fi, file_rows) in rows.chunks(rows_per_file.max(1)).enumerate() {
            let mut row_groups = Vec::new();
            for group_rows in file_rows.chunks(rows_per_group.max(1)) {
                let columns = chunks_from_rows(&schema, group_rows);
                let zone_maps = group_stats.then(|| zone_maps_of(&columns));
                let mut pages = Vec::new();
                let mut off = 0;
                for page_rows in group_rows.chunks(rows_per_page.max(1)) {
                    let pz = page_stats.then(|| {
                        let cols = chunks_from_rows(&schema, page_rows);
                        zone_maps_of(&cols)
                    });
                    pages.push(PageMeta {
                        row_offset: off,
                        row_count: page_rows.len(),
                        zone_maps: pz,
                    });
                    off += page_rows.len();
                }
                row_groups.push(RowGroup {
                    columns,
                    zone_maps,
                    pages,
                });
            }
            let entry_maps = if file_stats {
                merge_group_maps(&row_groups)
            } else {
                None
            };
            manifest.push(ManifestEntry {
                file_index: fi,
                zone_maps: entry_maps,
                row_count: file_rows.len() as u64,
            });
            files.push(DataFile {
                path: format!("s3://lake/{fi:06}.parquet"),
                row_groups,
            });
        }
        LakeTable {
            name: name.into(),
            schema,
            files,
            manifest,
        }
    }

    /// Backfill missing metadata (§8.1: "Snowflake can reconstruct it by
    /// performing a full table scan"). Row-group stats come from scanning
    /// the data (charged as loads); manifest stats come from merging
    /// row-group stats (metadata-only work).
    pub fn backfill_metadata(&mut self, io: &IoStats, model: &IoCostModel) {
        for file in &mut self.files {
            for group in &mut file.row_groups {
                if group.zone_maps.is_none() {
                    io.record_partition_load(group.bytes(), model);
                    group.zone_maps = Some(zone_maps_of(&group.columns));
                }
            }
        }
        for entry in &mut self.manifest {
            if entry.zone_maps.is_none() {
                io.record_metadata_read(model);
                entry.zone_maps = merge_group_maps(&self.files[entry.file_index].row_groups);
            }
        }
    }

    /// Hierarchically prune using `judge`, a metadata-only predicate
    /// evaluator (zone maps + row count → verdict). Levels without metadata
    /// are conservatively retained. Returns per-level stats.
    pub fn prune_hierarchical(&self, judge: &dyn Fn(&[ZoneMap], u64) -> Verdict) -> LakePruneStats {
        let mut st = LakePruneStats {
            files_total: self.files.len(),
            ..Default::default()
        };
        for entry in &self.manifest {
            let file = &self.files[entry.file_index];
            st.row_groups_total += file.row_groups.len();
            st.pages_total += file.row_groups.iter().map(|g| g.pages.len()).sum::<usize>();
            if let Some(zm) = &entry.zone_maps {
                if judge(zm, entry.row_count).prunable() {
                    st.files_pruned += 1;
                    st.row_groups_pruned += file.row_groups.len();
                    st.pages_pruned += file.row_groups.iter().map(|g| g.pages.len()).sum::<usize>();
                    continue;
                }
            }
            for group in &file.row_groups {
                if let Some(zm) = &group.zone_maps {
                    if judge(zm, group.row_count() as u64).prunable() {
                        st.row_groups_pruned += 1;
                        st.pages_pruned += group.pages.len();
                        continue;
                    }
                }
                for page in &group.pages {
                    if let Some(zm) = &page.zone_maps {
                        if judge(zm, page.row_count as u64).prunable() {
                            st.pages_pruned += 1;
                            continue;
                        }
                    }
                    st.rows_scanned += page.row_count as u64;
                }
            }
        }
        st
    }

    /// Flatten row groups into micro-partitions so the regular engine can
    /// scan a lake table ("Snowflake's query engine seamlessly handles both
    /// formats", §8.1).
    pub fn to_table(&self) -> Table {
        let mut b = crate::table::TableBuilder::new(self.name.clone(), self.schema.clone());
        // Row-group granularity is preserved by pushing rows in order and
        // matching the partition size to the row-group size.
        let group_rows = self
            .files
            .iter()
            .flat_map(|f| &f.row_groups)
            .map(RowGroup::row_count)
            .max()
            .unwrap_or(1);
        b = b.target_rows_per_partition(group_rows.max(1));
        let mut builder_rows = Vec::new();
        for f in &self.files {
            for g in &f.row_groups {
                for i in 0..g.row_count() {
                    builder_rows.push(g.columns.iter().map(|c| c.value_at(i)).collect());
                }
            }
        }
        b.extend_rows(builder_rows);
        b.build()
    }
}

fn zone_maps_of(columns: &[ColumnChunk]) -> Vec<ZoneMap> {
    columns
        .iter()
        .map(|c| {
            let vals: Vec<_> = c.iter_values().collect();
            ZoneMap::build(vals.iter(), DEFAULT_STRING_PREFIX)
        })
        .collect()
}

fn merge_group_maps(groups: &[RowGroup]) -> Option<Vec<ZoneMap>> {
    let mut acc: Option<Vec<ZoneMap>> = None;
    for g in groups {
        let zm = g.zone_maps.as_ref()?;
        acc = Some(match acc {
            None => zm.clone(),
            Some(prev) => prev
                .iter()
                .zip(zm.iter())
                .map(|(a, b)| a.merge(b))
                .collect(),
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use snowprune_types::{ScalarType, Value, Verdict};

    /// Whether every manifest entry and row group carries metadata.
    fn metadata_complete(t: &LakeTable) -> bool {
        t.manifest.iter().all(|m| m.zone_maps.is_some())
            && t.files
                .iter()
                .all(|f| f.row_groups.iter().all(|g| g.zone_maps.is_some()))
    }

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    fn lake(file_stats: bool, group_stats: bool, page_stats: bool) -> LakeTable {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        LakeTable::from_rows(
            "lake",
            schema,
            rows(1000),
            250, // rows per file -> 4 files
            50,  // rows per group -> 5 groups per file
            10,  // rows per page -> 5 pages per group
            file_stats,
            group_stats,
            page_stats,
        )
    }

    /// Judge for `x >= lo AND x <= hi` on column 0.
    fn between(lo: i64, hi: i64) -> impl Fn(&[ZoneMap], u64) -> Verdict {
        move |zms: &[ZoneMap], _rc: u64| {
            let zm = &zms[0];
            let (Some(min), Some(max)) = (&zm.min, &zm.max) else {
                return Verdict::ALWAYS_FALSE;
            };
            let (min, max) = (min.as_i64().unwrap(), max.as_i64().unwrap());
            if max < lo || min > hi {
                Verdict::ALWAYS_FALSE
            } else if min >= lo && max <= hi && zm.null_count == 0 {
                Verdict::ALWAYS_TRUE
            } else {
                Verdict::TOP
            }
        }
    }

    #[test]
    fn hierarchical_pruning_hits_all_levels() {
        let t = lake(true, true, true);
        // x in [0, 9]: first page of first group of first file only.
        let st = t.prune_hierarchical(&between(0, 9));
        assert_eq!(st.files_total, 4);
        assert_eq!(st.files_pruned, 3);
        assert_eq!(st.row_groups_pruned, 15 + 4); // 3 files * 5 groups + 4 sibling groups
        assert_eq!(st.rows_scanned, 10);
    }

    #[test]
    fn missing_metadata_is_conservative() {
        let t = lake(false, false, false);
        let st = t.prune_hierarchical(&between(0, 9));
        assert_eq!(st.files_pruned, 0);
        assert_eq!(st.row_groups_pruned, 0);
        assert_eq!(st.pages_pruned, 0);
        assert_eq!(st.rows_scanned, 1000);
    }

    #[test]
    fn backfill_restores_pruning() {
        let mut t = lake(false, false, false);
        assert!(!metadata_complete(&t));
        let io = IoStats::new();
        t.backfill_metadata(&io, &IoCostModel::free());
        assert!(metadata_complete(&t));
        assert!(io.snapshot().partitions_loaded > 0, "backfill scans data");
        let st = t.prune_hierarchical(&between(0, 9));
        assert_eq!(st.files_pruned, 3);
        // Pages stay unpruned (no page index backfill) but groups prune.
        assert_eq!(st.rows_scanned, 50);
    }

    #[test]
    fn manifest_backfill_from_group_stats_is_metadata_only() {
        let mut t = lake(false, true, false);
        let io = IoStats::new();
        t.backfill_metadata(&io, &IoCostModel::free());
        assert_eq!(io.snapshot().partitions_loaded, 0);
        assert!(metadata_complete(&t));
    }

    #[test]
    fn flatten_to_table_preserves_rows_and_granularity() {
        let t = lake(true, true, true);
        let flat = t.to_table();
        assert_eq!(flat.total_rows(), 1000);
        assert_eq!(flat.partition_count(), 20); // one partition per row group
    }
}
