//! Tracked benchmark snapshots: a tiny, dependency-free JSON emitter that
//! the `reproduce` binary uses to persist experiment numbers as
//! `BENCH_<name>.json` files: the deterministic record (virtual clocks,
//! partition counts) each change is diffed against.
//!
//! The vendored `serde` shim is a no-op, so the JSON is written by hand.
//! The schema is deliberately small and documented in
//! `docs/BENCHMARKS.md`:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "prefetch",
//!   "context": { "key": "value", ... },
//!   "metrics": [ { "name": "...", "value": 1.23, "unit": "ms" }, ... ]
//! }
//! ```
//!
//! Snapshots land in the current directory by default; set
//! `SNOWPRUNE_BENCH_DIR` to redirect them (CI points this at an artifact
//! staging directory).

use std::path::PathBuf;

/// One measured quantity within a snapshot.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, e.g. `io_wall_ms_depth_1`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label, e.g. `ms`, `x`, `partitions`, `bytes`, `count`.
    pub unit: String,
}

/// A named collection of metrics plus free-form context, serialized as
/// `BENCH_<name>.json`.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Snapshot name; becomes the `BENCH_<name>.json` file name.
    pub name: String,
    /// Key/value context (scale, seed, thread counts, ...), kept in
    /// insertion order.
    pub context: Vec<(String, String)>,
    /// Recorded metrics, in insertion order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Start an empty snapshot with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Snapshot {
            name: name.into(),
            context: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Append a context key/value pair (builder style).
    pub fn context(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.context.push((key.into(), value.to_string()));
        self
    }

    /// Record one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Render the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += "  \"schema_version\": 1,\n";
        out += &format!("  \"name\": {},\n", json_str(&self.name));
        out += "  \"context\": {";
        for (i, (k, v)) in self.context.iter().enumerate() {
            out += if i == 0 { "\n" } else { ",\n" };
            out += &format!("    {}: {}", json_str(k), json_str(v));
        }
        out += if self.context.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        };
        out += "  \"metrics\": [";
        for (i, m) in self.metrics.iter().enumerate() {
            out += if i == 0 { "\n" } else { ",\n" };
            out += &format!(
                "    {{ \"name\": {}, \"value\": {}, \"unit\": {} }}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            );
        }
        out += if self.metrics.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        };
        out += "}\n";
        out
    }

    /// Write the snapshot to `bench_dir()/BENCH_<name>.json`, returning
    /// the path written.
    pub fn write_file(&self) -> std::io::Result<PathBuf> {
        let path = bench_dir().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Directory snapshots are written to: `SNOWPRUNE_BENCH_DIR` if set (the
/// directory is created if missing), otherwise the current directory.
pub fn bench_dir() -> PathBuf {
    match snowprune_types::knobs::path("SNOWPRUNE_BENCH_DIR") {
        Some(dir) if !dir.trim().is_empty() => {
            let p = PathBuf::from(dir);
            let _ = std::fs::create_dir_all(&p);
            p
        }
        _ => PathBuf::from("."),
    }
}

/// JSON string literal with the escapes the snapshot fields can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite floats as-is; non-finite values (which JSON cannot
/// represent) degrade to null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Integral values print without a fraction either way; that is
        // valid JSON, so no special casing.
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_shape() {
        let mut snap = Snapshot::new("demo")
            .context("seed", 42)
            .context("mode", "a\"b");
        snap.metric("wall", 1.5, "ms");
        snap.metric("loads", 7.0, "partitions");
        let json = snap.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"name\": \"demo\""));
        assert!(json.contains("\"seed\": \"42\""));
        assert!(json.contains("\"mode\": \"a\\\"b\""));
        assert!(json.contains("{ \"name\": \"wall\", \"value\": 1.5, \"unit\": \"ms\" }"));
        assert!(json.contains("{ \"name\": \"loads\", \"value\": 7, \"unit\": \"partitions\" }"));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let json = Snapshot::new("empty").to_json();
        assert!(json.contains("\"context\": {}"));
        assert!(json.contains("\"metrics\": []"));
    }

    #[test]
    fn non_finite_values_become_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(2.0), "2");
    }
}
