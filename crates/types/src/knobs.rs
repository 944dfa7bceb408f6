//! The single choke point for `SNOWPRUNE_*` environment knobs.
//!
//! Every runtime knob the workspace reads from the environment is (a)
//! declared in [`REGISTRY`] and (b) read through the reader in this module
//! — `cargo xtask lint` enforces both mechanically, and additionally
//! requires every registered knob to appear in the README knob
//! documentation. An *unset* variable returns `None` — absence is the
//! documented "use the default" signal.
//!
//! The one knob is a deployment setting of the `reproduce` harness; the
//! engine is configured in code through `ExecConfig`.

/// One registered environment knob.
#[derive(Clone, Copy, Debug)]
pub struct KnobDef {
    /// The environment variable name (`SNOWPRUNE_*`).
    pub name: &'static str,
    /// One-line summary of what the knob controls.
    pub summary: &'static str,
}

/// Every `SNOWPRUNE_*` environment knob the workspace reads.
pub const REGISTRY: &[KnobDef] = &[KnobDef {
    name: "SNOWPRUNE_BENCH_DIR",
    summary: "directory benchmark snapshots are written to",
}];

/// Look up a knob's registry entry by name.
pub fn lookup(name: &str) -> Option<&'static KnobDef> {
    REGISTRY.iter().find(|k| k.name == name)
}

/// Read a path knob verbatim: `None` when unset.
///
/// # Panics
/// When `name` is not in [`REGISTRY`] — adding a knob without registering
/// it is a programming error the lint also catches statically.
pub fn path(name: &str) -> Option<String> {
    assert!(
        lookup(name).is_some(),
        "environment knob {name} is not registered in snowprune_types::knobs::REGISTRY"
    );
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    // Test-only serialization of the process-global environment.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_var<R>(var: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = env_lock();
        match value {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
        let out = f();
        std::env::remove_var(var);
        out
    }

    #[test]
    fn every_registry_name_is_snowprune_prefixed_and_unique() {
        for def in REGISTRY {
            assert!(def.name.starts_with("SNOWPRUNE_"), "{}", def.name);
            assert!(!def.summary.is_empty(), "{}", def.name);
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn unset_knobs_read_as_none() {
        with_var("SNOWPRUNE_BENCH_DIR", None, || {
            assert_eq!(path("SNOWPRUNE_BENCH_DIR"), None);
        });
    }

    #[test]
    fn well_formed_values_parse() {
        with_var("SNOWPRUNE_BENCH_DIR", Some("/tmp/x"), || {
            assert_eq!(path("SNOWPRUNE_BENCH_DIR").as_deref(), Some("/tmp/x"));
        });
    }

    #[test]
    fn unregistered_reads_panic() {
        let err = std::panic::catch_unwind(|| path("SNOWPRUNE_NOT_A_KNOB"))
            .expect_err("an unregistered read must panic");
        let m = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(m.contains("not registered"), "{m}");
    }
}
