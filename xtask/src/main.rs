//! Repository automation. `cargo xtask lint` enforces source invariants
//! that `rustc`/`clippy` cannot express (see `docs/LINTS.md`):
//!
//! 1. **No panics in the engine** — `unwrap`/`expect`/`panic!` and
//!    friends are denied in the non-test code of `crates/{exec,storage,
//!    core,plan,analyze,cache}`; deliberate sites carry a
//!    `// PANIC-OK: <reason>` waiver.
//! 2. **One env-var choke point** — `std::env::var` reads live only in
//!    `crates/types/src/knobs.rs` (and in `xtask` itself); every
//!    `SNOWPRUNE_*` name in source must be registered there, and every
//!    registered knob must be documented in the README knob table.
//! 3. **No raw `std::sync` locks** — blocking primitives outside
//!    `crates/compat` must come from `parking_lot`; deliberate uses of
//!    poisoning semantics carry a `// STD-SYNC-OK: <reason>` waiver.
//! 4. **Crate attributes** — every crate forbids `unsafe_code`, and the
//!    public-API crates warn on `missing_docs`.
//! 5. **No linear id search on the scan path** — a `.find(|..|)` /
//!    `.position(|..|)` closure comparing an `.id` in `crates/storage`,
//!    `crates/core` or `crates/exec` non-test code needs a
//!    `// LINEAR-OK: <bound>` waiver; partition ids resolve through
//!    `Table`'s index or a map built once per call.
//! 6. **No clock in engine decisions** — `Instant` and `SystemTime` are
//!    denied in non-test code under `crates/`; a clock read whose value is
//!    only reported carries a `// CLOCK-OK: <reason>` waiver.
//! 7. **No product function that only a test reads** — every `pub fn` in
//!    `crates/*/src` needs a caller in non-test code; an API kept for the
//!    test suites carries a `// TEST-API: <reason>` waiver.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown xtask `{other}` (available: lint)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut violations = Vec::new();
    lint_no_panic(&root, &mut violations);
    lint_env_choke_point(&root, &mut violations);
    lint_knob_registry(&root, &mut violations);
    lint_std_sync(&root, &mut violations);
    lint_crate_attributes(&root, &mut violations);
    lint_no_linear_id_search(&root, &mut violations);
    lint_no_clock(&root, &mut violations);
    lint_pub_fn_callers(&root, &mut violations);
    if violations.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: `cargo xtask` runs with the manifest dir of the
/// xtask package as `CARGO_MANIFEST_DIR`, one level below the root.
fn repo_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from(".")),
        Err(_) => PathBuf::from("."),
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target" || n == ".git") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Per-line classification of a source file: which lines belong to
/// `#[cfg(test)]`-gated modules (where every lint below is waived).
///
/// Text-based, not a full parser: a `#[cfg(test)]` attribute arms the
/// *next* block, and the block extends until its braces balance. This is
/// exact for the `#[cfg(test)] mod tests { ... }` idiom used throughout
/// the workspace.
fn test_region_mask(src: &str) -> Vec<bool> {
    let mut mask = Vec::with_capacity(src.lines().count());
    let mut armed = false;
    let mut depth: i64 = 0;
    let mut in_test = false;
    for line in src.lines() {
        let code = strip_comment(line);
        if !in_test && code.contains("#[cfg(test)]") {
            armed = true;
            mask.push(true);
            continue;
        }
        if armed {
            // Attribute lines (e.g. `#[allow(...)]`) between the cfg and
            // the item keep the arming.
            let opens = code.matches('{').count() as i64;
            let closes = code.matches('}').count() as i64;
            if opens > 0 {
                in_test = true;
                armed = false;
                depth = opens - closes;
                mask.push(true);
                if depth <= 0 {
                    in_test = false;
                }
                continue;
            }
            mask.push(true);
            continue;
        }
        if in_test {
            depth += code.matches('{').count() as i64;
            depth -= code.matches('}').count() as i64;
            mask.push(true);
            if depth <= 0 {
                in_test = false;
            }
            continue;
        }
        mask.push(false);
    }
    mask
}

/// Everything before a `//` comment (string-literal `//` is rare enough in
/// this codebase that the approximation has no false positives today; a
/// panic token inside a string would be a doc/message anyway).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does `lines[i]` carry a waiver — inline, or anywhere in the contiguous
/// comment block immediately above it?
fn waived(lines: &[&str], i: usize, marker: &str) -> bool {
    if lines[i].contains(marker) {
        return true;
    }
    let mut j = i;
    while j > 0 && lines[j - 1].trim_start().starts_with("//") {
        j -= 1;
        if lines[j].contains(marker) {
            return true;
        }
    }
    false
}

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Lint 1: no panic paths in the engine crates' non-test code.
fn lint_no_panic(root: &Path, violations: &mut Vec<String>) {
    for dir in [
        "crates/exec/src",
        "crates/storage/src",
        "crates/core/src",
        "crates/plan/src",
        "crates/analyze/src",
        "crates/cache/src",
    ] {
        for file in rust_files(&root.join(dir)) {
            let src = read(&file);
            let mask = test_region_mask(&src);
            let lines: Vec<&str> = src.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if mask.get(i).copied().unwrap_or(false) {
                    continue;
                }
                let code = strip_comment(line);
                let hit = PANIC_TOKENS.iter().find(|t| code.contains(**t));
                if let Some(tok) = hit {
                    if !waived(&lines, i, "PANIC-OK:") {
                        violations.push(format!(
                            "{}:{}: `{}` in engine code (add `// PANIC-OK: <reason>` \
                             if deliberate)",
                            rel(root, &file),
                            i + 1,
                            tok.trim_start_matches('.')
                        ));
                    }
                }
            }
        }
    }
}

/// Lint 2a: `std::env::var` reads only in the knobs registry (and in
/// xtask, which locates the repo through `CARGO_MANIFEST_DIR`).
fn lint_env_choke_point(root: &Path, violations: &mut Vec<String>) {
    for file in workspace_sources(root) {
        env_reads(&rel(root, &file), &read(&file), violations);
    }
}

/// Lint 2a for one file `src` at repo-relative path `p`.
fn env_reads(p: &str, src: &str, violations: &mut Vec<String>) {
    if p == "crates/types/src/knobs.rs" || p.starts_with("xtask/") {
        return;
    }
    for (i, line) in src.lines().enumerate() {
        let code = strip_comment(line);
        // `set_var`/`remove_var` (test env fixtures) are fine; only
        // *reads* must go through the registry.
        if code.contains("env::var(") || code.contains("env::var_os(") {
            violations.push(format!(
                "{}:{}: raw environment read; route it through \
                 snowprune_types::knobs",
                p,
                i + 1
            ));
        }
    }
}

/// Lint 2b: every `SNOWPRUNE_*` string literal in source is a registered
/// knob, and every registered knob appears in the README knob table.
fn lint_knob_registry(root: &Path, violations: &mut Vec<String>) {
    let registry_src = read(&root.join("crates/types/src/knobs.rs"));
    let registered: Vec<String> = registry_src
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("name: \"")?;
            let end = rest.find('"')?;
            Some(rest[..end].to_string())
        })
        .collect();
    if registered.is_empty() {
        violations.push("crates/types/src/knobs.rs: could not parse any REGISTRY entries".into());
        return;
    }
    for file in workspace_sources(root) {
        let p = rel(root, &file);
        if p.starts_with("xtask/") {
            continue;
        }
        let src = read(&file);
        // Test modules may name deliberately-unregistered variables (the
        // registry's own negative tests); only shipping code is linted.
        let mask = test_region_mask(&src);
        for (i, line) in src.lines().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            for name in snowprune_vars(line) {
                if !registered.iter().any(|r| r == &name) {
                    violations.push(format!(
                        "{}:{}: `{}` is not registered in \
                         snowprune_types::knobs::REGISTRY",
                        p,
                        i + 1,
                        name
                    ));
                }
            }
        }
    }
    let readme = read(&root.join("README.md"));
    for name in &registered {
        if !readme.contains(name.as_str()) {
            violations.push(format!(
                "README.md: registered knob `{name}` is missing from the knob table"
            ));
        }
    }
}

/// `SNOWPRUNE_[A-Z0-9_]+` occurrences inside string literals on a line.
fn snowprune_vars(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while let Some(j) = line[i..].find("SNOWPRUNE_") {
        let start = i + j;
        // Only string literals count (a quote immediately before).
        let quoted = start > 0 && bytes[start - 1] == b'"';
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end] == b'_'
                || bytes[end].is_ascii_digit())
        {
            end += 1;
        }
        if quoted && end > start + "SNOWPRUNE_".len() {
            out.push(line[start..end].to_string());
        }
        i = end.max(start + 1);
    }
    out
}

const SYNC_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

/// Lint 3: no `std::sync` blocking primitives outside `crates/compat`.
fn lint_std_sync(root: &Path, violations: &mut Vec<String>) {
    for file in workspace_sources(root) {
        let p = rel(root, &file);
        if p.starts_with("crates/compat/") || p.starts_with("xtask/") {
            continue;
        }
        let src = read(&file);
        let mask = test_region_mask(&src);
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let code = strip_comment(line);
            if !code.contains("std::sync") {
                continue;
            }
            if SYNC_TOKENS.iter().any(|t| code.contains(t)) && !waived(&lines, i, "STD-SYNC-OK:") {
                violations.push(format!(
                    "{}:{}: std::sync blocking primitive outside crates/compat; use \
                     parking_lot (or add `// STD-SYNC-OK: <reason>`)",
                    p,
                    i + 1
                ));
            }
        }
    }
}

/// Crates whose public API must be fully documented.
const MISSING_DOCS_CRATES: &[&str] = &[
    "crates/expr",
    "crates/storage",
    "crates/plan",
    "crates/analyze",
    "crates/core",
    "crates/cache",
    "crates/exec",
    "crates/sql",
    "crates/workload",
    "crates/bench",
];

/// Lint 4: crate-level attributes.
fn lint_crate_attributes(root: &Path, violations: &mut Vec<String>) {
    let mut lib_files: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for d in ["crates", "crates/compat"] {
        let Ok(entries) = std::fs::read_dir(root.join(d)) else {
            continue;
        };
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                lib_files.push(lib);
            }
        }
    }
    lib_files.sort();
    for lib in &lib_files {
        if !read(lib).contains("#![forbid(unsafe_code)]") {
            violations.push(format!(
                "{}: missing `#![forbid(unsafe_code)]`",
                rel(root, lib)
            ));
        }
    }
    for krate in MISSING_DOCS_CRATES {
        let lib = root.join(krate).join("src/lib.rs");
        if !read(&lib).contains("#![warn(missing_docs)]") {
            violations.push(format!(
                "{}: missing `#![warn(missing_docs)]`",
                rel(root, &lib)
            ));
        }
    }
}

/// Lint 5: no per-id linear search in storage/core/exec non-test code. A
/// scan resolves thousands of partition ids; each `iter().find(|m| m.id ==
/// id)` made it quadratic in the partition count.
fn lint_no_linear_id_search(root: &Path, violations: &mut Vec<String>) {
    for dir in ["crates/storage/src", "crates/core/src", "crates/exec/src"] {
        for file in rust_files(&root.join(dir)) {
            let src = read(&file);
            let mask = test_region_mask(&src);
            let lines: Vec<&str> = src.lines().collect();
            for i in 0..lines.len() {
                if mask.get(i).copied().unwrap_or(false) {
                    continue;
                }
                if linear_id_search_at(&lines, i) && !waived(&lines, i, "LINEAR-OK:") {
                    violations.push(format!(
                        "{}:{}: linear search for an id; resolve it through an index (or add \
                         `// LINEAR-OK: <bound>` if the list is provably short)",
                        rel(root, &file),
                        i + 1
                    ));
                }
            }
        }
    }
}

/// Does a `.find(|` / `.position(|` call opening on `lines[i]` compare an
/// `.id` for equality inside its closure? The closure is read up to the
/// call's closing parenthesis, over at most a handful of lines.
fn linear_id_search_at(lines: &[&str], i: usize) -> bool {
    let code = strip_comment(lines[i]);
    for opener in [".find(|", ".position(|"] {
        let mut from = 0;
        while let Some(j) = code[from..].find(opener) {
            let start = from + j + opener.len() - 1;
            let mut closure = String::new();
            let mut depth = 1i64;
            let first = std::iter::once(&code[start..]);
            let rest = lines[i + 1..].iter().take(8).map(|l| strip_comment(l));
            'call: for text in first.chain(rest) {
                for c in text.chars() {
                    match c {
                        '(' => depth += 1,
                        ')' => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break 'call;
                    }
                    closure.push(c);
                }
                closure.push(' ');
            }
            if compares_an_id(&closure) {
                return true;
            }
            from = start;
        }
    }
    false
}

/// `<..>.id == <..>` or `<..> == <..>.id` somewhere in `code`.
fn compares_an_id(code: &str) -> bool {
    let is_path = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    code.match_indices("==").any(|(at, _)| {
        let lhs = code[..at].trim_end();
        let rhs: String = code[at + 2..]
            .trim_start()
            .chars()
            .take_while(|c| is_path(*c))
            .collect();
        lhs.ends_with(".id") || rhs.ends_with(".id")
    })
}

const CLOCK_TOKENS: &[&str] = &["Instant", "SystemTime"];

/// Lint 6: no clock reads in non-test code under `crates/`. Pruning,
/// scheduling and caching decisions must be a function of their inputs;
/// a value read from the clock makes them a function of host timing.
fn lint_no_clock(root: &Path, violations: &mut Vec<String>) {
    for file in rust_files(&root.join("crates")) {
        clock_reads(&rel(root, &file), &read(&file), violations);
    }
}

/// Lint 6 for one file `src` at repo-relative path `p`.
fn clock_reads(p: &str, src: &str, violations: &mut Vec<String>) {
    if p.contains("/tests/") {
        return;
    }
    let mask = test_region_mask(src);
    let lines: Vec<&str> = src.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let code = strip_comment(line);
        let hit = CLOCK_TOKENS.iter().find(|t| has_ident(code, t));
        if let Some(tok) = hit {
            if !waived(&lines, i, "CLOCK-OK:") {
                violations.push(format!(
                    "{}:{}: `{}` outside test code; engine decisions must not read the clock \
                     (add `// CLOCK-OK: <reason>` if the value is only reported)",
                    p,
                    i + 1,
                    tok
                ));
            }
        }
    }
}

/// Does `name` occur in `code` as a whole identifier?
fn has_ident(code: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(is_ident)
            && !code[at + name.len()..].chars().next().is_some_and(is_ident)
    })
}

/// Lint 7: every `pub fn` in `crates/*/src` has a caller outside test
/// code. Callers are read from the product trees and from `benchmark/src`
/// (which is read, not linted); `tests/` directories do not count.
fn lint_pub_fn_callers(root: &Path, violations: &mut Vec<String>) {
    let mut linted = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.file_name() != "compat" {
                linted.extend(rust_files(&entry.path().join("src")));
            }
        }
    }
    linted.sort();
    let mut sources: Vec<(String, String, bool)> = linted
        .iter()
        .map(|f| (rel(root, f), read(f), true))
        .collect();
    for d in ["src", "examples", "xtask/src", "benchmark/src"] {
        for f in rust_files(&root.join(d)) {
            sources.push((rel(root, &f), read(&f), false));
        }
    }
    let files: Vec<(&str, &str, bool)> = sources
        .iter()
        .map(|(p, src, lint)| (p.as_str(), src.as_str(), *lint))
        .collect();
    uncalled_pub_fns(&files, violations);
}

/// Lint 7 over `(path, source, linted)` triples: one pass builds an
/// identifier → occurrence count over every non-test, non-`use` line (a
/// `pub fn`'s own name excluded from its signature and body, so a
/// recursive call is no caller), then each `pub fn` of a linted file with
/// a count of zero and no `TEST-API:` waiver is reported.
fn uncalled_pub_fns(files: &[(&str, &str, bool)], violations: &mut Vec<String>) {
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut defs = Vec::new();
    for &(p, src, linted) in files {
        let mask = test_region_mask(src);
        let lines: Vec<&str> = src.lines().collect();
        let mut in_use = false;
        // The `pub fn` whose signature or body the scan is in, with the
        // brace depth inside it (the same brace counting as
        // `test_region_mask`).
        let mut own: Option<(&str, i64)> = None;
        for (i, line) in lines.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let code = strip_comment(line);
            // A `use` declaration names an item without calling it.
            let t = code.trim_start();
            if in_use || t.starts_with("use ") || t.starts_with("pub use ") {
                in_use = !code.contains(';');
                continue;
            }
            let def = pub_fn_name(code);
            if let Some(name) = def {
                own = Some((name, 0));
            }
            for ident in idents(code) {
                if own.is_some_and(|(name, _)| name == ident) {
                    continue;
                }
                *counts.entry(ident).or_insert(0) += 1;
            }
            if let Some((_, depth)) = &mut own {
                *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
                // The body ends on the line that balances its braces.
                if *depth <= 0 && code.contains('}') {
                    own = None;
                }
            }
            if let (Some(name), true) = (def, linted) {
                if !waived(&lines, i, "TEST-API:") {
                    defs.push((p, i, name));
                }
            }
        }
    }
    for (p, i, name) in defs {
        if counts.get(name).copied().unwrap_or(0) == 0 {
            violations.push(format!(
                "{}:{}: `pub fn {}` has no caller outside test code; delete it (or add \
                 `// TEST-API: <reason>` if the test suites need it)",
                p,
                i + 1,
                name
            ));
        }
    }
}

/// The name defined by a `pub fn` line (`pub(crate)` and other restricted
/// visibilities are out of scope).
fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    idents(rest).next()
}

/// The identifiers on a line of code, in order.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| {
            w.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        })
}

/// Every `.rs` file in the workspace's own source trees (crates, the root
/// facade, examples, integration tests, xtask).
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for d in ["src", "crates", "examples", "tests", "xtask"] {
        out.extend(rust_files(&root.join(d)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn test_region_mask_covers_cfg_test_module() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let mask = test_region_mask(src);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn snowprune_vars_only_matches_string_literals() {
        assert_eq!(
            snowprune_vars(r#"let x = var("SNOWPRUNE_SCAN_THREADS");"#),
            vec!["SNOWPRUNE_SCAN_THREADS".to_string()]
        );
        // Prose mention without quotes is not a knob reference.
        assert!(snowprune_vars("// SNOWPRUNE_SCAN_THREADS controls workers").is_empty());
    }

    #[test]
    fn env_reads_outside_the_registry_are_reported_even_in_compat() {
        let src = "fn f() {\n    let _ = std::env::var(\"X\");\n}\n";
        let mut v = Vec::new();
        env_reads("crates/compat/rand/src/lib.rs", src, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("crates/compat/rand/src/lib.rs:2:"),
            "{v:?}"
        );
        v.clear();
        env_reads("crates/types/src/knobs.rs", src, &mut v);
        env_reads("xtask/src/main.rs", src, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn strip_comment_drops_line_comments() {
        assert_eq!(strip_comment("code(); // x.unwrap()"), "code(); ");
        assert_eq!(strip_comment("plain"), "plain");
    }

    #[test]
    fn linear_id_search_rule_matches_the_four_historic_sites() {
        // The shapes deleted from table.rs, join.rs and topk.rs.
        for hit in [
            "            .find(|p| p.meta.id == id)",
            "            let Some(meta) = metas.iter().find(|m| m.id == e.id) else {",
            "    let find = |id: u64| metas.iter().find(|m| m.id == id);",
            "        .filter_map(|e| metas.iter().find(|m| m.id == e.id))",
            "    let pos = parts.iter().position(|p| id == p.meta.id);",
        ] {
            assert!(linear_id_search_at(&[hit], 0), "{hit}");
        }
        // A closure that spans lines is read to its closing parenthesis.
        let split = [
            "let m = metas.iter().find(|m| {",
            "    m.id == wanted",
            "});",
        ];
        assert!(linear_id_search_at(&split, 0));
        assert!(!linear_id_search_at(&split, 1));
        // Searches that are not about ids, and id comparisons outside a
        // search closure, pass.
        for ok in [
            "            .position(|f| f.seq == ticket.seq)",
            "match rec.aux.iter().find(|(t, _)| t == table) {",
            "let x = v.iter().find(|e| e.valid); if a.id == b.id {}",
            "            .filter(|p| p.meta.id == id)",
            "// metas.iter().find(|m| m.id == id)",
        ] {
            assert!(!linear_id_search_at(&[ok], 0), "{ok}");
        }
        let lines = [
            "// LINEAR-OK: at most prefetch_depth entries",
            "x.find(|m| m.id == id)",
        ];
        assert!(linear_id_search_at(&lines, 1) && waived(&lines, 1, "LINEAR-OK:"));
    }

    #[test]
    fn clock_rule_reports_a_planted_instant_in_core() {
        let planted = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let mut v = Vec::new();
        clock_reads("crates/core/src/filter.rs", planted, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("crates/core/src/filter.rs:2:"), "{v:?}");
        v.clear();
        clock_reads(
            "crates/core/src/lib.rs",
            "use std::time::SystemTime;\n",
            &mut v,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        v.clear();
        // Waived, test-only, in an integration test, or a mere prefix of
        // another identifier: all pass.
        for (p, ok) in [
            (
                "crates/exec/src/exec.rs",
                "// CLOCK-OK: reported only\nlet t = Instant::now();\n",
            ),
            (
                "crates/core/src/filter.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n",
            ),
            ("crates/bench/tests/cli.rs", "let t = Instant::now();\n"),
            (
                "crates/core/src/a.rs",
                "let x = Instantiated::new(); // Instant\n",
            ),
        ] {
            clock_reads(p, ok, &mut v);
            assert!(v.is_empty(), "{p}: {v:?}");
        }
    }

    #[test]
    fn pub_fn_rule_flags_only_the_uncalled_unwaived_function() {
        let lib = "pub fn called() {}\n\
                   pub fn uncalled() {}\n\
                   // TEST-API: the suites need it\n\
                   pub fn waived() {}\n\
                   pub(crate) fn restricted() {}\n\
                   pub use self::reexported as alias;\n\
                   pub fn reexported() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { super::uncalled(); }\n}\n";
        let user = "fn main() {\n    // uncalled() in a comment is no call\n    a::called();\n}\n";
        let mut v = Vec::new();
        uncalled_pub_fns(
            &[
                ("crates/a/src/lib.rs", lib, true),
                ("benchmark/src/main.rs", user, false),
            ],
            &mut v,
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].starts_with("crates/a/src/lib.rs:2: `pub fn uncalled`"),
            "{v:?}"
        );
        assert!(
            v[1].starts_with("crates/a/src/lib.rs:7: `pub fn reexported`"),
            "{v:?}"
        );
        // A read-only tree (the benchmark) is not linted itself.
        let mut v = Vec::new();
        uncalled_pub_fns(
            &[("benchmark/src/lib.rs", "pub fn helper() {}\n", false)],
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn pub_fn_rule_does_not_count_recursive_calls_as_callers() {
        let lib = "pub fn walk(\n    n: u32,\n) -> u32 {\n    if n > 0 {\n        walk(n - 1)\n    } else {\n        0\n    }\n}\n\
                   pub fn used() -> u32 { used_by_main() }\n\
                   fn used_by_main() -> u32 { 1 }\n";
        let user = "fn main() {\n    a::used();\n}\n";
        let mut v = Vec::new();
        uncalled_pub_fns(
            &[
                ("crates/a/src/lib.rs", lib, true),
                ("src/main.rs", user, false),
            ],
            &mut v,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("crates/a/src/lib.rs:1: `pub fn walk`"),
            "{v:?}"
        );
        // A call after the body has closed still counts.
        let lib = format!("{lib}fn later() -> u32 {{ walk(3) }}\n");
        let mut v = Vec::new();
        uncalled_pub_fns(&[("crates/a/src/lib.rs", &lib, true)], &mut v);
        assert!(v.iter().all(|m| !m.contains("`pub fn walk`")), "{v:?}");
    }

    #[test]
    fn full_lint_run_on_this_repo_is_clean() {
        let root = repo_root();
        if !root.join("Cargo.toml").is_file() {
            return;
        }
        let mut violations = Vec::new();
        lint_no_panic(&root, &mut violations);
        lint_env_choke_point(&root, &mut violations);
        lint_knob_registry(&root, &mut violations);
        lint_std_sync(&root, &mut violations);
        lint_crate_attributes(&root, &mut violations);
        lint_no_linear_id_search(&root, &mut violations);
        lint_no_clock(&root, &mut violations);
        lint_pub_fn_callers(&root, &mut violations);
        let mut msg = String::new();
        for v in &violations {
            let _ = writeln!(msg, "{v}");
        }
        assert!(violations.is_empty(), "\n{msg}");
    }
}
