//! Lint fixture: every line tagged `// lint: <tag>` uses one thing a
//! determinism ban in some `clippy.toml` names, or (the `ok-` tags) a
//! lookalike no ban may catch. `tests/lint_rules.rs` runs clippy on this
//! crate once per scope and asserts exactly which tagged lines it flags.

#![allow(dead_code, deprecated)]

use std::collections::BTreeMap;
use std::{env, hash, time};

pub fn hash_collections() {
    let _map: std::collections::HashMap<u8, u8> = Default::default(); // lint: hash-map
    let _set: std::collections::HashSet<u8> = Default::default(); // lint: hash-set
    let _ok: BTreeMap<u8, u8> = BTreeMap::new(); // lint: ok-btree-map
}

pub fn os_randomness() {
    let _state = hash::RandomState::new(); // lint: random-state
}

pub fn wall_clock() {
    let _start = time::Instant::now(); // lint: instant-now
    let _stamp = time::SystemTime::now(); // lint: system-time-now
    let _ok = time::Duration::from_secs(1); // lint: ok-duration
}

pub fn environment() {
    let _ = env::args(); // lint: env-args
    let _ = env::args_os(); // lint: env-args-os
    let _ = env::current_dir(); // lint: env-current-dir
    let _ = env::current_exe(); // lint: env-current-exe
    let _ = env::home_dir(); // lint: env-home-dir
    let _ = env::join_paths(["a", "b"]); // lint: env-join-paths
    env::remove_var("LINT_FIXTURE"); // lint: env-remove-var
    let _ = env::set_current_dir("."); // lint: env-set-current-dir
    env::set_var("LINT_FIXTURE", "1"); // lint: env-set-var
    let _ = env::split_paths("a:b"); // lint: env-split-paths
    let _ = env::temp_dir(); // lint: env-temp-dir
    let _ = env::var("LINT_FIXTURE"); // lint: env-var
    let _ = env::var_os("LINT_FIXTURE"); // lint: env-var-os
    let _ = env::vars(); // lint: env-vars
    let _ = env::vars_os(); // lint: env-vars-os
    let _ok = env!("CARGO_PKG_NAME"); // lint: ok-env-macro
}

pub fn deliberate_exception() {
    #[expect(clippy::disallowed_methods, clippy::disallowed_types, reason = "fixture")] // lint: expect-wall-clock
    let _start = time::Instant::now(); // lint: ok-expected-instant-now
    let _end = time::Instant::now(); // lint: instant-now-after-expect
}
