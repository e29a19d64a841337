//! The determinism bans, pinned: clippy runs on `tests/lint_fixture` once
//! per `clippy.toml` scope and must flag exactly the fixture lines that
//! scope bans. Dropping or narrowing any ban entry, or letting a ban leak
//! into a scope that must not have it, fails here.
//!
//! Each scope lints only the one-file fixture (about 0.2 s), once per test
//! binary, into its own target directory under `target/tmp`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// One clippy hit: the fixture line's tag and what clippy names, e.g.
/// `("env-var", "method `std::env::var`")`.
type Hit = (String, String);

const HASH: &[(&str, &str)] = &[
    ("hash-map", "type `std::collections::HashMap`"),
    ("hash-set", "type `std::collections::HashSet`"),
];

const RANDOM: &[(&str, &str)] = &[("random-state", "type `std::hash::RandomState`")];

const CLOCK: &[(&str, &str)] = &[
    ("instant-now", "type `std::time::Instant`"),
    ("instant-now", "method `std::time::Instant::now`"),
    ("system-time-now", "type `std::time::SystemTime`"),
    ("system-time-now", "method `std::time::SystemTime::now`"),
    ("instant-now-after-expect", "type `std::time::Instant`"),
    (
        "instant-now-after-expect",
        "method `std::time::Instant::now`",
    ),
];

/// Every `std::env` function; the fixture tags its call `env-<name>`
/// (underscores as dashes).
const ENV: &[&str] = &[
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "home_dir",
    "join_paths",
    "remove_var",
    "set_current_dir",
    "set_var",
    "split_paths",
    "temp_dir",
    "var",
    "var_os",
    "vars",
    "vars_os",
];

/// Fixture lines no scope may flag: lookalikes of banned items, and the
/// wall-clock read under a matching `#[expect]`.
const CLEAN: &[&str] = &[
    "ok-btree-map",
    "ok-duration",
    "ok-env-macro",
    "ok-expected-instant-now",
];

/// The `#[expect]` line: unfulfilled wherever the clock is not banned.
const EXPECT: &str = "expect-wall-clock";

/// A directory whose `clippy.toml` defines one set of bans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// `crates/clippy.toml`: the simulation crates.
    Crates,
    /// `crates/bench/clippy.toml`: the bench harness.
    Bench,
    /// The root `clippy.toml`: root package, examples, tests, reprobench.
    Root,
    /// `third_party/clippy.toml`: the vendored stand-ins.
    ThirdParty,
}

use Scope::{Bench, Crates, Root, ThirdParty};

const SCOPES: [Scope; 4] = [Crates, Bench, Root, ThirdParty];

/// What clippy reported for the fixture under one scope.
#[derive(Debug)]
struct Lint {
    /// Disallowed-type/method hits.
    banned: BTreeSet<Hit>,
    /// Tags of lines carrying an unfulfilled lint expectation.
    unfulfilled: BTreeSet<String>,
}

impl Scope {
    fn dir(self) -> &'static str {
        match self {
            Crates => "crates",
            Bench => "crates/bench",
            Root => ".",
            ThirdParty => "third_party",
        }
    }

    fn target_name(self) -> &'static str {
        match self {
            Crates => "crates",
            Bench => "bench",
            Root => "root",
            ThirdParty => "third_party",
        }
    }

    /// The ban groups this scope's `clippy.toml` must hold, and whether it
    /// bans every `std::env` function.
    fn bans(self) -> (&'static [&'static [(&'static str, &'static str)]], bool) {
        match self {
            Crates => (&[HASH, RANDOM, CLOCK], true),
            Bench => (&[HASH, CLOCK], false),
            Root => (&[CLOCK], false),
            ThirdParty => (&[], false),
        }
    }

    /// The hits this scope must report, checked to name tags the fixture
    /// has.
    fn expected(self) -> BTreeSet<Hit> {
        let (groups, env) = self.bans();
        let mut hits: BTreeSet<Hit> = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|&(tag, what)| (tag.to_owned(), what.to_owned()))
            .collect();
        if env {
            hits.extend(ENV.iter().map(|name| {
                (
                    format!("env-{}", name.replace('_', "-")),
                    format!("method `std::env::{name}`"),
                )
            }));
        }
        let tags: BTreeSet<String> = fixture_tags().into_values().collect();
        let fixed = CLEAN.iter().copied().chain([EXPECT]);
        for tag in hits.iter().map(|(tag, _)| tag.as_str()).chain(fixed) {
            assert!(
                tags.contains(tag),
                "the fixture has no `// lint: {tag}` line"
            );
        }
        hits
    }

    /// Clippy's report for this scope, produced once per test binary.
    fn lint(self) -> &'static Lint {
        static RUNS: [OnceLock<Lint>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        RUNS[self as usize].get_or_init(|| run_clippy(self))
    }
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The fixture's tags by 1-based line number.
fn fixture_tags() -> BTreeMap<usize, String> {
    let src = std::fs::read_to_string(repo().join("tests/lint_fixture/src/lib.rs"))
        .expect("lint fixture readable");
    src.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let (_, tag) = line.split_once("// lint: ")?;
            Some((i + 1, tag.trim().to_owned()))
        })
        .collect()
}

/// Runs clippy on the fixture with `scope`'s `clippy.toml`.
fn run_clippy(scope: Scope) -> Lint {
    let conf = repo().join(scope.dir());
    assert!(
        conf.join("clippy.toml").is_file(),
        "{} has no clippy.toml",
        conf.display()
    );
    let target = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint_fixture")
        .join(scope.target_name());
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=short"])
        .arg("--manifest-path")
        .arg(repo().join("tests/lint_fixture/Cargo.toml"))
        .env("CLIPPY_CONF_DIR", &conf)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cargo clippy failed:\n{stderr}");
    let tags = fixture_tags();
    let mut lint = Lint {
        banned: BTreeSet::new(),
        unfulfilled: BTreeSet::new(),
    };
    for line in stderr.lines() {
        let Some((_, rest)) = line.split_once("src/lib.rs:") else {
            continue;
        };
        let Some(line_no) = rest.split(':').next().and_then(|n| n.parse().ok()) else {
            continue;
        };
        let tag = || {
            tags.get(&line_no)
                .unwrap_or_else(|| panic!("clippy flagged untagged fixture line {line_no}: {line}"))
                .clone()
        };
        if let Some((_, what)) = rest.split_once("use of a disallowed ") {
            lint.banned.insert((tag(), what.to_owned()));
        } else if rest.contains("this lint expectation is unfulfilled") {
            lint.unfulfilled.insert(tag());
        }
    }
    lint
}

#[test]
fn simulation_crates_ban_hashing_os_randomness_the_clock_and_the_environment() {
    assert_eq!(Crates.lint().banned, Crates.expected());
}

#[test]
fn bench_bans_hash_collections_and_the_clock_but_reads_the_environment() {
    assert_eq!(Bench.lint().banned, Bench.expected());
}

#[test]
fn the_root_package_and_reprobench_ban_the_clock() {
    assert_eq!(Root.lint().banned, Root.expected());
}

#[test]
fn vendored_stand_ins_ban_nothing() {
    assert_eq!(ThirdParty.lint().banned, ThirdParty.expected());
}

#[test]
fn an_expect_that_matches_nothing_is_reported() {
    // Where the clock is not banned the `#[expect]` has nothing to
    // suppress, and clippy says so (an error under `-D warnings`): an
    // exception cannot outlive the ban it was written for.
    for scope in SCOPES {
        let stale: BTreeSet<String> = if scope == ThirdParty {
            BTreeSet::from([EXPECT.to_owned()])
        } else {
            BTreeSet::new()
        };
        assert_eq!(scope.lint().unfulfilled, stale, "{scope:?}");
    }
}

#[test]
fn no_crate_replaces_its_scope_with_a_clippy_toml_of_its_own() {
    // Clippy reads only the nearest `clippy.toml` (or `.clippy.toml`), it
    // never merges: a file dropped into one simulation crate, even an
    // empty one, would silently lift every ban there.
    let mut found = BTreeSet::new();
    for parent in ["crates", "third_party"] {
        for entry in std::fs::read_dir(repo().join(parent)).expect("directory readable") {
            let dir = entry.expect("directory entry").path();
            for name in ["clippy.toml", ".clippy.toml"] {
                if dir.join(name).exists() {
                    let rel = dir.join(name);
                    let rel = rel.strip_prefix(repo()).expect("inside the repo");
                    found.insert(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    for dir in ["reprobench", "src", "tests", "examples"] {
        for name in ["clippy.toml", ".clippy.toml"] {
            assert!(!repo().join(dir).join(name).exists(), "{dir}/{name}");
        }
    }
    for dir in ["crates", "third_party", "."] {
        assert!(
            !repo().join(dir).join(".clippy.toml").exists(),
            "{dir}/.clippy.toml"
        );
    }
    assert_eq!(
        found,
        BTreeSet::from(["crates/bench/clippy.toml".to_owned()])
    );
}
