//! The user-facing docs may only name things that exist. Every
//! `--bin` / `--example` target, every `VCU_VERIFY_STAGE=` value and
//! every `VCU_*` environment variable that README.md, DESIGN.md,
//! EXPERIMENTS.md, `results/README.md` or the verify skill mentions must
//! be a cargo target, a `run_stage` in `scripts/verify.sh`, or a
//! variable some code under `crates/`, `scripts/` or `benchmark/src`
//! reads. Every inline-code repo path they mention must exist, and a
//! glob must match a file. CHANGES.md is history and may name what is
//! gone.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir` whose name ends in one of `exts`.
fn files(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                files(&path, exts, out);
            }
        } else if exts.iter().any(|x| path.to_string_lossy().ends_with(x)) {
            out.push(path);
        }
    }
}

/// What the docs may name.
#[derive(Default)]
struct Known {
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
    stages: BTreeSet<String>,
    vars: BTreeSet<String>,
}

/// The word of identifier characters (`[A-Za-z0-9_-]`) at the start
/// of `s`.
fn word(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Each `VCU_[A-Z0-9_]+` token in `text`, with the character before
/// it. A bare `VCU_` (as in the glob `VCU_*`) names nothing.
fn vcu_tokens(text: &str) -> Vec<(Option<char>, &str)> {
    let mut out = Vec::new();
    for (i, _) in text.match_indices("VCU_") {
        let before = text[..i].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let end = text[i..]
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .map_or(text.len(), |n| i + n);
        if end > i + "VCU_".len() {
            out.push((before, &text[i..end]));
        }
    }
    out
}

impl Known {
    fn scan(root: &Path) -> Known {
        let mut known = Known::default();
        let mut manifests = vec![root.join("benchmark/Cargo.toml")];
        for entry in fs::read_dir(root.join("crates")).expect("crates/") {
            let krate = entry.expect("crate dir").path();
            manifests.push(krate.join("Cargo.toml"));
            let mut bins = Vec::new();
            if krate.join("src/bin").is_dir() {
                files(&krate.join("src/bin"), &[".rs"], &mut bins);
            }
            for bin in bins {
                let stem = bin.file_stem().expect("bin file name");
                known.bins.insert(stem.to_string_lossy().into_owned());
            }
        }
        for manifest in manifests {
            let mut section = String::new();
            for line in read(&manifest).lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line.to_string();
                } else if let Some(v) = line.strip_prefix("name = \"") {
                    let name = v.trim_end_matches('"').to_string();
                    match section.as_str() {
                        "[[bin]]" => known.bins.insert(name),
                        "[[example]]" => known.examples.insert(name),
                        _ => false,
                    };
                }
            }
        }
        let verify = read(&root.join("scripts/verify.sh"));
        for line in verify.lines() {
            if let Some(rest) = line.strip_prefix("run_stage ") {
                known.stages.insert(word(rest).to_string());
            }
        }
        let mut sources = Vec::new();
        files(&root.join("crates"), &[".rs"], &mut sources);
        files(&root.join("benchmark/src"), &[".rs"], &mut sources);
        files(&root.join("scripts"), &[".sh"], &mut sources);
        for path in sources {
            let text = read(&path);
            let shell = path.extension().is_some_and(|x| x == "sh");
            for (before, var) in vcu_tokens(&text) {
                // Rust reads a variable by its quoted name, the shell
                // by expanding it.
                let reads = if shell {
                    matches!(before, Some('$' | '{'))
                } else {
                    before == Some('"')
                };
                if reads {
                    known.vars.insert(var.to_string());
                }
            }
        }
        known
    }

    /// Every name in `text` that is not known, as `"<kind> <name>"`.
    /// A `$`- or `<`-led placeholder after a flag names nothing.
    fn stale(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (flag, set) in [
            ("--bin", &self.bins),
            ("--example", &self.examples),
            ("VCU_VERIFY_STAGE=", &self.stages),
        ] {
            for (i, _) in text.match_indices(flag) {
                let rest = text[i + flag.len()..].trim_start_matches([' ', '=', '"']);
                let name = word(rest);
                if !name.is_empty() && !set.contains(name) {
                    out.push(format!("{} {name}", flag.trim_end_matches('=')));
                }
            }
        }
        for (_, var) in vcu_tokens(text) {
            if !self.vars.contains(var) {
                out.push(format!("variable {var}"));
            }
        }
        out
    }
}

/// Top-level directories whose paths the docs are held to.
const PATH_ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "examples/",
    "scripts/",
    "results/",
    "benchmark/",
    ".github/",
];

/// True when `name` matches `pattern`, in which `*` stands for any run
/// of characters.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && glob_match(tail, &name[i..]))
        }
    }
}

/// True when some file or directory under `dir` matches the
/// `/`-separated `segments`, each of which may hold `*`.
fn matches_any(dir: &Path, segments: &[&str]) -> bool {
    let Some((first, rest)) = segments.split_first() else {
        return true;
    };
    if !first.contains('*') {
        let path = dir.join(first);
        return path.exists() && matches_any(&path, rest);
    }
    fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(Result::ok).any(|entry| {
            glob_match(first, &entry.file_name().to_string_lossy())
                && matches_any(&entry.path(), rest)
        })
    })
}

/// Every inline-code path in `text` under one of [`PATH_ROOTS`] that
/// names nothing in `root`. A span's first word is the path; fenced
/// blocks are commands, not paths, and are skipped. A `<placeholder>`
/// is a glob `*`, a `::item` suffix must name something in the file,
/// and a path under a `.gitignore`d directory names a build output
/// that need not exist yet.
fn missing_paths(root: &Path, text: &str) -> Vec<String> {
    let ignored: Vec<String> = read(&root.join(".gitignore"))
        .lines()
        .map(|l| l.trim().trim_start_matches('/').to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut fenced = false;
    let prose: String = text
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut out = Vec::new();
    for span in prose.split('`').skip(1).step_by(2) {
        let Some(path) = span.split_whitespace().next() else {
            continue;
        };
        if !PATH_ROOTS.iter().any(|r| path.starts_with(r))
            || ignored.iter().any(|dir| path.starts_with(dir.as_str()))
        {
            continue;
        }
        let (file, item) = path.split_once("::").unwrap_or((path, ""));
        let mut pattern = String::new();
        for (i, piece) in file.split('<').enumerate() {
            match piece.split_once('>') {
                Some((_, after)) if i > 0 => pattern.extend(["*", after]),
                _ => pattern.push_str(piece),
            }
        }
        let segments: Vec<&str> = pattern.split('/').filter(|s| !s.is_empty()).collect();
        let found = if item.is_empty() {
            matches_any(root, &segments)
        } else {
            fs::read_to_string(root.join(file)).is_ok_and(|src| src.contains(item))
        };
        if !found {
            out.push(path.to_string());
        }
    }
    out
}

#[test]
fn docs_name_only_paths_that_exist() {
    let root = root();
    let missing: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| {
            missing_paths(&root, &read(&root.join(doc)))
                .into_iter()
                .map(move |p| format!("{doc}: {p}"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "docs name paths that do not exist: {missing:#?}"
    );
}

#[test]
fn a_doc_naming_missing_paths_fails() {
    let fixture = "See `crates/bench/src/campaign.rs`, `results/*_campaign.json`, \
        `results/<name>.json`, `tests/docs.rs::missing_paths`, `benchmark/run.sh --smoke` \
        and `benchmark/out/smoke/` (a build output); `cargo test` is no path.\n\
        ```\nexamples/not_a_path_in_a_fence.rs\n```\n\
        Stale: `examples/chaos`, `results/*_campagin.json`, `crates/serve/src/campaign.rs`, \
        `tests/golden.rs::no_such_item`.";
    assert_eq!(
        missing_paths(&root(), fixture),
        [
            "examples/chaos",
            "results/*_campagin.json",
            "crates/serve/src/campaign.rs",
            "tests/golden.rs::no_such_item",
        ]
    );
}

#[test]
fn docs_name_only_targets_stages_and_variables_that_exist() {
    let root = root();
    let known = Known::scan(&root);
    assert!(known.bins.contains("paper") && known.examples.contains("quickstart"));
    assert!(known.stages.contains("clippy") && known.vars.contains("VCU_SEED"));
    let stale: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| {
            let text = read(&root.join(doc));
            known
                .stale(&text)
                .into_iter()
                .map(move |s| format!("{doc}: {s}"))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "docs name what does not exist: {stale:#?}"
    );
}

#[test]
fn a_doc_naming_missing_things_fails() {
    let known = Known::scan(&root());
    let fixture = "Run `cargo run --release --bin paper` and `--example quickstart`, \
        then `VCU_VERIFY_STAGE=clippy scripts/verify.sh` with `VCU_SEED=3`; \
        `for b in x; do cargo run --bin $b; done`; any `VCU_*` variable. \
        Stale: `cargo run --bin table1`, `--example upload_graph`, \
        `VCU_VERIFY_STAGE=lint`, `VCU_FULL=1`.";
    assert_eq!(
        known.stale(fixture),
        [
            "--bin table1",
            "--example upload_graph",
            "VCU_VERIFY_STAGE lint",
            "variable VCU_FULL",
        ]
    );
}
