//! The user-facing docs may only name things that exist. Every
//! `--bin` / `--example` target, every `VCU_VERIFY_STAGE=` value and
//! every `VCU_*` environment variable that README.md, DESIGN.md,
//! EXPERIMENTS.md, `results/README.md` or the verify skill mentions must
//! be a cargo target, a `run_stage` in `scripts/verify.sh`, or a
//! variable some code under `crates/`, `scripts/` or `benchmark/src`
//! reads. CHANGES.md is history and may name what is gone.

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
