//! The user-facing docs may only name things that exist. Every
//! `--bin` / `--example` target, every `VCU_VERIFY_STAGE=` value and
//! every `VCU_*` environment variable that README.md, DESIGN.md,
//! EXPERIMENTS.md, `results/README.md` or the verify skill mentions must
//! be a cargo target, a `run_stage` in `scripts/verify.sh`, or a
//! variable some code under `crates/`, `scripts/` or `benchmark/src`
//! reads. Every inline-code repo path they mention must exist, and a
//! glob must match a file, and every CamelCase Rust identifier in their
//! inline code must occur in a `.rs` file. CHANGES.md is history and
//! may name what is gone.
//!
//! DESIGN.md keeps one shape: at most [`DESIGN_MAX_LINES`] lines, no PR
//! history, and one section per crate, in dependency order, under the
//! four [`CRATE_HEADINGS`]. A `DESIGN.md "<title>"` citation anywhere
//! must name one of its headings, and a Rust comment may cite DESIGN.md
//! only that way. The debug oracles are listed once, as the
//! `# oracle:` lines of `scripts/mutants.tsv`, and the `determinism`
//! stage's echo line must name the same ones. EXPERIMENTS.md's
//! fidelity tally must equal the statuses in `results/fidelity.json`.

use std::collections::{BTreeMap, BTreeSet};
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
    /// Every identifier in a `.rs` file under `crates/`,
    /// `benchmark/src`, `tests/` or `examples/`, but this one, whose
    /// fixtures name what does not exist.
    idents: BTreeSet<String>,
}

/// The runs of identifier characters (`[A-Za-z0-9_]`) in `text`.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// True for a CamelCase identifier: an upper-case letter first, then a
/// lower-case letter and another upper-case one, and no `_`
/// (`EventQueue`, `GpuT4x4`; not `Rust`, `FIFO` or `VCU_SEED`).
fn camel_case(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && !word.contains('_')
        && word.contains(|c: char| c.is_ascii_lowercase())
        && word[1..].contains(|c: char| c.is_ascii_uppercase())
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
            if !shell {
                known.idents.extend(idents(&text).map(String::from));
            }
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
        let mut tests = Vec::new();
        files(&root.join("tests"), &[".rs"], &mut tests);
        files(&root.join("examples"), &[".rs"], &mut tests);
        for path in tests.iter().filter(|p| !p.ends_with("tests/docs.rs")) {
            known.idents.extend(idents(&read(path)).map(String::from));
        }
        known
    }

    /// Every name in `text` that is not known, as `"<kind> <name>"`.
    /// A `$`- or `<`-led placeholder after a flag names nothing, and
    /// only CamelCase identifiers in inline code are held to the Rust
    /// sources.
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
        for span in inline_code(text) {
            for word in idents(&span).filter(|w| camel_case(w)) {
                if !self.idents.contains(word) {
                    out.push(format!("identifier {word}"));
                }
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

/// The inline-code spans of `text`. Fenced blocks are commands, not
/// prose, and are skipped.
fn inline_code(text: &str) -> Vec<String> {
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
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// Every inline-code path in `text` under one of [`PATH_ROOTS`] that
/// names nothing in `root`. A span's first word is the path. A
/// `<placeholder>` is a glob `*`, a `::item` suffix must name something
/// in the file, and a path under a `.gitignore`d directory names a
/// build output that need not exist yet.
fn missing_paths(root: &Path, text: &str) -> Vec<String> {
    let ignored: Vec<String> = read(&root.join(".gitignore"))
        .lines()
        .map(|l| l.trim().trim_start_matches('/').to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut out = Vec::new();
    for span in inline_code(text) {
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
fn a_doc_naming_missing_identifiers_fails() {
    let known = Known::scan(&root());
    let fixture = "`vcu_cluster::EventQueue` pops `(time, seq)`; `System::GpuT4x4`, \
        `Vec<JobSpec>` and `--example quickstart` exist; `FIFO`, `Rust` and \
        `VCU_SEED=3` are no CamelCase; a KWayMerge outside inline code \
        is prose.\n```\nlet q = FencedQueue::new();\n```\n\
        Stale: `vcu_cluster::KWayMerge::new(4)`, `NvencSim`, `FrameEnc`.";
    assert_eq!(
        known.stale(fixture),
        [
            "identifier KWayMerge",
            "identifier NvencSim",
            "identifier FrameEnc",
        ]
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

/// The most lines DESIGN.md may have.
const DESIGN_MAX_LINES: usize = 700;

/// The sub-headings of every crate's section, in this order.
const CRATE_HEADINGS: [&str; 4] = ["Responsibility", "Key types", "Invariants", "Not modelled"];

/// Each crate under `crates/`: `(package name, its [dependencies])`,
/// read from its manifest.
fn crates(root: &Path) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = read(&entry.expect("crate dir").path().join("Cargo.toml"));
        let mut section = "";
        let (mut name, mut deps) = (String::new(), Vec::new());
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if section == "[package]" {
                if let Some(v) = line.strip_prefix("name = \"") {
                    name = v.trim_end_matches('"').to_string();
                }
            } else if section == "[dependencies]" && line.starts_with("vcu-") {
                deps.push(word(line).to_string());
            }
        }
        out.push((name, deps));
    }
    out.sort();
    out
}

/// The `level`-deep headings of `text` (`##` is level 2), outside
/// fenced blocks, with their line indices.
fn headings(text: &str, level: usize) -> Vec<(usize, &str)> {
    let marker = format!("{} ", "#".repeat(level));
    let mut fenced = false;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            if let Some(title) = line.strip_prefix(&marker) {
                out.push((i, title.trim()));
            }
        }
    }
    out
}

/// What is wrong with DESIGN.md's crate sections: a crate without
/// exactly one `## <package>` section, a section whose `###`
/// headings are not [`CRATE_HEADINGS`], or a crate placed above one
/// it depends on.
fn crate_section_faults(design: &str, crates: &[(String, Vec<String>)]) -> Vec<String> {
    let lines: Vec<&str> = design.lines().collect();
    let sections = headings(design, 2);
    let mut out = Vec::new();
    let mut position = BTreeMap::new();
    for (name, _) in crates {
        let found: Vec<usize> = (0..sections.len())
            .filter(|&k| sections[k].1 == name)
            .collect();
        let [k] = found[..] else {
            out.push(format!("{name}: {} sections", found.len()));
            continue;
        };
        position.insert(name.as_str(), k);
        let end = sections.get(k + 1).map_or(lines.len(), |&(i, _)| i);
        let body = lines[sections[k].0 + 1..end].join("\n");
        let subs: Vec<&str> = headings(&body, 3).into_iter().map(|(_, t)| t).collect();
        if subs != CRATE_HEADINGS {
            out.push(format!("{name}: sub-headings {subs:?}"));
        }
    }
    for (name, deps) in crates {
        for dep in deps {
            if let (Some(a), Some(b)) = (position.get(name.as_str()), position.get(dep.as_str())) {
                if a < b {
                    out.push(format!("{name}: above its dependency {dep}"));
                }
            }
        }
    }
    out
}

/// Each `PR <n>` token in `text` (also `PR-5`, `PRs 41–45`).
fn pr_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, _) in text.match_indices("PR") {
        if text[..i]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        {
            continue;
        }
        let rest = text[i + 2..].trim_start_matches('s');
        let rest = rest.strip_prefix([' ', '-']).unwrap_or(rest);
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            out.push(format!("PR {}", &rest[..end]));
        }
    }
    out
}

/// Each `DESIGN.md` in `text`, optionally in backticks, with the title
/// quoted after it (`None` when no `"` follows). Whitespace, and a
/// Rust comment's `///` or `//!`, may break the line between them.
fn design_citations(text: &str) -> Vec<Option<String>> {
    text.match_indices("DESIGN.md")
        .map(|(i, m)| {
            let mut rest = text[i + m.len()..].trim_start_matches('`').trim_start();
            while let Some(t) = rest
                .strip_prefix("///")
                .or_else(|| rest.strip_prefix("//!"))
            {
                rest = t.trim_start();
            }
            let quoted = rest.strip_prefix('"')?;
            quoted.split_once('"').map(|(title, _)| title.to_string())
        })
        .collect()
}

/// Each cited title in `text` that names no heading of `design`, and,
/// where `titled_only`, each `DESIGN.md` cited without a title.
fn dangling_citations(design: &str, text: &str, titled_only: bool) -> Vec<String> {
    let titles: BTreeSet<&str> = (1..=4)
        .flat_map(|level| headings(design, level))
        .map(|(_, t)| t)
        .collect();
    design_citations(text)
        .into_iter()
        .filter_map(|cited| match cited {
            Some(t) if !titles.contains(t.as_str()) => Some(format!("\"{t}\"")),
            None if titled_only => Some("DESIGN.md without a section".to_string()),
            _ => None,
        })
        .collect()
}

/// The oracles the `determinism` stage's echo line names, from its
/// `(debug build: a, b and c oracles on)`.
fn echoed_oracles(verify: &str) -> Vec<String> {
    let line = verify
        .lines()
        .find(|l| l.contains("echo") && l.contains("(debug build: "))
        .expect("the determinism stage's echo line");
    let list = line.split("(debug build: ").nth(1).expect("oracle list");
    let list = list.split(" oracles on)").next().expect("oracle list end");
    list.split(", ")
        .flat_map(|item| item.split(" and "))
        .map(|name| name.trim().to_string())
        .collect()
}

/// The `# oracle: <name>` lines of `table`, each of which must sit
/// directly above a mutation row: `Err` names one that does not.
fn listed_oracles(table: &str) -> Result<Vec<String>, String> {
    let lines: Vec<&str> = table.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(name) = line.strip_prefix("# oracle: ") {
            let next = lines.get(i + 1).copied().unwrap_or("");
            if next.is_empty() || next.starts_with('#') {
                return Err(format!("oracle {name} has no row below it"));
            }
            out.push(name.trim().to_string());
        }
    }
    Ok(out)
}

/// What differs between the echoed oracles and the listed ones.
fn oracle_list_faults(verify: &str, table: &str) -> Vec<String> {
    let listed = match listed_oracles(table) {
        Ok(listed) => listed,
        Err(e) => return vec![e],
    };
    let echoed = echoed_oracles(verify);
    let mut out = Vec::new();
    for name in &echoed {
        let times = listed.iter().filter(|l| *l == name).count();
        if times != 1 {
            out.push(format!("{name}: echoed, listed {times} times"));
        }
    }
    for name in &listed {
        if !echoed.contains(name) {
            out.push(format!("{name}: listed, not echoed"));
        }
    }
    out
}

/// The `(rows, match, shape-only, deviates)` tally EXPERIMENTS.md
/// states in "Of the N rows, A match, B are shape-only and C deviate".
fn stated_tally(experiments: &str) -> Option<[u64; 4]> {
    let rest = experiments.split("Of the ").nth(1)?;
    let numbers: Vec<u64> = rest
        .split('.')
        .next()?
        .split(|c: char| !c.is_ascii_digit())
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().expect("a count"))
        .collect();
    numbers.try_into().ok()
}

/// The same tally counted from `results/fidelity.json`'s rows.
fn artifact_tally(fidelity: &str) -> [u64; 4] {
    let value = vcu_telemetry::json::parse(fidelity).expect("fidelity.json parses");
    let rows = value.get("rows").and_then(|r| r.as_array()).expect("rows");
    let count = |status: &str| {
        rows.iter()
            .filter(|r| r.get("status").and_then(|s| s.as_str()) == Some(status))
            .count() as u64
    };
    [
        rows.len() as u64,
        count("match"),
        count("shape-only"),
        count("deviates"),
    ]
}

#[test]
fn design_fits_in_its_line_budget() {
    let lines = read(&root().join("DESIGN.md")).lines().count();
    assert!(
        lines <= DESIGN_MAX_LINES,
        "DESIGN.md has {lines} lines, more than {DESIGN_MAX_LINES}"
    );
}

#[test]
fn every_crate_has_one_design_section_in_dependency_order() {
    let root = root();
    let crates = crates(&root);
    assert_eq!(
        crates.len(),
        fs::read_dir(root.join("crates")).unwrap().count()
    );
    assert!(crates
        .iter()
        .any(|(name, deps)| name == "vcu-cluster" && !deps.is_empty()));
    let faults = crate_section_faults(&read(&root.join("DESIGN.md")), &crates);
    assert!(faults.is_empty(), "DESIGN.md crate sections: {faults:#?}");
}

#[test]
fn a_design_with_a_misshapen_crate_section_fails() {
    let crates = [
        ("vcu-a".to_string(), vec![]),
        ("vcu-b".to_string(), vec!["vcu-a".to_string()]),
        ("vcu-c".to_string(), vec![]),
    ];
    let fixture = "# D\n## vcu-b\n### Responsibility\n### Key types\n### Invariants\n\
        ### Not modelled\n## vcu-a\n### Responsibility\n```\n### not a heading\n```\n\
        ### Key types\n### Not modelled\n## Determinism\n### Invariants\n";
    assert_eq!(
        crate_section_faults(fixture, &crates),
        [
            "vcu-a: sub-headings [\"Responsibility\", \"Key types\", \"Not modelled\"]",
            "vcu-c: 0 sections",
            "vcu-b: above its dependency vcu-a",
        ]
    );
}

#[test]
fn design_holds_no_pr_history() {
    let found = pr_tokens(&read(&root().join("DESIGN.md")));
    assert!(
        found.is_empty(),
        "DESIGN.md names {found:?}; history goes in CHANGES.md"
    );
}

#[test]
fn a_design_naming_a_pr_fails() {
    let fixture = "Before PR 15 it was slow; the PR-5 machinery; PRs 41–45. \
        A PRNG, SPR 3 and a PR without a number are no history.";
    assert_eq!(pr_tokens(fixture), ["PR 15", "PR 5", "PR 41"]);
}

#[test]
fn design_citations_name_headings_that_exist() {
    let root = root();
    let design = read(&root.join("DESIGN.md"));
    let mut faults = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md", "results/README.md"] {
        for f in dangling_citations(&design, &read(&root.join(doc)), false) {
            faults.push(format!("{doc}: {f}"));
        }
    }
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files(&root.join(dir), &[".rs"], &mut sources);
    }
    for path in sources.iter().filter(|p| !p.ends_with("tests/docs.rs")) {
        for f in dangling_citations(&design, &read(path), true) {
            faults.push(format!("{}: {f}", path.display()));
        }
    }
    assert!(faults.is_empty(), "DESIGN.md citations: {faults:#?}");
}

#[test]
fn a_citation_of_a_missing_design_section_fails() {
    let design = "# D\n## Determinism\n### Invariants\n```\n## Fenced\n```\n";
    let text = "See DESIGN.md \"Determinism\", `DESIGN.md`\n\"Invariants\" and\n\
        /// DESIGN.md\n/// \"Determinism\". Stale: DESIGN.md \"Fenced\", see DESIGN.md.";
    assert_eq!(
        dangling_citations(design, text, true),
        ["\"Fenced\"", "DESIGN.md without a section"]
    );
    assert_eq!(dangling_citations(design, text, false), ["\"Fenced\""]);
}

#[test]
fn every_echoed_oracle_has_one_listed_row() {
    let root = root();
    let verify = read(&root.join("scripts/verify.sh"));
    let table = read(&root.join("scripts/mutants.tsv"));
    assert!(echoed_oracles(&verify).len() >= 9);
    let faults = oracle_list_faults(&verify, &table);
    assert!(faults.is_empty(), "oracle list: {faults:#?}");
}

#[test]
fn an_oracle_list_out_of_step_fails() {
    let verify = "echo \"--> (debug build: memo, screen and freed-slot oracles on)\"\n";
    let row = "crates/x.rs\ta\tb\t-p x\n";
    let whole = format!("# oracle: memo\n{row}# oracle: screen\n{row}# oracle: freed-slot\n{row}");
    assert!(oracle_list_faults(verify, &whole).is_empty());
    let dropped_name = whole.replacen("# oracle: screen\n", "", 1);
    assert_eq!(
        oracle_list_faults(verify, &dropped_name),
        ["screen: echoed, listed 0 times"]
    );
    let dropped_row = whole.replacen(&format!("# oracle: screen\n{row}"), "# oracle: screen\n", 1);
    assert_eq!(
        oracle_list_faults(verify, &dropped_row),
        ["oracle screen has no row below it"]
    );
    let extra = format!("{whole}# oracle: shadow\n{row}");
    assert_eq!(
        oracle_list_faults(verify, &extra),
        ["shadow: listed, not echoed"]
    );
}

#[test]
fn experiments_states_the_fidelity_tally() {
    let root = root();
    let stated = stated_tally(&read(&root.join("EXPERIMENTS.md")));
    let counted = artifact_tally(&read(&root.join("results/fidelity.json")));
    assert_eq!(
        stated,
        Some(counted),
        "EXPERIMENTS.md vs results/fidelity.json"
    );
}

#[test]
fn a_wrong_fidelity_tally_fails() {
    let fidelity = r#"{"campaign": {"rows": 3}, "rows": [
        {"id": "a", "status": "match"}, {"id": "b", "status": "shape-only"},
        {"id": "c", "status": "match"}]}"#;
    assert_eq!(artifact_tally(fidelity), [3, 2, 1, 0]);
    let right = "parity. Of the 3 rows, 2 match, 1 are shape-only and 0 deviate.";
    assert_eq!(stated_tally(right), Some([3, 2, 1, 0]));
    let wrong = "Of the 3 rows, 3 match, 0 are shape-only and 0 deviate.";
    assert_ne!(stated_tally(wrong), Some(artifact_tally(fidelity)));
    assert_eq!(stated_tally("Of the 61 rows, most match."), None);
}
