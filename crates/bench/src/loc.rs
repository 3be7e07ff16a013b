//! Table 2: lines of code per optimization.
//!
//! The paper reports the size of each Linux patch. The closest honest
//! analogue for this repository is the size of the module(s) implementing
//! each technique, counted from the embedded sources (comment and blank
//! lines excluded, test modules excluded), printed next to the paper's
//! numbers for comparison.

/// The size of some source code, outside its test modules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Effective lines: non-blank and non-comment.
    pub lines: u64,
    /// Lines that declare a name other crates can use: their trimmed
    /// text starts with `pub ` (a `pub(crate)` line does not count).
    pub public: u64,
}

/// Count effective lines and public declarations, stopping at the test
/// module (tests are not part of the "patch"): at a `#[cfg(test)]` line
/// that opens a `mod`. Any other `#[cfg(test)]` item is counted, and the
/// lines after it too.
pub fn effective_loc(source: &str) -> Loc {
    let mut loc = Loc::default();
    let mut lines = source.lines().map(str::trim).peekable();
    while let Some(t) = lines.next() {
        if t == "#[cfg(test)]" && lines.peek().is_some_and(|next| next.starts_with("mod ")) {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        loc.lines += 1;
        loc.public += u64::from(t.starts_with("pub "));
    }
    loc
}

/// One Table 2 row.
#[derive(Clone, Debug)]
pub(crate) struct LocRow {
    /// Optimization name (paper's wording).
    pub(crate) name: &'static str,
    /// The paper's reported patch size.
    pub(crate) paper_loc: u64,
    /// This repository's implementing-module size.
    pub(crate) ours_loc: u64,
    /// Which modules were counted.
    pub(crate) modules: &'static str,
}

/// Produce Table 2.
pub(crate) fn table2() -> Vec<LocRow> {
    let protocol = effective_loc(include_str!("../../core/src/protocol.rs")).lines;
    let smp = effective_loc(include_str!("../../core/src/smp.rs")).lines;
    let deferred = effective_loc(include_str!("../../core/src/deferred.rs")).lines;
    let cow = effective_loc(include_str!("../../core/src/cow.rs")).lines;
    let batch = effective_loc(include_str!("../../core/src/batch.rs")).lines;
    let gen = effective_loc(include_str!("../../core/src/gen.rs")).lines;
    vec![
        LocRow {
            name: "Concurrent flushes",
            paper_loc: 103,
            ours_loc: gen, // the ordering + generation logic the reordering leans on
            modules: "core/gen.rs",
        },
        LocRow {
            name: "Early ack + Cacheline consolidation",
            paper_loc: 73,
            ours_loc: protocol + smp,
            modules: "core/protocol.rs + core/smp.rs",
        },
        LocRow {
            name: "In-context page flushing (deferring)",
            paper_loc: 353,
            ours_loc: deferred,
            modules: "core/deferred.rs",
        },
        LocRow {
            name: "CoW",
            paper_loc: 35,
            ours_loc: cow,
            modules: "core/cow.rs",
        },
        LocRow {
            name: "Userspace-safe Batching",
            paper_loc: 221,
            ours_loc: batch,
            modules: "core/batch.rs",
        },
    ]
}

/// Table 2 as the `figures` binary prints it: the block at the top of
/// `figures_output.txt`.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: lines of code per optimization\n\n");
    out += &format!(
        "  {:<38} {:>9} {:>9}   modules\n",
        "optimization", "paper", "ours"
    );
    for r in table2() {
        out += &format!(
            "  {:<38} {:>9} {:>9}   {}\n",
            r.name, r.paper_loc, r.ours_loc, r.modules
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_loc_skips_comments_blanks_and_tests() {
        let src = "// comment\n\npub fn f() {}\n/// doc\nstruct S;\n    pub(crate) x: u8,\n#[cfg(test)]\nmod tests { pub fn g() {} }\n";
        assert_eq!(
            effective_loc(src),
            Loc {
                lines: 3,
                public: 1
            }
        );
    }

    #[test]
    fn effective_loc_counts_on_past_a_test_only_item() {
        let src =
            "fn f() {}\n#[cfg(test)]\nfn helper() {}\npub fn g() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            effective_loc(src),
            Loc {
                lines: 4,
                public: 1
            }
        );
    }

    #[test]
    fn table2_rows_are_nonzero() {
        let rows = table2();
        assert_eq!(rows.len(), 5);
        for r in rows {
            assert!(r.ours_loc > 0, "{} counted zero lines", r.name);
        }
    }
}
