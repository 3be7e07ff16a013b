//! Table 2: lines of code per optimization.
//!
//! The paper reports the size of each Linux patch. The closest honest
//! analogue for this repository is the size of the module(s) implementing
//! each technique, counted from the embedded sources (comment and blank
//! lines excluded, test modules excluded), printed next to the paper's
//! numbers for comparison.

/// Count effective lines: non-blank, non-comment, stopping at the test
/// module (tests are not part of the "patch").
pub fn effective_loc(source: &str) -> u64 {
    let mut count = 0;
    for line in source.lines() {
        let t = line.trim();
        if t == "#[cfg(test)]" {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        count += 1;
    }
    count
}

/// One Table 2 row.
#[derive(Clone, Debug)]
pub struct LocRow {
    /// Optimization name (paper's wording).
    pub name: &'static str,
    /// The paper's reported patch size.
    pub paper_loc: u64,
    /// This repository's implementing-module size.
    pub ours_loc: u64,
    /// Which modules were counted.
    pub modules: &'static str,
}

/// Produce Table 2.
pub fn table2() -> Vec<LocRow> {
    let protocol = effective_loc(include_str!("../../core/src/protocol.rs"));
    let smp = effective_loc(include_str!("../../core/src/smp.rs"));
    let deferred = effective_loc(include_str!("../../core/src/deferred.rs"));
    let cow = effective_loc(include_str!("../../core/src/cow.rs"));
    let batch = effective_loc(include_str!("../../core/src/batch.rs"));
    let gen = effective_loc(include_str!("../../core/src/gen.rs"));
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
        let src = "// comment\n\npub fn f() {}\n/// doc\nstruct S;\n#[cfg(test)]\nmod tests { fn g() {} }\n";
        assert_eq!(effective_loc(src), 2);
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
