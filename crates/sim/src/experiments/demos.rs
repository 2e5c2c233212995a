//! Executable versions of the paper's worked examples: the Figure 1
//! splitting tree and the Figure 2 server work table.

use clash_core::load::GroupLoad;
use clash_core::messages::AcceptObjectResponse;
use clash_core::table::ServerTable;
use clash_core::ServerId;
use clash_keyspace::hash::HashSpace;
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;

fn sid(v: u64) -> ServerId {
    ServerId::new(v, HashSpace::new(16).expect("16 is valid"))
}

fn p7(s: &str) -> Prefix {
    Prefix::parse(s, 7).expect("valid prefix literal")
}

/// Reconstructs Figure 1: starting from the key group `011*` on server
/// s0, the splits described in §4 produce the tree with servers s0, s12,
/// s5 and s7 at the leaves. Returns the rendered tree plus the three
/// server tables.
pub fn figure1() -> String {
    let (s0, s12, s5, s7) = (sid(0), sid(12), sid(5), sid(7));
    let mut t0 = ServerTable::new(s0);
    let mut t12 = ServerTable::new(s12);
    let mut t5 = ServerTable::new(s5);
    let mut t7 = ServerTable::new(s7);

    // s0 manages "011*" and overloads: split, right child → s12.
    t0.insert_root(p7("011*")).expect("fresh group");
    let (_l, r) = t0.split(p7("011*")).expect("splittable");
    t0.set_right_child(p7("011*"), s12).expect("just split");
    t12.accept_group(r, s0, GroupLoad::zero())
        .expect("must accept");

    // s12 splits "0111*": right child "01111*" → s5.
    let (_l, r) = t12.split(p7("0111*")).expect("splittable");
    t12.set_right_child(p7("0111*"), s5).expect("just split");
    t5.accept_group(r, s12, GroupLoad::zero())
        .expect("must accept");

    // s12 splits "01110*": right child "011101*" → s7.
    let (_l, r) = t12.split(p7("01110*")).expect("splittable");
    t12.set_right_child(p7("01110*"), s7).expect("just split");
    t7.accept_group(r, s12, GroupLoad::zero())
        .expect("must accept");

    let mut out = String::new();
    out.push_str("Figure 1 — load balancing using binary splitting\n\n");
    out.push_str("logical tree (leaves = active key groups):\n");
    out.push_str("  011*            [root, originally s0]\n");
    out.push_str("  ├── 0110*       -> s0   (leaf)\n");
    out.push_str("  └── 0111*       -> s12\n");
    out.push_str("      ├── 01110*  -> s12\n");
    out.push_str("      │   ├── 011100* -> s12 (leaf)\n");
    out.push_str("      │   └── 011101* -> s7  (leaf)\n");
    out.push_str("      └── 01111*  -> s5   (leaf)\n\n");
    for (name, table) in [("s0", &t0), ("s12", &t12), ("s5", &t5), ("s7", &t7)] {
        out.push_str(&format!("{name}: {table:?}\n"));
    }
    let leaves: Vec<String> = [&t0, &t12, &t5, &t7]
        .iter()
        .flat_map(|t| t.active_groups().map(|e| e.group.to_string()))
        .collect();
    out.push_str(&format!("active groups across servers: {leaves:?}\n"));
    out
}

/// Reconstructs the exact server work table of Figure 2 (server s25) and
/// replays the three `ACCEPT_OBJECT` cases of §5 against it.
pub fn figure2() -> String {
    let s25 = sid(25);
    let mut table = ServerTable::new(s25);
    table.insert_root(p7("011*")).expect("fresh group");
    table
        .accept_group(p7("01011*"), sid(22), GroupLoad::zero())
        .expect("fresh group");
    table.split(p7("011*")).expect("splittable");
    table.set_right_child(p7("011*"), sid(45)).expect("split");
    table.split(p7("01011*")).expect("splittable");
    table.set_right_child(p7("01011*"), sid(26)).expect("split");
    table.split(p7("0110*")).expect("splittable");
    table.set_right_child(p7("0110*"), sid(11)).expect("split");

    let mut out = String::new();
    out.push_str("Figure 2 — key group information using the Server Work Table (s25)\n\n");
    out.push_str(&format!("{table:?}\n"));
    out.push_str("ACCEPT_OBJECT case analysis (§5):\n");
    let cases = [
        ("(a) key 0110001 at depth 5 (right depth)", "0110001", 5u32),
        (
            "(b) key 0110001 at depth 7 (wrong depth, right server)",
            "0110001",
            7,
        ),
        ("(c) key 0101010 at depth 6 (wrong server)", "0101010", 6),
    ];
    for (desc, key, depth) in cases {
        let k = Key::parse(key, 7).expect("valid key literal");
        let resp = table.classify_object(k, depth);
        let rendered = match resp {
            AcceptObjectResponse::Ok { depth } => format!("OK (depth {depth})"),
            AcceptObjectResponse::OkCorrected { depth } => {
                format!("OK, corrected depth = {depth}")
            }
            AcceptObjectResponse::IncorrectDepth { d_min } => {
                format!("INCORRECT_DEPTH, d_min = {d_min:?}")
            }
        };
        out.push_str(&format!("  {desc}: {rendered}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_expected_leaves() {
        let out = figure1();
        for leaf in ["0110*", "011100*", "011101*", "01111*"] {
            assert!(out.contains(leaf), "missing {leaf}");
        }
    }

    #[test]
    fn figure2_replays_paper_cases() {
        let out = figure2();
        assert!(out.contains("OK (depth 5)"));
        assert!(out.contains("corrected depth = 5"));
        assert!(out.contains("d_min = Some(4)"));
    }
}
