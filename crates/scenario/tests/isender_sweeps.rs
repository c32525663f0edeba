//! The shipped ISender experiments, pinned end to end.
//!
//! Each spec runs for 10 s (with its exact-belief senders capped at 2000
//! branches where it has any) and its sweep CSV is compared against an
//! FNV-1a digest. The ISender's every send decision goes through the
//! planner, so any change to how candidates are rolled out or scored, to
//! belief advance, or to the closed loop shows up here as a digest
//! mismatch.

use augur_scenario::{load_shipped, SweepRunner};
use augur_sim::Dur;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(spec name, digest of its 10 s sweep CSV)`, recorded while the
/// planner still rolled every candidate out on its own from a fresh
/// clone of the branch.
const CSV_PINS: [(&str, u64); 5] = [
    ("smoke", 0x36a7_d852_33a0_9305),
    ("coexist-fairness", 0xd9b6_511b_26a9_7829),
    ("coexist-vs-tcp", 0x119a_d1a9_b5fa_2514),
    ("fig3", 0x0fb6_b9b7_a25f_3c41),
    ("tab1", 0x5de7_5675_c6ff_9fc9),
];

#[test]
fn shipped_isender_sweeps_match_their_pinned_csvs() {
    for (name, digest) in CSV_PINS {
        let mut grid = load_shipped(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        grid.set_duration(Dur::from_secs(10));
        grid.set_max_branches(2000);
        let csv = SweepRunner::serial().run(&grid.expand()).to_csv_string();
        let got = fnv1a(&csv);
        assert_eq!(
            got, digest,
            "{name}: sweep CSV changed (digest {got:#018x}):\n{csv}"
        );
    }
}
