//! The chaos cells that once lost a packet across a failover, as named
//! regressions. In each, receivers gave up one seq before anyone asked
//! the newly elected leader for it:
//! - seed 1234 (and crash-churn's seed 747): the site's `TermAnnounce`
//!   was lost, and the `PrimaryIs` naming the new leader arrived just
//!   as the NACK budget ran out, so nobody asked that leader;
//! - seeds 271 and 503: the budget ran out 94 ms before the election.

use lbrm_bench::chaos::run_shape;

const CELLS: [(&str, u64); 7] = [
    ("primary-replica-crash", 271),
    ("primary-replica-crash", 503),
    ("primary-replica-crash", 1234),
    ("replica-rejoin", 271),
    ("replica-rejoin", 503),
    ("replica-rejoin", 1234),
    ("crash-churn", 747),
];

#[test]
fn every_receiver_recovers_across_the_failovers_that_once_lost_a_packet() {
    let failed: Vec<String> = CELLS
        .iter()
        .map(|&(shape, seed)| run_shape(shape, seed))
        .filter(|outcome| !outcome.passed())
        .map(|outcome| outcome.render())
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
