//! One module per paper table/figure (plus ablations and the closing
//! trace-layer summary). Every module exposes `run() -> String`,
//! printing the same rows/series the paper reports; [`ALL`] is the one
//! list of them.

pub mod exp_bundle_storm;
pub mod exp_burst_detection;
pub mod exp_dis_scenario;
pub mod exp_group_churn;
pub mod exp_hierarchy;
pub mod exp_recovery_latency;
pub mod exp_remulticast;
pub mod exp_statistical_ack;
pub mod exp_wb_comparison;
pub mod fig4_heartbeat_overhead;
pub mod fig5_overhead_ratio;
pub mod fig7_nack_reduction;
pub mod table1_backoff;
pub mod table2_estimation;
pub mod trace_summary;

/// One experiment: `(key, section title, run)`. The key is the module
/// name.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in report order: `reproduce` prints them all and
/// `reproduce --only <key>` prints one.
#[rustfmt::skip]
pub const ALL: &[Experiment] = &[
    ("fig4_heartbeat_overhead", "Figure 4", fig4_heartbeat_overhead::run),
    ("fig5_overhead_ratio", "Figure 5", fig5_overhead_ratio::run),
    ("table1_backoff", "Table 1", table1_backoff::run),
    ("table2_estimation", "Table 2", table2_estimation::run),
    ("fig7_nack_reduction", "Figure 7 / §2.2.2 NACK reduction", fig7_nack_reduction::run),
    ("exp_recovery_latency", "§2.2.2 recovery latency", exp_recovery_latency::run),
    ("exp_burst_detection", "§2.1.1 burst detection bound", exp_burst_detection::run),
    ("exp_statistical_ack", "§2.3 statistical acknowledgement", exp_statistical_ack::run),
    ("exp_group_churn", "§2.3.3 group-size churn", exp_group_churn::run),
    ("exp_wb_comparison", "§6 wb comparison", exp_wb_comparison::run),
    ("exp_hierarchy", "§7 hierarchy ablation", exp_hierarchy::run),
    ("exp_remulticast", "§2.2.1 re-multicast ablation", exp_remulticast::run),
    ("exp_dis_scenario", "§2.1.2 DIS scenario", exp_dis_scenario::run),
    ("exp_bundle_storm", "PDU bundling NACK storm", exp_bundle_storm::run),
    ("trace_summary", "Trace-layer summary", trace_summary::run),
];
