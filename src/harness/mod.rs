//! Harness: runs the sans-IO protocol machines inside the deterministic
//! simulator, and places one LBRM group on either substrate (simulated
//! hosts or endpoints over a transport) from ready-made scenarios.

pub mod adapter;
pub mod scenario;

pub use adapter::{call_at, MachineActor};
pub use scenario::{
    DisScenario, DisScenarioConfig, GroupEndpoints, GroupPlan, Place, Role, SrmScenario,
    SrmScenarioConfig,
};
