//! The clustering optimizations of §4: Activation Channel Removal,
//! Call Distribution, and the `T1`/`T2` netlist algorithms.

pub mod acr;
pub mod cluster;

pub use acr::{activation_channel_removal, hide_activation, AcrFailure, MergeMemo};
pub use cluster::{
    split_call, split_call_fragment, CallFragments, ClusterOptions, ClusterReport, CtrlComponent,
    CtrlNetlist, InternalChannel,
};

pub mod verify;

pub use verify::{
    run_acr_experiment, verify_acr, verify_acr_compared, verify_acr_materialized, AcrComparison,
    AcrVerdict, ExperimentRow, MismatchDirection, VerifyError,
};
