//! The repo benchmark: five campaign workloads, measured end to end and
//! layer by layer **from outside** the program — by timing calls into its
//! public functions and by attaching the existing `Recorder` through
//! `CampaignConfig::observer`. See `README.md` beside this crate for the
//! workloads, the metrics and how they are expected to move together.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod compare;
pub mod e2e;
pub mod layers;
pub mod micro;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
