//! # navicim-serve — fleet-scale localization serving
//!
//! Runs hundreds-to-thousands of concurrent
//! [`LocalizationPipeline`](navicim_core::pipeline::LocalizationPipeline)
//! sessions over one shared pool of fitted map backends. The
//! [`Fleet`] forks per-agent sessions off one prototype
//! (shared read-only maps / CIM fabric behind `Arc`) and steps them in
//! bulk-synchronous frame rounds on one loop: workers claim sessions from
//! a shared queue, and each session runs its own pipeline step.
//!
//! The headline property, enforced by property tests: every session's
//! outputs are **bit-identical** to running that session alone, for any
//! worker count — sessions share no mutable state, and analog evaluation
//! noise is a pure function of (stream seed, stream index).
//!
//! An earlier cross-agent batcher (one merged backend call per slot per
//! round) ran at 0.59–0.68× of independent sessions on a 2-core host and
//! was deleted; see the README's serving section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;

pub use fleet::{Fleet, FleetConfig, ServeError};
