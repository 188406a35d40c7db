//! A repeatable benchmark of the CIRC race checker: seeded inputs with
//! known verdicts, end-to-end timings, per-layer counters, and a traced
//! final-round replay. See `README.md` in this directory.

pub mod gen;
pub mod measure;
pub mod replay;
pub mod trace;
