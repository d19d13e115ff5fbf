#![warn(missing_docs)]
//! # bmbe-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`table1`, `table2`, `fig3`, `fig4`, `fig5`, `verify43`, `table3`) plus
//! ablations (`ablation_minmode`, `ablation_mapping`,
//! `ablation_clustering`), and Criterion micro-benchmarks of the synthesis
//! algorithms. Paper reference values live in [`paper`]; the shared
//! report-binary epilogue (pure-JSON stdout, `BENCH_*.json` emission,
//! trace export) lives in [`report`]; the perf-regression gates the
//! `bench_trend` sentinel applies, and the reader of one design's number
//! from a committed report, live in [`trend`].

pub mod paper;
pub mod report;
pub mod trend;
