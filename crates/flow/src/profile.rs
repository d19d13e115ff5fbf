//! Lightweight per-phase wall-clock profiling of the synthesis chain.
//!
//! Every cache miss runs the full per-shape chain (CH→BMS compile, state
//! minimization, hazard-free synthesis, verification, technology mapping);
//! [`PhaseProfile`] records how long each phase took, and a flow run sums
//! the profiles of the shapes it actually synthesized (cache hits cost
//! nothing and contribute nothing). `perf_report` surfaces the aggregate as
//! the `phases` section of `BENCH_flow.json`, which is what pointed this
//! PR's kernel work at prime generation and covering in the first place.

use std::time::Duration;

/// Wall-clock breakdown of one shape's synthesis chain (or the sum over
/// all shapes a flow run synthesized).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// CH → BMS compilation.
    pub compile: Duration,
    /// Conservative state minimization.
    pub statemin: Duration,
    /// Hazard-free two-level synthesis in total (state assignment, spec
    /// construction, minimization of every function).
    pub synth: Duration,
    /// Of `synth`: DHF-prime generation inside the minimizer.
    pub prime_gen: Duration,
    /// Of `synth`: the unate-covering solver.
    pub covering: Duration,
    /// Hazard verification (ternary simulation of the two-level covers plus
    /// post-mapping equivalence and ternary analysis).
    pub verify: Duration,
    /// Technology mapping (subject-graph construction and tree covering).
    pub map: Duration,
    /// Number of shape syntheses summed into this profile.
    pub shapes: usize,
}

impl PhaseProfile {
    /// Sums another profile into this one.
    pub fn accumulate(&mut self, other: &PhaseProfile) {
        self.compile += other.compile;
        self.statemin += other.statemin;
        self.synth += other.synth;
        self.prime_gen += other.prime_gen;
        self.covering += other.covering;
        self.verify += other.verify;
        self.map += other.map;
        self.shapes += other.shapes;
    }

    /// Total profiled time (compile + statemin + synth + verify + map; the
    /// prime-generation and covering components are already inside
    /// `synth`).
    pub fn total(&self) -> Duration {
        self.compile + self.statemin + self.synth + self.verify + self.map
    }

    /// Debug-build sanity check: `prime_gen` and `covering` are measured
    /// *inside* the synthesis phase, on the same thread, so their sum
    /// cannot exceed `synth` (plus a small slack for timer granularity).
    pub fn debug_check_subphases(&self) {
        debug_assert!(
            self.prime_gen + self.covering <= self.synth + Duration::from_millis(5),
            "sub-phases exceed synth: prime_gen {:?} + covering {:?} > synth {:?}",
            self.prime_gen,
            self.covering,
            self.synth,
        );
    }
}
