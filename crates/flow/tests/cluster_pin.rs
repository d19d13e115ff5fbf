//! Pins the clustering result on a fixed design set: the four shipped
//! paper designs plus the first 64 corpus designs of seed 11. The digest
//! covers every surviving component's name and printed CH program and the
//! full `ClusterReport`, reason strings included, so any change to an
//! Activation Channel Removal verdict, a merge order or a rejection
//! message moves it.
//!
//! It also re-checks the merge memo: clustering whole design sets through
//! one shared `MergeMemo` must give what each design gives alone, and so
//! must a flow through a cache whose memo an earlier process persisted.

use bmbe_balsa::CompiledDesign;
use bmbe_core::opt::cluster::ClusterReport;
use bmbe_core::{balsa_to_ch, print_ch, ClusterOptions, CtrlNetlist, MergeMemo};
use bmbe_designs::{all_designs, generate_corpus, CorpusSpec};
use bmbe_flow::{flow_through_registry, ControllerCache, DiskCache, FlowOptions, ShapeRegistry};
use bmbe_gates::Library;

/// Recorded with the rescanning `T1` and the list-based Table 2 expansion,
/// which the current code must reproduce exactly.
const PINNED: u64 = 0x1ec2_3555_1785_04df;

/// FNV-1a, 64-bit: a hash whose value is fixed by its definition, unlike
/// the standard library's hashers.
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0u8]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn absorb(h: &mut Fnv, design: &str, ctrl: &CtrlNetlist, report: &ClusterReport) {
    h.field(design);
    for c in &ctrl.components {
        h.field(&c.name);
        h.field(&print_ch(&c.program));
    }
    for chan in &report.eliminated_channels {
        h.field(chan);
    }
    h.field("rejected");
    for (chan, reason) in &report.rejected {
        h.field(chan);
        h.field(reason);
    }
    h.field("distributed");
    for call in &report.distributed_calls {
        h.field(call);
    }
    h.field("restored");
    for call in &report.restored_calls {
        h.field(call);
    }
}

#[test]
fn clustering_of_paper_designs_and_corpus_slice_is_pinned() {
    let paper = all_designs().expect("shipped designs build");
    let corpus = generate_corpus(&CorpusSpec {
        seed: 11,
        designs: 64,
    })
    .expect("corpus builds");
    let designs = paper
        .iter()
        .map(|d| (d.name.to_string(), &d.compiled))
        .chain(corpus.iter().map(|d| (d.name.clone(), &d.compiled)));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut merged, mut rejected) = (0, 0);
    for (name, compiled) in designs {
        let mut ctrl = balsa_to_ch(&compiled.netlist).expect("designs translate");
        let report = ctrl.t2_clustering(&ClusterOptions::default());
        merged += report.eliminated_channels.len();
        rejected += report.rejected.len();
        absorb(&mut h, &name, &ctrl, &report);
    }
    assert_eq!(
        h.0, PINNED,
        "clustering digest {:#018x} ({merged} merged, {rejected} rejected)",
        h.0
    );
}

/// The four paper designs plus 400 corpus designs of `seed`: the design set
/// of a benchmark pass.
fn benchmark_set(seed: u64) -> Vec<(String, CompiledDesign)> {
    let paper = all_designs().expect("shipped designs build");
    let corpus = generate_corpus(&CorpusSpec { seed, designs: 400 }).expect("corpus builds");
    paper
        .into_iter()
        .map(|d| (d.name.to_string(), d.compiled))
        .chain(corpus.into_iter().map(|d| (d.name, d.compiled)))
        .collect()
}

/// The clustered netlist and report of one design, with its components as
/// `(name, printed program)`.
fn cluster(
    design: &CompiledDesign,
    run: impl FnOnce(&mut CtrlNetlist) -> ClusterReport,
) -> (Vec<(String, String)>, ClusterReport) {
    let mut ctrl = balsa_to_ch(&design.netlist).expect("designs translate");
    let report = run(&mut ctrl);
    let components = ctrl
        .components
        .iter()
        .map(|c| (c.name.clone(), print_ch(&c.program)))
        .collect();
    (components, report)
}

#[test]
fn a_shared_merge_memo_changes_no_clustering_result() {
    let opts = ClusterOptions::default();
    for seed in [11, 23] {
        let memo = MergeMemo::new();
        for (name, design) in &benchmark_set(seed) {
            let alone = cluster(design, |c| c.t2_clustering(&opts));
            let shared = cluster(design, |c| c.t2_clustering_with(&opts, &memo));
            assert_eq!(shared, alone, "seed {seed}, design {name}");
        }
        let (hits, misses) = (memo.hits(), memo.misses());
        assert!(
            hits * 100 >= (hits + misses) * 65,
            "seed {seed}: {hits} hits, {misses} misses"
        );
    }
}

#[test]
fn a_second_pass_through_one_memo_compiles_nothing() {
    let opts = ClusterOptions::default();
    let paper = all_designs().expect("shipped designs build");
    let memo = MergeMemo::new();
    let pass = || {
        for d in &paper {
            cluster(&d.compiled, |c| c.t2_clustering_with(&opts, &memo));
        }
    };
    pass();
    let misses = memo.misses();
    assert!(misses > 0, "the first pass compiles");
    pass();
    assert_eq!(memo.misses(), misses, "the second pass compiled a merge");
    assert!(memo.hits() >= misses, "{} hits", memo.hits());
}

/// The merge lookups of one pass over `set` that compile and fail: a
/// second clustering pass through one memo compiles only those.
fn failing_compiles(set: &[(String, CompiledDesign)], opts: &ClusterOptions) -> usize {
    let memo = MergeMemo::new();
    let pass = || {
        for (_, design) in set {
            cluster(design, |c| c.t2_clustering_with(opts, &memo));
        }
    };
    pass();
    let first = memo.misses();
    pass();
    memo.misses() - first
}

#[test]
fn a_reopened_disk_cache_changes_no_clustering_result() {
    let library = Library::cmos035();
    let options = FlowOptions::optimized();
    for seed in [11, 23] {
        let set = benchmark_set(seed);
        let dir =
            std::env::temp_dir().join(format!("bmbe-cluster-pin-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pass = |cache: &ControllerCache| {
            let registry = ShapeRegistry::new(cache, &library);
            for (name, design) in &set {
                let (flow, _) = flow_through_registry(name, design, &options, &registry, 1)
                    .unwrap_or_else(|e| panic!("seed {seed}, design {name}: {e}"));
                let components: Vec<(String, String)> = flow
                    .controllers
                    .iter()
                    .map(|c| (c.name.clone(), print_ch(&c.program)))
                    .collect();
                let alone = cluster(design, |c| c.t2_clustering(&options.cluster));
                let report = flow.cluster_report.expect("optimized flows cluster");
                assert_eq!((components, report), alone, "seed {seed}, design {name}");
            }
        };
        let cold = ControllerCache::with_disk(DiskCache::open(&dir).expect("scratch cache"));
        pass(&cold);
        let warm = ControllerCache::with_disk(DiskCache::open(&dir).expect("reopen"));
        pass(&warm);
        let _ = std::fs::remove_dir_all(&dir);
        let failing = failing_compiles(&set, &options.cluster);
        let (cold_misses, warm_misses) = (cold.merge_memo().misses(), warm.merge_memo().misses());
        assert_eq!(
            warm_misses, failing,
            "seed {seed}: the reopened memo compiled {warm_misses} merges (cold: {cold_misses})"
        );
        assert!(
            cold_misses > 10 * failing.max(1),
            "seed {seed}: {cold_misses} cold misses"
        );
    }
}
