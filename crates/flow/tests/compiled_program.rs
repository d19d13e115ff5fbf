//! The compiled engine's program path — each port set's compiled circuit
//! built once per flow, each controller's transition memo shared by every
//! batch run on it — against the per-batch construction kept in
//! `support/compiled_ref.rs`: the same lanes for every batch, whatever
//! earlier batches stored in the shared memos.

#[path = "support/cases.rs"]
mod cases;
#[path = "support/compiled_ref.rs"]
mod compiled_ref;

use bmbe_flow::{batch_input_ports, compile_sim, ControllerCache, Scenario, SimOutcome};
use bmbe_gates::Library;
use bmbe_sim::LANES;
use cases::{cases, flow, scenarios};
use compiled_ref::reference_batch;

/// Whether two batches hold the same lanes: completion, events, waves,
/// outputs, sync counts and memories.
fn same_lanes(a: &[SimOutcome], b: &[SimOutcome]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.same_result(y) && x.stats.waves == y.stats.waves)
}

/// Memo hits and mixed evaluations of a batch (every outcome reports the
/// batch's).
fn memo_counts(batch: &[SimOutcome]) -> (u64, u64) {
    batch
        .first()
        .map_or((0, 0), |o| (o.stats.memo_hits, o.stats.mixed_evals))
}

/// The paper designs and the first 48 seed-11 corpus designs, each on a
/// fresh flow: a 64-lane batch with a cold memo, the same batch again with
/// a warm one, then every scenario as a one-lane batch. Every batch's
/// lanes equal the per-batch construction's. The cold batch reads the
/// memo exactly as the per-batch construction does; summed over the
/// designs, the warm batch is served more often than the cold one, and
/// no batch's mixed evaluations move.
#[test]
fn shared_memo_batches_match_the_per_batch_construction() -> Result<(), String> {
    let (library, cache) = (Library::cmos035(), ControllerCache::new());
    let (mut cold_hits, mut warm_hits) = (0, 0);
    for case in cases(48)? {
        let flow = flow(&case, &library, &cache)?;
        let scenarios = scenarios(&case, LANES);
        let ports = batch_input_ports(&scenarios);
        let shared = |batch: &[Scenario]| {
            compile_sim(&case.compiled, &flow, &ports, None)
                .and_then(|cs| cs.run_batch(batch))
                .map_err(|e| format!("{}: {e}", case.name))
        };
        let reference = reference_batch(&case.compiled, &flow, &scenarios)?;
        let (cold, warm) = (shared(&scenarios)?, shared(&scenarios)?);
        assert!(same_lanes(&cold, &reference), "{}: cold batch", case.name);
        assert!(same_lanes(&warm, &reference), "{}: warm batch", case.name);
        let (hits, mixed) = memo_counts(&reference);
        assert_eq!(
            memo_counts(&cold),
            (hits, mixed),
            "{}: cold batch",
            case.name
        );
        assert_eq!(memo_counts(&warm).1, mixed, "{}: warm batch", case.name);
        cold_hits += hits;
        warm_hits += memo_counts(&warm).0;
        for (lane, s) in scenarios.iter().enumerate() {
            let one = std::slice::from_ref(s);
            assert!(
                same_lanes(&shared(one)?, &reference_batch(&case.compiled, &flow, one)?),
                "{}: one-lane batch {lane}",
                case.name
            );
        }
    }
    assert!(
        warm_hits > cold_hits,
        "memo hits: cold {cold_hits}, warm {warm_hits}"
    );
    Ok(())
}
