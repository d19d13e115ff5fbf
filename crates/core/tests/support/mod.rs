//! Random Burst-Mode aware CH programs, shared by the property suites.

use bmbe_core::ast::{ChExpr, InterleaveOp};
use proptest::prelude::*;
use std::cell::Cell;

thread_local! {
    static COUNTER: Cell<usize> = const { Cell::new(0) };
}

fn fresh(prefix: &str) -> String {
    COUNTER.with(|c| {
        c.set(c.get() + 1);
        format!("{prefix}{}", c.get())
    })
}

/// Random *active* (BM-aware) expression of bounded depth: the "body" side
/// of a component.
fn arb_active(depth: u32) -> BoxedStrategy<ChExpr> {
    if depth == 0 {
        return Just(()).prop_map(|()| ChExpr::active(fresh("a"))).boxed();
    }
    prop_oneof![
        Just(()).prop_map(|()| ChExpr::active(fresh("a"))),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::Seq,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::SeqOv,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::EncEarly,
            x,
            y
        )),
        (arb_active(depth - 1), arb_active(depth - 1)).prop_map(|(x, y)| ChExpr::op(
            InterleaveOp::EncMiddle,
            x,
            y
        )),
    ]
    .boxed()
}

/// Random BM-aware *component*: `rep` of a passive enclosure (the standard
/// controller shape) with a random active body, possibly a mutex of such.
pub fn arb_component() -> impl Strategy<Value = ChExpr> {
    let arm =
        |(body,): (ChExpr,)| ChExpr::op(InterleaveOp::EncEarly, ChExpr::passive(fresh("p")), body);
    prop_oneof![
        arb_active(2).prop_map(move |b| ChExpr::Rep(Box::new(arm((b,))))),
        (arb_active(1), arb_active(1)).prop_map(move |(b1, b2)| {
            ChExpr::Rep(Box::new(ChExpr::op(
                InterleaveOp::Mutex,
                arm((b1,)),
                arm((b2,)),
            )))
        }),
    ]
}
