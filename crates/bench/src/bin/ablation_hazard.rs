//! Ablation: hazard-aware (Nowick–Dill) vs hazard-oblivious
//! (Quine–McCluskey) two-level minimization of the same burst-mode
//! controller functions. The QM covers are smaller but ternary simulation
//! finds transitions that can glitch — the reason Minimalist exists.

use bmbe_bm::synth::{synthesize, MinimizeMode};
use bmbe_core::compile_to_bm;
use bmbe_core::components::{call, decision_wait, sequencer};
use bmbe_logic::cover::Tv;
use bmbe_logic::qm;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: ablation_hazard: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    println!("Ablation: hazard-free vs hazard-oblivious minimization");
    println!(
        "{:<18} {:>12} {:>10} {:>14} {:>16}",
        "controller", "hf products", "qm products", "hf glitches", "qm glitches"
    );
    let programs = vec![
        ("sequencer_2", sequencer("p", &["a1".into(), "a2".into()])),
        (
            "sequencer_4",
            sequencer("p", &(0..4).map(|i| format!("a{i}")).collect::<Vec<_>>()),
        ),
        ("call_2", call(&["x".into(), "y".into()], "b")),
        (
            "decision_wait_2",
            decision_wait(
                "a",
                &["i1".into(), "i2".into()],
                &["o1".into(), "o2".into()],
            ),
        ),
    ];
    for (name, program) in programs {
        let spec = compile_to_bm(name, &program).map_err(|e| format!("{name}: compile: {e}"))?;
        let ctrl =
            synthesize(&spec, MinimizeMode::Speed).map_err(|e| format!("{name}: synth: {e}"))?;
        let mut hf_products = 0usize;
        let mut qm_products = 0usize;
        let mut hf_glitches = 0usize;
        let mut qm_glitches = 0usize;
        let n = ctrl.num_vars();
        for fspec in &ctrl.function_specs {
            let hf = fspec
                .minimize()
                .map_err(|e| format!("{name}: hazard-free minimization: {e:?}"))?;
            hf_products += hf.cover.len();
            let on = fspec.on_set();
            // DC = everything outside the specified transitions.
            let mut spec_space = on.clone();
            spec_space.extend(fspec.off_set().cubes().iter().copied());
            // QM with DC = complement of specified: approximate by passing
            // the OFF-set as the only forbidden region.
            let dc = complement_cover(n, &spec_space);
            let qm_cover = qm::minimize(n, &on, &dc).ok_or(format!("{name}: qm infeasible"))?;
            qm_products += qm_cover.len();
            // Ternary-check every specified transition on both covers.
            for t in fspec.transitions() {
                let changing = t.start ^ t.end;
                let values: Vec<Tv> = (0..n)
                    .map(|i| {
                        if changing >> i & 1 == 1 {
                            Tv::X
                        } else {
                            Tv::from_bool(t.start >> i & 1 == 1)
                        }
                    })
                    .collect();
                if t.from == t.to {
                    if hf.cover.eval_ternary(&values) != Tv::from_bool(t.from) {
                        hf_glitches += 1;
                    }
                    if qm_cover.eval_ternary(&values) != Tv::from_bool(t.from) {
                        qm_glitches += 1;
                    }
                }
            }
        }
        println!(
            "{:<18} {:>12} {:>10} {:>14} {:>16}",
            name, hf_products, qm_products, hf_glitches, qm_glitches
        );
    }
    // The textbook consensus case, where the two minimizations differ.
    {
        use bmbe_logic::FunctionSpec;
        let mut fspec = FunctionSpec::new(3);
        // f = x0 x1' + x1 x2 with a 1->1 transition across x1.
        fspec.add_static(0b001, 0b101, true);
        fspec.add_static(0b110, 0b111, true);
        fspec.add_static(0b101, 0b111, true);
        for off in [0b000u64, 0b010, 0b011, 0b100] {
            fspec.add_static(off, off, false);
        }
        let hf = fspec
            .minimize()
            .map_err(|e| format!("consensus_f: hazard-free minimization: {e:?}"))?;
        let on = fspec.on_set();
        let mut spec_space = on.clone();
        spec_space.extend(fspec.off_set().cubes().iter().copied());
        let dc = complement_cover(3, &spec_space);
        let qm_cover = qm::minimize(3, &on, &dc).ok_or("consensus_f: qm infeasible".to_string())?;
        let probe = [Tv::One, Tv::X, Tv::One];
        let hf_glitch = (hf.cover.eval_ternary(&probe) == Tv::X) as usize;
        let qm_glitch = (qm_cover.eval_ternary(&probe) == Tv::X) as usize;
        println!(
            "{:<18} {:>12} {:>10} {:>14} {:>16}",
            "consensus_f",
            hf.cover.len(),
            qm_cover.len(),
            hf_glitch,
            qm_glitch
        );
    }
    println!();
    println!("(hazard-free covers carry extra products but never glitch; the");
    println!(" QM covers are minimal yet ternary simulation exposes static");
    println!(" hazards on multiple-input-change transitions)");
    Ok(())
}

/// A crude complement: cubes covering points outside `cover`, built by
/// recursive splitting (fine for the small controller spaces used here).
fn complement_cover(n: usize, cover: &bmbe_logic::Cover) -> bmbe_logic::Cover {
    use bmbe_logic::{Cover, Cube};
    fn go(cube: Cube, cover: &Cover, out: &mut Vec<Cube>) {
        if !cover.intersects(&cube) {
            out.push(cube);
            return;
        }
        if cover.covers_cube(&cube) {
            return;
        }
        // Split on the first free variable.
        for i in 0..cube.num_vars() {
            if !cube.is_fixed(i) {
                go(cube.with_fixed(i, false), cover, out);
                go(cube.with_fixed(i, true), cover, out);
                return;
            }
        }
    }
    let mut out = Vec::new();
    go(Cube::universe(n), cover, &mut out);
    Cover::from_cubes(out)
}
