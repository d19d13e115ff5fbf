//! Concrete CH syntax: the paper's s-expression notation.
//!
//! ```text
//! (rep (enc-early (p-to-p passive P)
//!                 (seq (p-to-p active A1) (p-to-p active A2))))
//! ```
//!
//! `seq` and `mutex` accept more than two arguments (right-nested per
//! §3.3); `mux-ack`/`mux-req` take a channel name followed by
//! `(operator expression)` arms.

use crate::ast::{ChActivity, ChExpr, InterleaveOp};
use std::fmt;
use std::fmt::Write as _;

/// A CH parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ChParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CH parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ChParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Atom(String, usize),
    List(Vec<Sexp>, usize),
}

fn lex(src: &str) -> Result<Sexp, ChParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let node = parse_sexp(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ChParseError {
            message: "trailing input".into(),
            offset: pos,
        });
    }
    Ok(node)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() {
        match bytes[*pos] {
            b';' => {
                while *pos < bytes.len() && bytes[*pos] != b'\n' {
                    *pos += 1;
                }
            }
            c if c.is_ascii_whitespace() => *pos += 1,
            _ => break,
        }
    }
}

fn parse_sexp(bytes: &[u8], pos: &mut usize) -> Result<Sexp, ChParseError> {
    skip_ws(bytes, pos);
    let start = *pos;
    match bytes.get(*pos) {
        None => Err(ChParseError {
            message: "unexpected end of input".into(),
            offset: start,
        }),
        Some(b'(') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b')') => {
                        *pos += 1;
                        return Ok(Sexp::List(items, start));
                    }
                    None => {
                        return Err(ChParseError {
                            message: "unclosed parenthesis".into(),
                            offset: start,
                        })
                    }
                    _ => items.push(parse_sexp(bytes, pos)?),
                }
            }
        }
        Some(b')') => Err(ChParseError {
            message: "unexpected `)`".into(),
            offset: start,
        }),
        _ => {
            let begin = *pos;
            while *pos < bytes.len()
                && !bytes[*pos].is_ascii_whitespace()
                && bytes[*pos] != b'('
                && bytes[*pos] != b')'
                && bytes[*pos] != b';'
            {
                *pos += 1;
            }
            Ok(Sexp::Atom(
                String::from_utf8_lossy(&bytes[begin..*pos]).into_owned(),
                begin,
            ))
        }
    }
}

/// Parses a CH program from its s-expression syntax.
///
/// # Errors
///
/// Returns a [`ChParseError`] with the byte offset of the problem.
///
/// # Examples
///
/// ```
/// use bmbe_core::parse::parse_ch;
/// use bmbe_core::compile::compile_to_bm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = parse_ch(
///     "(rep (enc-early (p-to-p passive p)
///                      (seq (p-to-p active a1) (p-to-p active a2))))",
/// )?;
/// assert_eq!(compile_to_bm("sequencer", &seq)?.num_states(), 6);
/// # Ok(())
/// # }
/// ```
pub fn parse_ch(src: &str) -> Result<ChExpr, ChParseError> {
    let sexp = lex(src)?;
    build(&sexp)
}

fn err<T>(message: impl Into<String>, offset: usize) -> Result<T, ChParseError> {
    Err(ChParseError {
        message: message.into(),
        offset,
    })
}

fn op_of(name: &str) -> Option<InterleaveOp> {
    InterleaveOp::ALL
        .into_iter()
        .find(|op| op.keyword() == name)
}

fn activity_of(name: &str, offset: usize) -> Result<ChActivity, ChParseError> {
    match name {
        "passive" => Ok(ChActivity::Passive),
        "active" => Ok(ChActivity::Active),
        other => err(format!("expected passive/active, got {other}"), offset),
    }
}

fn atom<'a>(s: &'a Sexp, what: &str) -> Result<(&'a str, usize), ChParseError> {
    match s {
        Sexp::Atom(a, o) => Ok((a.as_str(), *o)),
        Sexp::List(_, o) => err(format!("expected {what}, found a list"), *o),
    }
}

fn build(sexp: &Sexp) -> Result<ChExpr, ChParseError> {
    let (items, offset) = match sexp {
        Sexp::List(items, o) => (items.as_slice(), *o),
        Sexp::Atom(a, o) => {
            return match a.as_str() {
                "void" => Ok(ChExpr::Void),
                "break" => Ok(ChExpr::Break),
                other => err(format!("unexpected atom {other}"), *o),
            }
        }
    };
    let Some(head) = items.first() else {
        return err("empty expression", offset);
    };
    let (head, hoff) = atom(head, "a keyword")?;
    match head {
        "p-to-p" => {
            if items.len() != 3 {
                return err("p-to-p takes an activity and a name", offset);
            }
            let (act, aoff) = atom(&items[1], "activity")?;
            let (name, _) = atom(&items[2], "channel name")?;
            Ok(ChExpr::PToP {
                activity: activity_of(act, aoff)?,
                name: name.to_string(),
            })
        }
        "mult-ack" | "mult-req" => {
            if items.len() != 4 {
                return err(format!("{head} takes activity, name and a count"), offset);
            }
            let (act, aoff) = atom(&items[1], "activity")?;
            let (name, _) = atom(&items[2], "channel name")?;
            let (n, noff) = atom(&items[3], "count")?;
            let n: usize = n.parse().map_err(|_| ChParseError {
                message: format!("bad count {n}"),
                offset: noff,
            })?;
            let activity = activity_of(act, aoff)?;
            Ok(if head == "mult-ack" {
                ChExpr::MultAck {
                    activity,
                    name: name.to_string(),
                    n,
                }
            } else {
                ChExpr::MultReq {
                    activity,
                    name: name.to_string(),
                    n,
                }
            })
        }
        "mux-ack" | "mux-req" => {
            if items.len() < 3 {
                return err(format!("{head} takes a name and at least one arm"), offset);
            }
            let (name, _) = atom(&items[1], "channel name")?;
            let mut arms = Vec::new();
            for arm in &items[2..] {
                let Sexp::List(parts, aoff) = arm else {
                    return err("mux arm must be (operator expression)", offset);
                };
                if parts.len() != 2 {
                    return err("mux arm must be (operator expression)", *aoff);
                }
                let (opname, ooff) = atom(&parts[0], "operator")?;
                let Some(op) = op_of(opname) else {
                    return err(format!("unknown operator {opname}"), ooff);
                };
                arms.push((op, build(&parts[1])?));
            }
            Ok(if head == "mux-ack" {
                ChExpr::MuxAck {
                    name: name.to_string(),
                    arms,
                }
            } else {
                ChExpr::MuxReq {
                    name: name.to_string(),
                    arms,
                }
            })
        }
        "rep" => {
            if items.len() != 2 {
                return err("rep takes one argument", offset);
            }
            Ok(ChExpr::Rep(Box::new(build(&items[1])?)))
        }
        "break" => {
            if items.len() != 1 {
                return err("break takes no arguments", offset);
            }
            Ok(ChExpr::Break)
        }
        "void" => Ok(ChExpr::Void),
        "verb" => {
            if items.len() != 6 {
                return err("verb takes a name and four event lists", offset);
            }
            let (name, _) = atom(&items[1], "channel name")?;
            let mut events: [Vec<crate::ast::VerbTrans>; 4] = Default::default();
            for (i, ev) in items[2..6].iter().enumerate() {
                let Sexp::List(parts, eoff) = ev else {
                    return err("verb event must be a list of transitions", offset);
                };
                for t in parts {
                    let Sexp::List(fields, toff) = t else {
                        return err("transition must be (i|o signal +|-)", *eoff);
                    };
                    if fields.len() != 3 {
                        return err("transition must be (i|o signal +|-)", *toff);
                    }
                    let (dir, doff) = atom(&fields[0], "direction")?;
                    let out = match dir {
                        "o" => true,
                        "i" => false,
                        other => return err(format!("expected i or o, got {other}"), doff),
                    };
                    let (signal, _) = atom(&fields[1], "signal")?;
                    let (pol, poff) = atom(&fields[2], "polarity")?;
                    let rising = match pol {
                        "+" => true,
                        "-" => false,
                        other => return err(format!("expected + or -, got {other}"), poff),
                    };
                    events[i].push(crate::ast::VerbTrans {
                        out,
                        signal: signal.to_string(),
                        rising,
                    });
                }
            }
            Ok(ChExpr::Verb {
                name: name.to_string(),
                events,
            })
        }
        _ => {
            let Some(op) = op_of(head) else {
                return err(format!("unknown keyword {head}"), hoff);
            };
            let args: Vec<ChExpr> = items[1..].iter().map(build).collect::<Result<_, _>>()?;
            match (op, args.len()) {
                (_, 0 | 1) => err(format!("{head} needs at least two arguments"), offset),
                (InterleaveOp::Seq, _) => Ok(ChExpr::seq_all(args)),
                (InterleaveOp::Mutex, _) => Ok(ChExpr::mutex_all(args)),
                (_, 2) => {
                    let mut it = args.into_iter();
                    let a = it.next().expect("len 2");
                    let b = it.next().expect("len 2");
                    Ok(ChExpr::op(op, a, b))
                }
                _ => err(format!("{head} takes exactly two arguments"), offset),
            }
        }
    }
}

/// Pretty-prints a CH expression in the paper's s-expression syntax.
pub fn print_ch(expr: &ChExpr) -> String {
    let mut out = String::new();
    write_ch(&mut out, expr, &mut ChannelNames::Verbatim);
    out
}

/// How [`write_ch`] writes channel names.
pub(crate) enum ChannelNames<'a> {
    /// Every name as written.
    Verbatim,
    /// The `i`-th distinct channel in order of first occurrence as `k{i}`:
    /// the printer meets channels in [`ChExpr::channel_order`]'s order, so
    /// this is [`crate::ast::alpha_rename`]'s renaming. `met` holds the
    /// channels met so far; `verb` records that a `verb` channel was met,
    /// whose verbatim wire names rule the renaming out.
    Canonical { met: Vec<&'a str>, verb: bool },
}

impl<'a> ChannelNames<'a> {
    fn write(&mut self, out: &mut String, name: &'a str) {
        match self {
            ChannelNames::Verbatim => out.push_str(name),
            ChannelNames::Canonical { met, .. } => {
                let i = match met.iter().position(|&m| m == name) {
                    Some(i) => i,
                    None => {
                        met.push(name);
                        met.len() - 1
                    }
                };
                out.push('k');
                push_decimal(out, i);
            }
        }
    }
}

/// Appends `n` in decimal, without the formatting machinery, which would
/// cost more than the rest of a channel leaf.
fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Appends `expr` in the paper's s-expression syntax to `out`, channel
/// names per `names`. Verb signals are wire names and are always written
/// verbatim.
pub(crate) fn write_ch<'a>(out: &mut String, expr: &'a ChExpr, names: &mut ChannelNames<'a>) {
    match expr {
        ChExpr::PToP { activity, name } => {
            out.push_str("(p-to-p ");
            out.push_str(activity.keyword());
            out.push(' ');
            names.write(out, name);
            out.push(')');
        }
        ChExpr::MultAck { activity, name, n } | ChExpr::MultReq { activity, name, n } => {
            out.push_str(match expr {
                ChExpr::MultAck { .. } => "(mult-ack ",
                _ => "(mult-req ",
            });
            out.push_str(activity.keyword());
            out.push(' ');
            names.write(out, name);
            out.push(' ');
            push_decimal(out, *n);
            out.push(')');
        }
        ChExpr::MuxAck { name, arms } | ChExpr::MuxReq { name, arms } => {
            out.push_str(match expr {
                ChExpr::MuxAck { .. } => "(mux-ack ",
                _ => "(mux-req ",
            });
            names.write(out, name);
            out.push(' ');
            for (i, (op, e)) in arms.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push('(');
                out.push_str(op.keyword());
                out.push(' ');
                write_ch(out, e, names);
                out.push(')');
            }
            out.push(')');
        }
        ChExpr::Void => out.push_str("void"),
        ChExpr::Verb { name, events } => {
            if let ChannelNames::Canonical { verb, .. } = names {
                *verb = true;
            }
            out.push_str("(verb ");
            names.write(out, name);
            for event in events {
                out.push_str(" (");
                for (i, t) in event.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(
                        out,
                        "({} {} {})",
                        if t.out { "o" } else { "i" },
                        t.signal,
                        if t.rising { "+" } else { "-" }
                    );
                }
                out.push(')');
            }
            out.push(')');
        }
        ChExpr::Break => out.push_str("(break)"),
        ChExpr::Rep(e) => {
            out.push_str("(rep ");
            write_ch(out, e, names);
            out.push(')');
        }
        ChExpr::Op { op, a, b } => {
            out.push('(');
            out.push_str(op.keyword());
            out.push(' ');
            write_ch(out, a, names);
            out.push(' ');
            write_ch(out, b, names);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;

    #[test]
    fn parses_the_papers_sequencer() {
        let e = parse_ch(
            "(rep (enc-early (p-to-p passive P)
                             (seq (p-to-p active A1) (p-to-p active A2))))",
        )
        .unwrap();
        assert_eq!(e, components::sequencer("P", &["A1".into(), "A2".into()]));
    }

    #[test]
    fn parses_the_papers_call() {
        let e = parse_ch(
            "(rep (mutex (enc-early (p-to-p passive A1) (p-to-p active B))
                         (enc-early (p-to-p passive A2) (p-to-p active B))))",
        )
        .unwrap();
        assert_eq!(e, components::call(&["A1".into(), "A2".into()], "B"));
    }

    #[test]
    fn multiway_seq_right_nests() {
        let e = parse_ch("(seq (p-to-p active a) (p-to-p active b) (p-to-p active c))").unwrap();
        assert_eq!(
            e,
            ChExpr::seq_all(vec![
                ChExpr::active("a"),
                ChExpr::active("b"),
                ChExpr::active("c")
            ])
        );
    }

    #[test]
    fn roundtrips_standard_components() {
        for e in [
            components::sequencer("p", &["a".into(), "b".into()]),
            components::call(&["x".into(), "y".into()], "z"),
            components::passivator("a", "b"),
            components::decision_wait("a", &["i".into()], &["o".into()]),
            components::while_loop("a", "g", "b"),
            components::transferrer("a", "p", "q"),
        ] {
            let text = print_ch(&e);
            let back = parse_ch(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(back, e, "{text}");
        }
    }

    #[test]
    fn comments_and_whitespace() {
        let e = parse_ch("; the paper's passivator\n(rep (enc-middle (p-to-p passive a) ; A\n (p-to-p passive b)))").unwrap();
        assert_eq!(e, components::passivator("a", "b"));
    }

    #[test]
    fn mux_ack_syntax() {
        let e = parse_ch("(mux-ack m (enc-early (p-to-p active x)) (seq (p-to-p active y)))");
        // Arms with a single-expression operator body: the arm expression is
        // the operator's (implicit-channel) partner.
        let e = e.unwrap();
        match e {
            ChExpr::MuxAck { ref arms, .. } => assert_eq!(arms.len(), 2),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_positions() {
        assert!(parse_ch("(rep").is_err());
        assert!(parse_ch("(p-to-p sideways a)").is_err());
        assert!(parse_ch("(frobnicate a b)").is_err());
        assert!(parse_ch("(rep (p-to-p passive a)) extra").is_err());
        assert!(parse_ch("(enc-early (p-to-p passive a))").is_err());
    }

    #[test]
    fn void_and_break_atoms() {
        let e = parse_ch("(enc-early void (p-to-p active c))").unwrap();
        assert!(matches!(e, ChExpr::Op { .. }));
        let e = parse_ch("(seq (p-to-p passive s) (break))").unwrap();
        assert!(matches!(e, ChExpr::Op { .. }));
    }
}

#[cfg(test)]
mod verb_tests {
    use super::*;
    use crate::ast::ChActivity;
    use crate::compile::compile_to_bm;

    #[test]
    fn verb_parses_and_roundtrips() {
        // A verb channel describing an ordinary passive handshake.
        let text = "(verb v ((i v_r +)) ((o v_a +)) ((i v_r -)) ((o v_a -)))";
        let e = parse_ch(text).unwrap();
        assert_eq!(e.activity(), ChActivity::Passive);
        let printed = print_ch(&e);
        assert_eq!(parse_ch(&printed).unwrap(), e);
    }

    #[test]
    fn verb_compiles_like_its_expansion() {
        // rep of a verb that mirrors a passive p-to-p: same 2-state echo.
        let text = "(rep (verb v ((i v_r +)) ((o v_a +)) ((i v_r -)) ((o v_a -))))";
        let e = parse_ch(text).unwrap();
        let spec = compile_to_bm("verb_echo", &e).unwrap();
        assert_eq!(spec.num_states(), 2);
    }

    #[test]
    fn verb_activity_from_first_transition() {
        let text = "(verb v ((o go +)) ((i done +)) ((o go -)) ((i done -)))";
        let e = parse_ch(text).unwrap();
        assert_eq!(e.activity(), ChActivity::Active);
    }

    #[test]
    fn verb_rejects_bad_syntax() {
        assert!(parse_ch("(verb v ((i a +)))").is_err());
        assert!(parse_ch("(verb v ((x a +)) () () ())").is_err());
        assert!(parse_ch("(verb v ((i a *)) () () ())").is_err());
    }
}
