//! Lexer and recursive-descent parser for mini-Balsa.
//!
//! Grammar sketch (terminals quoted):
//!
//! ```text
//! program   := procedure+
//! procedure := "procedure" IDENT "(" ports? ")" "is" decl* "begin" cmd "end"
//! ports     := port (";" port)*
//! port      := ("input"|"output") IDENT ":" width | "sync" IDENT
//! width     := INT "bits"                    (1 to 64 bits)
//! decl      := "variable" IDENT ":" width
//!            | "memory" IDENT ":" INT "words" "of" width
//!            | "shared" IDENT "is" "begin" cmd "end"
//! cmd       := par ( ";" par )*
//! par       := atom ( "||" atom )*
//! atom      := "continue" | "sync" IDENT | "loop" cmd "end"
//!            | "while" expr "then" cmd "end"
//!            | "if" expr "then" cmd ("else" cmd)? "end"
//!            | "case" expr "of" arm ("|" arm)* ("else" cmd)? "end"
//!            | IDENT "(" ")"                 (shared call)
//!            | IDENT "[" expr "]" ":=" expr  (memory write)
//!            | IDENT ":=" expr | IDENT "<-" expr | IDENT "->" IDENT
//!            | "(" cmd ")"
//! arm       := INT "then" cmd
//! expr      := cmp (("and"|"or"|"xor") cmp)*
//! cmp       := add (("="|"/="|"<"|"<s") add)?
//! add       := unary (("+"|"-") unary)*
//! unary     := "not" unary | "negative" "(" expr ")" | "zero" "(" expr ")"
//!            | "-" unary | IDENT "[" expr "]" | IDENT | INT | "(" expr ")"
//! ```

use crate::ast::{Cmd, Decl, Expr, Port, PortDir, Procedure, Program};
use bmbe_hsnet::{BinOp, UnOp};
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Line number (1-based).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(u64),
    Sym(&'static str),
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn tokens(src: &'a str) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut lx = Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        };
        let mut out = Vec::new();
        while let Some(t) = lx.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    fn peek_ch(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek_ch()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn next_token(&mut self) -> Result<Option<(Tok, usize)>, ParseError> {
        loop {
            match self.peek_ch() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.src.get(self.pos + 1) == Some(&b'-') => {
                    // comment to end of line
                    while let Some(c) = self.peek_ch() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let line = self.line;
        let Some(c) = self.peek_ch() else {
            return Ok(None);
        };
        let tok = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek_ch() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Ident(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while let Some(c) = self.peek_ch() {
                    if c.is_ascii_alphanumeric() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                let value = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    text.parse()
                }
                .map_err(|_| ParseError {
                    message: format!("bad number {text}"),
                    line,
                })?;
                Tok::Num(value)
            }
            _ => {
                self.bump();
                match (c, self.peek_ch()) {
                    (b':', Some(b'=')) => {
                        self.bump();
                        Tok::Sym(":=")
                    }
                    (b'<', Some(b'-')) => {
                        self.bump();
                        Tok::Sym("<-")
                    }
                    (b'>', Some(b'>')) => {
                        self.bump();
                        Tok::Sym(">>")
                    }
                    (b'<', Some(b's')) => {
                        self.bump();
                        Tok::Sym("<s")
                    }
                    (b'-', Some(b'>')) => {
                        self.bump();
                        Tok::Sym("->")
                    }
                    (b'|', Some(b'|')) => {
                        self.bump();
                        Tok::Sym("||")
                    }
                    (b'/', Some(b'=')) => {
                        self.bump();
                        Tok::Sym("/=")
                    }
                    (b'(', _) => Tok::Sym("("),
                    (b')', _) => Tok::Sym(")"),
                    (b'[', _) => Tok::Sym("["),
                    (b']', _) => Tok::Sym("]"),
                    (b';', _) => Tok::Sym(";"),
                    (b':', _) => Tok::Sym(":"),
                    (b',', _) => Tok::Sym(","),
                    (b'|', _) => Tok::Sym("|"),
                    (b'=', _) => Tok::Sym("="),
                    (b'<', _) => Tok::Sym("<"),
                    (b'+', _) => Tok::Sym("+"),
                    (b'-', _) => Tok::Sym("-"),
                    _ => {
                        return Err(ParseError {
                            message: format!("unexpected character {:?}", c as char),
                            line,
                        })
                    }
                }
            }
        };
        Ok(Some((tok, line)))
    }
}

/// Parses a mini-Balsa source file.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = Lexer::tokens(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut procedures = Vec::new();
    while !p.at_end() {
        procedures.push(p.procedure()?);
    }
    if procedures.is_empty() {
        return Err(ParseError {
            message: "no procedures".into(),
            line: 1,
        });
    }
    Ok(Program { procedures })
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(1, |t| t.1)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.0)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.0)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.0.clone());
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if let Some(Tok::Sym(t)) = self.peek() {
            if *t == s {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(t)) = self.peek() {
            if t == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`, found {:?}", self.peek()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                let _ = other;
                self.err("expected identifier")
            }
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(n),
            _ => {
                self.pos -= 1;
                self.err("expected number")
            }
        }
    }

    /// A width, `N bits`. The simulators hold every value in a `u64`, so
    /// `N` must lie in 1..=64.
    fn width(&mut self) -> Result<u32, ParseError> {
        let line = self.line();
        let bits = self.number()?;
        self.expect_kw("bits")?;
        match u32::try_from(bits) {
            Ok(w @ 1..=64) => Ok(w),
            _ => Err(ParseError {
                message: format!("a width of {bits} bits is outside 1..=64"),
                line,
            }),
        }
    }

    fn procedure(&mut self) -> Result<Procedure, ParseError> {
        self.expect_kw("procedure")?;
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut ports = Vec::new();
        while !self.eat_sym(")") {
            if !ports.is_empty() && !(self.eat_sym(";") || self.eat_sym(",")) {
                return self.err("expected `;` between ports");
            }
            let dir = if self.eat_kw("input") {
                PortDir::Input
            } else if self.eat_kw("output") {
                PortDir::Output
            } else if self.eat_kw("sync") {
                PortDir::Sync
            } else {
                return self.err("expected port direction (input/output/sync)");
            };
            let pname = self.ident()?;
            // A sync port carries no data; a data port with width 0 would
            // lower to a sync responder and ignore its scripts.
            let width = match (dir, self.eat_sym(":")) {
                (PortDir::Sync, false) => 0,
                (PortDir::Sync, true) => {
                    return self.err(format!("sync port {pname} carries no data"))
                }
                (_, true) => self.width()?,
                (_, false) => return self.err(format!("data port {pname} needs a width")),
            };
            ports.push(Port {
                name: pname,
                dir,
                width,
            });
        }
        self.expect_kw("is")?;
        let mut decls = Vec::new();
        loop {
            if self.eat_kw("variable") {
                let vname = self.ident()?;
                self.expect_sym(":")?;
                let width = self.width()?;
                decls.push(Decl::Variable { name: vname, width });
            } else if self.eat_kw("memory") {
                let mname = self.ident()?;
                self.expect_sym(":")?;
                let words = self.number()? as usize;
                self.expect_kw("words")?;
                self.expect_kw("of")?;
                let width = self.width()?;
                decls.push(Decl::Memory {
                    name: mname,
                    words,
                    width,
                });
            } else if self.eat_kw("shared") {
                let sname = self.ident()?;
                self.expect_kw("is")?;
                self.expect_kw("begin")?;
                let body = self.cmd()?;
                self.expect_kw("end")?;
                decls.push(Decl::Shared { name: sname, body });
            } else {
                break;
            }
        }
        self.expect_kw("begin")?;
        let body = self.cmd()?;
        self.expect_kw("end")?;
        Ok(Procedure {
            name,
            ports,
            decls,
            body,
        })
    }

    fn cmd(&mut self) -> Result<Cmd, ParseError> {
        let mut parts = vec![self.par_cmd()?];
        while self.eat_sym(";") {
            parts.push(self.par_cmd()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Cmd::Seq(parts)
        })
    }

    fn par_cmd(&mut self) -> Result<Cmd, ParseError> {
        let mut parts = vec![self.atom_cmd()?];
        while self.eat_sym("||") {
            parts.push(self.atom_cmd()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            Cmd::Par(parts)
        })
    }

    fn atom_cmd(&mut self) -> Result<Cmd, ParseError> {
        if self.eat_kw("continue") {
            return Ok(Cmd::Skip);
        }
        if self.eat_kw("sync") {
            return Ok(Cmd::Sync(self.ident()?));
        }
        if self.eat_kw("loop") {
            let body = self.cmd()?;
            self.expect_kw("end")?;
            return Ok(Cmd::Loop(Box::new(body)));
        }
        if self.eat_kw("while") {
            let guard = self.expr()?;
            self.expect_kw("then")?;
            let body = self.cmd()?;
            self.expect_kw("end")?;
            return Ok(Cmd::While {
                guard,
                body: Box::new(body),
            });
        }
        if self.eat_kw("if") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let then_cmd = self.cmd()?;
            let else_cmd = if self.eat_kw("else") {
                Some(Box::new(self.cmd()?))
            } else {
                None
            };
            self.expect_kw("end")?;
            return Ok(Cmd::If {
                cond,
                then_cmd: Box::new(then_cmd),
                else_cmd,
            });
        }
        if self.eat_kw("case") {
            let selector = self.expr()?;
            self.expect_kw("of")?;
            let mut arms = Vec::new();
            loop {
                let label = self.number()?;
                self.expect_kw("then")?;
                let c = self.cmd()?;
                arms.push((label, c));
                if !self.eat_sym("|") {
                    break;
                }
            }
            let default = if self.eat_kw("else") {
                Some(Box::new(self.cmd()?))
            } else {
                None
            };
            self.expect_kw("end")?;
            return Ok(Cmd::Case {
                selector,
                arms,
                default,
            });
        }
        if self.eat_sym("(") {
            let c = self.cmd()?;
            self.expect_sym(")")?;
            return Ok(c);
        }
        // IDENT-led commands.
        let name = self.ident()?;
        if self.eat_sym("(") {
            self.expect_sym(")")?;
            return Ok(Cmd::CallShared(name));
        }
        if self.eat_sym("[") {
            let addr = self.expr()?;
            self.expect_sym("]")?;
            self.expect_sym(":=")?;
            let value = self.expr()?;
            return Ok(Cmd::MemWrite {
                mem: name,
                addr,
                value,
            });
        }
        if self.eat_sym(":=") {
            return Ok(Cmd::Assign {
                var: name,
                expr: self.expr()?,
            });
        }
        if self.eat_sym("<-") {
            return Ok(Cmd::Send {
                chan: name,
                expr: self.expr()?,
            });
        }
        if self.eat_sym("->") {
            return Ok(Cmd::Receive {
                chan: name,
                var: self.ident()?,
            });
        }
        self.err(format!("expected a command after identifier {name}"))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        loop {
            let op = if self.eat_kw("and") {
                BinOp::And
            } else if self.eat_kw("or") {
                BinOp::Or
            } else if self.eat_kw("xor") {
                BinOp::Xor
            } else {
                break;
            };
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = if self.eat_sym("=") {
            BinOp::Eq
        } else if self.eat_sym("/=") {
            let rhs = self.add_expr()?;
            return Ok(Expr::un(UnOp::IsZero, Expr::bin(BinOp::Eq, lhs, rhs)));
        } else if self.eat_sym("<s") {
            BinOp::SLt
        } else if self.eat_sym("<") {
            BinOp::Lt
        } else {
            return Ok(lhs);
        };
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.eat_sym("+") {
                BinOp::Add
            } else if self.eat_sym("-") {
                BinOp::Sub
            } else if self.eat_sym(">>") {
                BinOp::Shr
            } else {
                break;
            };
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            return Ok(Expr::un(UnOp::Not, self.unary_expr()?));
        }
        if self.eat_sym("-") {
            return Ok(Expr::un(UnOp::Neg, self.unary_expr()?));
        }
        if self.eat_kw("negative") {
            self.expect_sym("(")?;
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(Expr::un(UnOp::IsNeg, e));
        }
        if self.eat_kw("zero") {
            self.expect_sym("(")?;
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(Expr::un(UnOp::IsZero, e));
        }
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.peek() {
            Some(Tok::Num(_)) => Ok(Expr::Lit(self.number()?)),
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                if self.eat_sym("[") {
                    let addr = self.expr()?;
                    self.expect_sym("]")?;
                    Ok(Expr::MemRead {
                        mem: name,
                        addr: Box::new(addr),
                    })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            _ => {
                if self.peek2().is_none() && self.peek().is_none() {
                    self.err("unexpected end of input in expression")
                } else {
                    self.err("expected an expression")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_procedure() {
        let p = parse("procedure t (sync go) is begin loop sync go end end").unwrap();
        assert_eq!(p.procedures.len(), 1);
        assert_eq!(p.procedures[0].name, "t");
        assert!(matches!(p.procedures[0].body, Cmd::Loop(_)));
    }

    #[test]
    fn parses_ports_and_decls() {
        let src = "procedure buf (input i : 8 bits; output o : 8 bits) is\n\
                   variable x : 8 bits\n\
                   begin loop i -> x ; o <- x end end";
        let p = parse(src).unwrap();
        let proc = &p.procedures[0];
        assert_eq!(proc.ports.len(), 2);
        assert_eq!(proc.ports[0].width, 8);
        assert_eq!(proc.decls.len(), 1);
        match &proc.body {
            Cmd::Loop(inner) => match inner.as_ref() {
                Cmd::Seq(parts) => assert_eq!(parts.len(), 2),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_parallel_and_precedence() {
        let src = "procedure t (sync a; sync b) is begin loop sync a || sync b end end";
        let p = parse(src).unwrap();
        match &p.procedures[0].body {
            Cmd::Loop(inner) => assert!(matches!(inner.as_ref(), Cmd::Par(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_if_case_while() {
        let src = "procedure t (input i : 2 bits; sync x) is\n\
                   variable v : 2 bits\n\
                   begin loop i -> v ;\n\
                     if v = 1 then sync x else continue end ;\n\
                     case v of 0 then sync x | 1 then continue else sync x end ;\n\
                     while v < 3 then v := v + 1 end\n\
                   end end";
        let p = parse(src).unwrap();
        assert!(matches!(p.procedures[0].body, Cmd::Loop(_)));
    }

    #[test]
    fn parses_memory_and_shared() {
        let src = "procedure cpu (output o : 8 bits) is\n\
                   memory m : 32 words of 8 bits\n\
                   variable pc : 8 bits\n\
                   shared step is begin pc := pc + 1 end\n\
                   begin loop m[pc] := pc ; step () ; o <- m[pc - 1] end end";
        let p = parse(src).unwrap();
        let proc = &p.procedures[0];
        assert_eq!(proc.decls.len(), 3);
        assert!(matches!(proc.decls[2], Decl::Shared { .. }));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "-- a comment\nprocedure t (sync g) is -- trailing\nbegin sync g end";
        parse(src).unwrap();
    }

    #[test]
    fn error_reports_line() {
        let err = parse("procedure t (sync g) is\nbegin\n???\nend").unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// Every explicit width outside 1..=64 fails with its line, on a port,
    /// a variable and a memory; a data port needs a width and a sync port
    /// takes none.
    #[test]
    fn widths_outside_one_to_sixty_four_bits_are_rejected() -> Result<(), ParseError> {
        for bits in ["0", "65", "4294967297"] {
            let sources = [
                format!("procedure t (sync g;\ninput i : {bits} bits) is begin sync g end"),
                format!("procedure t (sync g) is\nvariable x : {bits} bits begin sync g end"),
                format!(
                    "procedure t (sync g) is\nmemory m : 4 words of {bits} bits begin sync g end"
                ),
            ];
            for src in sources {
                let err = parse(&src).map(|_| ()).err();
                assert!(
                    err.as_ref()
                        .is_some_and(|e| e.line == 2 && e.message.contains("outside 1..=64")),
                    "{src}: {err:?}"
                );
            }
        }
        for src in [
            "procedure t (sync g; input i) is begin sync g end",
            "procedure t (sync g : 8 bits) is begin sync g end",
        ] {
            assert!(parse(src).is_err(), "{src}");
        }
        let p = parse("procedure t (sync g; input i : 64 bits) is begin sync g end")?;
        let widths: Vec<u32> = p.procedures[0].ports.iter().map(|p| p.width).collect();
        assert_eq!(widths, [0, 64]);
        Ok(())
    }

    #[test]
    fn hex_numbers() {
        let src = "procedure t (output o : 8 bits) is begin o <- 0xff end";
        let p = parse(src).unwrap();
        match &p.procedures[0].body {
            Cmd::Send {
                expr: Expr::Lit(255),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        // a + 1 = b  parses as (a+1) = b
        let src = "procedure t (output o : 8 bits) is variable a : 8 bits variable b : 8 bits begin o <- a + 1 = b end";
        let p = parse(src).unwrap();
        match &p.procedures[0].body {
            Cmd::Send {
                expr: Expr::Bin {
                    op: BinOp::Eq, lhs, ..
                },
                ..
            } => {
                assert!(matches!(lhs.as_ref(), Expr::Bin { op: BinOp::Add, .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
