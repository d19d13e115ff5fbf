//! Syntax-directed translation of mini-Balsa into handshake components.
//!
//! Each command compiles to a handshake component with a passive activation
//! channel, exactly as in Balsa/Tangram: `;` becomes a sequencer, `||` a
//! concur, `loop` a loop component, `if`/`case` case components, assignments
//! and channel communications become fetch (transferrer) components over a
//! pull-style expression datapath. Shared procedures and multiply-used sync
//! ports introduce call components; multiply-read input ports introduce
//! pull-muxes and multiply-written ports/variables call-muxes — the shapes
//! the clustering optimizations of the paper feed on.

use crate::ast::{Cmd, Decl, Expr, PortDir, Procedure};
use bmbe_hsnet::{ChannelId, ComponentKind, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt;

/// Errors raised during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalsaError {
    /// Reference to an undeclared variable.
    UnknownVariable(String),
    /// Reference to an undeclared memory.
    UnknownMemory(String),
    /// Reference to an undeclared port.
    UnknownPort(String),
    /// Reference to an undeclared shared procedure.
    UnknownShared(String),
    /// A port was used against its direction.
    PortDirection {
        /// The port.
        port: String,
        /// What was attempted.
        usage: String,
    },
    /// Case labels must be consecutive starting at 0.
    BadCaseLabels,
    /// A memory declared with no words: no address can select a word.
    EmptyMemory(String),
    /// Structural error while building the netlist.
    Netlist(NetlistError),
}

impl fmt::Display for BalsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalsaError::UnknownVariable(n) => write!(f, "unknown variable {n}"),
            BalsaError::UnknownMemory(n) => write!(f, "unknown memory {n}"),
            BalsaError::UnknownPort(n) => write!(f, "unknown port {n}"),
            BalsaError::UnknownShared(n) => write!(f, "unknown shared procedure {n}"),
            BalsaError::PortDirection { port, usage } => {
                write!(f, "port {port} cannot be used for {usage}")
            }
            BalsaError::BadCaseLabels => {
                write!(f, "case labels must be consecutive starting at 0")
            }
            BalsaError::EmptyMemory(n) => write!(f, "memory {n} has no words"),
            BalsaError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for BalsaError {}

impl From<NetlistError> for BalsaError {
    fn from(e: NetlistError) -> Self {
        BalsaError::Netlist(e)
    }
}

/// The result of compiling a procedure.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// The handshake-component netlist.
    pub netlist: Netlist,
    /// The top activation channel (external active side drives the design).
    pub activate: ChannelId,
    /// External port channels by name.
    pub port_channels: HashMap<String, ChannelId>,
}

/// Compiles one procedure of a program into a handshake netlist.
///
/// # Errors
///
/// See [`BalsaError`].
pub fn compile_procedure(proc: &Procedure) -> Result<CompiledDesign, BalsaError> {
    let mut counts = Counts::default();
    for d in &proc.decls {
        if let Decl::Shared { body, .. } = d {
            counts.count_cmd(body);
        }
    }
    counts.count_cmd(&proc.body);

    let mut c = Compiler {
        netlist: Netlist::new(&proc.name),
        vars: HashMap::new(),
        mems: HashMap::new(),
        ports: HashMap::new(),
        shared: HashMap::new(),
        port_channels: HashMap::new(),
    };

    // Ports.
    for port in &proc.ports {
        let ch = c.netlist.add_channel(&port.name, port.width);
        c.port_channels.insert(port.name.clone(), ch);
        let uses = counts.port_uses.get(&port.name).copied().unwrap_or(0);
        let sites = match port.dir {
            PortDir::Input => {
                // Readers pull; many readers share via a pull-mux.
                if uses > 1 {
                    let clients: Vec<ChannelId> = (0..uses)
                        .map(|i| {
                            c.netlist
                                .add_channel(format!("{}_site{i}", port.name), port.width)
                        })
                        .collect();
                    let mut chans = clients.clone();
                    chans.push(ch);
                    c.netlist.add_component(
                        ComponentKind::PullMux {
                            clients: uses,
                            width: port.width,
                        },
                        &chans,
                    )?;
                    clients
                } else {
                    vec![ch]
                }
            }
            PortDir::Output => {
                if uses > 1 {
                    let writers: Vec<ChannelId> = (0..uses)
                        .map(|i| {
                            c.netlist
                                .add_channel(format!("{}_site{i}", port.name), port.width)
                        })
                        .collect();
                    let mut chans = writers.clone();
                    chans.push(ch);
                    c.netlist.add_component(
                        ComponentKind::CallMux {
                            inputs: uses,
                            width: port.width,
                        },
                        &chans,
                    )?;
                    writers
                } else {
                    vec![ch]
                }
            }
            PortDir::Sync => {
                if uses > 1 {
                    let callers: Vec<ChannelId> = (0..uses)
                        .map(|i| c.netlist.add_channel(format!("{}_site{i}", port.name), 0))
                        .collect();
                    let mut chans = callers.clone();
                    chans.push(ch);
                    c.netlist
                        .add_component(ComponentKind::Call { inputs: uses }, &chans)?;
                    callers
                } else {
                    vec![ch]
                }
            }
        };
        c.ports.insert(
            port.name.clone(),
            PortInfo {
                dir: port.dir,
                sites,
                next: 0,
            },
        );
    }

    // Variables and memories.
    for d in &proc.decls {
        match d {
            Decl::Variable { name, width } => {
                let reads = counts.var_reads.get(name).copied().unwrap_or(0);
                let writes = counts.var_writes.get(name).copied().unwrap_or(0).max(1);
                let write_ch = c.netlist.add_channel(format!("{name}_w"), *width);
                let read_chs: Vec<ChannelId> = (0..reads)
                    .map(|i| c.netlist.add_channel(format!("{name}_r{i}"), *width))
                    .collect();
                let mut chans = vec![write_ch];
                chans.extend(&read_chs);
                c.netlist.add_component(
                    ComponentKind::Variable {
                        width: *width,
                        reads,
                    },
                    &chans,
                )?;
                let write_sites = if writes > 1 {
                    let sites: Vec<ChannelId> = (0..writes)
                        .map(|i| c.netlist.add_channel(format!("{name}_wsite{i}"), *width))
                        .collect();
                    let mut mux = sites.clone();
                    mux.push(write_ch);
                    c.netlist.add_component(
                        ComponentKind::CallMux {
                            inputs: writes,
                            width: *width,
                        },
                        &mux,
                    )?;
                    sites
                } else {
                    vec![write_ch]
                };
                c.vars.insert(
                    name.clone(),
                    VarInfo {
                        read_chs,
                        next_read: 0,
                        write_sites,
                        next_write: 0,
                    },
                );
            }
            Decl::Memory { name, words, width } => {
                if *words == 0 {
                    return Err(BalsaError::EmptyMemory(name.clone()));
                }
                let reads = counts.mem_reads.get(name).copied().unwrap_or(0).max(1);
                let writes = counts.mem_writes.get(name).copied().unwrap_or(0).max(1);
                let mut chans = Vec::new();
                let mut read_sites = Vec::new();
                let mut write_sites = Vec::new();
                for i in 0..reads {
                    let data = c.netlist.add_channel(format!("{name}_rd{i}"), *width);
                    let addr = c.netlist.add_channel(format!("{name}_ra{i}"), *width);
                    chans.push(data);
                    chans.push(addr);
                    read_sites.push((data, addr));
                }
                for j in 0..writes {
                    let data = c.netlist.add_channel(format!("{name}_wd{j}"), *width);
                    let addr = c.netlist.add_channel(format!("{name}_wa{j}"), *width);
                    chans.push(data);
                    chans.push(addr);
                    write_sites.push((data, addr));
                }
                c.netlist.add_component(
                    ComponentKind::Memory {
                        words: *words,
                        width: *width,
                        reads,
                        writes,
                    },
                    &chans,
                )?;
                c.mems.insert(
                    name.clone(),
                    MemInfo {
                        width: *width,
                        read_sites,
                        next_read: 0,
                        write_sites,
                        next_write: 0,
                    },
                );
            }
            Decl::Shared { .. } => {}
        }
    }

    // Shared procedures: compile bodies, front them with call components.
    for d in &proc.decls {
        if let Decl::Shared { name, body } = d {
            let sites = counts.shared_calls.get(name).copied().unwrap_or(0).max(1);
            let body_act = c.compile_cmd(body)?;
            let site_chs: Vec<ChannelId> = (0..sites)
                .map(|i| c.netlist.add_channel(format!("{name}_call{i}"), 0))
                .collect();
            let mut chans = site_chs.clone();
            chans.push(body_act);
            c.netlist
                .add_component(ComponentKind::Call { inputs: sites }, &chans)?;
            c.shared.insert(
                name.clone(),
                SharedInfo {
                    sites: site_chs,
                    next: 0,
                },
            );
        }
    }

    let activate = c.compile_cmd(&proc.body)?;
    c.netlist.expose(activate);
    let port_channels = c.port_channels.clone();
    for ch in port_channels.values() {
        c.netlist.expose(*ch);
    }
    c.netlist.validate()?;
    Ok(CompiledDesign {
        netlist: c.netlist,
        activate,
        port_channels,
    })
}

#[derive(Default)]
struct Counts {
    var_reads: HashMap<String, usize>,
    var_writes: HashMap<String, usize>,
    mem_reads: HashMap<String, usize>,
    mem_writes: HashMap<String, usize>,
    port_uses: HashMap<String, usize>,
    shared_calls: HashMap<String, usize>,
}

impl Counts {
    fn count_cmd(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Skip => {}
            Cmd::Sync(p) => *self.port_uses.entry(p.clone()).or_default() += 1,
            Cmd::Assign { var, expr } => {
                *self.var_writes.entry(var.clone()).or_default() += 1;
                self.count_expr(expr);
            }
            Cmd::MemWrite { mem, addr, value } => {
                *self.mem_writes.entry(mem.clone()).or_default() += 1;
                self.count_expr(addr);
                self.count_expr(value);
            }
            Cmd::Send { chan, expr } => {
                *self.port_uses.entry(chan.clone()).or_default() += 1;
                self.count_expr(expr);
            }
            Cmd::Receive { chan, var } => {
                *self.port_uses.entry(chan.clone()).or_default() += 1;
                *self.var_writes.entry(var.clone()).or_default() += 1;
            }
            Cmd::CallShared(name) => *self.shared_calls.entry(name.clone()).or_default() += 1,
            Cmd::Seq(parts) | Cmd::Par(parts) => {
                for p in parts {
                    self.count_cmd(p);
                }
            }
            Cmd::Loop(b) => self.count_cmd(b),
            Cmd::While { guard, body } => {
                self.count_expr(guard);
                self.count_cmd(body);
            }
            Cmd::If {
                cond,
                then_cmd,
                else_cmd,
            } => {
                self.count_expr(cond);
                self.count_cmd(then_cmd);
                if let Some(e) = else_cmd {
                    self.count_cmd(e);
                }
            }
            Cmd::Case {
                selector,
                arms,
                default,
            } => {
                self.count_expr(selector);
                for (_, a) in arms {
                    self.count_cmd(a);
                }
                if let Some(d) = default {
                    self.count_cmd(d);
                }
            }
        }
    }

    fn count_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var(v) => *self.var_reads.entry(v.clone()).or_default() += 1,
            Expr::Lit(_) => {}
            Expr::MemRead { mem, addr } => {
                *self.mem_reads.entry(mem.clone()).or_default() += 1;
                self.count_expr(addr);
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.count_expr(lhs);
                self.count_expr(rhs);
            }
            Expr::Un { operand, .. } => self.count_expr(operand),
        }
    }
}

struct VarInfo {
    read_chs: Vec<ChannelId>,
    next_read: usize,
    write_sites: Vec<ChannelId>,
    next_write: usize,
}

struct MemInfo {
    width: u32,
    read_sites: Vec<(ChannelId, ChannelId)>,
    next_read: usize,
    write_sites: Vec<(ChannelId, ChannelId)>,
    next_write: usize,
}

struct PortInfo {
    dir: PortDir,
    sites: Vec<ChannelId>,
    next: usize,
}

struct SharedInfo {
    sites: Vec<ChannelId>,
    next: usize,
}

struct Compiler {
    netlist: Netlist,
    vars: HashMap<String, VarInfo>,
    mems: HashMap<String, MemInfo>,
    ports: HashMap<String, PortInfo>,
    shared: HashMap<String, SharedInfo>,
    port_channels: HashMap<String, ChannelId>,
}

impl Compiler {
    /// Compiles an expression; returns the channel whose passive side is the
    /// producer (the consumer connects actively and pulls).
    fn compile_expr(&mut self, e: &Expr) -> Result<ChannelId, BalsaError> {
        match e {
            Expr::Lit(v) => {
                let ch = self.netlist.add_channel("const", 32);
                self.netlist.add_component(
                    ComponentKind::Constant {
                        value: *v,
                        width: 32,
                    },
                    &[ch],
                )?;
                Ok(ch)
            }
            Expr::Var(name) => {
                let info = self
                    .vars
                    .get_mut(name)
                    .ok_or_else(|| BalsaError::UnknownVariable(name.clone()))?;
                let ch = info.read_chs[info.next_read];
                info.next_read += 1;
                Ok(ch)
            }
            Expr::MemRead { mem, addr } => {
                let (data, addr_ch, width) = {
                    let info = self
                        .mems
                        .get_mut(mem)
                        .ok_or_else(|| BalsaError::UnknownMemory(mem.clone()))?;
                    let (d, a) = info.read_sites[info.next_read];
                    info.next_read += 1;
                    (d, a, info.width)
                };
                let _ = width;
                let provider = self.compile_expr(addr)?;
                // The memory's raddr port actively pulls; bridge it to the
                // provider channel by aliasing: connect via a unary identity
                // is unnecessary — the site channel *is* the provider.
                // We instead wire with a pass-through function component.
                self.bridge_pull(addr_ch, provider)?;
                Ok(data)
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.compile_expr(lhs)?;
                let r = self.compile_expr(rhs)?;
                let out = self.netlist.add_channel("f", 32);
                self.netlist.add_component(
                    ComponentKind::BinaryFunc { op: *op, width: 32 },
                    &[out, l, r],
                )?;
                Ok(out)
            }
            Expr::Un { op, operand } => {
                let x = self.compile_expr(operand)?;
                let out = self.netlist.add_channel("u", 32);
                self.netlist
                    .add_component(ComponentKind::UnaryFunc { op: *op, width: 32 }, &[out, x])?;
                Ok(out)
            }
        }
    }

    /// Bridges an actively-pulling consumer channel (`consumer`, whose
    /// active side is already taken by a component) to a passive provider
    /// channel using an identity function component.
    fn bridge_pull(&mut self, consumer: ChannelId, provider: ChannelId) -> Result<(), BalsaError> {
        // consumer: passive side free (the puller holds its active side);
        // provider: active side free (the producer holds its passive side).
        self.netlist.add_component(
            ComponentKind::UnaryFunc {
                op: bmbe_hsnet::UnOp::Id,
                width: 0,
            },
            &[consumer, provider],
        )?;
        Ok(())
    }

    fn compile_cmd(&mut self, cmd: &Cmd) -> Result<ChannelId, BalsaError> {
        match cmd {
            Cmd::Skip => {
                let act = self.netlist.add_channel("skip", 0);
                self.netlist.add_component(ComponentKind::Skip, &[act])?;
                Ok(act)
            }
            Cmd::Sync(port) => {
                let info = self
                    .ports
                    .get_mut(port)
                    .ok_or_else(|| BalsaError::UnknownPort(port.clone()))?;
                if info.dir != PortDir::Sync {
                    return Err(BalsaError::PortDirection {
                        port: port.clone(),
                        usage: "sync".into(),
                    });
                }
                let ch = info.sites[info.next];
                info.next += 1;
                Ok(ch)
            }
            Cmd::CallShared(name) => {
                let info = self
                    .shared
                    .get_mut(name)
                    .ok_or_else(|| BalsaError::UnknownShared(name.clone()))?;
                let ch = info.sites[info.next];
                info.next += 1;
                Ok(ch)
            }
            Cmd::Seq(parts) => {
                let children: Vec<ChannelId> = parts
                    .iter()
                    .map(|p| self.compile_cmd(p))
                    .collect::<Result<_, _>>()?;
                let act = self.netlist.add_channel("seq", 0);
                let mut chans = vec![act];
                chans.extend(&children);
                self.netlist.add_component(
                    ComponentKind::Sequence {
                        branches: parts.len(),
                    },
                    &chans,
                )?;
                Ok(act)
            }
            Cmd::Par(parts) => {
                let children: Vec<ChannelId> = parts
                    .iter()
                    .map(|p| self.compile_cmd(p))
                    .collect::<Result<_, _>>()?;
                let act = self.netlist.add_channel("par", 0);
                let mut chans = vec![act];
                chans.extend(&children);
                self.netlist.add_component(
                    ComponentKind::Concur {
                        branches: parts.len(),
                    },
                    &chans,
                )?;
                Ok(act)
            }
            Cmd::Loop(body) => {
                let child = self.compile_cmd(body)?;
                let act = self.netlist.add_channel("loop", 0);
                self.netlist
                    .add_component(ComponentKind::Loop, &[act, child])?;
                Ok(act)
            }
            Cmd::While { guard, body } => {
                let g = self.compile_expr(guard)?;
                let child = self.compile_cmd(body)?;
                let act = self.netlist.add_channel("while", 0);
                self.netlist
                    .add_component(ComponentKind::While, &[act, g, child])?;
                Ok(act)
            }
            Cmd::If {
                cond,
                then_cmd,
                else_cmd,
            } => {
                let sel = self.compile_expr(cond)?;
                let else_act = match else_cmd {
                    Some(e) => self.compile_cmd(e)?,
                    None => self.compile_cmd(&Cmd::Skip)?,
                };
                let then_act = self.compile_cmd(then_cmd)?;
                let act = self.netlist.add_channel("if", 0);
                self.netlist.add_component(
                    ComponentKind::Case { branches: 2 },
                    &[act, sel, else_act, then_act],
                )?;
                Ok(act)
            }
            Cmd::Case {
                selector,
                arms,
                default,
            } => {
                for (i, (label, _)) in arms.iter().enumerate() {
                    if *label != i as u64 {
                        return Err(BalsaError::BadCaseLabels);
                    }
                }
                let sel = self.compile_expr(selector)?;
                let mut branch_acts: Vec<ChannelId> = Vec::new();
                for (_, a) in arms {
                    branch_acts.push(self.compile_cmd(a)?);
                }
                if let Some(d) = default {
                    branch_acts.push(self.compile_cmd(d)?);
                }
                let act = self.netlist.add_channel("case", 0);
                let mut chans = vec![act, sel];
                chans.extend(&branch_acts);
                self.netlist.add_component(
                    ComponentKind::Case {
                        branches: branch_acts.len(),
                    },
                    &chans,
                )?;
                Ok(act)
            }
            Cmd::Assign { var, expr } => {
                let src = self.compile_expr(expr)?;
                let dst = {
                    let info = self
                        .vars
                        .get_mut(var)
                        .ok_or_else(|| BalsaError::UnknownVariable(var.clone()))?;
                    let ch = info.write_sites[info.next_write];
                    info.next_write += 1;
                    ch
                };
                self.fetch(src, dst)
            }
            Cmd::MemWrite { mem, addr, value } => {
                let (data_ch, addr_ch) = {
                    let info = self
                        .mems
                        .get_mut(mem)
                        .ok_or_else(|| BalsaError::UnknownMemory(mem.clone()))?;
                    let site = info.write_sites[info.next_write];
                    info.next_write += 1;
                    site
                };
                let addr_provider = self.compile_expr(addr)?;
                self.bridge_pull(addr_ch, addr_provider)?;
                let src = self.compile_expr(value)?;
                self.fetch(src, data_ch)
            }
            Cmd::Send { chan, expr } => {
                let dst = {
                    let info = self
                        .ports
                        .get_mut(chan)
                        .ok_or_else(|| BalsaError::UnknownPort(chan.clone()))?;
                    if info.dir != PortDir::Output {
                        return Err(BalsaError::PortDirection {
                            port: chan.clone(),
                            usage: "send".into(),
                        });
                    }
                    let ch = info.sites[info.next];
                    info.next += 1;
                    ch
                };
                let src = self.compile_expr(expr)?;
                self.fetch(src, dst)
            }
            Cmd::Receive { chan, var } => {
                let src = {
                    let info = self
                        .ports
                        .get_mut(chan)
                        .ok_or_else(|| BalsaError::UnknownPort(chan.clone()))?;
                    if info.dir != PortDir::Input {
                        return Err(BalsaError::PortDirection {
                            port: chan.clone(),
                            usage: "receive".into(),
                        });
                    }
                    let ch = info.sites[info.next];
                    info.next += 1;
                    ch
                };
                let dst = {
                    let info = self
                        .vars
                        .get_mut(var)
                        .ok_or_else(|| BalsaError::UnknownVariable(var.clone()))?;
                    let ch = info.write_sites[info.next_write];
                    info.next_write += 1;
                    ch
                };
                self.fetch(src, dst)
            }
        }
    }

    /// A fetch component: on activation, pull `src`, push `dst`.
    fn fetch(&mut self, src: ChannelId, dst: ChannelId) -> Result<ChannelId, BalsaError> {
        let act = self.netlist.add_channel("fetch", 0);
        self.netlist
            .add_component(ComponentKind::Fetch, &[act, src, dst])?;
        Ok(act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn compile_src(src: &str) -> CompiledDesign {
        let prog = parse(src).unwrap();
        compile_procedure(&prog.procedures[0]).unwrap()
    }

    #[test]
    fn buffer_compiles() {
        let d = compile_src(
            "procedure buf (input i : 8 bits; output o : 8 bits) is\n\
             variable x : 8 bits\n\
             begin loop i -> x ; o <- x end end",
        );
        d.netlist.validate().unwrap();
        let p = d.netlist.partition();
        // loop + seq + 2 fetches = 4 control components.
        assert_eq!(p.control.len(), 4);
        // variable = 1 datapath component.
        assert_eq!(p.datapath.len(), 1);
        // internal control channels: loop->seq, seq->fetch1, seq->fetch2.
        assert_eq!(p.internal_control.len(), 3);
    }

    #[test]
    fn sync_ports_and_parallel() {
        let d = compile_src("procedure t (sync a; sync b) is begin loop sync a || sync b end end");
        let p = d.netlist.partition();
        // loop + concur.
        assert_eq!(p.control.len(), 2);
    }

    #[test]
    fn shared_procedure_creates_call() {
        let d = compile_src(
            "procedure t (sync g) is\n\
             shared s is begin sync g end\n\
             begin loop s () ; s () end end",
        );
        let has_call = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::Call { inputs: 2 }));
        assert!(has_call, "{}", d.netlist);
        // sync g used once inside shared -> no call on the port itself.
    }

    #[test]
    fn repeated_sync_creates_call() {
        let d = compile_src("procedure t (sync g) is begin loop sync g ; sync g end end");
        let has_call = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::Call { inputs: 2 }));
        assert!(has_call, "{}", d.netlist);
    }

    #[test]
    fn multiple_writes_create_callmux() {
        let d = compile_src(
            "procedure t (input i : 8 bits) is\n\
             variable x : 8 bits\n\
             begin loop i -> x ; x := x + 1 end end",
        );
        let has_mux = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::CallMux { inputs: 2, .. }));
        assert!(has_mux, "{}", d.netlist);
    }

    #[test]
    fn multiple_input_reads_create_pullmux() {
        let d = compile_src(
            "procedure t (input i : 8 bits) is\n\
             variable a : 8 bits variable b : 8 bits\n\
             begin loop i -> a ; i -> b end end",
        );
        let has_mux = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::PullMux { clients: 2, .. }));
        assert!(has_mux, "{}", d.netlist);
    }

    #[test]
    fn if_compiles_to_case() {
        let d = compile_src(
            "procedure t (input i : 1 bits; sync x) is\n\
             variable v : 1 bits\n\
             begin loop i -> v ; if v then sync x end end end",
        );
        let has_case = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::Case { branches: 2 }));
        assert!(has_case);
        // the missing else introduced a skip
        let has_skip = d
            .netlist
            .components()
            .iter()
            .any(|c| matches!(c.kind, ComponentKind::Skip));
        assert!(has_skip);
    }

    #[test]
    fn memory_sites_allocated() {
        let d = compile_src(
            "procedure t (output o : 8 bits) is\n\
             memory m : 16 words of 8 bits\n\
             variable pc : 8 bits\n\
             begin loop m[pc] := pc ; o <- m[pc] ; pc := pc + 1 end end",
        );
        let mem = d
            .netlist
            .components()
            .iter()
            .find(|c| matches!(c.kind, ComponentKind::Memory { .. }))
            .unwrap();
        match &mem.kind {
            ComponentKind::Memory {
                reads: 1,
                writes: 1,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        d.netlist.validate().unwrap();
    }

    #[test]
    fn zero_word_memory_rejected() -> Result<(), String> {
        let prog = parse(
            "procedure t (output o : 8 bits) is\n\
             memory m : 0 words of 8 bits\n\
             variable pc : 8 bits\n\
             begin loop m[pc] := pc ; o <- m[pc] ; pc := pc + 1 end end",
        )
        .map_err(|e| e.to_string())?;
        match compile_procedure(&prog.procedures[0]) {
            Err(BalsaError::EmptyMemory(m)) => assert_eq!(m, "m"),
            other => return Err(format!("{other:?}")),
        }
        Ok(())
    }

    #[test]
    fn unknown_names_rejected() {
        let prog = parse("procedure t (sync g) is begin nope () end").unwrap();
        assert!(matches!(
            compile_procedure(&prog.procedures[0]),
            Err(BalsaError::UnknownShared(_))
        ));
        let prog = parse("procedure t (sync g) is begin x := 1 end").unwrap();
        assert!(matches!(
            compile_procedure(&prog.procedures[0]),
            Err(BalsaError::UnknownVariable(_))
        ));
    }

    #[test]
    fn wrong_port_direction_rejected() {
        let prog = parse("procedure t (input i : 8 bits) is begin i <- 1 end").unwrap();
        assert!(matches!(
            compile_procedure(&prog.procedures[0]),
            Err(BalsaError::PortDirection { .. })
        ));
    }

    #[test]
    fn case_labels_must_be_consecutive() {
        let prog = parse(
            "procedure t (input i : 2 bits; sync x) is variable v : 2 bits begin\n\
             i -> v ; case v of 1 then sync x end end",
        )
        .unwrap();
        assert!(matches!(
            compile_procedure(&prog.procedures[0]),
            Err(BalsaError::BadCaseLabels)
        ));
    }
}
