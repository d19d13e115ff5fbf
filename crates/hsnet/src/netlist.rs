//! The handshake-circuit netlist: components wired by channels.
//!
//! This is the equivalent of Balsa's `.sbreeze` intermediate representation:
//! the output of syntax-directed compilation and the input of the burst-mode
//! back-end.

use crate::kind::{Activity, ComponentKind};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a channel within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// Identifier of a component within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// One endpoint of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A component port, identified by component and port index.
    Port {
        /// The component.
        component: ComponentId,
        /// Index into the component's [`ComponentKind::ports`] list.
        port: usize,
    },
    /// An external port of the whole netlist.
    External,
}

/// A handshake channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Identifier.
    pub id: ChannelId,
    /// Human-readable name (unique within the netlist).
    pub name: String,
    /// Data width in bits; 0 for pure control channels.
    pub width: u32,
    /// The endpoint that initiates handshakes, if connected.
    pub active: Option<Endpoint>,
    /// The endpoint that awaits handshakes, if connected.
    pub passive: Option<Endpoint>,
}

/// A component instance.
#[derive(Debug, Clone)]
pub struct Component {
    /// Identifier.
    pub id: ComponentId,
    /// Kind with structural parameters.
    pub kind: ComponentKind,
    /// Channel attached to each port, in [`ComponentKind::ports`] order.
    pub channels: Vec<ChannelId>,
}

/// Errors raised while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A component was attached with the wrong number of channels.
    PortCountMismatch {
        /// The offending component kind.
        kind: String,
        /// Ports the kind declares.
        expected: usize,
        /// Channels supplied.
        got: usize,
    },
    /// A channel end was claimed twice with the same activity.
    DoubleConnection {
        /// The channel.
        channel: String,
        /// Which side was double-booked.
        activity: Activity,
    },
    /// A channel is missing one of its two ends.
    Dangling {
        /// The channel.
        channel: String,
        /// The missing side.
        activity: Activity,
    },
    /// Duplicate channel name.
    DuplicateChannel {
        /// The name.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::PortCountMismatch {
                kind,
                expected,
                got,
            } => {
                write!(f, "component {kind} expects {expected} channels, got {got}")
            }
            NetlistError::DoubleConnection { channel, activity } => {
                write!(f, "channel {channel} has two {activity} ends")
            }
            NetlistError::Dangling { channel, activity } => {
                write!(f, "channel {channel} is missing its {activity} end")
            }
            NetlistError::DuplicateChannel { name } => {
                write!(f, "duplicate channel name {name}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A netlist of handshake components.
///
/// # Examples
///
/// ```
/// use bmbe_hsnet::netlist::Netlist;
/// use bmbe_hsnet::kind::ComponentKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("demo");
/// let a = n.add_channel("a", 0);
/// let b0 = n.add_channel("b0", 0);
/// let b1 = n.add_channel("b1", 0);
/// n.add_component(ComponentKind::Sequence { branches: 2 }, &[a, b0, b1])?;
/// n.expose(a); // activation comes from outside
/// n.expose(b0);
/// n.expose(b1);
/// n.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    components: Vec<Component>,
    channels: Vec<Channel>,
    names: HashMap<String, ChannelId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            components: Vec::new(),
            channels: Vec::new(),
            names: HashMap::new(),
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a channel; the name is made unique if already taken.
    pub fn add_channel(&mut self, name: impl Into<String>, width: u32) -> ChannelId {
        let mut name = name.into();
        if self.names.contains_key(&name) {
            let mut i = 1;
            while self.names.contains_key(&format!("{name}_{i}")) {
                i += 1;
            }
            name = format!("{name}_{i}");
        }
        let id = ChannelId(self.channels.len() as u32);
        self.names.insert(name.clone(), id);
        self.channels.push(Channel {
            id,
            name,
            width,
            active: None,
            passive: None,
        });
        id
    }

    /// Adds a component attached to the given channels (in port order).
    ///
    /// # Errors
    ///
    /// Fails when the channel count does not match the kind's port list or a
    /// channel end is already taken.
    pub fn add_component(
        &mut self,
        kind: ComponentKind,
        channels: &[ChannelId],
    ) -> Result<ComponentId, NetlistError> {
        let ports = kind.ports();
        if ports.len() != channels.len() {
            return Err(NetlistError::PortCountMismatch {
                kind: kind.mnemonic().to_string(),
                expected: ports.len(),
                got: channels.len(),
            });
        }
        let id = ComponentId(self.components.len() as u32);
        for (i, (spec, &ch)) in ports.iter().zip(channels).enumerate() {
            let endpoint = Endpoint::Port {
                component: id,
                port: i,
            };
            self.connect(ch, spec.activity, endpoint)?;
        }
        self.components.push(Component {
            id,
            kind,
            channels: channels.to_vec(),
        });
        Ok(id)
    }

    fn connect(
        &mut self,
        ch: ChannelId,
        activity: Activity,
        endpoint: Endpoint,
    ) -> Result<(), NetlistError> {
        let channel = &mut self.channels[ch.0 as usize];
        let slot = match activity {
            Activity::Active => &mut channel.active,
            Activity::Passive => &mut channel.passive,
        };
        if slot.is_some() {
            return Err(NetlistError::DoubleConnection {
                channel: channel.name.clone(),
                activity,
            });
        }
        *slot = Some(endpoint);
        Ok(())
    }

    /// Marks a channel's unconnected side(s) as external ports.
    pub fn expose(&mut self, ch: ChannelId) {
        let channel = &mut self.channels[ch.0 as usize];
        if channel.active.is_none() {
            channel.active = Some(Endpoint::External);
        }
        if channel.passive.is_none() {
            channel.passive = Some(Endpoint::External);
        }
    }

    /// All components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Looks up a channel.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0 as usize]
    }

    /// Looks up a component.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.0 as usize]
    }

    /// Looks up a channel by name.
    pub fn channel_by_name(&self, name: &str) -> Option<&Channel> {
        self.names.get(name).map(|id| self.channel(*id))
    }

    /// Checks structural sanity: every channel has exactly one active and
    /// one passive end.
    ///
    /// # Errors
    ///
    /// Returns the first dangling channel found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for c in &self.channels {
            if c.active.is_none() {
                return Err(NetlistError::Dangling {
                    channel: c.name.clone(),
                    activity: Activity::Active,
                });
            }
            if c.passive.is_none() {
                return Err(NetlistError::Dangling {
                    channel: c.name.clone(),
                    activity: Activity::Passive,
                });
            }
        }
        Ok(())
    }

    /// Splits the netlist view into control components and datapath
    /// components (the paper's partitioning step, Fig. 1).
    pub fn partition(&self) -> Partition<'_> {
        let (control, datapath): (Vec<&Component>, Vec<&Component>) =
            self.components.iter().partition(|c| c.kind.is_control());
        // A channel is internal-control when both its endpoints are control
        // components and it is a pure control channel.
        let is_control_comp = |e: &Endpoint| match e {
            Endpoint::Port { component, .. } => {
                self.components[component.0 as usize].kind.is_control()
            }
            Endpoint::External => false,
        };
        let internal_control: Vec<&Channel> = self
            .channels
            .iter()
            .filter(|c| {
                c.width == 0
                    && c.active.as_ref().is_some_and(is_control_comp)
                    && c.passive.as_ref().is_some_and(is_control_comp)
            })
            .collect();
        Partition {
            control,
            datapath,
            internal_control,
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist {} ({} components, {} channels)",
            self.name,
            self.components.len(),
            self.channels.len()
        )?;
        for c in &self.components {
            let chans: Vec<String> = c
                .channels
                .iter()
                .map(|id| self.channel(*id).name.clone())
                .collect();
            writeln!(f, "  {} {} ({})", c.id, c.kind, chans.join(", "))?;
        }
        Ok(())
    }
}

/// The control/datapath split of a netlist.
#[derive(Debug)]
pub struct Partition<'a> {
    /// Control handshake components (optimized by the back-end).
    pub control: Vec<&'a Component>,
    /// Datapath components (template-synthesized).
    pub datapath: Vec<&'a Component>,
    /// Dataless channels internal to the control part — the clustering
    /// candidates.
    pub internal_control: Vec<&'a Channel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_seq_netlist() -> (Netlist, ChannelId) {
        // seq1.out1 activates seq2 (the paper's basic clustering shape).
        let mut n = Netlist::new("t");
        let a = n.add_channel("a", 0);
        let x = n.add_channel("x", 0);
        let link = n.add_channel("link", 0);
        let y = n.add_channel("y", 0);
        let z = n.add_channel("z", 0);
        n.add_component(ComponentKind::Sequence { branches: 2 }, &[a, x, link])
            .unwrap();
        n.add_component(ComponentKind::Sequence { branches: 2 }, &[link, y, z])
            .unwrap();
        for ch in [a, x, y, z] {
            n.expose(ch);
        }
        (n, link)
    }

    #[test]
    fn build_and_validate() {
        let (n, _) = two_seq_netlist();
        n.validate().unwrap();
        assert_eq!(n.components().len(), 2);
        assert_eq!(n.channels().len(), 5);
    }

    #[test]
    fn dangling_channel_detected() {
        let mut n = Netlist::new("t");
        let a = n.add_channel("a", 0);
        let b = n.add_channel("b", 0);
        n.add_component(ComponentKind::Loop, &[a, b]).unwrap();
        n.expose(a);
        // b's passive side dangles
        let err = n.validate().unwrap_err();
        assert!(matches!(err, NetlistError::Dangling { .. }));
    }

    #[test]
    fn double_connection_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_channel("a", 0);
        let b = n.add_channel("b", 0);
        n.add_component(ComponentKind::Loop, &[a, b]).unwrap();
        // Another loop also claiming a's passive end.
        let err = n.add_component(ComponentKind::Loop, &[a, b]).unwrap_err();
        assert!(matches!(err, NetlistError::DoubleConnection { .. }));
    }

    #[test]
    fn port_count_checked() {
        let mut n = Netlist::new("t");
        let a = n.add_channel("a", 0);
        let err = n.add_component(ComponentKind::Loop, &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::PortCountMismatch { .. }));
    }

    #[test]
    fn partition_finds_internal_control_channel() {
        let (n, link) = two_seq_netlist();
        let p = n.partition();
        assert_eq!(p.control.len(), 2);
        assert_eq!(p.datapath.len(), 0);
        assert_eq!(p.internal_control.len(), 1);
        assert_eq!(p.internal_control[0].id, link);
    }

    #[test]
    fn partition_excludes_data_channels() {
        let mut n = Netlist::new("t");
        let act = n.add_channel("act", 0);
        let pull = n.add_channel("pull", 8);
        let push = n.add_channel("push", 8);
        let wr = n.add_channel("wr", 8);
        n.add_component(ComponentKind::Fetch, &[act, pull, push])
            .unwrap();
        n.add_component(ComponentKind::Constant { value: 3, width: 8 }, &[pull])
            .unwrap();
        n.add_component(ComponentKind::Variable { width: 8, reads: 0 }, &[push])
            .unwrap();
        let _ = wr;
        n.expose(act);
        let p = n.partition();
        assert_eq!(p.control.len(), 1);
        assert_eq!(p.datapath.len(), 2);
        assert!(p.internal_control.is_empty());
    }

    #[test]
    fn channel_names_deduplicated() {
        let mut n = Netlist::new("t");
        let a = n.add_channel("a", 0);
        let a2 = n.add_channel("a", 0);
        assert_ne!(a, a2);
        assert_ne!(n.channel(a).name, n.channel(a2).name);
        assert!(n.channel_by_name("a").is_some());
        assert!(n.channel_by_name("a_1").is_some());
    }

    #[test]
    fn display_mentions_components() {
        let (n, _) = two_seq_netlist();
        let s = n.to_string();
        assert!(s.contains("seq"));
        assert!(s.contains("link"));
    }
}
