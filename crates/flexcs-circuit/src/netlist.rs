//! Circuit netlist construction.
//!
//! A [`Circuit`] is a flat element list over numbered nodes — the level
//! of abstraction a SPICE deck provides. A node is either named (made by
//! [`Circuit::node`], found again by name) or anonymous (made by
//! [`Circuit::fresh_node`] for a builder's internal net: it keeps only an
//! interned prefix, and its display name is built on demand). Subcircuit
//! builders (pseudo-CMOS cells, shift registers, the sensor pixel, the
//! amplifier) live in sibling modules and expand into these primitives.

use crate::device::CntTftModel;
use crate::error::{CircuitError, Result};
use crate::waveform::Waveform;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// A node handle. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// An element handle, returned by the `add_*` methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// A circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (positive).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (positive).
        farads: f64,
    },
    /// Independent voltage source: `V(p) − V(n) = waveform(t)`.
    VSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// Independent current source driving `waveform(t)` amps from `from`
    /// to `to` through itself.
    ISource {
        /// Terminal the current is drawn from.
        from: NodeId,
        /// Terminal the current is delivered to.
        to: NodeId,
        /// Source waveform (amps).
        waveform: Waveform,
    },
    /// p-type CNT thin-film transistor.
    Tft {
        /// Gate.
        g: NodeId,
        /// Drain.
        d: NodeId,
        /// Source.
        s: NodeId,
        /// Geometry ratio `W/L`.
        w_over_l: f64,
        /// Compact-model parameters.
        model: CntTftModel,
    },
}

/// A flat netlist over numbered nodes, some of them named.
///
/// # Examples
///
/// ```
/// use flexcs_circuit::{Circuit, Waveform, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 2:1 resistive divider from a 3 V supply.
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let mid = ckt.node("mid");
/// ckt.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(3.0));
/// ckt.add_resistor(vdd, mid, 10_000.0)?;
/// ckt.add_resistor(mid, NodeId::GROUND, 20_000.0)?;
/// let op = ckt.dc_operating_point()?;
/// assert!((op.voltage(mid) - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    nodes: Vec<NodeSlot>,
    name_to_id: HashMap<String, usize>,
    /// Interned fresh-node prefixes, in order of first use.
    prefixes: Vec<Box<str>>,
    elements: Vec<Element>,
}

/// What a node keeps of its name.
#[derive(Debug, Clone)]
enum NodeSlot {
    /// Ground or a node made by [`Circuit::node`].
    Named(Box<str>),
    /// A node made by [`Circuit::fresh_node`]: its prefix's index in
    /// `Circuit::prefixes`.
    Fresh(usize),
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// Creates an empty circuit (ground pre-registered as node `"0"`).
    pub fn new() -> Self {
        let mut c = Circuit {
            nodes: vec![NodeSlot::Named("0".into())],
            name_to_id: HashMap::new(),
            prefixes: Vec::new(),
            elements: Vec::new(),
        };
        c.name_to_id.insert("0".to_string(), 0);
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"` and `"gnd"` refer to ground. A fresh node is never
    /// found by name, whatever [`Circuit::node_name`] displays for it.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return NodeId::GROUND;
        }
        if let Some(&id) = self.name_to_id.get(name) {
            return NodeId(id);
        }
        let id = self.nodes.len();
        self.nodes.push(NodeSlot::Named(name.into()));
        self.name_to_id.insert(name.to_string(), id);
        NodeId(id)
    }

    /// Creates a fresh anonymous node, distinct from every other node.
    ///
    /// The node keeps only `prefix`, interned, so a repeated prefix
    /// allocates nothing beyond the node vector's amortized growth. No
    /// name is formatted, hashed or entered in the name map, so
    /// [`Circuit::find_node`] cannot find the node; [`Circuit::node_name`]
    /// builds its display name when asked.
    pub fn fresh_node(&mut self, prefix: &str) -> NodeId {
        let p = match self.prefixes.iter().rposition(|q| **q == *prefix) {
            Some(p) => p,
            None => {
                self.prefixes.push(prefix.into());
                self.prefixes.len() - 1
            }
        };
        self.nodes.push(NodeSlot::Fresh(p));
        NodeId(self.nodes.len() - 1)
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if no node has that name.
    pub fn find_node(&self, name: &str) -> Result<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Ok(NodeId::GROUND);
        }
        self.name_to_id
            .get(name)
            .map(|&id| NodeId(id))
            .ok_or_else(|| CircuitError::UnknownNode(name.to_string()))
    }

    /// Name of a node.
    ///
    /// A named node returns its name. A fresh node's name is built here:
    /// `{prefix}#{n}` for the first `n` at or above its id that no named
    /// node and no earlier fresh node of the same prefix holds. So every
    /// node displays a distinct name; a fresh one costs a pass over the
    /// nodes before it.
    pub fn node_name(&self, node: NodeId) -> Cow<'_, str> {
        let p = match &self.nodes[node.0] {
            NodeSlot::Named(name) => return Cow::Borrowed(name),
            NodeSlot::Fresh(p) => *p,
        };
        let prefix = &self.prefixes[p];
        let mut held = HashSet::new();
        let mut name = String::new();
        for (id, slot) in self.nodes[..=node.0].iter().enumerate() {
            if !matches!(slot, NodeSlot::Fresh(q) if *q == p) {
                continue;
            }
            let mut n = id;
            loop {
                name = format!("{prefix}#{n}");
                if !self.name_to_id.contains_key(&name) && held.insert(n) {
                    break;
                }
                n += 1;
            }
        }
        Cow::Owned(name)
    }

    /// Total node count including ground.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrows the element list.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of TFTs in the netlist (the complexity metric flexible-
    /// electronics papers report).
    pub fn tft_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Tft { .. }))
            .count()
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.0 >= self.nodes.len() {
            return Err(CircuitError::UnknownNode(format!("#{}", n.0)));
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] for a non-positive or
    /// non-finite resistance and [`CircuitError::UnknownNode`] for
    /// foreign node handles.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<ElementId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(ohms > 0.0) || !ohms.is_finite() {
            return Err(CircuitError::InvalidElement(format!(
                "resistance must be positive and finite, got {ohms}"
            )));
        }
        self.elements.push(Element::Resistor { a, b, ohms });
        Ok(ElementId(self.elements.len() - 1))
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] for a non-positive or
    /// non-finite capacitance.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<ElementId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(farads > 0.0) || !farads.is_finite() {
            return Err(CircuitError::InvalidElement(format!(
                "capacitance must be positive and finite, got {farads}"
            )));
        }
        self.elements.push(Element::Capacitor { a, b, farads });
        Ok(ElementId(self.elements.len() - 1))
    }

    /// Adds an independent voltage source with `V(p) − V(n) =
    /// waveform(t)`.
    pub fn add_vsource(&mut self, p: NodeId, n: NodeId, waveform: Waveform) -> ElementId {
        self.elements.push(Element::VSource { p, n, waveform });
        ElementId(self.elements.len() - 1)
    }

    /// Adds an independent current source driving `waveform(t)` amps
    /// from `from` to `to`.
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, waveform: Waveform) -> ElementId {
        self.elements.push(Element::ISource { from, to, waveform });
        ElementId(self.elements.len() - 1)
    }

    /// Adds a p-type CNT TFT with the default model.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] for a non-positive
    /// `w_over_l`.
    pub fn add_tft(&mut self, g: NodeId, d: NodeId, s: NodeId, w_over_l: f64) -> Result<ElementId> {
        self.add_tft_with_model(g, d, s, w_over_l, CntTftModel::default())
    }

    /// Adds a p-type CNT TFT with explicit model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] for a non-positive
    /// `w_over_l`.
    pub fn add_tft_with_model(
        &mut self,
        g: NodeId,
        d: NodeId,
        s: NodeId,
        w_over_l: f64,
        model: CntTftModel,
    ) -> Result<ElementId> {
        self.check_node(g)?;
        self.check_node(d)?;
        self.check_node(s)?;
        if !(w_over_l > 0.0) || !w_over_l.is_finite() {
            return Err(CircuitError::InvalidElement(format!(
                "w_over_l must be positive and finite, got {w_over_l}"
            )));
        }
        self.elements.push(Element::Tft {
            g,
            d,
            s,
            w_over_l,
            model,
        });
        Ok(ElementId(self.elements.len() - 1))
    }

    /// Replaces the waveform of a voltage or current source.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] when the id does not
    /// refer to a source.
    pub fn set_source_waveform(&mut self, id: ElementId, waveform: Waveform) -> Result<()> {
        match self.elements.get_mut(id.0) {
            Some(Element::VSource { waveform: w, .. })
            | Some(Element::ISource { waveform: w, .. }) => {
                *w = waveform;
                Ok(())
            }
            _ => Err(CircuitError::InvalidElement(format!(
                "element {} is not a source",
                id.0
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("GND"), NodeId::GROUND);
    }

    #[test]
    fn node_identity_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut c = Circuit::new();
        let x = c.fresh_node("x");
        let y = c.fresh_node("x");
        assert_ne!(x, y);
    }

    #[test]
    fn fresh_node_never_aliases_a_named_node() {
        let mut c = Circuit::new();
        let taken = c.node("a#2");
        let fresh = c.fresh_node("a");
        assert_ne!(fresh, taken, "fresh node shorted onto a named one");
        assert_eq!(c.node_name(fresh), "a#3");
        assert_eq!(c.find_node("a#2").unwrap(), taken);
        // Without a collision the name follows the new id, as before.
        let next = c.fresh_node("b");
        assert_eq!(c.node_name(next), format!("b#{}", next.0));
        assert_eq!(c.node_count(), 4);
    }

    #[test]
    fn named_node_never_aliases_a_fresh_one() {
        let mut c = Circuit::new();
        let fresh = c.fresh_node("out");
        assert_eq!(c.node_name(fresh), "out#1");
        let named = c.node("out#1");
        assert_ne!(named, fresh, "named node shorted onto a fresh one");
        assert_eq!(c.find_node("out#1").unwrap(), named);
        // The fresh node's display name steps past the named one.
        assert_eq!(c.node_name(fresh), "out#2");
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn node_ids_follow_call_order() {
        let mut c = Circuit::new();
        let ids = [
            c.node("a"),
            c.fresh_node("x"),
            c.fresh_node("y"),
            c.node("b"),
            c.fresh_node("x"),
            c.node("a"),
            c.node("c"),
        ];
        let raw: Vec<usize> = ids.iter().map(|n| n.index()).collect();
        assert_eq!(raw, [1, 2, 3, 4, 5, 1, 6]);
        assert_eq!(c.node_count(), 7);
    }

    #[test]
    fn fresh_names_stay_distinct_around_named_lookalikes() {
        let mut c = Circuit::new();
        let f1 = c.fresh_node("a");
        let f2 = c.fresh_node("a");
        c.node("a#1");
        c.node("a#2");
        let names: Vec<String> = (0..c.node_count())
            .map(|i| c.node_name(NodeId(i)).into_owned())
            .collect();
        assert_eq!(names, ["0", "a#3", "a#4", "a#1", "a#2"]);
        assert!(
            c.find_node("a#3").is_err(),
            "fresh nodes are not found by name"
        );
        assert_ne!(f1, f2);
    }

    #[test]
    fn default_circuit_has_ground() {
        let mut c = Circuit::default();
        assert_ne!(c.node("a"), NodeId::GROUND);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.find_node("0").unwrap(), NodeId::GROUND);
    }

    #[test]
    fn find_node_errors_on_missing() {
        let c = Circuit::new();
        assert!(matches!(
            c.find_node("nope"),
            Err(CircuitError::UnknownNode(_))
        ));
    }

    #[test]
    fn invalid_elements_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor(a, NodeId::GROUND, 0.0).is_err());
        assert!(c.add_resistor(a, NodeId::GROUND, -5.0).is_err());
        assert!(c.add_capacitor(a, NodeId::GROUND, 0.0).is_err());
        assert!(c.add_tft(a, a, NodeId::GROUND, -1.0).is_err());
    }

    #[test]
    fn tft_count_counts_only_tfts() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor(a, b, 100.0).unwrap();
        c.add_tft(a, b, NodeId::GROUND, 5.0).unwrap();
        c.add_tft(b, a, NodeId::GROUND, 5.0).unwrap();
        assert_eq!(c.tft_count(), 2);
    }

    #[test]
    fn set_source_waveform_only_on_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = c.add_resistor(a, NodeId::GROUND, 1.0).unwrap();
        let v = c.add_vsource(a, NodeId::GROUND, Waveform::Dc(1.0));
        assert!(c.set_source_waveform(v, Waveform::Dc(2.0)).is_ok());
        assert!(c.set_source_waveform(r, Waveform::Dc(2.0)).is_err());
    }
}
