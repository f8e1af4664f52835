//! Pin-level timing-graph construction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use drd_liberty::{LibCell, Library, SeqKind};
use drd_netlist::{
    CellId, CellKind, Conn, Connectivity, Design, Endpoint, KindRef, Module, NetId, PortDir,
    PortId, Symbol, SymbolTable,
};

use crate::StaError;

/// Handle to a timing-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Handle to a timing-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) u32);

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A cell pin (`cell`, index into the cell's pin list).
    Pin {
        /// Owning cell.
        cell: CellId,
        /// Pin index within the cell's pin list.
        pin: u32,
    },
    /// A module port.
    Port(PortId),
}

/// What an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A pin-to-pin arc inside a cell.
    CellArc,
    /// A net connection from a driver to one load.
    Net,
}

/// Interned parts of a node's report name: `(instance, Some(pin))` for
/// a cell pin, `(port, None)` for a port. Rendered to `instance/pin` or
/// `port` text only when a report or error asks for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Label {
    owner: Symbol,
    pin: Option<Symbol>,
}

impl Label {
    pub(crate) fn render(self, syms: &SymbolTable) -> String {
        match self.pin {
            Some(pin) => format!("{}/{}", syms.resolve(self.owner), syms.resolve(pin)),
            None => syms.resolve(self.owner).to_owned(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    /// Report name, resolved through [`TimingGraph::node_name`].
    pub label: Label,
    /// True if timing is disabled through this pin (§4.6.1).
    pub disabled: bool,
    /// True if this node is a timing endpoint (sequential data input or
    /// output port).
    pub endpoint: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub from: NodeId,
    pub to: NodeId,
    /// Typical-corner delay (ns), already including load-dependent terms.
    pub delay: f64,
    pub kind: EdgeKind,
    /// Cut by loop breaking or pin disabling.
    pub disabled: bool,
}

/// Options controlling graph construction.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// Include clock→Q / enable→Q launch arcs (default: false, so
    /// sequential outputs become path sources).
    pub include_clock_to_q: bool,
    /// Treat latches as transparent (include D→Q arcs). Default: false —
    /// latches are region boundaries, as the desynchronization timing
    /// constraints demand (§4.5.1).
    pub latch_transparent: bool,
    /// Extra wire delay added to every net edge (a crude pre-layout wire
    /// model; the backend replaces it with fanout-dependent estimates).
    pub wire_delay: f64,
    /// Timing arcs for module instances (black boxes), keyed by module
    /// name: `(input port, output port, delay)` — used for delay-element
    /// and controller instances.
    pub instance_arcs: HashMap<String, Vec<(String, String, f64)>>,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            include_clock_to_q: false,
            latch_transparent: false,
            wire_delay: 0.0,
            instance_arcs: HashMap::new(),
        }
    }
}

/// Timing arcs and endpoint pins of one library cell, with pin names
/// resolved against the module's symbol table once and then replayed for
/// every instance of that kind — arc construction never touches strings.
#[derive(Debug, Default)]
struct KindArcs {
    /// `(from pin, to pin, intrinsic delay, output drive resistance)` for
    /// every arc enabled under the current [`GraphOptions`].
    arcs: Vec<(Symbol, Symbol, f64, f64)>,
    /// Sequential data inputs (timing endpoints).
    endpoints: Vec<Symbol>,
}

fn prepare_kind(module: &Module, lc: &LibCell, opts: &GraphOptions) -> KindArcs {
    let mut k = KindArcs::default();
    // Which input pin launches paths through this cell?
    let blocked_from: Option<&str> = match &lc.seq {
        SeqKind::None | SeqKind::CElement { .. } => None,
        SeqKind::FlipFlop(ff) => Some(ff.clocked_on.as_str()),
        SeqKind::Latch(l) => Some(l.enable.as_str()),
    };
    let is_latch = matches!(lc.seq, SeqKind::Latch(_));
    for arc in &lc.arcs {
        let through_clock = Some(arc.from.as_str()) == blocked_from;
        let allowed = match &lc.seq {
            SeqKind::None | SeqKind::CElement { .. } => true,
            SeqKind::FlipFlop(_) => opts.include_clock_to_q && through_clock,
            SeqKind::Latch(_) => {
                (through_clock && opts.include_clock_to_q)
                    || (!through_clock && (opts.latch_transparent && is_latch))
            }
        };
        if !allowed {
            continue;
        }
        // A pin name that was never interned in the module cannot be
        // connected on any instance — the arc can never materialize.
        let (Some(from), Some(to)) = (module.lookup_sym(&arc.from), module.lookup_sym(&arc.to))
        else {
            continue;
        };
        let res = lc.pin(&arc.to).map(|p| p.drive_resistance).unwrap_or(0.0);
        k.arcs.push((from, to, arc.rise.max(arc.fall), res));
    }
    if let Some(clockish) = blocked_from {
        for pin in lc.input_pins() {
            if pin.name == clockish {
                continue;
            }
            if let Some(s) = module.lookup_sym(&pin.name) {
                k.endpoints.push(s);
            }
        }
    }
    k
}

/// Net load capacitances (input-pin caps of all loads), with per-kind
/// `(pin symbol, capacitance)` tables derived once per distinct cell kind.
fn net_loads(module: &Module, lib: &Library) -> Result<Vec<f64>, StaError> {
    let mut kind_caps: HashMap<Symbol, Vec<(Symbol, f64)>> = HashMap::new();
    let mut net_load: Vec<f64> = vec![0.0; module.net_count()];
    for (_, cell) in module.cells() {
        let CellKind::Lib(kind) = cell.kind else { continue };
        let caps = match kind_caps.entry(kind) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let lc = lib.cell(module.resolve(kind)).ok_or_else(|| StaError::UnknownCell {
                    name: module.resolve(kind).to_owned(),
                })?;
                e.insert(
                    lc.input_pins()
                        .filter_map(|p| module.lookup_sym(&p.name).map(|s| (s, p.capacitance)))
                        .collect(),
                )
            }
        };
        for &(pin, c) in cell.pins() {
            if let Conn::Net(n) = c {
                if let Some(&(_, cap)) = caps.iter().find(|&&(s, _)| s == pin) {
                    net_load[n.index()] += cap;
                }
            }
        }
    }
    Ok(net_load)
}

fn check_lib_cells(module: &Module, lib: &Library) -> Result<(), StaError> {
    for (_, cell) in module.cells() {
        if let KindRef::Lib(name) = cell.kind_ref() {
            if lib.cell(name).is_none() {
                return Err(StaError::UnknownCell {
                    name: name.to_owned(),
                });
            }
        }
    }
    Ok(())
}

/// Shared read-only preparation for building many per-region subset
/// graphs of one module (see [`TimingGraph::build_subset`]): connectivity,
/// full-module net load capacitances and one shared copy of the module's
/// symbol table are derived once and then shared — the struct is `Sync`,
/// so region tasks can build their subgraphs in parallel, and a subset
/// graph costs only its own cells, never a pass over the whole module.
#[derive(Debug)]
pub struct SubsetContext<'a> {
    module: &'a Module,
    conn: Connectivity,
    net_load: Vec<f64>,
    syms: Arc<SymbolTable>,
}

impl<'a> SubsetContext<'a> {
    /// Prepares subset building for `module`, which must contain library
    /// cells only (instances are allowed but get arcs solely through
    /// [`GraphOptions::instance_arcs`]).
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells or a malformed netlist.
    pub fn new(module: &'a Module, lib: &Library) -> Result<Self, StaError> {
        check_lib_cells(module, lib)?;
        let conn = module.connectivity(lib).map_err(|e| StaError::BadNetlist {
            message: e.to_string(),
        })?;
        let net_load = net_loads(module, lib)?;
        Ok(SubsetContext {
            module,
            conn,
            net_load,
            syms: Arc::new(module.symbols().clone()),
        })
    }

    /// The module this context was prepared for.
    pub fn module(&self) -> &'a Module {
        self.module
    }
}

/// A pin-level timing graph for one module.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) out: Vec<Vec<EdgeId>>,
    pin_nodes: HashMap<(CellId, u32), NodeId>,
    port_nodes: HashMap<PortId, NodeId>,
    /// The module's symbol table, shared (one per [`TimingGraph::build`],
    /// one per [`SubsetContext`] for every subset graph built from it):
    /// node names and the string-facing `find_pin` API resolve through it.
    pub(crate) syms: Arc<SymbolTable>,
    cell_ids: HashMap<Symbol, CellId>,
    /// First pin index carrying each pin-name symbol on a cell.
    pin_ids: HashMap<(CellId, Symbol), u32>,
}

impl TimingGraph {
    /// Builds the timing graph of a standalone module (no submodule
    /// instances, unless they are covered by
    /// [`GraphOptions::instance_arcs`]).
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells/pins or a malformed netlist.
    pub fn build(module: &Module, lib: &Library, opts: &GraphOptions) -> Result<Self, StaError> {
        let mut design = Design::new();
        design.insert(module.clone());
        let top = design.top();
        Self::build_in_design(&design, top, lib, opts)
    }

    /// Builds the timing graph of `design.module(id)`, resolving instance
    /// pin directions through the design's module ports.
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells/pins or a malformed netlist.
    pub fn build_in_design(
        design: &Design,
        id: drd_netlist::ModuleId,
        lib: &Library,
        opts: &GraphOptions,
    ) -> Result<Self, StaError> {
        let module = design.module(id);
        // Verify library references up-front so unknown cells are reported
        // as such rather than as connectivity failures.
        check_lib_cells(module, lib)?;
        let dirs = design.pin_dirs(lib);
        let conn = module
            .connectivity(&dirs)
            .map_err(|e| StaError::BadNetlist {
                message: e.to_string(),
            })?;

        let mut g = TimingGraph::empty(Arc::new(module.symbols().clone()));
        let net_load = net_loads(module, lib)?;

        // Nodes for ports.
        for (pid, port) in module.ports() {
            g.push_port_node(pid, module.port_sym(pid), port.dir);
        }

        // Nodes for cell pins + intra-cell arcs (arc pin names resolved
        // once per distinct cell kind).
        let mut kinds: HashMap<Symbol, KindArcs> = HashMap::new();
        for (cid, cell) in module.cells() {
            g.push_cell_nodes(cid, cell);
            match cell.kind {
                CellKind::Lib(kind) => {
                    let ka = kind_arcs(&mut kinds, module, lib, opts, kind)?;
                    g.add_kind_arcs(module, cid, ka, &net_load);
                }
                CellKind::Instance(kind) => {
                    g.add_instance_arcs(module, cid, kind, opts);
                }
            }
        }

        // Net edges: driver → each load.
        for (nid, _net) in module.nets() {
            let Some(driver) = conn.driver(nid) else { continue };
            let Some(from) = g.endpoint_node(driver) else { continue };
            for load in conn.loads(nid) {
                if let Some(to) = g.endpoint_node(*load) {
                    g.push_edge(from, to, opts.wire_delay, EdgeKind::Net);
                }
            }
        }
        Ok(g)
    }

    /// Builds the timing graph restricted to `cells` (all module ports are
    /// kept). Shared read-only preparation — connectivity and net load
    /// capacitances — comes from `cx`, so many subset graphs of the same
    /// module can be built concurrently without re-deriving O(design)
    /// state per call.
    ///
    /// Net loads are taken from the **full** module, so arc delays match
    /// [`TimingGraph::build`] exactly. Arrival times at the subset's
    /// endpoints equal the full-graph arrivals whenever every path into
    /// them stays inside `cells` — which holds for desynchronization
    /// regions: clouds of different regions are disjoint, and with the
    /// default [`GraphOptions`] sequential outputs and ports are zero-
    /// arrival sources either way.
    ///
    /// # Errors
    /// Returns [`StaError`] for unknown cells or pins.
    pub fn build_subset(
        cx: &SubsetContext<'_>,
        lib: &Library,
        opts: &GraphOptions,
        cells: &[CellId],
    ) -> Result<Self, StaError> {
        let module = cx.module;
        let mut g = TimingGraph::empty(Arc::clone(&cx.syms));

        // Nodes for ports (zero-arrival sources / output endpoints).
        for (pid, port) in module.ports() {
            g.push_port_node(pid, module.port_sym(pid), port.dir);
        }

        // Nodes and arcs for the subset cells only.
        let mut kinds: HashMap<Symbol, KindArcs> = HashMap::new();
        for &cid in cells {
            let cell = module.cell(cid);
            g.push_cell_nodes(cid, cell);
            match cell.kind {
                CellKind::Lib(kind) => {
                    let ka = kind_arcs(&mut kinds, module, lib, opts, kind)?;
                    g.add_kind_arcs(module, cid, ka, &cx.net_load);
                }
                CellKind::Instance(kind) => {
                    g.add_instance_arcs(module, cid, kind, opts);
                }
            }
        }

        // Net edges over the nets touched by the subset (plus port nets),
        // visited in net-id order for a deterministic edge list.
        let mut touched: Vec<NetId> = Vec::new();
        for (_, port) in module.ports() {
            touched.push(port.net);
        }
        for &cid in cells {
            for &(_, c) in module.cell_pins(cid) {
                if let Conn::Net(n) = c {
                    touched.push(n);
                }
            }
        }
        touched.sort_unstable_by_key(|n| n.index());
        touched.dedup();
        for nid in touched {
            let Some(driver) = cx.conn.driver(nid) else { continue };
            let Some(from) = g.endpoint_node(driver) else { continue };
            for load in cx.conn.loads(nid) {
                if let Some(to) = g.endpoint_node(*load) {
                    g.push_edge(from, to, opts.wire_delay, EdgeKind::Net);
                }
            }
        }
        Ok(g)
    }

    fn empty(syms: Arc<SymbolTable>) -> Self {
        TimingGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            pin_nodes: HashMap::new(),
            port_nodes: HashMap::new(),
            syms,
            cell_ids: HashMap::new(),
            pin_ids: HashMap::new(),
        }
    }

    fn push_port_node(&mut self, pid: PortId, name: Symbol, dir: PortDir) {
        let node = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Port(pid),
            label: Label {
                owner: name,
                pin: None,
            },
            disabled: false,
            endpoint: dir != PortDir::Input,
        });
        self.port_nodes.insert(pid, node);
    }

    /// Creates nodes for every net-connected pin of `cell`.
    fn push_cell_nodes(&mut self, cid: CellId, cell: drd_netlist::Cell<'_>) {
        self.cell_ids.insert(cell.name_sym(), cid);
        for (idx, &(pin, c)) in cell.pins().iter().enumerate() {
            if c.net().is_none() {
                continue;
            }
            let node = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                kind: NodeKind::Pin {
                    cell: cid,
                    pin: idx as u32,
                },
                label: Label {
                    owner: cell.name_sym(),
                    pin: Some(pin),
                },
                disabled: false,
                endpoint: false,
            });
            self.pin_nodes.insert((cid, idx as u32), node);
            self.pin_ids.entry((cid, pin)).or_insert(idx as u32);
        }
    }

    /// Replays a kind's prepared arcs onto one instance and marks its
    /// sequential data inputs as endpoints.
    fn add_kind_arcs(&mut self, module: &Module, cid: CellId, ka: &KindArcs, net_load: &[f64]) {
        for &(from_sym, to_sym, intrinsic, res) in &ka.arcs {
            let (Some(&fi), Some(&ti)) = (
                self.pin_ids.get(&(cid, from_sym)),
                self.pin_ids.get(&(cid, to_sym)),
            ) else {
                continue;
            };
            let from = self.pin_nodes[&(cid, fi)];
            let to = self.pin_nodes[&(cid, ti)];
            // Load-dependent delay on the output pin.
            let load = module.cell_pins(cid)[ti as usize]
                .1
                .net()
                .map(|n| net_load[n.index()])
                .unwrap_or(0.0);
            self.push_edge(from, to, intrinsic + res * load, EdgeKind::CellArc);
        }
        for &s in &ka.endpoints {
            if let Some(&pi) = self.pin_ids.get(&(cid, s)) {
                let node = self.pin_nodes[&(cid, pi)];
                self.nodes[node.0 as usize].endpoint = true;
            }
        }
    }

    /// Adds black-box arcs of a module instance from
    /// [`GraphOptions::instance_arcs`]. Without arcs the instance is an
    /// opaque boundary: its inputs are endpoints, its outputs sources.
    fn add_instance_arcs(&mut self, module: &Module, cid: CellId, kind: Symbol, opts: &GraphOptions) {
        let Some(arcs) = opts.instance_arcs.get(module.resolve(kind)) else {
            return;
        };
        for (from, to, delay) in arcs {
            let (Some(f), Some(t)) = (self.pin_node(cid, from), self.pin_node(cid, to)) else {
                continue;
            };
            self.push_edge(f, t, *delay, EdgeKind::CellArc);
        }
    }

    /// Resolves `cid`'s pin by name through the interned symbol table.
    fn pin_node(&self, cid: CellId, pin: &str) -> Option<NodeId> {
        let pi = *self.pin_ids.get(&(cid, self.syms.lookup(pin)?))?;
        self.pin_nodes.get(&(cid, pi)).copied()
    }

    fn endpoint_node(&self, e: Endpoint) -> Option<NodeId> {
        match e {
            Endpoint::Pin(p) => self.pin_nodes.get(&(p.cell, p.pin)).copied(),
            Endpoint::Port(p) => self.port_nodes.get(&p).copied(),
        }
    }

    fn push_edge(&mut self, from: NodeId, to: NodeId, delay: f64, kind: EdgeKind) {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from,
            to,
            delay,
            kind,
            disabled: false,
        });
        if self.out.len() < self.nodes.len() {
            self.out.resize(self.nodes.len(), Vec::new());
        }
        self.out[from.0 as usize].push(id);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (including disabled ones).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Pretty name of a node (`instance/pin` or port name), built on
    /// demand from the interned names.
    pub fn node_name(&self, node: NodeId) -> String {
        self.nodes[node.0 as usize].label.render(&self.syms)
    }

    /// Kind of a node.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0 as usize].kind
    }

    /// Finds the node of `instance/pin`.
    pub fn find_pin(&self, cell: &str, pin: &str) -> Option<NodeId> {
        let cid = *self.cell_ids.get(&self.syms.lookup(cell)?)?;
        self.pin_node(cid, pin)
    }

    /// Disables timing through `instance/pin` (the paper's
    /// `set_disable_timing`, Fig. 4.5c). All arcs entering or leaving the
    /// pin are cut. Returns false if the pin does not exist.
    pub fn disable_pin(&mut self, cell: &str, pin: &str) -> bool {
        let Some(node) = self.find_pin(cell, pin) else {
            return false;
        };
        self.nodes[node.0 as usize].disabled = true;
        for e in self.edges.iter_mut() {
            if e.from == node || e.to == node {
                e.disabled = true;
            }
        }
        true
    }

    /// Iterates over edges as `(from, to, delay, kind, disabled)`.
    pub fn edge_list(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, EdgeKind, bool)> + '_ {
        self.edges
            .iter()
            .map(|e| (e.from, e.to, e.delay, e.kind, e.disabled))
    }

    /// Iterates over the ids of all timing endpoints.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.endpoint)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Active (non-disabled) outgoing edges of `node`.
    pub(crate) fn active_out(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.out
            .get(node.0 as usize)
            .into_iter()
            .flatten()
            .map(|&eid| (eid, &self.edges[eid.0 as usize]))
            .filter(|(_, e)| !e.disabled)
    }
}

/// Fetches (building on first use) the prepared arcs of `kind`.
fn kind_arcs<'a>(
    kinds: &'a mut HashMap<Symbol, KindArcs>,
    module: &Module,
    lib: &Library,
    opts: &GraphOptions,
    kind: Symbol,
) -> Result<&'a KindArcs, StaError> {
    Ok(match kinds.entry(kind) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let lc = lib.cell(module.resolve(kind)).ok_or_else(|| StaError::UnknownCell {
                name: module.resolve(kind).to_owned(),
            })?;
            e.insert(prepare_kind(module, lc, opts))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;

    fn chain_module() -> Module {
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        let a = m.find_net("a").unwrap();
        let clk = m.find_net("clk").unwrap();
        let z = m.find_net("z").unwrap();
        let n1 = m.add_net("n1").unwrap();
        let n2 = m.add_net("n2").unwrap();
        m.add_cell("u1", "INVX1", &[("A", Conn::Net(a)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[("D", Conn::Net(n1)), ("CK", Conn::Net(clk)), ("Q", Conn::Net(n2))],
        )
        .unwrap();
        m.add_cell("u2", "INVX1", &[("A", Conn::Net(n2)), ("Z", Conn::Net(z))])
            .unwrap();
        m
    }

    #[test]
    fn graph_has_expected_shape() {
        let lib = vlib90::high_speed();
        let g = TimingGraph::build(&chain_module(), &lib, &GraphOptions::default()).unwrap();
        // Ports a, clk, z + pins u1/A u1/Z r1/D r1/CK r1/Q u2/A u2/Z.
        assert_eq!(g.node_count(), 10);
        // Arcs: u1 A→Z, u2 A→Z (no clock→Q by default).
        let arc_count = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::CellArc)
            .count();
        assert_eq!(arc_count, 2);
        // r1/D is an endpoint; z port is an endpoint.
        let endpoint_names: Vec<String> = g.endpoints().map(|n| g.node_name(n)).collect();
        assert!(endpoint_names.iter().any(|n| n == "r1/D"));
        assert!(endpoint_names.iter().any(|n| n == "z"));
        assert!(!endpoint_names.iter().any(|n| n == "r1/CK"));
    }

    #[test]
    fn clock_to_q_arcs_are_optional() {
        let lib = vlib90::high_speed();
        let opts = GraphOptions {
            include_clock_to_q: true,
            ..GraphOptions::default()
        };
        let g = TimingGraph::build(&chain_module(), &lib, &opts).unwrap();
        let arc_count = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::CellArc)
            .count();
        assert_eq!(arc_count, 3); // + CK→Q
    }

    #[test]
    fn disable_pin_cuts_edges() {
        let lib = vlib90::high_speed();
        let mut g = TimingGraph::build(&chain_module(), &lib, &GraphOptions::default()).unwrap();
        assert!(g.disable_pin("u1", "Z"));
        assert!(!g.disable_pin("u1", "nope"));
        assert!(!g.disable_pin("missing", "Z"));
        let disabled = g.edges.iter().filter(|e| e.disabled).count();
        assert!(disabled >= 2); // the A→Z arc and the net edge to r1/D
    }

    /// Subset graphs resolve names through the shared context's symbol
    /// table; every string-facing answer must match the full graph's.
    #[test]
    fn subset_graph_names_match_full_graph() {
        use drd_liberty::Corner;
        let lib = vlib90::high_speed();
        // a → u0 → u1 → u2 → r1/D, then r1/Q → u9 → z.
        let mut m = Module::new("t");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("clk", PortDir::Input).unwrap();
        m.add_port("z", PortDir::Output).unwrap();
        let clk = m.find_net("clk").unwrap();
        let mut prev = m.find_net("a").unwrap();
        for i in 0..3 {
            let next = m.add_net(format!("n{i}")).unwrap();
            m.add_cell(
                format!("u{i}"),
                "INVX1",
                &[("A", Conn::Net(prev)), ("Z", Conn::Net(next))],
            )
            .unwrap();
            prev = next;
        }
        let q = m.add_net("q").unwrap();
        m.add_cell(
            "r1",
            "DFFX1",
            &[
                ("D", Conn::Net(prev)),
                ("CK", Conn::Net(clk)),
                ("Q", Conn::Net(q)),
            ],
        )
        .unwrap();
        let z = m.find_net("z").unwrap();
        m.add_cell("u9", "INVX1", &[("A", Conn::Net(q)), ("Z", Conn::Net(z))])
            .unwrap();

        let opts = GraphOptions::default();
        let mut full = TimingGraph::build(&m, &lib, &opts).unwrap();
        let cx = SubsetContext::new(&m, &lib).unwrap();
        let members: Vec<CellId> = ["u0", "u1", "u2", "r1"]
            .iter()
            .map(|n| m.find_cell(n).unwrap())
            .collect();
        let mut sub = TimingGraph::build_subset(&cx, &lib, &opts, &members).unwrap();

        for cell in ["u0", "u1", "u2", "r1"] {
            for pin in ["A", "Z", "D", "CK", "Q", "nope"] {
                let (f, s) = (full.find_pin(cell, pin), sub.find_pin(cell, pin));
                assert_eq!(f.is_some(), s.is_some(), "{cell}/{pin}");
                if let (Some(f), Some(s)) = (f, s) {
                    assert_eq!(full.node_name(f), format!("{cell}/{pin}"));
                    assert_eq!(full.node_name(f), sub.node_name(s));
                }
            }
        }
        assert!(
            sub.find_pin("u9", "A").is_none(),
            "u9 is outside the subset"
        );
        for port in 0..3 {
            let pid = PortId::from_index(port);
            let (f, s) = (full.port_nodes[&pid], sub.port_nodes[&pid]);
            assert_eq!(full.node_name(f), sub.node_name(s));
        }

        let path = |g: &TimingGraph| -> Vec<(String, u64)> {
            g.arrivals(Corner::typical())
                .unwrap()
                .critical_path()
                .into_iter()
                .map(|s| (s.node, s.arrival.to_bits()))
                .collect()
        };
        let full_path = path(&full);
        assert_eq!(full_path.last().unwrap().0, "r1/D");
        assert_eq!(full_path, path(&sub));

        for (cell, pin) in [("u1", "Z"), ("u1", "nope"), ("ghost", "Z")] {
            assert_eq!(full.disable_pin(cell, pin), sub.disable_pin(cell, pin));
        }
        // After the cut the z path may be worst in the full graph, so
        // compare the traceback to r1/D directly.
        let to_d = |g: &TimingGraph| -> Vec<(String, u64)> {
            let node = g.find_pin("r1", "D").unwrap();
            g.arrivals(Corner::typical())
                .unwrap()
                .path_to(node)
                .into_iter()
                .map(|s| (s.node, s.arrival.to_bits()))
                .collect()
        };
        let full_path = to_d(&full);
        assert_eq!(full_path.first().unwrap().0, "u2/A", "cut at u1/Z");
        assert_eq!(full_path, to_d(&sub));
    }

    #[test]
    fn unknown_cell_is_an_error() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("t");
        let n = m.add_net("n").unwrap();
        m.add_cell("u", "NOT_A_CELL", &[("A", Conn::Net(n))]).unwrap();
        match TimingGraph::build(&m, &lib, &GraphOptions::default()) {
            Err(StaError::UnknownCell { name }) => assert_eq!(name, "NOT_A_CELL"),
            other => panic!("expected UnknownCell, got {other:?}"),
        }
    }
}
