//! Arrival-time propagation and critical-path extraction.

use std::sync::Arc;

use drd_liberty::Corner;
use drd_netlist::SymbolTable;

use crate::graph::{Label, NodeId, TimingGraph};
use crate::StaError;

/// One step of a reported timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The node (`instance/pin` or port name).
    pub node: String,
    /// Arrival time at this node (ns, derated to the analysis corner).
    pub arrival: f64,
}

/// Max-arrival times for every node of a graph, at one corner.
#[derive(Debug, Clone)]
pub struct Arrivals {
    arrivals: Vec<f64>,
    /// Predecessor edge on the worst path, for traceback.
    worst_pred: Vec<Option<NodeId>>,
    /// Interned node names, rendered only along reported paths.
    labels: Vec<Label>,
    syms: Arc<SymbolTable>,
    endpoints: Vec<NodeId>,
}

impl Arrivals {
    /// Arrival time at `node`.
    pub fn at(&self, node: NodeId) -> f64 {
        self.arrivals[node.0 as usize]
    }

    /// The largest arrival anywhere in the graph.
    pub fn max_arrival(&self) -> f64 {
        self.arrivals.iter().copied().fold(0.0, f64::max)
    }

    /// The largest arrival over timing endpoints (sequential data inputs
    /// and output ports) — the number that sizes a region's delay element.
    pub fn max_endpoint_arrival(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&n| self.arrivals[n.0 as usize])
            .fold(0.0, f64::max)
    }

    /// The worst endpoint and its arrival, if any endpoint exists.
    pub fn worst_endpoint(&self) -> Option<(NodeId, f64)> {
        self.endpoints
            .iter()
            .map(|&n| (n, self.arrivals[n.0 as usize]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Reconstructs the critical path ending at `node` (source first).
    pub fn path_to(&self, node: NodeId) -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            steps.push(PathStep {
                node: self.labels[n.0 as usize].render(&self.syms),
                arrival: self.arrivals[n.0 as usize],
            });
            cur = self.worst_pred[n.0 as usize];
        }
        steps.reverse();
        steps
    }

    /// The critical path to the worst endpoint (empty if no endpoints).
    pub fn critical_path(&self) -> Vec<PathStep> {
        match self.worst_endpoint() {
            Some((node, _)) => self.path_to(node),
            None => Vec::new(),
        }
    }
}

impl TimingGraph {
    /// Propagates max-arrival times through the active edges at `corner`.
    ///
    /// Sources (nodes with no active incoming edges) start at 0.
    ///
    /// # Errors
    /// Returns [`StaError::Cycle`] if an unbroken cycle remains; call
    /// [`TimingGraph::break_loops`] or [`TimingGraph::disable_pin`] first.
    pub fn arrivals(&self, corner: Corner) -> Result<Arrivals, StaError> {
        self.arrivals_with(corner, 1)
    }

    /// [`TimingGraph::arrivals`] with an explicit worker count, propagating
    /// levelized wavefronts: a serial Kahn pass assigns each node its
    /// topological level, then every node of a level is relaxed from its
    /// incoming edges — independent work, fanned out across `workers` when
    /// the wavefront is wide enough. Each node scans its in-edges in
    /// edge-id order with a strict-max first-wins tie-break, so arrivals
    /// *and* worst-predecessor choices are identical for every worker
    /// count (the old stack-driven propagation broke arrival ties by
    /// visit order).
    ///
    /// # Errors
    /// As [`TimingGraph::arrivals`].
    pub fn arrivals_with(&self, corner: Corner, workers: usize) -> Result<Arrivals, StaError> {
        let n = self.node_count();
        let mut indegree = vec![0usize; n];
        for e in self.edges.iter().filter(|e| !e.disabled) {
            indegree[e.to.0 as usize] += 1;
        }
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            if !e.disabled {
                incoming[e.to.0 as usize].push(i as u32);
            }
        }

        // Serial levelization.
        let mut remaining = indegree;
        let mut frontier: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut levels: Vec<Vec<usize>> = Vec::new();
        let mut seen = 0usize;
        while !frontier.is_empty() {
            seen += frontier.len();
            let mut next = Vec::new();
            for &i in &frontier {
                for (_, e) in self.active_out(NodeId(i as u32)) {
                    let t = e.to.0 as usize;
                    remaining[t] -= 1;
                    if remaining[t] == 0 {
                        next.push(t);
                    }
                }
            }
            levels.push(frontier);
            frontier = next;
        }
        if seen != n {
            let through = (0..n)
                .find(|&i| remaining[i] > 0)
                .map(|i| self.node_name(NodeId(i as u32)))
                .unwrap_or_default();
            return Err(StaError::Cycle { through });
        }

        // Wavefront relaxation: each node depends only on lower levels.
        let mut arrivals = vec![0.0f64; n];
        let mut worst_pred: Vec<Option<NodeId>> = vec![None; n];
        let relax = |arr: &[f64], node: usize| -> (f64, Option<NodeId>) {
            let mut best = 0.0f64;
            let mut pred = None;
            for &eid in &incoming[node] {
                let e = &self.edges[eid as usize];
                let cand = arr[e.from.0 as usize] + corner.delay(e.delay);
                if pred.is_none() || cand > best {
                    best = cand;
                    pred = Some(e.from);
                }
            }
            (best, pred)
        };
        // Narrow wavefronts are not worth the fan-out overhead.
        const PAR_MIN_WIDTH: usize = 64;
        for level in &levels {
            if workers > 1 && level.len() >= PAR_MIN_WIDTH {
                let relaxed =
                    drd_runner::run_indexed(level.len(), workers, |k| relax(&arrivals, level[k]));
                for (k, (a, p)) in relaxed.into_iter().enumerate() {
                    arrivals[level[k]] = a;
                    worst_pred[level[k]] = p;
                }
            } else {
                for &node in level {
                    let (a, p) = relax(&arrivals, node);
                    arrivals[node] = a;
                    worst_pred[node] = p;
                }
            }
        }
        Ok(Arrivals {
            arrivals,
            worst_pred,
            labels: self.nodes.iter().map(|nd| nd.label).collect(),
            syms: Arc::clone(&self.syms),
            endpoints: self.endpoints().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphOptions;
    use drd_liberty::vlib90;
    use drd_netlist::{Conn, Module, PortDir};

    /// a → INV → INV → … (depth) → r1/D
    fn inv_chain(depth: usize) -> Module {
        let mut m = Module::new("chain");
        m.add_port("a", PortDir::Input).unwrap();
        m.add_port("clk", PortDir::Input).unwrap();
        let clk = m.find_net("clk").unwrap();
        let mut prev = m.find_net("a").unwrap();
        for i in 0..depth {
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
            &[("D", Conn::Net(prev)), ("CK", Conn::Net(clk)), ("Q", Conn::Net(q))],
        )
        .unwrap();
        m
    }

    #[test]
    fn arrival_grows_with_depth() {
        let lib = vlib90::high_speed();
        let g4 = TimingGraph::build(&inv_chain(4), &lib, &GraphOptions::default()).unwrap();
        let g8 = TimingGraph::build(&inv_chain(8), &lib, &GraphOptions::default()).unwrap();
        let a4 = g4.arrivals(Corner::typical()).unwrap();
        let a8 = g8.arrivals(Corner::typical()).unwrap();
        assert!(a8.max_endpoint_arrival() > 1.9 * a4.max_endpoint_arrival());
    }

    #[test]
    fn corner_derating_scales_arrivals() {
        let lib = vlib90::high_speed();
        let g = TimingGraph::build(&inv_chain(6), &lib, &GraphOptions::default()).unwrap();
        let typical = g.arrivals(Corner::typical()).unwrap().max_endpoint_arrival();
        let worst = g.arrivals(Corner::worst()).unwrap().max_endpoint_arrival();
        let best = g.arrivals(Corner::best()).unwrap().max_endpoint_arrival();
        assert!((worst / typical - Corner::worst().delay_factor).abs() < 1e-9);
        assert!((best / typical - Corner::best().delay_factor).abs() < 1e-9);
    }

    #[test]
    fn critical_path_traceback() {
        let lib = vlib90::high_speed();
        let g = TimingGraph::build(&inv_chain(3), &lib, &GraphOptions::default()).unwrap();
        let arr = g.arrivals(Corner::typical()).unwrap();
        let path = arr.critical_path();
        // a → u0/A → u0/Z → u1/A → u1/Z → u2/A → u2/Z → r1/D
        assert_eq!(path.first().unwrap().node, "a");
        assert_eq!(path.last().unwrap().node, "r1/D");
        assert_eq!(path.len(), 8);
        // Arrivals are monotone along the path.
        for w in path.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn cycle_reported_as_error() {
        let lib = vlib90::high_speed();
        let mut m = Module::new("r");
        let n0 = m.add_net("n0").unwrap();
        let n1 = m.add_net("n1").unwrap();
        m.add_cell("i0", "INVX1", &[("A", Conn::Net(n0)), ("Z", Conn::Net(n1))])
            .unwrap();
        m.add_cell("i1", "INVX1", &[("A", Conn::Net(n1)), ("Z", Conn::Net(n0))])
            .unwrap();
        let g = TimingGraph::build(&m, &lib, &GraphOptions::default()).unwrap();
        assert!(matches!(
            g.arrivals(Corner::typical()),
            Err(StaError::Cycle { .. })
        ));
    }

    #[test]
    fn parallel_wavefronts_match_serial_exactly() {
        // Same arrivals AND same worst-predecessor choices for any worker
        // count, across a batch of fuzzed netlists (wide enough to cross
        // the parallel wavefront threshold).
        let lib = vlib90::high_speed();
        let mut rng = drd_check::Rng::new(0xA11_D0CF);
        for case in 0..8 {
            let params = drd_check::netgen::NetGenParams {
                max_stages: 4,
                max_width: 6,
                max_cloud: 40,
                ..drd_check::netgen::NetGenParams::default()
            };
            let recipe = drd_check::netgen::NetRecipe::sample(&mut rng, &params);
            let m = recipe.build().unwrap();
            let g = TimingGraph::build(&m, &lib, &GraphOptions::default()).unwrap();
            let serial = g.arrivals(Corner::typical()).unwrap();
            for workers in [2usize, 3, 8] {
                let par = g.arrivals_with(Corner::typical(), workers).unwrap();
                for i in 0..g.node_count() {
                    let node = NodeId(i as u32);
                    assert_eq!(
                        serial.at(node).to_bits(),
                        par.at(node).to_bits(),
                        "case {case}, {workers} workers, node {}",
                        g.node_name(node)
                    );
                    assert_eq!(
                        serial.worst_pred[i], par.worst_pred[i],
                        "case {case}, {workers} workers, node {}",
                        g.node_name(node)
                    );
                }
            }
        }
    }

    #[test]
    fn wire_delay_adds_per_net_edge() {
        let lib = vlib90::high_speed();
        let base = TimingGraph::build(&inv_chain(4), &lib, &GraphOptions::default())
            .unwrap()
            .arrivals(Corner::typical())
            .unwrap()
            .max_endpoint_arrival();
        let opts = GraphOptions {
            wire_delay: 0.01,
            ..GraphOptions::default()
        };
        let wired = TimingGraph::build(&inv_chain(4), &lib, &opts)
            .unwrap()
            .arrivals(Corner::typical())
            .unwrap()
            .max_endpoint_arrival();
        // 5 net hops on the critical path (a→u0, u0→u1, …, u3→r1).
        assert!((wired - base - 0.05).abs() < 1e-9);
    }
}
