//! Per-port metric accumulators (DESIGN §10).
//!
//! With [`Engine::set_metrics`](crate::Engine::set_metrics) on, every switch
//! enqueue observes the egress queue depth and every PFC pause episode its
//! duration. Both are keyed by port, and the engine already has a dense
//! port index, so an observation is an indexed add into that port's
//! [`Hist`]; the `port_queue_bytes/n{n}/p{p}`-style names are formatted
//! once per observed port, in [`PortMetrics::publish`] at collect. A port
//! that is never observed never gets a histogram, so the exported key set
//! is what by-name `Registry::observe` calls on the hot path would have
//! produced.

use telemetry::{Hist, Registry};

/// A port's histogram, allocated at its first observation.
type Slot = Option<Box<Hist>>;

/// Queue-depth and pause-duration histograms on the port-table index.
pub(crate) struct PortMetrics {
    queue: Vec<Slot>,
    /// Empty until the first pause episode ends, like the engine's pause
    /// accounting: a lossy fabric never pays for it.
    pause: Vec<Slot>,
}

impl PortMetrics {
    /// Accumulators for a port table of `n_ports` entries.
    pub(crate) fn new(n_ports: usize) -> PortMetrics {
        PortMetrics {
            queue: vec![None; n_ports],
            pause: Vec::new(),
        }
    }

    /// Port indices this accumulator accepts (the engine's port-table
    /// length; `Engine::check_port_table` asserts they agree).
    pub(crate) fn port_count(&self) -> usize {
        self.queue.len()
    }

    /// A packet was admitted to the egress queue of port `idx`, which now
    /// holds `qlen` bytes. Kept out of line so that the engine's hop code
    /// carries one test and one call for it, observed or not.
    #[inline(never)]
    pub(crate) fn on_enqueue(&mut self, idx: usize, qlen: u64) {
        self.queue[idx]
            .get_or_insert_with(Box::default)
            .observe(qlen);
    }

    /// A PFC pause episode on port `idx` lasted `ns` (an episode cut short
    /// by the end of the run counts with its duration so far).
    pub(crate) fn on_pause_end(&mut self, idx: usize, ns: u64) {
        if self.pause.is_empty() {
            self.pause = vec![None; self.queue.len()];
        }
        self.pause[idx].get_or_insert_with(Box::default).observe(ns);
    }

    /// Publishes every observed port under its `n{node}/p{port}` name.
    /// `port_base` maps a node to its first port index (one entry past the
    /// last node), so names are those of the engine's `(node, port)` pairs.
    /// The queue watermark gauge is the histogram's own maximum: the two
    /// were always fed the same samples.
    pub(crate) fn publish(self, port_base: &[u32], reg: &mut Registry) {
        let mut queue = self.queue.into_iter();
        let mut pause = self.pause.into_iter();
        for (n, w) in port_base.windows(2).enumerate() {
            for p in 0..w[1] - w[0] {
                if let Some(h) = queue.next().flatten() {
                    reg.merge_hist(&format!("port_queue_bytes/n{n}/p{p}"), &h);
                    reg.gauge_max(&format!("port_queue_max/n{n}/p{p}"), h.max());
                }
                if let Some(h) = pause.next().flatten() {
                    reg.merge_hist(&format!("pfc_pause_ns/n{n}/p{p}"), &h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_only_observed_ports_under_their_node_port_names() {
        // Two nodes: node 0 has ports 0..2 (indices 0, 1), node 1 has
        // ports 0..3 (indices 2, 3, 4).
        let port_base = [0u32, 2, 5];
        let mut m = PortMetrics::new(5);
        assert_eq!(m.port_count(), 5);
        m.on_enqueue(1, 3000);
        m.on_enqueue(1, 1500);
        m.on_enqueue(4, 0);
        m.on_pause_end(2, 7_000);
        let mut reg = Registry::new();
        m.publish(&port_base, &mut reg);

        let hists: Vec<&str> = reg.hists().map(|(k, _)| k).collect();
        assert_eq!(
            hists,
            [
                "pfc_pause_ns/n1/p0",
                "port_queue_bytes/n0/p1",
                "port_queue_bytes/n1/p2"
            ]
        );
        let gauges: Vec<(&str, u64)> = reg.gauges().collect();
        assert_eq!(
            gauges,
            [("port_queue_max/n0/p1", 3000), ("port_queue_max/n1/p2", 0)]
        );

        // Same bytes as observing by name.
        let mut by_name = Registry::new();
        for (port, qlen) in [("n0/p1", 3000), ("n0/p1", 1500), ("n1/p2", 0)] {
            by_name.observe(&format!("port_queue_bytes/{port}"), qlen);
            by_name.gauge_max(&format!("port_queue_max/{port}"), qlen);
        }
        by_name.observe("pfc_pause_ns/n1/p0", 7_000);
        assert_eq!(reg.to_json(), by_name.to_json());
    }

    #[test]
    fn unobserved_accumulator_publishes_nothing() {
        let mut reg = Registry::new();
        PortMetrics::new(4).publish(&[0, 4], &mut reg);
        assert!(reg.is_empty());
    }
}
