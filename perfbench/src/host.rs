//! Host-speed probe.
//!
//! A shared host runs the same code faster or slower by 10-35% from one
//! minute to the next, which moves every timing of a run together. So
//! each set-up batch also times two calls of a fixed piece of the
//! benchmark's own work, and the end-to-end times are scaled by how much
//! slower or faster than a reference that work ran over the same run.
//! No change to the program can move the probe. It is graph work like
//! the flow's (allocation, adjacency lists, a topological sweep, a map
//! keyed by node) and fits in cache, as the serve and simulate jobs do.

/// Probe time (ns) that defines the reference host speed: about the
/// median probe time on the shared 2-core host the benchmark was written
/// on.
pub const REFERENCE_NS: f64 = 1.5e6;

/// One probe call: a seeded 4,000-node DAG of 12,000 edges, built, swept
/// in topological order and tallied in a map. Same work every call.
pub fn probe() -> u64 {
    const NODES: usize = 4000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    for i in 1..NODES {
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            adj[(x % i as u64) as usize].push(i as u32);
        }
    }
    let mut indeg = vec![0u32; NODES];
    for b in adj.iter().flatten() {
        indeg[*b as usize] += 1;
    }
    let mut ready: Vec<u32> = (0..NODES as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut tally: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut acc = 0u64;
    while let Some(v) = ready.pop() {
        for &b in &adj[v as usize] {
            indeg[b as usize] -= 1;
            if indeg[b as usize] == 0 {
                ready.push(b);
            }
            *tally.entry(b).or_insert(0) += v;
        }
        acc = acc.wrapping_add(u64::from(v));
    }
    (0..NODES as u32).fold(acc, |a, i| {
        a.wrapping_add(u64::from(tally.get(&i).copied().unwrap_or(0)))
    })
}
