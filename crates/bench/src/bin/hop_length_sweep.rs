//! Extension experiment: the hop-count vs link-rate tradeoff the paper
//! inherits from its reference \[1\] (Zhai & Fang, ICNP'06). For a fixed
//! end-to-end distance, fewer hops mean longer, slower links; more hops mean
//! faster links but more self-interference. The Eq. 6 LP scores every
//! configuration exactly.

#![forbid(unsafe_code)]

use awb_core::path_capacity;
use awb_phy::{Phy, Rate};
use awb_workloads::chain_model;

fn main() {
    let phy = Phy::paper_default();
    println!("End-to-end capacity of an evenly spaced chain (Eq. 6, no background)\n");
    for &total in &[150.0f64, 280.0, 420.0, 560.0] {
        println!("total distance {total} m:");
        let mut best: Option<(usize, f64)> = None;
        for hops in 1..=8usize {
            let hop_len = total / hops as f64;
            if hop_len > phy.max_range() {
                println!("  {hops} hop(s) @ {hop_len:.0} m: out of decode range");
                continue;
            }
            let (model, path) = chain_model(hops, hop_len, phy.clone());
            let alone = model
                .max_rate_in_set(path.links()[0], &[path.links()[0]])
                .map_or(0.0, Rate::as_mbps);
            let capacity = path_capacity(&model, &path)
                .expect("chains are feasible")
                .bandwidth_mbps();
            println!(
                "  {hops} hop(s) @ {hop_len:.0} m ({alone:.0} Mbps links): {capacity:.3} Mbps end-to-end"
            );
            if best.is_none_or(|(_, b)| capacity > b) {
                best = Some((hops, capacity));
            }
        }
        if let Some((hops, capacity)) = best {
            println!("  -> best: {hops} hop(s), {capacity:.3} Mbps\n");
        }
    }
    println!(
        "Neither extreme wins everywhere: the optimum moves with distance, which is\n\
         why rate-aware routing metrics (e2eTD, average-e2eD) beat hop count."
    );
}
