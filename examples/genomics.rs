//! Genomics motif search: approximate matching of DNA motifs with a
//! Hamming-distance mesh, and the capacity/throughput trade-off of
//! Sunder's reconfigurable processing rate on small-alphabet data.
//!
//! Run with: `cargo run --release --example genomics`

use sunder::automata::regex::compile_rule_set;
use sunder::transform::{PipelineConfig, Rate};
use sunder::workloads::gen::WorkloadBuilder;
use sunder::workloads::mesh::add_hamming_mesh;
use sunder::{Engine, InputView, SunderConfig, SunderMachine};

fn random_genome(len: usize, seed: u64) -> Vec<u8> {
    // A simple xorshift so the example has no extra dependencies.
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state % 4) as usize]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: exact motif search through the engine ---------------
    let motifs = ["ACGTACGT", "TTAGGG", "CACGTG"]; // telomere, E-box, ...
    let engine = Engine::builder().rate(Rate::Nibble4).build();
    let program = engine.compile_patterns(&motifs)?;
    let mut session = engine.load(&program)?;

    let mut genome = random_genome(50_000, 42);
    // Plant a couple of telomeric repeats.
    genome[10_000..10_008].copy_from_slice(b"ACGTACGT");
    genome[30_000..30_006].copy_from_slice(b"TTAGGG");

    let outcome = session.run(&genome)?;
    println!(
        "exact search: {} motif hits across {} kb (rules {:?})",
        outcome.reports,
        genome.len() / 1000,
        outcome.matched_rules,
    );

    // --- Part 2: approximate search with a Hamming mesh --------------
    // CRISPR-style off-target search: find the guide sequence within 2
    // mismatches (the paper cites exactly this use of automata meshes).
    let guide = b"GACGTTACGCTAAGGT";
    let mut builder = WorkloadBuilder::new(7);
    add_hamming_mesh(&mut builder, guide, 2);
    let (mesh, _) = builder.finish();
    println!(
        "\nHamming mesh for a {}-mer with <=2 mismatches: {} states",
        guide.len(),
        mesh.num_states(),
    );

    let mut target = random_genome(20_000, 9);
    let mut offtarget = *guide;
    offtarget[5] = b'T'; // one mismatch
    offtarget[11] = b'A'; // two mismatches
    target[5_000..5_000 + guide.len()].copy_from_slice(&offtarget);

    let (strided, _) = PipelineConfig::Stride4.apply(&mesh)?;
    let mut machine = SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble4))?;
    let mut hits = sunder::sim::TraceSink::new();
    machine.run(&InputView::new(&target, 4, 4)?, &mut hits);
    println!(
        "approximate search found {} off-target site(s), first at byte {}",
        hits.events.len(),
        hits.events
            .first()
            .map(|e| e.symbol_position(4) / 2)
            .unwrap_or(0),
    );

    // --- Part 3: rate reconfiguration on a 4-symbol alphabet ---------
    // DNA only needs 2 bits per symbol; the paper's point is that a fixed
    // 8-bit design wastes capacity on such alphabets while Sunder can pick
    // a rate per application.
    let dna_rules = compile_rule_set(&motifs)?;
    println!("\nrate trade-off for the motif set:");
    for rate in Rate::ALL {
        let (t, _) = PipelineConfig::from(rate).apply(&dna_rules)?;
        println!(
            "  {:<18} {:>3} states, {:>2} matching rows, {:>3} report rows free, {} bits/cycle",
            rate.to_string(),
            t.num_states(),
            rate.matching_rows(),
            256 - rate.matching_rows(),
            rate.bits_per_cycle(),
        );
    }
    Ok(())
}
