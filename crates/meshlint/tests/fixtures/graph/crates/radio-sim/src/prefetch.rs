//! Prefetch-style worker regions: `p1` positives through the
//! `map_chunks` entry (direct `alloc_seq` mint + transitive `Trace`
//! write), with the same tokens as coordinator-side decoys. Plain text
//! to meshlint — never compiled.

pub fn prefetch(rows: &[usize]) -> Vec<u64> {
    map_chunks(2, rows, |_, row| {
        let seq = alloc_seq();
        stamp_trace(row, seq);
        seq
    })
}

fn stamp_trace(row: &usize, seq: u64) {
    let sink: &Trace = global_trace();
    sink.record(*row, seq);
}

pub fn coordinator_install(seq: u64) {
    // Same tokens OUTSIDE any worker region: minting seqs and writing
    // the live trace is exactly the coordinator's job.
    let t: &Trace = global_trace();
    t.record(0, alloc_seq());
}

pub fn decoys() {
    let _ = "map_chunks(2, rows, |_, r| { alloc_seq(); Trace::record() })";
}
