//! The lane gauntlet: bit-identity and range-safety checks for the
//! compacted-lane storage layer, run across **all ten** sketch tasks
//! through the public [`SketchSpec`] surface.
//!
//! Two disciplines are enforced here:
//!
//! 1. **Bit identity.** A spec-built sketch (compacted `w` and `s`
//!    lanes) must produce measurement state bit-identical to the
//!    wide-lane reference on the same stream — across absorb, merge,
//!    accumulate, and drain_dirty. The wide lanes are the oracle; any
//!    divergence is a kernel bug, full stop.
//! 2. **Range safety.** Sketch files and delta records may carry `w` or
//!    `s` values that do not fit a receiver's compacted lanes.
//!    Every import path must reject them with
//!    [`WireError::LaneRange`] and leave the receiver untouched —
//!    never wrap, never panic.

use graph_sketches::wire::{V2_MAGIC, WIRE_FORMAT_BIN};
use graph_sketches::{AnySketch, SketchFile, SketchSpec, SketchTask, WireError};
use gs_field::SplitMix64;
use gs_sketch::bank::CellBanked;
use gs_sketch::{EdgeUpdate, IntWidth, LaneWidth, LinearSketch, Mergeable};

fn specs() -> Vec<SketchSpec> {
    SketchTask::ALL
        .iter()
        .enumerate()
        .map(|(i, &task)| {
            let mut spec = SketchSpec::new(task, 16);
            spec.seed = 0x9A_0000 + i as u64;
            // Few weight classes keep the weighted builds small; the
            // class bound derivation is exercised all the same.
            spec.max_weight = 8;
            spec
        })
        .collect()
}

/// A deterministic update stream for `spec`: unit ±1 deltas for
/// Definition-1 tasks, ±w weights for the weighted tasks, with enough
/// churn that deletions partially cancel insertions.
fn workload(spec: &SketchSpec, salt: u64, len: usize) -> Vec<EdgeUpdate> {
    let weighted = matches!(spec.task, SketchTask::WeightedSparsify | SketchTask::Mst);
    let mut rng = SplitMix64::new(spec.seed ^ salt ^ 0x57AC);
    let n = spec.n as u64;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let u = rng.next_range(n) as usize;
        let v = rng.next_range(n) as usize;
        if u == v {
            continue;
        }
        let sign = if i % 5 == 4 { -1 } else { 1 };
        let mag = if weighted {
            1 + rng.next_range(spec.max_weight) as i64
        } else {
            1
        };
        out.push(EdgeUpdate {
            u,
            v,
            delta: sign * mag,
        });
        // Periodically delete the update we just made, so both signs of
        // every weight class get exercised.
        if i % 7 == 3 {
            let last = *out.last().unwrap();
            out.push(EdgeUpdate {
                delta: -last.delta,
                ..last
            });
        }
    }
    out
}

/// Widens every bank of a spec-built sketch in place: the wide-lane
/// reference twin, carrying the exact same seeds and parameters.
fn widened(spec: &SketchSpec) -> AnySketch {
    widen(spec.build())
}

/// Asserts two sketches hold bit-identical measurement state, comparing
/// the integer lanes at full width so narrow and wide twins can be
/// compared.
fn assert_identical(task: SketchTask, a: &AnySketch, b: &AnySketch) {
    let (ba, bb) = (a.banks(), b.banks());
    assert_eq!(ba.len(), bb.len(), "{task:?}: bank count");
    for (i, (x, y)) in ba.iter().zip(&bb).enumerate() {
        assert_eq!(
            x.w_lane().to_wide_vec(),
            y.w_lane().to_wide_vec(),
            "{task:?}: bank {i} w lane"
        );
        assert_eq!(
            x.s_lane().to_wide_vec(),
            y.s_lane().to_wide_vec(),
            "{task:?}: bank {i} s lane"
        );
        assert_eq!(x.f_lane(), y.f_lane(), "{task:?}: bank {i} f lane");
    }
    assert_eq!(a.fingerprints(), b.fingerprints(), "{task:?}: fingerprints");
}

/// Every task's spec-built sketch against its twin with both integer
/// lanes forced wide (`i64` `w`, `i128` `s`).
#[test]
fn narrow_vs_wide_bit_identity_across_all_tasks() {
    for spec in specs() {
        let ups = workload(&spec, 0, 160);
        let (head, tail) = ups.split_at(ups.len() / 2);

        // Absorb.
        let mut narrow = spec.build();
        let mut wide = widened(&spec);
        assert!(
            narrow.banks().iter().any(|b| b.width().w == IntWidth::I32),
            "{:?}: the spec-built sketch holds no compact w lane",
            spec.task
        );
        assert!(wide.banks().iter().all(|b| b.width() == LaneWidth::WIDE));
        narrow.absorb(&ups);
        wide.absorb(&ups);
        assert_identical(spec.task, &narrow, &wide);
        assert!(
            CellBanked::lane_overflow(&narrow).is_none()
                && CellBanked::lane_overflow(&wide).is_none(),
            "{:?}: in-range workload must not poison",
            spec.task
        );

        // Merge of split streams.
        let mut na = spec.build();
        na.absorb(head);
        let mut nb = spec.build();
        nb.absorb(tail);
        na.merge(&nb);
        let mut wa = widened(&spec);
        wa.absorb(head);
        let mut wb = widened(&spec);
        wb.absorb(tail);
        wa.merge(&wb);
        assert_identical(spec.task, &na, &wa);
        // And both merge results equal the central sketch.
        assert_identical(spec.task, &na, &narrow);

        // Accumulate (the drain-side read kernel) agrees across widths.
        for (bn, bw) in narrow.banks().iter().zip(wide.banks()) {
            let len = bn.len();
            let (mut aw1, mut as1, mut af1) = acc_lanes(len);
            let (mut aw2, mut as2, mut af2) = acc_lanes(len);
            bn.accumulate(0..len, &mut aw1, &mut as1, &mut af1);
            bw.accumulate(0..len, &mut aw2, &mut as2, &mut af2);
            assert_eq!(aw1, aw2, "{:?}: accumulate w", spec.task);
            assert_eq!(as1, as2, "{:?}: accumulate s", spec.task);
            assert_eq!(af1, af2, "{:?}: accumulate f", spec.task);
        }

        // Drain.
        let dn = narrow.drain_dirty();
        let dw = wide.drain_dirty();
        assert_eq!(dn, dw, "{:?}: drained cell count", spec.task);
        assert_identical(spec.task, &narrow, &wide);
    }
}

fn acc_lanes(len: usize) -> (Vec<i64>, Vec<i128>, Vec<gs_field::M61>) {
    (vec![0; len], vec![0; len], vec![gs_field::M61::ZERO; len])
}

/// Widens every bank of a sketch in place.
fn widen(mut s: AnySketch) -> AnySketch {
    for bank in s.banks_mut() {
        bank.force_wide();
    }
    s
}

/// The dirty-driven merge: `CellBank::add` sums only the operand's dirty
/// cells when they are sparse. Pinned bank by bank against the dense
/// sweep (`add_dense`) for every task — lanes, poison and the
/// bitmap union — with narrow and wide receivers and operands, for
/// operands with one touched cell per bank, a few
/// updates (the drained-shard case), a whole workload, and poison.
#[test]
fn sparse_merge_equals_dense_merge_across_all_tasks() {
    for spec in specs() {
        let mut acc = spec.build();
        acc.absorb(&workload(&spec, 4, 160));
        // One touched cell per bank: the sparse path on every bank.
        let mut one_cell = spec.build();
        for bank in one_cell.banks_mut() {
            assert!(
                bank.len() >= 16,
                "{:?}: bank too small to be sparse",
                spec.task
            );
            let i = bank.len() / 2;
            bank.apply(i, -3, 7, gs_field::M61::new(5));
        }
        // A realistic small delta, and a dense one.
        let mut few = spec.build();
        few.absorb(&workload(&spec, 5, 3));
        let mut dense = spec.build();
        dense.absorb(&workload(&spec, 6, 160));
        let mut poisoned = one_cell.clone();
        let bank = &mut poisoned.banks_mut()[0];
        bank.apply(0, i64::MAX, 0, gs_field::M61::ZERO);
        bank.apply(0, i64::MAX, 0, gs_field::M61::ZERO);
        for operand in [&one_cell, &few, &dense, &poisoned] {
            for (wide_acc, wide_op) in [(false, false), (false, true), (true, false), (true, true)]
            {
                let a = if wide_acc {
                    widen(acc.clone())
                } else {
                    acc.clone()
                };
                let b = if wide_op {
                    widen(operand.clone())
                } else {
                    operand.clone()
                };
                for (i, (x, y)) in a.banks().iter().zip(b.banks()).enumerate() {
                    let mut via_add = (*x).clone();
                    via_add.add(y);
                    let mut oracle = (*x).clone();
                    oracle.add_dense(y);
                    let what = format!(
                        "{:?} bank {i} (wide acc {wide_acc}, wide operand {wide_op})",
                        spec.task
                    );
                    assert_eq!(via_add.w_lane(), oracle.w_lane(), "{what}: w");
                    assert_eq!(
                        via_add.s_lane().to_wide_vec(),
                        oracle.s_lane().to_wide_vec(),
                        "{what}: s"
                    );
                    assert_eq!(via_add.f_lane(), oracle.f_lane(), "{what}: f");
                    assert_eq!(
                        via_add.lane_overflow(),
                        oracle.lane_overflow(),
                        "{what}: poison"
                    );
                    assert_eq!(
                        via_add.dirty_indices(),
                        oracle.dirty_indices(),
                        "{what}: bitmap"
                    );
                }
            }
        }
    }
}

/// Adversarial counter overflow on the ingest path must poison the
/// sketch (sticky, typed) — not panic, not wrap silently into a
/// trusted answer.
#[test]
fn adversarial_overflow_poisons_instead_of_panicking() {
    for task in [SketchTask::Connectivity, SketchTask::KConnect] {
        let mut spec = SketchSpec::new(task, 16);
        spec.seed = 0xBAD;
        let mut s = spec.build();
        // Two max-magnitude deltas on the same edge wrap every touched
        // i64 `w` counter regardless of lane width.
        s.update_edge(0, 1, i64::MAX);
        s.update_edge(0, 1, i64::MAX);
        assert!(
            CellBanked::lane_overflow(&s).is_some(),
            "{task:?}: true overflow must be detected"
        );
        // The sketch object survives: further ingest is accepted and the
        // poison mark stays sticky.
        s.update_edge(2, 3, 1);
        s.update_edge(0, 1, -1);
        assert!(
            CellBanked::lane_overflow(&s).is_some(),
            "{task:?}: poison is sticky"
        );
    }
}

/// Builds a wide-lane twin carrying an `s` value far outside i64, with
/// no true overflow (the wide lane holds it exactly) — the adversarial
/// donor for the import-rejection tests.
fn out_of_range_donor(spec: &SketchSpec) -> AnySketch {
    let mut s = widened(spec);
    // A single huge-magnitude update: `s += index · delta` exceeds i64
    // for any cell whose decoded index is ≥ 5.
    s.update_edge(spec.n - 2, spec.n - 1, i64::MAX / 4);
    assert!(
        CellBanked::lane_overflow(&s).is_none(),
        "donor must be clean — wide lanes hold the value exactly"
    );
    assert!(
        s.banks()
            .iter()
            .any(|b| (0..b.len()).any(|i| i64::try_from(b.s_lane().get(i)).is_err())),
        "donor must actually carry an out-of-i64-range s value"
    );
    s
}

#[test]
fn v2_import_rejects_out_of_range_narrow_values() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 24);
    let donor = SketchFile::new(spec, out_of_range_donor(&spec)).unwrap();
    let bytes = donor.to_bytes();
    match SketchFile::from_bytes(&bytes) {
        Err(WireError::LaneRange { .. }) => {}
        other => panic!("expected LaneRange, got {other:?}"),
    }
}

#[test]
fn delta_import_rejects_out_of_range_values_and_leaves_receiver_unchanged() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 24);
    let mut donor = SketchFile::new(spec, out_of_range_donor(&spec)).unwrap();
    let delta = donor.delta_bytes();

    // Receiver with some prior in-range state.
    let mut receiver = SketchFile::new(spec, spec.build()).unwrap();
    let ups = workload(&spec, 2, 40);
    receiver.state.absorb(&ups);
    let before = receiver.to_bytes();

    match receiver.apply_delta(&delta) {
        Err(WireError::LaneRange { .. }) => {}
        other => panic!("expected LaneRange, got {other:?}"),
    }
    assert_eq!(
        receiver.to_bytes(),
        before,
        "failed delta apply must be all-or-nothing"
    );
}

/// The v2 bytes of an empty unit-bound connectivity sketch at n = 24,
/// with bank 0's `w` word of cell `cell` set to `w` and the file
/// resealed: a hand-made file whose only damage is that one value.
fn v2_with_w_word(spec: &SketchSpec, cell: usize, w: i64) -> Vec<u8> {
    let mut bytes = SketchFile::new(*spec, spec.build()).unwrap().to_bytes();
    let spec_json = spec.to_json();
    assert!(bytes.starts_with(V2_MAGIC));
    assert_eq!(bytes[8..12], WIRE_FORMAT_BIN.to_le_bytes());
    // magic, version, spec length, spec, bank count, bank 0 geometry.
    let w_lane = 8 + 4 + 4 + spec_json.len() + 4 + 12;
    let at = w_lane + 8 * cell;
    bytes[at..at + 8].copy_from_slice(&w.to_le_bytes());
    let end = bytes.len() - 8;
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..end] {
        sum = (sum ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// A `w` word of 2^31 does not fit a unit-bound spec's `i32` `w` lane:
/// a hand-sealed v2 file carrying one is refused with `LaneRange` naming
/// the cell, while 2^31 − 1 and −2^31 load.
#[test]
fn v2_import_rejects_a_w_word_past_the_i32_lane() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 24);
    let built = spec.build();
    assert_eq!(built.banks()[0].width().w, IntWidth::I32);
    let cell = 37;
    match SketchFile::from_bytes(&v2_with_w_word(&spec, cell, 1 << 31)) {
        Err(WireError::LaneRange { bank: 0, cell: c }) => assert_eq!(c, Some(cell)),
        other => panic!("expected LaneRange at bank 0, got {other:?}"),
    }
    for edge in [i64::from(i32::MAX), i64::from(i32::MIN)] {
        let loaded = SketchFile::from_bytes(&v2_with_w_word(&spec, cell, edge)).unwrap();
        assert_eq!(loaded.state.banks()[0].cell(cell).parts().0, edge);
    }
}

/// A delta record whose touched cells carry `w = 2^31` (from a
/// wide-lane sender) is refused as a whole by a unit-bound receiver,
/// which keeps its prior state byte for byte.
#[test]
fn delta_import_rejects_a_w_word_past_the_i32_lane_and_leaves_receiver_unchanged() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 24);
    let mut sender = widened(&spec);
    // Edge (0, 1) has index 0, so `s` stays 0 and only `w` is out of range.
    sender.update_edge(0, 1, 1 << 31);
    assert!(CellBanked::lane_overflow(&sender).is_none());
    let delta = SketchFile::new(spec, sender).unwrap().delta_bytes();
    let mut receiver = SketchFile::new(spec, spec.build()).unwrap();
    receiver.state.absorb(&workload(&spec, 7, 40));
    let before = receiver.to_bytes();
    match receiver.apply_delta(&delta) {
        Err(WireError::LaneRange { bank: 0, .. }) => {}
        other => panic!("expected LaneRange, got {other:?}"),
    }
    assert_eq!(receiver.to_bytes(), before, "all-or-nothing");
    assert!(CellBanked::lane_overflow(&receiver.state).is_none());
}

/// The lane footprint a spec-built sketch reports: every unit-bound
/// task's banks hold 20 B a cell (`i32` `w`, `i64` `s`, `f`) plus the
/// dirty bitmap, while weight classes ≥ 7 and subgraph patterns with
/// k ≥ 5 (per-update bounds ≥ 2^7) keep an `i64` `w`.
#[test]
fn unit_bound_specs_hold_twenty_byte_cells() {
    let footprint = |s: &AnySketch| -> usize {
        let banks: usize = s
            .banks()
            .iter()
            .map(|b| 20 * b.len() + 8 * b.len().div_ceil(64))
            .sum();
        banks + 8 * s.fingerprints().len()
    };
    for mut spec in specs() {
        spec.max_weight = 127;
        spec.k = 4;
        let s = spec.build();
        assert!(
            s.banks().iter().all(|b| b.width()
                == LaneWidth {
                    w: IntWidth::I32,
                    s: IntWidth::I64
                }),
            "{:?}",
            spec.task
        );
        assert_eq!(s.resident_bytes(), footprint(&s), "{:?}", spec.task);
    }
    // The ladder's ingest-powerlaw tenant, as served.
    let big = SketchSpec::new(SketchTask::Connectivity, 4096).build();
    assert_eq!(
        big.banks().iter().map(|b| b.len()).sum::<usize>(),
        2_826_240
    );
    assert_eq!(big.resident_bytes(), 56_878_080);

    // Weight class 7 carries |Δ| up to 255: its banks keep `i64` `w`.
    let weighted = |max_weight| {
        let mut spec = SketchSpec::new(SketchTask::WeightedSparsify, 16);
        spec.max_weight = max_weight;
        spec.build()
    };
    let (six, seven) = (weighted(127), weighted(255));
    let compact = six.banks().len();
    assert!(seven.banks().len() > compact);
    for (i, bank) in seven.banks().iter().enumerate() {
        let w = if i < compact {
            IntWidth::I32
        } else {
            IntWidth::I64
        };
        assert_eq!(bank.width().w, w, "weighted bank {i}");
    }
    // A k = 5 pattern scales a unit delta by 2^9.
    let mut k5 = SketchSpec::new(SketchTask::Subgraphs, 16);
    k5.k = 5;
    assert!(k5
        .build()
        .banks()
        .iter()
        .all(|b| b.width().w == IntWidth::I64));
}

/// In-range wire traffic between narrow and wide peers stays bit-exact:
/// a narrow export imports into an equal spec losslessly.
#[test]
fn narrow_wire_round_trips_stay_bit_exact_for_every_task() {
    for spec in specs() {
        let ups = workload(&spec, 3, 120);
        let mut s = spec.build();
        s.absorb(&ups);
        let file = SketchFile::new(spec, s).unwrap();
        let back = SketchFile::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(
            file.to_bytes(),
            back.to_bytes(),
            "{:?}: v2 round-trip drifted",
            spec.task
        );
    }
}
