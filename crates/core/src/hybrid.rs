//! The hybrid engine: depth-first conflict counting where BCAT rows are
//! large, one streamed fold per subtree once they are small.
//!
//! Section 2.4 of the paper remarks that "the implementation of Algorithm 1
//! and Algorithm 3 can be combined … a depth first traversal of the tree
//! can be performed". The two engines that realize the remark have
//! opposite cost shapes:
//!
//! * [`dfs`](crate::dfs) pays `O(N log N)` **per level**, even at nodes
//!   whose working set is a handful of references;
//! * [`streamed`] pays `O(Σ conflict span)` **once** for
//!   every level, which is cheap when a row holds few distinct references
//!   (instruction traces) and ruinous when it holds thousands (data
//!   traces, whose root conflict sets span most of the working set).
//!
//! This engine splits the BCAT at a unique-count crossover
//! [`CROSSOVER`] and runs each engine where it is cheap:
//!
//! * **Shallow levels.** A row holding more than `C` distinct references
//!   is counted depth-first style: the per-occurrence conflict depth is
//!   the number of distinct same-row references touched since the
//!   previous occurrence, read off a row-local Fenwick tree.
//! * **Frontier nodes.** The first node on a root-to-leaf path holding at
//!   most `C` distinct references is a frontier node. Its members share
//!   its low `l` address bits, so one XOR+CTZ fold of its subtrace — the
//!   streamed engine's fold, with the suffix walk starting at level `l`
//!   instead of 0 — yields every remaining level at once. The levels above
//!   `l` are the shallow passes' job: every ancestor of a frontier node
//!   holds more than `C` references, so each of them is a shallow row.
//!
//! A trace with at most `C` distinct references is a frontier node at the
//! root and runs the streamed fold unchanged.
//!
//! The engine itself is serial. With a worker budget,
//! [`level_profiles_parallel`] runs the chunked parallel fold of
//! [`streamed::level_profiles_parallel`] on traces of at most
//! [`PARALLEL_FOLD_MAX`] distinct references and the serial hybrid on
//! larger ones (DESIGN.md §18).
//!
//! ## Scratch is `O(unique references)`, never `O(trace length)`
//!
//! The plan is computed from the unique addresses alone: sorting the ids
//! by **bit-reversed** address makes every row at every level a
//! contiguous range of that order (rows at level `l` share the low `l`
//! address bits, which are the top `l` bits of the reversed key), so each
//! node's unique count is a range length and no subtrace is ever copied.
//!
//! * Each shallow level is one pass over `id_sequence()`. A row counts
//!   in **row-local time**: only each distinct reference's latest
//!   occurrence carries a mark, kept in a bitset with a Fenwick tree over
//!   its 64-bit words, and the conflict depth of a recurrence is the
//!   number of marks after its previous one. When the row's clock reaches
//!   four times its unique count the live marks are renumbered `0..live`
//!   by rank and the bitset rebuilt — `O(unique)`, paid for by the three
//!   times as many accesses since the last renumbering. The clock, not
//!   the row's subtrace length, sizes the bitset: under a byte per unique
//!   reference, where a tree over trace positions costs four bytes per
//!   access. One level's rows together hold at most `N'` references, and
//!   the per-id tables are reused from level to level.
//! * The frontier pass is one more pass over `id_sequence()`. Every
//!   frontier node owns a recency-array region in one flat buffer sized by
//!   its unique count, tombstoned in place and compacted once tombstones
//!   exceed a sixteenth of its live entries.
//!
//! Output is byte-identical to every other engine; the differential suites
//! compare it against the tree+table oracle and [`dfs`](crate::dfs).

use std::num::NonZeroUsize;

use cachedse_sim::fenwick::Fenwick;
use cachedse_sim::onepass::DepthProfile;
use cachedse_trace::strip::{RefId, StrippedTrace};

use crate::recency::ABSENT;
use crate::streamed::{self, fold_set};

/// The unique-count crossover `C`: a BCAT row with more distinct
/// references than this is counted level by level, a node with at most
/// this many is folded. Chosen by the crossover sweep over
/// `C ∈ {64, …, 4096}` that `perf_report` records in `BENCH_dfs.json`
/// (`hybrid_crossover`): 128 and 256 tie on the 24 kernel traces, 256
/// fastest on the instruction traces and 128 on the data traces
/// (DESIGN.md §18). The benchmark kernels' instruction traces (304–357
/// unique references) therefore split once at the root and fold two
/// halves — faster than one root fold, whose conflict sets span both
/// rows.
pub const CROSSOVER: usize = 256;

/// The most distinct references [`level_profiles_parallel`] hands to the
/// chunked parallel fold. Up to `2 × CROSSOVER` the serial hybrid gains
/// at most about 1.6× over one root fold (the 12 kernels' instruction
/// traces, DESIGN.md §18), which the fold's workers make up; above
/// it the fold's conflict sets span thousands of references and the
/// serial hybrid wins at any worker count the kernels were timed at.
pub const PARALLEL_FOLD_MAX: usize = 2 * CROSSOVER;

/// Marker for "no row / no node at this level" in the per-id lookup
/// tables.
const NONE: u32 = u32::MAX;

/// A frontier node's recency region is compacted once its tombstones
/// exceed `live / TOMBSTONE_DIV + TOMBSTONE_MIN`, which bounds the
/// tombstones a fold scans to about 6% of the live entries.
const TOMBSTONE_DIV: u32 = 16;

/// See [`TOMBSTONE_DIV`]: keeps tiny nodes from compacting on every
/// recurrence.
const TOMBSTONE_MIN: u32 = 2;

/// Computes the exact miss profile of every depth `1, 2, …,
/// 2^max_index_bits` — byte-identical to every other engine — counting
/// rows above [`CROSSOVER`] depth-first and folding every frontier node.
///
/// # Panics
///
/// Panics if the trace holds `u32::MAX` or more references.
///
/// # Examples
///
/// ```
/// use cachedse_core::{dfs, hybrid};
/// use cachedse_trace::{generate, strip::StrippedTrace};
///
/// let trace = generate::uniform_random(20_000, 4_096, 7);
/// let stripped = StrippedTrace::from_trace(&trace);
/// let bits = stripped.address_bits();
/// assert_eq!(
///     hybrid::level_profiles(&stripped, bits),
///     dfs::level_profiles(&stripped, bits)
/// );
/// ```
#[must_use]
pub fn level_profiles(stripped: &StrippedTrace, max_index_bits: u32) -> Vec<DepthProfile> {
    with_crossover(stripped, max_index_bits, CROSSOVER)
}

/// [`level_profiles`] with a worker budget, byte-identical for every
/// `threads`.
///
/// A trace of at most [`PARALLEL_FOLD_MAX`] unique references runs the
/// chunked parallel fold of [`streamed::level_profiles_parallel`] — the
/// path every `threads ≥ 2` run took before the hybrid existed, so such
/// traces (the kernels' instruction traces among them) never run slower
/// than they did. A larger trace runs the serial hybrid: its frontier
/// nodes are not parallelized.
///
/// # Examples
///
/// ```
/// use std::num::NonZeroUsize;
/// use cachedse_core::hybrid;
/// use cachedse_trace::{generate, strip::StrippedTrace};
///
/// let stripped = StrippedTrace::from_trace(&generate::uniform_random(5_000, 2_048, 3));
/// let two = NonZeroUsize::new(2).expect("nonzero");
/// assert_eq!(
///     hybrid::level_profiles_parallel(&stripped, 11, two),
///     hybrid::level_profiles(&stripped, 11)
/// );
/// ```
#[must_use]
pub fn level_profiles_parallel(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    threads: NonZeroUsize,
) -> Vec<DepthProfile> {
    if stripped.unique_len() <= PARALLEL_FOLD_MAX {
        streamed::level_profiles_parallel(stripped, max_index_bits, threads)
    } else {
        level_profiles(stripped, max_index_bits)
    }
}

/// [`level_profiles`] at an explicit crossover — the knob the crossover
/// sweep turns. Exposed only under the `crossover-sweep` feature, which
/// the benchmark harness enables; the crossover is not a public option.
#[cfg(feature = "crossover-sweep")]
#[must_use]
pub fn level_profiles_at_crossover(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    crossover: usize,
) -> Vec<DepthProfile> {
    with_crossover(stripped, max_index_bits, crossover)
}

/// The engine proper, at crossover `crossover`: `0` counts every level
/// depth-first, `usize::MAX` folds at the root.
pub(crate) fn with_crossover(
    stripped: &StrippedTrace,
    max_index_bits: u32,
    crossover: usize,
) -> Vec<DepthProfile> {
    if stripped.unique_len() <= crossover {
        return streamed::level_profiles(stripped, max_index_bits);
    }
    assert!(
        stripped.total_len() < NONE as usize,
        "trace too long for u32 row-local times"
    );
    let addrs = streamed::address_table(stripped);
    let max_level = max_index_bits as usize;
    let plan = Plan::new(&addrs, max_level, crossover);
    let mut hist: Vec<Vec<u64>> = vec![Vec::new(); max_level + 1];
    // The level scratch is dropped before the frontier pass allocates.
    let mut scratch = LevelScratch::new(addrs.len());
    for (level, ranges) in plan.shallow.iter().enumerate() {
        if !ranges.is_empty() {
            scratch.count_level(
                stripped.id_sequence(),
                &plan.order,
                ranges,
                &mut hist[level],
            );
        }
    }
    drop(scratch);
    fold_frontier(
        stripped.id_sequence(),
        &addrs,
        &plan.order,
        &plan.frontier,
        max_level,
        &mut hist,
    );
    streamed::finalize(hist, stripped)
}

/// A frontier node: the ids `order[lo..hi]`, sharing their low `level`
/// address bits.
#[derive(Clone, Copy, Debug)]
struct FrontierNode {
    level: u32,
    lo: u32,
    hi: u32,
}

/// Where every reference is counted, derived from the unique addresses
/// alone.
#[derive(Debug)]
struct Plan {
    /// Reference ids sorted by bit-reversed address: every BCAT row is a
    /// contiguous range.
    order: Vec<u32>,
    /// Per level, the `order` ranges of the rows counted depth-first
    /// (more than the crossover's unique references).
    shallow: Vec<Vec<(u32, u32)>>,
    /// Every frontier node holding at least two references (a node with
    /// one reference has no conflicts to fold).
    frontier: Vec<FrontierNode>,
}

impl Plan {
    fn new(addrs: &[u32], max_level: usize, crossover: usize) -> Self {
        // Sort (reversed address, id) pairs packed in one word: a plain
        // integer sort, no key callback.
        let mut keyed: Vec<u64> = addrs
            .iter()
            .zip(0u64..)
            .map(|(&a, id)| u64::from(a.reverse_bits()) << 32 | id)
            .collect();
        keyed.sort_unstable();
        let order = keyed.into_iter().map(|k| k as u32).collect();
        let mut plan = Self {
            order,
            shallow: vec![Vec::new(); max_level + 1],
            frontier: Vec::new(),
        };
        plan.descend(addrs, 0, 0, addrs.len(), max_level, crossover);
        plan
    }

    /// Classifies the row `order[lo..hi]` at `level` and recurses into the
    /// children of a shallow row. Within a row the ids are sorted by the
    /// next address bit first, so the split is one binary search.
    fn descend(
        &mut self,
        addrs: &[u32],
        level: usize,
        lo: usize,
        hi: usize,
        max_level: usize,
        crossover: usize,
    ) {
        let size = hi - lo;
        if size <= crossover {
            if size >= 2 {
                self.frontier.push(FrontierNode {
                    level: level as u32,
                    lo: lo as u32,
                    hi: hi as u32,
                });
            }
            return;
        }
        self.shallow[level].push((lo as u32, hi as u32));
        if level == max_level {
            return;
        }
        let bit = 1u32 << level;
        let mid = lo + self.order[lo..hi].partition_point(|&id| addrs[id as usize] & bit == 0);
        self.descend(addrs, level + 1, lo, mid, max_level, crossover);
        self.descend(addrs, level + 1, mid, hi, max_level, crossover);
    }
}

/// One shallow row's counting state. Its marks live in a bitset over
/// row-local time, one bit per slot, with a Fenwick tree over the
/// bitset's words: a prefix count is one walk over `time / 64` tree nodes
/// plus one masked popcount, so the tree is 64× smaller than a tree over
/// slots.
#[derive(Clone, Debug)]
struct Row {
    /// The row's ids: `order[lo..hi]`.
    lo: u32,
    hi: u32,
    /// One bit per row-local time slot, set at each id's latest one.
    bits: Vec<u64>,
    /// The popcounts of `bits`' words.
    tree: Fenwick,
    /// Row-local time of the next access.
    time: u32,
    /// Distinct references seen so far (= marks set).
    seen: u32,
}

/// A row's clock runs to `SLOTS_PER_UNIQUE ×` its unique count before the
/// live marks are renumbered, so a compaction (`O(unique)`) is paid for by
/// at least `SLOTS_PER_UNIQUE - 1` times as many accesses.
const SLOTS_PER_UNIQUE: u32 = 4;

impl Row {
    fn new(lo: u32, hi: u32) -> Self {
        let words = (SLOTS_PER_UNIQUE * (hi - lo)).div_ceil(64) as usize;
        Self {
            lo,
            hi,
            bits: vec![0; words],
            tree: Fenwick::new(words),
            time: 0,
            seen: 0,
        }
    }

    /// Renumbers the live marks of a full row to `0..seen` in time order
    /// and rebuilds its bitset as `seen` leading ones. A live mark's new
    /// time is its rank among the set bits; the row's ids are
    /// `order[lo..hi]`, so no slot-to-id table is needed.
    fn compact(&mut self, order: &[u32], last: &mut [u32], rank: &mut Vec<u32>) {
        rank.clear();
        let mut running = 0;
        rank.extend(self.bits.iter().map(|word| {
            let before = running;
            running += word.count_ones();
            before
        }));
        debug_assert_eq!(running, self.seen, "one mark per live reference");
        for &id in &order[self.lo as usize..self.hi as usize] {
            let t = last[id as usize];
            if t != NONE {
                let (w, b) = ((t / 64) as usize, t % 64);
                last[id as usize] = rank[w] + (self.bits[w] & ((1u64 << b) - 1)).count_ones();
            }
        }
        let (full, rest) = ((self.seen / 64) as usize, self.seen % 64);
        self.bits.fill(0);
        self.bits[..full].fill(u64::MAX);
        self.tree = Fenwick::new(self.bits.len());
        for w in 0..full {
            self.tree.add(w, 64);
        }
        if rest > 0 {
            self.bits[full] = (1u64 << rest) - 1;
            self.tree.add(full, rest as i32);
        }
        self.time = self.seen;
    }
}

/// Per-level depth-first counting state; `row_of` and `last` are reused
/// across levels, and every buffer is `O(unique references)`.
#[derive(Debug)]
struct LevelScratch {
    /// Row index of each id at the current level, or [`NONE`].
    row_of: Vec<u32>,
    /// Row-local time of each id's latest occurrence, or [`NONE`].
    last: Vec<u32>,
    /// Compaction scratch: exclusive prefix popcounts of a row's words.
    rank: Vec<u32>,
}

impl LevelScratch {
    fn new(unique: usize) -> Self {
        Self {
            row_of: vec![NONE; unique],
            last: vec![NONE; unique],
            rank: Vec::new(),
        }
    }

    /// One pass over the trace, histogramming the conflict depth of every
    /// recurrence that falls in one of `ranges` (this level's shallow
    /// rows). Only each reference's latest occurrence carries a mark, so
    /// the distinct same-row references touched since the previous
    /// occurrence are the marks after it.
    fn count_level(
        &mut self,
        sequence: &[RefId],
        order: &[u32],
        ranges: &[(u32, u32)],
        histogram: &mut Vec<u64>,
    ) {
        self.row_of.fill(NONE);
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            for &id in &order[lo as usize..hi as usize] {
                self.row_of[id as usize] = k as u32;
                self.last[id as usize] = NONE;
            }
        }
        let mut rows: Vec<Row> = ranges.iter().map(|&(lo, hi)| Row::new(lo, hi)).collect();

        for &id in sequence {
            let i = id.index();
            let k = self.row_of[i];
            if k == NONE {
                continue;
            }
            let row = &mut rows[k as usize];
            if row.time == 64 * row.bits.len() as u32 {
                row.compact(order, &mut self.last, &mut self.rank);
            }
            let prev = self.last[i];
            if prev == NONE {
                row.seen += 1;
            } else {
                let (w, b) = ((prev / 64) as usize, prev % 64);
                let through =
                    row.tree.prefix_sum(w) + (row.bits[w] & (u64::MAX >> (63 - b))).count_ones();
                let d = (row.seen - through) as usize;
                if d > 0 {
                    if histogram.len() <= d {
                        histogram.resize(d + 1, 0);
                    }
                    histogram[d] += 1;
                }
                row.bits[w] &= !(1u64 << b);
                row.tree.add(w, -1);
            }
            let (w, b) = ((row.time / 64) as usize, row.time % 64);
            row.bits[w] |= 1u64 << b;
            row.tree.add(w, 1);
            self.last[i] = row.time;
            row.time += 1;
        }
    }
}

/// One frontier node's recency region in the flat buffer.
#[derive(Clone, Copy, Debug)]
struct Region {
    /// Offset of the region in the flat recency buffer.
    base: usize,
    /// Entries in use (live and tombstoned).
    len: u32,
    /// Distinct references seen so far.
    live: u32,
    /// Tombstoned entries.
    dead: u32,
    /// The node's level: where its suffix walk starts.
    level: u32,
    /// Region length, for the bounds assertion.
    cap: u32,
}

/// One pass over the trace folding the recurrences of every node in
/// `frontier` into `hist[node level..]`, each node replaying its own
/// recency array.
fn fold_frontier(
    sequence: &[RefId],
    addrs: &[u32],
    order: &[u32],
    frontier: &[FrontierNode],
    max_level: usize,
    hist: &mut [Vec<u64>],
) {
    let mut node_of = vec![NONE; addrs.len()];
    let mut live_pos = vec![ABSENT; addrs.len()];
    let mut regions = Vec::with_capacity(frontier.len());
    let mut base = 0;
    for (f, node) in frontier.iter().enumerate() {
        for &id in &order[node.lo as usize..node.hi as usize] {
            node_of[id as usize] = f as u32;
        }
        // With at most `live / TOMBSTONE_DIV + TOMBSTONE_MIN` tombstones
        // outstanding, the live entries plus the tombstones fit this.
        let unique = node.hi - node.lo;
        let cap = unique + unique / TOMBSTONE_DIV + TOMBSTONE_MIN;
        regions.push(Region {
            base,
            len: 0,
            live: 0,
            dead: 0,
            level: node.level,
            cap,
        });
        base += cap as usize;
    }
    let mut seq = vec![ABSENT; base];
    let mut bucket = vec![0u64; max_level + 1];

    for &id in sequence {
        let i = id.index();
        let f = node_of[i];
        if f == NONE {
            continue;
        }
        let region = &mut regions[f as usize];
        let entries = &mut seq[region.base..];
        let p = live_pos[i];
        if p == ABSENT {
            region.live += 1;
        } else {
            fold_set(
                &entries[p as usize + 1..region.len as usize],
                addrs[i],
                addrs,
                max_level,
                region.level as usize,
                hist,
                &mut bucket,
            );
            entries[p as usize] = ABSENT;
            region.dead += 1;
            if region.dead > region.live / TOMBSTONE_DIV + TOMBSTONE_MIN {
                let mut w = 0;
                for j in 0..region.len as usize {
                    let x = entries[j];
                    if x != ABSENT {
                        live_pos[x as usize] = w;
                        entries[w as usize] = x;
                        w += 1;
                    }
                }
                region.len = w;
                region.dead = 0;
            }
        }
        debug_assert!(region.len < region.cap, "frontier region overflow");
        live_pos[i] = region.len;
        entries[region.len as usize] = i as u32;
        region.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcat::Bcat;
    use crate::dfs;
    use crate::mrct::Mrct;
    use crate::postlude;
    use cachedse_trace::rng::SplitMix64;
    use cachedse_trace::{generate, paper_running_example, Address, Record, Trace};

    fn tree_table(stripped: &StrippedTrace, bits: u32) -> Vec<DepthProfile> {
        let bcat = Bcat::from_stripped(stripped, bits);
        let mrct = Mrct::build(stripped);
        postlude::level_profiles(&bcat, &mrct, stripped, bits)
    }

    /// The hybrid at `crossover` against both oracles.
    fn assert_agrees(trace: &Trace, bits: u32, crossover: usize) {
        let stripped = StrippedTrace::from_trace(trace);
        let hybrid = with_crossover(&stripped, bits, crossover);
        assert_eq!(
            hybrid,
            dfs::level_profiles(&stripped, bits),
            "vs depth-first, C = {crossover}"
        );
        assert_eq!(
            hybrid,
            tree_table(&stripped, bits),
            "vs tree-table, C = {crossover}"
        );
    }

    fn trace_of(addrs: impl IntoIterator<Item = u32>) -> Trace {
        addrs
            .into_iter()
            .map(|a| Record::read(Address::new(a)))
            .collect()
    }

    /// Every crossover from "all depth-first" to "fold at the root" gives
    /// the same bytes.
    #[test]
    fn every_crossover_agrees_on_workloads() {
        for trace in [
            paper_running_example(),
            generate::loop_pattern(0x40, 24, 20),
            generate::uniform_random(3_000, 700, 11),
            generate::working_set_phases(4, 400, 96, 2),
            generate::loop_with_excursions(0, 48, 30, 11, 1 << 10, 5),
        ] {
            let bits = trace.address_bits();
            for crossover in [0, 1, 2, 3, 8, 64, 300, usize::MAX] {
                assert_agrees(&trace, bits, crossover);
            }
        }
    }

    #[test]
    fn empty_trace() {
        for crossover in [0, 4, CROSSOVER] {
            assert_agrees(&Trace::new(), 3, crossover);
        }
    }

    #[test]
    fn single_reference() {
        for crossover in [0, 1, CROSSOVER] {
            assert_agrees(&trace_of([0x2a]), 4, crossover);
            assert_agrees(&trace_of([0x2a, 0x2a, 0x2a]), 4, crossover);
        }
    }

    /// `max_index_bits = 0`: the root is the last level, counted
    /// depth-first when it is above the crossover.
    #[test]
    fn zero_index_bits() {
        let trace = generate::uniform_random(500, 64, 9);
        for crossover in [0, 8, usize::MAX] {
            assert_agrees(&trace, 0, crossover);
        }
    }

    /// A row still above the crossover at the last level stays a shallow
    /// row (no frontier below it); one at or under it is a frontier node
    /// whose walk starts and ends at the last level.
    #[test]
    fn frontier_at_the_last_level() {
        // 16 references sharing their low 3 bits, so rows at levels 0..=3
        // hold all 16; row sizes halve only from level 4 on.
        let refs: Vec<u32> = (0..16).map(|k| k << 3).collect();
        let trace = trace_of((0..12).flat_map(|_| refs.iter().copied()));
        let stripped = StrippedTrace::from_trace(&trace);
        let plan = Plan::new(&streamed::address_table(&stripped), 3, 8);
        assert_eq!(plan.shallow[3].len(), 1, "last level stays shallow");
        assert!(plan.frontier.is_empty());
        assert_agrees(&trace, 3, 8);

        let plan = Plan::new(&streamed::address_table(&stripped), 4, 8);
        assert!(plan.frontier.iter().all(|n| n.level == 4));
        assert_eq!(plan.frontier.len(), 2);
        assert_agrees(&trace, 4, 8);
    }

    /// Nodes of exactly `C` unique references fold; `C + 1` is counted
    /// depth-first and split.
    #[test]
    fn crossover_boundary_sizes() {
        let c = 6usize;
        // Row sizes at level 1: even addresses (c of them) and odd ones
        // (c + 1).
        let evens = (0..c as u32).map(|k| 2 * k);
        let odds = (0..=c as u32).map(|k| 2 * k + 1);
        let refs: Vec<u32> = evens.chain(odds).collect();
        let mut rng = SplitMix64::seed_from_u64(0xC055);
        let trace = trace_of((0..400).map(|_| refs[rng.gen_range(0..refs.len())]));
        let stripped = StrippedTrace::from_trace(&trace);
        let bits = stripped.address_bits();
        let plan = Plan::new(&streamed::address_table(&stripped), bits as usize, c);
        assert_eq!(plan.shallow[1].len(), 1, "the c + 1 row is shallow");
        assert_eq!(plan.shallow[1][0].1 - plan.shallow[1][0].0, c as u32 + 1);
        assert!(plan
            .frontier
            .iter()
            .any(|n| n.level == 1 && (n.hi - n.lo) as usize == c));
        assert_agrees(&trace, bits, c);
    }

    /// Seeded sweep: random traces, bit budgets and crossovers.
    #[test]
    fn seeded_random_sweep() {
        let mut rng = SplitMix64::seed_from_u64(0x4B1D);
        for _ in 0..96 {
            let len = rng.gen_range(1usize..600);
            let space = rng.gen_range(1u32..300);
            let trace = trace_of((0..len).map(|_| rng.gen_range(0..space)));
            let bits = rng.gen_range(0u32..10);
            let crossover = rng.gen_range(0usize..80);
            assert_agrees(&trace, bits, crossover);
        }
    }

    /// Row clocks wrap through many compactions on a long trace over a
    /// small working set counted depth-first.
    #[test]
    fn row_compaction_survives_long_traces() {
        let trace = generate::working_set_phases(6, 3_000, 40, 3);
        assert_agrees(&trace, trace.address_bits(), 0);
        assert_agrees(&trace, trace.address_bits(), 5);
    }

    /// Below, between and above `CROSSOVER` and `PARALLEL_FOLD_MAX`.
    #[test]
    fn parallel_entry_matches_serial() {
        for trace in [
            generate::uniform_random(4_000, 200, 5),
            generate::uniform_random(4_000, 400, 5),
            generate::uniform_random(4_000, 2_000, 5),
        ] {
            let stripped = StrippedTrace::from_trace(&trace);
            let bits = stripped.address_bits();
            let serial = level_profiles(&stripped, bits);
            for threads in [1, 2, 4] {
                let threads = NonZeroUsize::new(threads).expect("nonzero");
                assert_eq!(level_profiles_parallel(&stripped, bits, threads), serial);
            }
        }
    }
}
