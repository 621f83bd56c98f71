//! Load-balancing strategies behind one trait.
//!
//! Every strategy — static (never move), diffusion cut-shifting (§IV-B),
//! greedy/refining VP reassignment (§IV-C), and the online adaptive
//! switcher over the cut ladder — implements [`LoadBalancer`]: given
//! replicated load counts plus the current layout, produce a typed
//! [`BalanceDecision`]. The runners own the collectives and the
//! application of decisions; the strategies here are pure, deterministic
//! functions of their inputs so every rank computes the identical
//! decision from allreduced data without any extra communication.

use crate::stats::BalanceStats;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// Pure cut-diffusion decision functions (paper §IV-B).
// ---------------------------------------------------------------------------

/// One diffusion round over column cuts: shift each interior cut by
/// `border_w` cells toward the heavier neighbor when the load difference
/// exceeds `tau`. Cuts stay strictly sorted and each column keeps at
/// least one cell.
///
/// All arithmetic is carried out on checked integers: proposals are
/// saturating `i64` moves and the final clamp happens before the cast
/// back to `usize`, so non-sensical inputs (huge `border_w`, degenerate
/// histograms) clamp instead of wrapping.
pub fn diffuse_xcuts(
    xcuts: &[usize],
    counts: &[u64],
    tau: u64,
    border_w: usize,
    ncells: usize,
) -> Vec<usize> {
    let px = counts.len();
    assert_eq!(xcuts.len(), px + 1);
    assert!(px >= 1);
    assert!(
        ncells >= px,
        "grid must have at least one cell per processor column"
    );
    if px == 1 {
        return xcuts.to_vec();
    }

    let w = i64::try_from(border_w).unwrap_or(i64::MAX);
    // Cuts are cell indices (<= ncells), far below i64::MAX in practice;
    // the fallback keeps even adversarial inputs from wrapping.
    let mut proposed: Vec<i64> = xcuts
        .iter()
        .map(|&c| i64::try_from(c).unwrap_or(i64::MAX))
        .collect();
    for i in 1..px {
        let left = counts[i - 1];
        let right = counts[i];
        if left > right && left - right > tau {
            proposed[i] = proposed[i].saturating_sub(w);
        } else if right > left && right - left > tau {
            proposed[i] = proposed[i].saturating_add(w);
        }
    }

    // Clamp left-to-right on integers: each cut must sit strictly after
    // the previous one and leave room for the remaining columns. Since
    // ncells >= px, `lo <= hi` holds inductively (out[i-1] <= ncells -
    // (px - i + 1)), so the clamp cannot panic and the result is always
    // in 1..=ncells — the cast back to usize is exact.
    let mut out = vec![0usize; px + 1];
    out[0] = 0;
    out[px] = ncells;
    for i in 1..px {
        let lo = out[i - 1] as i64 + 1;
        let hi = ncells as i64 - (px - i) as i64;
        out[i] = proposed[i].clamp(lo, hi) as usize;
    }
    out
}

/// Per-column particle counts from a global cell histogram and the cut
/// positions. `out` is resized to `xcuts.len() - 1`.
pub fn per_column_counts_into(hist: &[u64], xcuts: &[usize], out: &mut Vec<u64>) {
    assert!(xcuts.len() >= 2);
    assert_eq!(
        *xcuts.last().unwrap(),
        hist.len(),
        "last cut must equal the histogram length"
    );
    let px = xcuts.len() - 1;
    out.clear();
    out.resize(px, 0);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = hist[xcuts[i]..xcuts[i + 1]].iter().sum();
    }
}

// ---------------------------------------------------------------------------
// Pure VP-assignment decision functions (paper §IV-C).
// ---------------------------------------------------------------------------

/// Totally-ordered f64 wrapper so load keys can live in ordered
/// containers without panicking on NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Key(pub f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry(f64, usize);

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp keeps the heap well-ordered even if a NaN load
        // sneaks in (it sorts above every finite value).
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Longest-processing-time greedy: VPs in decreasing load order, each
/// assigned to the currently lightest core. NaN loads sort as heaviest
/// under the IEEE total order and are placed deterministically instead
/// of panicking.
pub fn greedy_assign(loads: &[f64], cores: usize) -> Vec<usize> {
    assert!(cores >= 1);
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));

    let mut heap: BinaryHeap<Reverse<Entry>> = (0..cores).map(|c| Reverse(Entry(0.0, c))).collect();
    let mut assignment = vec![0usize; loads.len()];
    for vp in order {
        let Reverse(Entry(load, core)) = heap.pop().expect("heap has `cores` entries");
        assignment[vp] = core;
        heap.push(Reverse(Entry(load + loads[vp], core)));
    }
    assignment
}

/// Refinement balancer: move VPs off the most loaded core onto the
/// least loaded one while that strictly lowers the maximum, up to
/// `max_moves` migrations. Keeps most VPs where they are.
pub fn refine_assign(
    loads: &[f64],
    current: &[usize],
    cores: usize,
    max_moves: usize,
) -> Vec<usize> {
    assert_eq!(loads.len(), current.len());
    assert!(cores >= 1);
    let mut assignment = current.to_vec();
    let mut core_load = vec![0.0f64; cores];
    let mut per_core: Vec<BTreeSet<(Key, usize)>> = vec![BTreeSet::new(); cores];
    for (vp, &core) in assignment.iter().enumerate() {
        assert!(core < cores);
        core_load[core] += loads[vp];
        per_core[core].insert((Key(loads[vp]), vp));
    }

    let budget = max_moves.min(2 * loads.len());
    for _ in 0..budget {
        let (max_core, min_core) = {
            let mut max_c = 0;
            let mut min_c = 0;
            for c in 1..cores {
                if core_load[c] > core_load[max_c] {
                    max_c = c;
                }
                if core_load[c] < core_load[min_c] {
                    min_c = c;
                }
            }
            (max_c, min_c)
        };
        let gap = core_load[max_core] - core_load[min_core];
        if gap <= 1e-9 * core_load[max_core].max(1.0) {
            break;
        }
        // Largest VP on the heavy core that still fits in the gap: moving
        // it strictly reduces the max without making the light core the
        // new max.
        let candidate = per_core[max_core]
            .range(..(Key(gap), 0usize))
            .next_back()
            .copied();
        let Some((key, vp)) = candidate else { break };
        per_core[max_core].remove(&(key, vp));
        per_core[min_core].insert((key, vp));
        core_load[max_core] -= key.0;
        core_load[min_core] += key.0;
        assignment[vp] = min_core;
    }
    assignment
}

/// Max/mean load ratio for an assignment; 1.0 for degenerate inputs.
pub fn imbalance(loads: &[f64], assignment: &[usize], cores: usize) -> f64 {
    assert_eq!(loads.len(), assignment.len());
    if cores == 0 {
        return 1.0;
    }
    let mut core_load = vec![0.0f64; cores];
    for (vp, &core) in assignment.iter().enumerate() {
        core_load[core] += loads[vp];
    }
    let total: f64 = core_load.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mean = total / cores as f64;
    let max = core_load.iter().cloned().fold(f64::MIN, f64::max);
    max / mean
}

/// VP reassignment strategy (paper §IV-C terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpStrategy {
    /// Keep the initial assignment forever.
    None,
    /// Full greedy repack every balance step.
    Greedy,
    /// Incremental refinement with a migration budget per balance step.
    Refine { max_moves: usize },
}

impl VpStrategy {
    /// The paper's AMPI runs use the refinement strategy with an
    /// unbounded per-step budget.
    pub fn paper_default() -> Self {
        VpStrategy::Refine {
            max_moves: usize::MAX,
        }
    }

    /// Compute a fresh VP→core assignment from measured loads.
    pub fn rebalance(&self, loads: &[f64], current: &[usize], cores: usize) -> Vec<usize> {
        match *self {
            VpStrategy::None => current.to_vec(),
            VpStrategy::Greedy => greedy_assign(loads, cores),
            VpStrategy::Refine { max_moves } => refine_assign(loads, current, cores, max_moves),
        }
    }
}

// ---------------------------------------------------------------------------
// The trait and its typed decision.
// ---------------------------------------------------------------------------

/// Current domain layout handed to a balancer alongside the load input.
pub struct Layout<'a> {
    /// Cells per axis of the (square) grid.
    pub ncells: usize,
    /// World size (cores / ranks).
    pub ranks: usize,
    /// Column cuts (len px+1) — empty for VP-family balancers.
    pub xcuts: &'a [usize],
    /// Row cuts (len py+1) — empty for VP-family balancers.
    pub ycuts: &'a [usize],
    /// VP→core assignment — empty for cut-family balancers.
    pub vp_assignment: &'a [usize],
}

/// Which replicated load arrays a balancer needs gathered before
/// `decide` is called. The runner gathers only what is requested, in a
/// fixed order (column histogram, then row counts, then VP counts), so
/// collective traffic is identical across ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BalanceNeeds {
    pub col_hist: bool,
    pub row_counts: bool,
    pub vp_counts: bool,
}

/// Replicated (allreduced) load snapshots for one balance step. Arrays
/// not requested via [`BalanceNeeds`] are empty.
pub struct BalanceInput<'a> {
    /// Simulation step the decision fires at.
    pub step: u64,
    /// Global per-cell column histogram (len = ncells).
    pub col_hist: &'a [u64],
    /// Global per-processor-row particle counts (len = py).
    pub row_counts: &'a [u64],
    /// Global per-VP particle counts (len = nvps).
    pub vp_counts: &'a [u64],
}

/// One proposed cut update along an axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutMove {
    /// 'x' for column cuts, 'y' for row cuts.
    pub axis: char,
    /// Per-column (or per-row) counts the decision was based on — goes
    /// straight into the trace cut record.
    pub counts: Vec<u64>,
    /// The full new cut vector (same length as the current one).
    pub new_cuts: Vec<usize>,
}

/// A proposed VP→core reassignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VpMove {
    /// Per-VP counts the decision was based on.
    pub counts: Vec<u64>,
    /// The full new VP→core assignment.
    pub assignment: Vec<usize>,
}

/// A strategy switch performed by an adaptive balancer.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    pub step: u64,
    pub from: &'static str,
    pub to: &'static str,
    /// The windowed imbalance signal that triggered the switch.
    pub imbalance: f64,
}

/// The typed output of one `decide` call. Default = "do nothing".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BalanceDecision {
    /// Cut updates to apply, in order (x before y).
    pub cuts: Vec<CutMove>,
    /// VP reassignment to apply (recorded even when it is a no-op, to
    /// keep trace streams bit-identical with the historical runners).
    pub vps: Option<VpMove>,
    /// Set when an adaptive balancer switched strategy this step.
    pub switched: Option<SwitchEvent>,
}

/// A load-balancing strategy. Implementations must be deterministic
/// functions of (`decide` call sequence, inputs): runners call `decide`
/// with identical replicated inputs on every rank and apply the
/// decision locally, so any hidden nondeterminism would desynchronize
/// the ranks.
pub trait LoadBalancer {
    /// Stable identifier recorded in trace headers and switch events.
    fn name(&self) -> &'static str;

    /// Whether this balancer wants a balance round at `step`. The
    /// runner additionally skips the final step (matching the
    /// historical `s % interval == 0 && s < steps` cadence).
    fn wants(&self, step: u64) -> bool;

    /// Which load arrays `decide` needs gathered.
    fn needs(&self) -> BalanceNeeds;

    /// Produce a decision from replicated inputs. `&mut self` is for
    /// internal replicated state (e.g. the adaptive window), never for
    /// rank-local data.
    fn decide(&mut self, input: &BalanceInput, layout: &Layout) -> BalanceDecision;
}

// ---------------------------------------------------------------------------
// Strategy implementations.
// ---------------------------------------------------------------------------

/// The baseline: never rebalance.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticLb;

impl LoadBalancer for StaticLb {
    fn name(&self) -> &'static str {
        "static"
    }
    fn wants(&self, _step: u64) -> bool {
        false
    }
    fn needs(&self) -> BalanceNeeds {
        BalanceNeeds::default()
    }
    fn decide(&mut self, _input: &BalanceInput, _layout: &Layout) -> BalanceDecision {
        BalanceDecision::default()
    }
}

/// Which cut axes a diffusion balancer moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axes {
    X,
    Y,
    XY,
}

/// Cut-diffusion balancer (paper §IV-B): one `diffuse_xcuts` round per
/// requested axis at every `interval`-th step.
#[derive(Debug, Clone)]
pub struct DiffusionLb {
    pub interval: u64,
    pub tau: u64,
    pub border_w: usize,
    pub axes: Axes,
    name: &'static str,
    scratch: Vec<u64>,
}

impl DiffusionLb {
    pub fn new(interval: u64, tau: u64, border_w: usize, axes: Axes) -> Self {
        Self::named("diffusion", interval, tau, border_w, axes)
    }

    /// Same strategy under a distinct trace name — used by the adaptive
    /// balancer to expose differently-tuned arms.
    pub(crate) fn named(
        name: &'static str,
        interval: u64,
        tau: u64,
        border_w: usize,
        axes: Axes,
    ) -> Self {
        assert!(interval > 0, "balance interval must be positive");
        assert!(border_w > 0, "border width must be positive");
        DiffusionLb {
            interval,
            tau,
            border_w,
            axes,
            name,
            scratch: Vec::new(),
        }
    }
}

impl LoadBalancer for DiffusionLb {
    fn name(&self) -> &'static str {
        self.name
    }
    fn wants(&self, step: u64) -> bool {
        step.is_multiple_of(self.interval)
    }
    fn needs(&self) -> BalanceNeeds {
        BalanceNeeds {
            col_hist: matches!(self.axes, Axes::X | Axes::XY),
            row_counts: matches!(self.axes, Axes::Y | Axes::XY),
            vp_counts: false,
        }
    }
    fn decide(&mut self, input: &BalanceInput, layout: &Layout) -> BalanceDecision {
        let mut decision = BalanceDecision::default();
        if matches!(self.axes, Axes::X | Axes::XY) {
            per_column_counts_into(input.col_hist, layout.xcuts, &mut self.scratch);
            let new_cuts = diffuse_xcuts(
                layout.xcuts,
                &self.scratch,
                self.tau,
                self.border_w,
                layout.ncells,
            );
            decision.cuts.push(CutMove {
                axis: 'x',
                counts: self.scratch.clone(),
                new_cuts,
            });
        }
        if matches!(self.axes, Axes::Y | Axes::XY) {
            let new_cuts = diffuse_xcuts(
                layout.ycuts,
                input.row_counts,
                self.tau,
                self.border_w,
                layout.ncells,
            );
            decision.cuts.push(CutMove {
                axis: 'y',
                counts: input.row_counts.to_vec(),
                new_cuts,
            });
        }
        decision
    }
}

/// VP-reassignment balancer (paper §IV-C) wrapping a [`VpStrategy`].
#[derive(Debug, Clone)]
pub struct VpLb {
    pub interval: u64,
    pub strategy: VpStrategy,
    name: &'static str,
    loads: Vec<f64>,
}

impl VpLb {
    pub fn new(interval: u64, strategy: VpStrategy) -> Self {
        assert!(interval > 0, "balance interval must be positive");
        let name = match strategy {
            VpStrategy::None => "vp-none",
            VpStrategy::Greedy => "vp-greedy",
            VpStrategy::Refine { .. } => "vp-refine",
        };
        VpLb {
            interval,
            strategy,
            name,
            loads: Vec::new(),
        }
    }
}

impl LoadBalancer for VpLb {
    fn name(&self) -> &'static str {
        self.name
    }
    fn wants(&self, step: u64) -> bool {
        step.is_multiple_of(self.interval)
    }
    fn needs(&self) -> BalanceNeeds {
        BalanceNeeds {
            col_hist: false,
            row_counts: false,
            vp_counts: true,
        }
    }
    fn decide(&mut self, input: &BalanceInput, layout: &Layout) -> BalanceDecision {
        self.loads.clear();
        self.loads.extend(input.vp_counts.iter().map(|&c| c as f64));
        let assignment = self
            .strategy
            .rebalance(&self.loads, layout.vp_assignment, layout.ranks);
        BalanceDecision {
            cuts: Vec::new(),
            // Always recorded, even when the assignment is unchanged —
            // the historical AMPI runner traced every balance round.
            vps: Some(VpMove {
                counts: input.vp_counts.to_vec(),
                assignment,
            }),
            switched: None,
        }
    }
}

/// Balance rounds [`AdaptiveLb`] averages before a switch is considered.
const ADAPTIVE_WINDOW: usize = 3;
/// Mean imbalance above this escalates to the next arm.
const ADAPTIVE_HI: f64 = 1.4;
/// Mean imbalance below this de-escalates to the previous arm.
const ADAPTIVE_LO: f64 = 1.1;
/// Balance rounds to wait after a switch before reconsidering.
const ADAPTIVE_COOLDOWN: usize = 2;

/// Online adaptive balancer over the cut-family escalation ladder
/// static → diffusion → a wider (2× border) diffusion: it watches the
/// measured imbalance over a sliding window of balance rounds and steps
/// one rung when the windowed mean crosses the thresholds.
///
/// Determinism: the signal is computed from the same replicated load
/// arrays every rank already gathered, and the window/cooldown state
/// advances identically on every rank — so all ranks switch at the same
/// step with no extra collectives.
pub struct AdaptiveLb {
    /// The two moving rungs, `diffusion` and `diffusion-wide`.
    diffusion: [DiffusionLb; 2],
    /// Rung in use: 0 is static, `i > 0` is `diffusion[i - 1]`.
    active: usize,
    window: Vec<f64>,
    cooldown_left: usize,
    scratch: Vec<u64>,
    loads: Vec<f64>,
}

impl AdaptiveLb {
    /// The ladder, starting static: a skewed workload demonstrably forces
    /// at least one escalation.
    pub fn cut_arms(interval: u64, tau: u64, border_w: usize, axes: Axes) -> Self {
        let wide = border_w.saturating_mul(2).max(border_w);
        AdaptiveLb {
            diffusion: [
                DiffusionLb::named("diffusion", interval, tau, border_w, axes),
                DiffusionLb::named("diffusion-wide", interval, tau, wide, axes),
            ],
            active: 0,
            window: Vec::new(),
            cooldown_left: 0,
            scratch: Vec::new(),
            loads: Vec::new(),
        }
    }

    fn arm_name(&self, rung: usize) -> &'static str {
        match rung {
            0 => StaticLb.name(),
            _ => self.diffusion[rung - 1].name(),
        }
    }

    /// Imbalance signal from whatever load view is available, in a fixed
    /// precedence (column histogram, then row counts) so all ranks agree
    /// by construction.
    fn signal(&mut self, input: &BalanceInput, layout: &Layout) -> f64 {
        self.loads.clear();
        if !input.col_hist.is_empty() && layout.xcuts.len() >= 2 {
            per_column_counts_into(input.col_hist, layout.xcuts, &mut self.scratch);
            self.loads.extend(self.scratch.iter().map(|&c| c as f64));
        } else if !input.row_counts.is_empty() {
            self.loads
                .extend(input.row_counts.iter().map(|&c| c as f64));
        } else {
            return 1.0;
        }
        BalanceStats::from_loads(&self.loads).imbalance
    }
}

impl LoadBalancer for AdaptiveLb {
    fn name(&self) -> &'static str {
        "adaptive"
    }
    // Both moving rungs share their interval and axes, so the first one's
    // cadence and needs are the whole ladder's, whichever rung is active:
    // otherwise collective traffic would depend on switch history.
    fn wants(&self, step: u64) -> bool {
        self.diffusion[0].wants(step)
    }
    fn needs(&self) -> BalanceNeeds {
        self.diffusion[0].needs()
    }
    fn decide(&mut self, input: &BalanceInput, layout: &Layout) -> BalanceDecision {
        let signal = self.signal(input, layout);
        self.window.push(signal);
        if self.window.len() > ADAPTIVE_WINDOW {
            self.window.remove(0);
        }

        let mut switched = None;
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
        } else if self.window.len() == ADAPTIVE_WINDOW {
            let mean = self.window.iter().sum::<f64>() / ADAPTIVE_WINDOW as f64;
            // NaN means compare false on both branches: no switch.
            let target = if mean > ADAPTIVE_HI && self.active < self.diffusion.len() {
                Some(self.active + 1)
            } else if mean < ADAPTIVE_LO && self.active > 0 {
                Some(self.active - 1)
            } else {
                None
            };
            if let Some(next) = target {
                switched = Some(SwitchEvent {
                    step: input.step,
                    from: self.arm_name(self.active),
                    to: self.arm_name(next),
                    imbalance: mean,
                });
                self.active = next;
                self.window.clear();
                self.cooldown_left = ADAPTIVE_COOLDOWN;
            }
        }

        let mut decision = match self.active {
            0 => BalanceDecision::default(),
            rung => self.diffusion[rung - 1].decide(input, layout),
        };
        decision.switched = switched;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One diffusion round from a cell histogram: the column counts, then
    /// the cut shift — the pair [`DiffusionLb::decide`] runs.
    fn diffuse_from_histogram(xcuts: &[usize], hist: &[u64], tau: u64, w: usize) -> Vec<usize> {
        let mut counts = Vec::new();
        per_column_counts_into(hist, xcuts, &mut counts);
        diffuse_xcuts(xcuts, &counts, tau, w, hist.len())
    }

    // -- diffusion decision fns (moved from pic-par) --------------------

    #[test]
    fn diffuse_xcuts_moves_toward_heavy() {
        // Heavy left column: the interior cut moves left.
        let cuts = vec![0, 8, 16];
        let counts = vec![100, 10];
        let new = diffuse_xcuts(&cuts, &counts, 0, 1, 16);
        assert_eq!(new, vec![0, 7, 16]);
        // Heavy right column: the cut moves right.
        let counts = vec![10, 100];
        let new = diffuse_xcuts(&cuts, &counts, 0, 1, 16);
        assert_eq!(new, vec![0, 9, 16]);
    }

    #[test]
    fn diffuse_xcuts_respects_tau() {
        let cuts = vec![0, 8, 16];
        let new = diffuse_xcuts(&cuts, &[60, 50], 20, 1, 16);
        assert_eq!(new, cuts, "difference below tau must not move cuts");
        let new = diffuse_xcuts(&cuts, &[100, 95], 10, 2, 16);
        assert_eq!(new, cuts, "difference below tau must not move cuts");
    }

    #[test]
    fn diffuse_xcuts_clamps_minimum_width() {
        let cuts = vec![0, 1, 16];
        let counts = vec![100, 1];
        let new = diffuse_xcuts(&cuts, &counts, 0, 4, 16);
        assert_eq!(new[1], 1, "column must keep at least one cell");
        // Right end: the last column keeps one cell.
        let new = diffuse_xcuts(&[0, 15, 16], &[10, 100], 0, 3, 16);
        assert_eq!(new, vec![0, 15, 16], "last column must keep one cell");
    }

    #[test]
    fn diffuse_xcuts_cascading_clamp_stays_sorted() {
        let cuts = vec![0, 2, 3, 4, 16];
        let counts = vec![100, 90, 80, 1];
        let new = diffuse_xcuts(&cuts, &counts, 0, 3, 16);
        for w in new.windows(2) {
            assert!(w[0] < w[1], "cuts must stay strictly sorted: {new:?}");
        }
        assert_eq!(new[0], 0);
        assert_eq!(new[4], 16);
    }

    #[test]
    fn diffuse_xcuts_huge_border_saturates_instead_of_wrapping() {
        let cuts = vec![0, 8, 16];
        let counts = vec![100, 1];
        let new = diffuse_xcuts(&cuts, &counts, 0, usize::MAX, 16);
        assert_eq!(new, vec![0, 1, 16], "saturating move clamps to min width");
        let counts = vec![1, 100];
        let new = diffuse_xcuts(&cuts, &counts, 0, usize::MAX, 16);
        assert_eq!(new, vec![0, 15, 16], "saturating move clamps to max width");
    }

    #[test]
    fn diffuse_xcuts_zero_total_histogram_is_noop() {
        let cuts = vec![0, 5, 11, 16];
        let new = diffuse_from_histogram(&cuts, &[0u64; 16], 0, 2);
        assert_eq!(new, cuts);
    }

    #[test]
    fn diffuse_xcuts_single_heavy_column_stays_partition() {
        let mut hist = vec![0u64; 16];
        hist[0] = 1000;
        let cuts = vec![0, 4, 8, 12, 16];
        let new = diffuse_from_histogram(&cuts, &hist, 0, 3);
        assert_eq!(new[0], 0);
        assert_eq!(*new.last().unwrap(), 16);
        for w in new.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn per_column_counts_aggregates_histogram_slices() {
        let hist = vec![1, 2, 3, 4, 5, 6];
        let cuts = vec![0, 2, 6];
        let mut out = Vec::new();
        per_column_counts_into(&hist, &cuts, &mut out);
        assert_eq!(out, vec![3, 18]);

        let hist = [5u64, 0, 3, 7, 1, 2, 0, 4];
        let mut out = vec![99; 7]; // stale contents must be overwritten
        per_column_counts_into(&hist, &[0, 2, 5, 8], &mut out);
        assert_eq!(out, vec![5, 11, 6]);
        // Degenerate single-column world.
        per_column_counts_into(&hist, &[0, 8], &mut out);
        assert_eq!(out, vec![22]);
    }

    // -- VP assignment fns (moved from pic-ampi) ------------------------

    fn core_loads(loads: &[f64], assignment: &[usize], cores: usize) -> Vec<f64> {
        let mut out = vec![0.0; cores];
        for (vp, &c) in assignment.iter().enumerate() {
            out[c] += loads[vp];
        }
        out
    }

    #[test]
    fn greedy_balances_skewed_loads() {
        let loads = vec![8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let a = greedy_assign(&loads, 2);
        let cl = core_loads(&loads, &a, 2);
        assert!((cl[0] - cl[1]).abs() <= 1.0, "loads {cl:?}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let loads = vec![3.0, 3.0, 3.0, 3.0];
        assert_eq!(greedy_assign(&loads, 2), greedy_assign(&loads, 2));
    }

    #[test]
    fn greedy_handles_nan_load_without_panicking() {
        // Regression: the sort and the heap both used partial_cmp().unwrap().
        let loads = vec![1.0, f64::NAN, 2.0];
        let a = greedy_assign(&loads, 2);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&c| c < 2));
        assert_eq!(
            a,
            greedy_assign(&loads, 2),
            "NaN placement is deterministic"
        );
    }

    #[test]
    fn vp_strategy_rebalance_tolerates_nan_load() {
        let loads = vec![5.0, f64::NAN, 1.0, 1.0];
        let current = vec![0, 0, 1, 1];
        for strat in [
            VpStrategy::None,
            VpStrategy::Greedy,
            VpStrategy::paper_default(),
        ] {
            let a = strat.rebalance(&loads, &current, 2);
            assert_eq!(a.len(), 4);
            assert!(a.iter().all(|&c| c < 2));
        }
    }

    #[test]
    fn refine_moves_from_most_to_least() {
        let loads = vec![4.0, 4.0, 1.0, 1.0];
        let current = vec![0, 0, 0, 1];
        let a = refine_assign(&loads, &current, 2, usize::MAX);
        let cl = core_loads(&loads, &a, 2);
        assert!(cl[0].max(cl[1]) < 9.0, "max load must drop: {cl:?}");
    }

    #[test]
    fn refine_respects_move_budget() {
        let loads = vec![2.0; 10];
        let current = vec![0; 10];
        let a = refine_assign(&loads, &current, 2, 1);
        let moved = a.iter().filter(|&&c| c != 0).count();
        assert!(moved <= 1, "budget of one move, got {moved}");
    }

    #[test]
    fn refine_never_increases_max_load() {
        let loads = vec![5.0, 3.0, 2.0, 2.0, 1.0];
        let current = vec![0, 1, 1, 0, 1];
        let before = core_loads(&loads, &current, 2);
        let a = refine_assign(&loads, &current, 2, usize::MAX);
        let after = core_loads(&loads, &a, 2);
        let max_b = before.iter().cloned().fold(f64::MIN, f64::max);
        let max_a = after.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max_a <= max_b + 1e-12);
    }

    #[test]
    fn refine_noop_when_balanced() {
        let loads = vec![1.0, 1.0, 1.0, 1.0];
        let current = vec![0, 1, 0, 1];
        assert_eq!(refine_assign(&loads, &current, 2, usize::MAX), current);
    }

    #[test]
    fn none_keeps_assignment() {
        let loads = vec![9.0, 1.0];
        let current = vec![1, 1];
        assert_eq!(VpStrategy::None.rebalance(&loads, &current, 2), current);
    }

    #[test]
    fn single_huge_vp_cannot_be_split() {
        let loads = vec![100.0, 1.0, 1.0];
        let a = greedy_assign(&loads, 2);
        let cl = core_loads(&loads, &a, 2);
        assert!(cl.iter().cloned().fold(f64::MIN, f64::max) >= 100.0);
    }

    #[test]
    fn imbalance_of_empty_loads_is_one() {
        assert_eq!(imbalance(&[], &[], 4), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0], &[0, 1], 2), 1.0);
    }

    // -- trait impls -----------------------------------------------------

    #[test]
    fn static_lb_never_wants_and_never_moves() {
        let mut lb = StaticLb;
        assert!(!lb.wants(20));
        assert_eq!(lb.needs(), BalanceNeeds::default());
        let layout = Layout {
            ncells: 16,
            ranks: 4,
            xcuts: &[0, 4, 8, 12, 16],
            ycuts: &[0, 16],
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step: 20,
            col_hist: &[],
            row_counts: &[],
            vp_counts: &[],
        };
        assert_eq!(lb.decide(&input, &layout), BalanceDecision::default());
    }

    #[test]
    fn diffusion_lb_matches_pure_functions() {
        let hist: Vec<u64> = (0..16).map(|c| (16 - c) * 10).collect();
        let xcuts = vec![0, 4, 8, 12, 16];
        let ycuts = vec![0, 16];
        let mut lb = DiffusionLb::new(5, 0, 1, Axes::X);
        assert!(lb.wants(5) && lb.wants(10) && !lb.wants(7));
        assert!(lb.needs().col_hist && !lb.needs().row_counts);
        let layout = Layout {
            ncells: 16,
            ranks: 4,
            xcuts: &xcuts,
            ycuts: &ycuts,
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step: 5,
            col_hist: &hist,
            row_counts: &[],
            vp_counts: &[],
        };
        let d = lb.decide(&input, &layout);
        assert_eq!(d.cuts.len(), 1);
        assert_eq!(d.cuts[0].axis, 'x');
        assert_eq!(
            d.cuts[0].new_cuts,
            diffuse_from_histogram(&xcuts, &hist, 0, 1)
        );
        let mut counts = Vec::new();
        per_column_counts_into(&hist, &xcuts, &mut counts);
        assert_eq!(d.cuts[0].counts, counts);
        assert!(d.vps.is_none() && d.switched.is_none());
    }

    #[test]
    fn vp_lb_records_even_noop_assignments() {
        let mut lb = VpLb::new(5, VpStrategy::None);
        assert_eq!(lb.name(), "vp-none");
        assert!(lb.needs().vp_counts);
        let assignment = vec![0, 1, 0, 1];
        let layout = Layout {
            ncells: 16,
            ranks: 2,
            xcuts: &[],
            ycuts: &[],
            vp_assignment: &assignment,
        };
        let input = BalanceInput {
            step: 5,
            col_hist: &[],
            row_counts: &[],
            vp_counts: &[10, 10, 10, 10],
        };
        let d = lb.decide(&input, &layout);
        let vp = d.vps.expect("always recorded");
        assert_eq!(vp.assignment, assignment);
        assert_eq!(vp.counts, vec![10, 10, 10, 10]);
    }

    fn skewed_input_decision(lb: &mut AdaptiveLb, step: u64, skew: bool) -> BalanceDecision {
        let hist: Vec<u64> = if skew {
            (0..16).map(|c| if c < 4 { 100 } else { 1 }).collect()
        } else {
            vec![10u64; 16]
        };
        let xcuts = vec![0, 4, 8, 12, 16];
        let ycuts = vec![0, 16];
        let layout = Layout {
            ncells: 16,
            ranks: 4,
            xcuts: &xcuts,
            ycuts: &ycuts,
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step,
            col_hist: &hist,
            row_counts: &[],
            vp_counts: &[],
        };
        lb.decide(&input, &layout)
    }

    #[test]
    fn adaptive_escalates_on_sustained_imbalance_and_relaxes_when_flat() {
        let mut lb = AdaptiveLb::cut_arms(5, 0, 1, Axes::X);
        // Three skewed rounds fill the window; the third decides.
        assert!(skewed_input_decision(&mut lb, 5, true).switched.is_none());
        assert!(skewed_input_decision(&mut lb, 10, true).switched.is_none());
        let d = skewed_input_decision(&mut lb, 15, true);
        let sw = d
            .switched
            .expect("window full + high imbalance must switch");
        assert_eq!((sw.from, sw.to, sw.step), ("static", "diffusion", 15));
        assert!(sw.imbalance > ADAPTIVE_HI);
        assert!(!d.cuts.is_empty(), "new arm decides in the same round");
        // The window refills during the 2-round cooldown; once it is full
        // and the cooldown has elapsed, a flat window de-escalates back.
        for step in [20, 25] {
            assert!(skewed_input_decision(&mut lb, step, false)
                .switched
                .is_none());
        }
        let d = skewed_input_decision(&mut lb, 30, false);
        let sw = d.switched.expect("flat window must de-escalate");
        assert_eq!((sw.from, sw.to), ("diffusion", "static"));
    }

    #[test]
    fn adaptive_is_deterministic_across_replicas() {
        let run = || {
            let mut lb = AdaptiveLb::cut_arms(5, 0, 1, Axes::X);
            let mut events = Vec::new();
            for i in 1..=10u64 {
                let skew = i <= 4 || i >= 8;
                if let Some(sw) = skewed_input_decision(&mut lb, i * 5, skew).switched {
                    events.push((sw.step, sw.from, sw.to));
                }
            }
            events
        };
        let a = run();
        assert_eq!(a, run(), "identical inputs must produce identical switches");
        assert!(!a.is_empty());
    }

    #[test]
    fn adaptive_needs_is_union_of_arms() {
        let lb = AdaptiveLb::cut_arms(5, 0, 1, Axes::X);
        assert_eq!(
            lb.needs(),
            BalanceNeeds {
                col_hist: true,
                row_counts: false,
                vp_counts: false
            }
        );
        let lb = AdaptiveLb::cut_arms(5, 0, 1, Axes::XY);
        assert!(lb.needs().col_hist && lb.needs().row_counts && !lb.needs().vp_counts);
    }

    #[test]
    fn adaptive_nan_signal_never_switches() {
        // An all-empty layout yields the neutral signal 1.0; a NaN mean
        // (impossible from counts, but guarded) compares false on both
        // thresholds. Either way: no panic, no switch.
        let mut lb = AdaptiveLb::cut_arms(5, 0, 1, Axes::X);
        let layout = Layout {
            ncells: 16,
            ranks: 2,
            xcuts: &[],
            ycuts: &[],
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step: 5,
            col_hist: &[],
            row_counts: &[],
            vp_counts: &[],
        };
        for _ in 0..6 {
            assert!(lb.decide(&input, &layout).switched.is_none());
        }
    }
}
