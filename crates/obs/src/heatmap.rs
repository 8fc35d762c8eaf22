//! Hot-spot heatmaps: per-switch, per-stage matrices over the fabric.
//!
//! The paper's hot-spot discussion (§3.1.2, §4.2) is about *where*
//! combining happens — which stages absorb a fetch-and-add storm, where
//! queues back up. A [`HeatmapSnapshot`] captures exactly that at one
//! moment: stage-major matrices of cumulative combine counts, request
//! queue high-water marks and instantaneous wait-buffer occupancy, one
//! cell per switch. Snapshots from the `d` replicated network copies
//! merge element-wise, and the ASCII renderer downsamples wide stages
//! so a 4096-PE fabric still fits a terminal.

use crate::json::JsonObject;

/// Per-switch matrices sampled from an Omega network (or merged across
/// the replicated copies).
///
/// All three matrices are stage-major: the cell for switch `i` of stage
/// `s` lives at index `s * width + i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapSnapshot {
    stages: usize,
    width: usize,
    combines: Vec<u64>,
    queue_high_water: Vec<u64>,
    wait_occupancy: Vec<u64>,
}

impl HeatmapSnapshot {
    /// A zeroed snapshot for a fabric of `stages × width` switches.
    #[must_use]
    pub fn new(stages: usize, width: usize) -> Self {
        let cells = stages * width;
        Self {
            stages,
            width,
            combines: vec![0; cells],
            queue_high_water: vec![0; cells],
            wait_occupancy: vec![0; cells],
        }
    }

    /// Number of stages (matrix rows).
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Switches per stage (matrix columns).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Records one switch's cell values.
    ///
    /// # Panics
    ///
    /// Panics if `stage`/`index` are out of range.
    pub fn record(&mut self, stage: usize, index: usize, combines: u64, queue_hw: u64, wait: u64) {
        assert!(stage < self.stages && index < self.width, "cell in range");
        let cell = stage * self.width + index;
        self.combines[cell] = combines;
        self.queue_high_water[cell] = queue_hw;
        self.wait_occupancy[cell] = wait;
    }

    /// Merges another copy's snapshot: combines and wait occupancy sum,
    /// queue high-water takes the max.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &HeatmapSnapshot) {
        assert_eq!(self.stages, other.stages, "same stage count");
        assert_eq!(self.width, other.width, "same stage width");
        for (a, b) in self.combines.iter_mut().zip(&other.combines) {
            *a += b;
        }
        for (a, b) in self
            .queue_high_water
            .iter_mut()
            .zip(&other.queue_high_water)
        {
            *a = (*a).max(*b);
        }
        for (a, b) in self.wait_occupancy.iter_mut().zip(&other.wait_occupancy) {
            *a += b;
        }
    }

    /// Stage-major combine counts.
    #[must_use]
    pub fn combines(&self) -> &[u64] {
        &self.combines
    }

    /// Stage-major request-queue high-water marks (packets).
    #[must_use]
    pub fn queue_high_water(&self) -> &[u64] {
        &self.queue_high_water
    }

    /// Stage-major wait-buffer occupancy (entries outstanding at the
    /// sample instant).
    #[must_use]
    pub fn wait_occupancy(&self) -> &[u64] {
        &self.wait_occupancy
    }

    /// Renders the snapshot as a JSON object of stage-major value grids.
    #[must_use]
    pub fn to_json(&self) -> String {
        let grid = |values: &[u64]| {
            let rows: Vec<String> = values
                .chunks(self.width.max(1))
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(u64::to_string).collect();
                    format!("[{}]", cells.join(", "))
                })
                .collect();
            format!("[{}]", rows.join(", "))
        };
        JsonObject::new()
            .uint("stages", self.stages as u64)
            .uint("width", self.width as u64)
            .raw("combines", grid(&self.combines))
            .raw("queue_high_water", grid(&self.queue_high_water))
            .raw("wait_occupancy", grid(&self.wait_occupancy))
            .render()
    }

    /// Renders the three matrices as ASCII heatmaps, one row per stage,
    /// downsampled to at most `max_cols` columns. Each matrix is
    /// normalized to its own maximum over the ramp `" .:-=+*#%@"`.
    #[must_use]
    pub fn render_ascii(&self, max_cols: usize) -> String {
        let mut out = String::new();
        out.push_str(&render_matrix(
            "combines",
            &self.combines,
            self.stages,
            self.width,
            max_cols,
            Reduce::Sum,
        ));
        out.push_str(&render_matrix(
            "queue high-water",
            &self.queue_high_water,
            self.stages,
            self.width,
            max_cols,
            Reduce::Max,
        ));
        out.push_str(&render_matrix(
            "wait occupancy",
            &self.wait_occupancy,
            self.stages,
            self.width,
            max_cols,
            Reduce::Sum,
        ));
        out
    }
}

/// How neighbouring cells fold together when a stage is downsampled.
#[derive(Clone, Copy)]
enum Reduce {
    Sum,
    Max,
}

const RAMP: &[u8] = b" .:-=+*#%@";

fn render_matrix(
    title: &str,
    cells: &[u64],
    stages: usize,
    width: usize,
    max_cols: usize,
    reduce: Reduce,
) -> String {
    let cols = width.min(max_cols.max(1));
    let peak = cells.iter().copied().max().unwrap_or(0);
    let mut out = format!("  {title} (per switch, peak {peak}):\n");
    for stage in 0..stages {
        let row = &cells[stage * width..(stage + 1) * width];
        out.push_str(&format!("    s{stage:<2} |"));
        for col in 0..cols {
            // Fold the contiguous cell range this column covers.
            let lo = col * width / cols;
            let hi = ((col + 1) * width / cols).max(lo + 1);
            let folded = match reduce {
                Reduce::Sum => row[lo..hi].iter().sum::<u64>(),
                Reduce::Max => row[lo..hi].iter().copied().max().unwrap_or(0),
            };
            out.push(shade(folded, peak, reduce, (hi - lo) as u64));
        }
        out.push_str("|\n");
    }
    out
}

/// Picks a ramp character for a folded value against the matrix peak
/// (scaled by the fold width for summing reductions, so downsampling
/// does not saturate the shading).
fn shade(value: u64, peak: u64, reduce: Reduce, fold: u64) -> char {
    let scale = match reduce {
        Reduce::Sum => peak.saturating_mul(fold),
        Reduce::Max => peak,
    };
    if scale == 0 || value == 0 {
        return RAMP[0] as char;
    }
    let last = RAMP.len() as u64 - 1;
    // Ceiling division: any nonzero value shades at least `.`, the peak
    // shades `@`.
    let level = value.saturating_mul(last).div_ceil(scale);
    RAMP[level.clamp(1, last) as usize] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut h = HeatmapSnapshot::new(2, 4);
        h.record(1, 2, 10, 3, 1);
        assert_eq!(h.combines()[4 + 2], 10);
        assert_eq!(h.queue_high_water()[6], 3);
        assert_eq!(h.wait_occupancy()[6], 1);
        assert_eq!(h.stages(), 2);
        assert_eq!(h.width(), 4);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = HeatmapSnapshot::new(1, 2);
        a.record(0, 0, 5, 7, 2);
        let mut b = HeatmapSnapshot::new(1, 2);
        b.record(0, 0, 3, 4, 1);
        b.record(0, 1, 1, 9, 0);
        a.merge(&b);
        assert_eq!(a.combines(), &[8, 1]);
        assert_eq!(a.queue_high_water(), &[7, 9]);
        assert_eq!(a.wait_occupancy(), &[3, 0]);
    }

    #[test]
    fn ascii_rows_match_stage_count_and_width() {
        let mut h = HeatmapSnapshot::new(3, 8);
        h.record(0, 0, 100, 5, 2);
        h.record(2, 7, 1, 1, 1);
        let text = h.render_ascii(8);
        // Three matrices × (title + 3 stage rows).
        assert_eq!(text.lines().count(), 3 * 4);
        let row = text.lines().nth(1).unwrap();
        let cells = row.split('|').nth(1).unwrap();
        assert_eq!(cells.len(), 8);
        assert!(text.contains("combines (per switch, peak 100)"));
        // The hot cell shades darkest, untouched cells stay blank.
        assert!(cells.starts_with('@'));
        assert!(cells.ends_with(' '));
    }

    #[test]
    fn downsampling_folds_columns() {
        let mut h = HeatmapSnapshot::new(1, 16);
        for i in 0..16 {
            h.record(0, i, 4, 2, 0);
        }
        let text = h.render_ascii(4);
        let row = text.lines().nth(1).unwrap();
        let cells = row.split('|').nth(1).unwrap();
        assert_eq!(cells.len(), 4, "16 switches fold into 4 columns");
        // A uniform matrix folds into uniform shading.
        assert!(cells.chars().all(|c| c == cells.chars().next().unwrap()));
    }

    #[test]
    fn empty_snapshot_renders_blank() {
        let h = HeatmapSnapshot::new(2, 2);
        let text = h.render_ascii(80);
        assert!(text.contains("peak 0"));
        assert!(!text.contains('@'));
    }
}
