//! Post-run cache reports: per-region and per-process hit/miss
//! breakdowns, text rendering and JSON export.

use crate::hierarchy::Level;
use agave_trace::{json, NameDirectory, NameId, Pid};
use std::collections::BTreeMap;
use std::fmt;

/// Hit/miss counters for one level of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses served by this level.
    pub hits: u64,
    /// Accesses passed down (or, for the last level, to memory).
    pub misses: u64,
}

impl LevelStats {
    /// Total lookups at this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in 0.0–1.0 (0.0 when the level was never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.misses as f64 / (self.hits + self.misses) as f64
        }
    }

    /// Records one access.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Adds another counter pair into this one.
    pub fn absorb(&mut self, other: LevelStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Per-level stats for one named row (a region or a process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionRow {
    /// Region (or process) name.
    pub name: String,
    /// Stats indexed by [`Level::index`].
    pub levels: [LevelStats; 5],
}

impl RegionRow {
    /// Stats for one level.
    pub fn level(&self, level: Level) -> LevelStats {
        self.levels[level.index()]
    }

    /// Combined L1I + L1D accesses — the row's total reference count,
    /// used for ranking.
    pub fn l1_accesses(&self) -> u64 {
        self.level(Level::L1i).accesses() + self.level(Level::L1d).accesses()
    }

    fn to_json(&self, key: &str) -> String {
        let mut obj = json::Object::new();
        obj.field_str(key, &self.name);
        for level in Level::ALL {
            let s = self.level(level);
            let mut l = json::Object::new();
            l.field_u64("hits", s.hits)
                .field_u64("misses", s.misses)
                .field_f64("miss_rate", s.miss_rate());
            obj.field_raw(level.label(), &l.finish());
        }
        obj.finish()
    }
}

/// The distilled result of running one benchmark through a
/// [`crate::MemoryHierarchy`].
///
/// Produced by [`crate::MemoryHierarchy::report`]; rendered by
/// [`CacheReport::render`] for the CLI and serialized by
/// [`CacheReport::to_json`] for artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheReport {
    /// Benchmark label.
    pub benchmark: String,
    /// Geometry preset name the run used.
    pub preset: String,
    /// Whole-run stats indexed by [`Level::index`].
    pub totals: [LevelStats; 5],
    /// Per-region rows, descending by total L1 accesses.
    pub regions: Vec<RegionRow>,
    /// Per-process rows, descending by total L1 accesses.
    pub processes: Vec<RegionRow>,
}

impl CacheReport {
    /// Builds a report from per-(process, region) counter rows,
    /// resolving ids through `dir`.
    ///
    /// Rows are aggregated per region name (processes summed), sorted by
    /// total L1 accesses descending; per-process totals ride along.
    pub(crate) fn from_rows(
        benchmark: &str,
        preset: &str,
        dir: &NameDirectory,
        rows: impl Iterator<Item = ((Pid, NameId), [LevelStats; 5])>,
        totals: [LevelStats; 5],
    ) -> Self {
        let mut by_region: BTreeMap<String, [LevelStats; 5]> = BTreeMap::new();
        let mut by_process: BTreeMap<String, [LevelStats; 5]> = BTreeMap::new();
        for ((pid, region), stats) in rows {
            let region_name = dir.region(region).to_owned();
            let proc_name = dir.process(pid).to_owned();
            for (level, s) in Level::ALL.iter().zip(stats) {
                by_region.entry(region_name.clone()).or_default()[level.index()].absorb(s);
                by_process.entry(proc_name.clone()).or_default()[level.index()].absorb(s);
            }
        }
        let ranked = |rows: BTreeMap<String, [LevelStats; 5]>| {
            let mut rows: Vec<RegionRow> = rows
                .into_iter()
                .map(|(name, levels)| RegionRow { name, levels })
                .collect();
            rows.sort_by(|a, b| {
                b.l1_accesses()
                    .cmp(&a.l1_accesses())
                    .then_with(|| a.name.cmp(&b.name))
            });
            rows
        };
        CacheReport {
            benchmark: benchmark.to_owned(),
            preset: preset.to_owned(),
            totals,
            regions: ranked(by_region),
            processes: ranked(by_process),
        }
    }

    /// Whole-run stats for one level.
    pub fn total(&self, level: Level) -> LevelStats {
        self.totals[level.index()]
    }

    /// Whole-run L1I miss rate — the paper-implied locality headline.
    pub fn l1i_miss_rate(&self) -> f64 {
        self.total(Level::L1i).miss_rate()
    }

    /// Whole-run L1D miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        self.total(Level::L1d).miss_rate()
    }

    /// Stats of a region by name, if it issued references.
    pub fn region(&self, name: &str) -> Option<&RegionRow> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Renders the report as a fixed-width table: the `top` regions by
    /// reference count with L1I / L1D / L2 accesses and miss rates, then
    /// whole-run totals including TLBs.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cache report: {} (preset {})\n",
            self.benchmark, self.preset
        ));
        let shown = &self.regions[..self.regions.len().min(top)];
        let name_w = shown
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once("region".len()))
            .max()
            .unwrap_or(6);
        out.push_str(&format!(
            "{:name_w$}  {:>14} {:>7}  {:>14} {:>7}  {:>14} {:>7}\n",
            "region", "L1I acc", "miss%", "L1D acc", "miss%", "L2 acc", "miss%"
        ));
        for row in shown {
            out.push_str(&format!("{:name_w$}", row.name));
            for level in [Level::L1i, Level::L1d, Level::L2] {
                let s = row.level(level);
                out.push_str(&format!(
                    "  {:>14} {:>6.2}%",
                    s.accesses(),
                    s.miss_rate() * 100.0
                ));
            }
            out.push('\n');
        }
        if self.regions.len() > shown.len() {
            out.push_str(&format!(
                "… and {} more regions\n",
                self.regions.len() - shown.len()
            ));
        }
        out.push_str("totals:");
        for level in Level::ALL {
            let s = self.total(level);
            out.push_str(&format!(
                "  {} {}/{} ({:.2}% miss)",
                level.label(),
                s.hits,
                s.misses,
                s.miss_rate() * 100.0
            ));
        }
        out.push('\n');
        out
    }

    /// Serializes the full report (all regions and processes) as JSON.
    pub fn to_json(&self) -> String {
        let mut totals = json::Object::new();
        for level in Level::ALL {
            let s = self.total(level);
            let mut l = json::Object::new();
            l.field_u64("hits", s.hits)
                .field_u64("misses", s.misses)
                .field_f64("miss_rate", s.miss_rate());
            totals.field_raw(level.label(), &l.finish());
        }
        json::Object::new()
            .field_str("benchmark", &self.benchmark)
            .field_str("preset", &self.preset)
            .field_raw("totals", &totals.finish())
            .field_raw(
                "regions",
                &json::array(self.regions.iter().map(|r| r.to_json("region"))),
            )
            .field_raw(
                "processes",
                &json::array(self.processes.iter().map(|r| r.to_json("process"))),
            )
            .finish()
    }
}

impl fmt::Display for CacheReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64) -> LevelStats {
        LevelStats { hits, misses }
    }

    fn sample() -> CacheReport {
        let mk = |name: &str, l1i: LevelStats| RegionRow {
            name: name.to_owned(),
            levels: [l1i, stats(50, 50), stats(3, 1), stats(9, 1), stats(8, 2)],
        };
        CacheReport {
            benchmark: "demo".to_owned(),
            preset: "tiny".to_owned(),
            totals: [
                stats(900, 100),
                stats(100, 100),
                stats(6, 2),
                stats(18, 2),
                stats(16, 4),
            ],
            regions: vec![
                mk("libdvm.so", stats(800, 50)),
                mk("libc.so", stats(100, 50)),
            ],
            processes: vec![mk("system_server", stats(900, 100))],
        }
    }

    #[test]
    fn miss_rates_divide_correctly() {
        assert_eq!(stats(0, 0).miss_rate(), 0.0);
        assert!((stats(3, 1).miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(stats(3, 1).accesses(), 4);
    }

    #[test]
    fn record_and_absorb_accumulate() {
        let mut s = LevelStats::default();
        s.record(true);
        s.record(false);
        s.absorb(stats(10, 5));
        assert_eq!(s, stats(11, 6));
    }

    #[test]
    fn render_lists_top_regions_and_totals() {
        let r = sample();
        let text = r.render(1);
        assert!(text.contains("preset tiny"));
        assert!(text.contains("libdvm.so"));
        assert!(!text.contains("libc.so")); // truncated by top=1
        assert!(text.contains("and 1 more regions"));
        assert!(text.contains("L1I 900/100 (10.00% miss)"));
        assert!(text.contains("DTLB"));
    }

    #[test]
    fn json_contains_all_levels_and_rows() {
        let j = sample().to_json();
        assert!(j.starts_with(r#"{"benchmark":"demo","preset":"tiny""#));
        for label in ["L1I", "L1D", "L2", "ITLB", "DTLB"] {
            assert!(j.contains(&format!("\"{label}\"")), "missing {label}");
        }
        assert!(j.contains(r#""region":"libdvm.so""#));
        assert!(j.contains(r#""process":"system_server""#));
        assert!(j.contains(r#""miss_rate":0.25"#));
    }

    #[test]
    fn headline_rates_use_totals() {
        let r = sample();
        assert!((r.l1i_miss_rate() - 0.1).abs() < 1e-12);
        assert!((r.l1d_miss_rate() - 0.5).abs() < 1e-12);
        assert!(r.region("libc.so").is_some());
        assert!(r.region("nope").is_none());
    }
}
