//! Cache and TLB geometries, the named hierarchy presets, and the one
//! place geometry names resolve: [`HierarchyGeometry::by_name`].
//!
//! Every layer that accepts a geometry on its surface — `agave cache
//! --preset`, `agave replay --cache`, the served `ANALYZE`/`SWEEP`
//! verbs, `agave sweep` grid cells — funnels through `by_name`, so the
//! accepted grammar and the unknown-name diagnostics live here and
//! nowhere else. Besides the built-in presets, `by_name` accepts *L1
//! cell specs* of the form `size=16k,assoc=2,line=32`: a cortex-a9
//! hierarchy with both L1 sides replaced by the requested capacity,
//! associativity, and line size — the coordinate system of a design-
//! space sweep, where every grid cell must also be reproducible as a
//! standalone replay.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// The most model state, in bytes ([`HierarchyGeometry::model_bytes`]),
/// one geometry name or sweep grid from the CLI or the wire may ask for.
pub const MODEL_BUDGET_BYTES: u64 = 64 << 20;

/// Geometry of one set-associative cache level.
///
/// All three parameters must be powers of two so set index and tag are
/// pure bit fields of the address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (lines per set); 1 = direct-mapped.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }

    /// Panics unless every parameter is a nonzero power of two.
    pub fn validate(&self) {
        for (what, v) in [
            ("sets", self.sets),
            ("ways", self.ways),
            ("line_bytes", self.line_bytes),
        ] {
            assert!(
                v.is_power_of_two(),
                "{what} must be a power of two, got {v}"
            );
        }
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity_bytes();
        if cap.is_multiple_of(1024) {
            write!(f, "{} KiB", cap / 1024)?;
        } else {
            write!(f, "{cap} B")?;
        }
        write!(f, " {}-way, {} B lines", self.ways, self.line_bytes)
    }
}

/// Geometry of a fully-associative TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Number of entries.
    pub entries: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u32,
}

impl TlbGeometry {
    /// Address span covered when every entry is live.
    pub fn reach_bytes(&self) -> u64 {
        u64::from(self.entries) * u64::from(self.page_bytes)
    }
}

impl fmt::Display for TlbGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries, {} KiB pages",
            self.entries,
            self.page_bytes / 1024
        )
    }
}

/// A full hierarchy configuration: split L1, unified L2, split TLBs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyGeometry {
    /// Preset name (`"cortex-a9"`, `"tiny"`, …).
    pub name: &'static str,
    /// L1 instruction cache.
    pub l1i: CacheGeometry,
    /// L1 data cache.
    pub l1d: CacheGeometry,
    /// Unified second-level cache.
    pub l2: CacheGeometry,
    /// Instruction TLB.
    pub itlb: TlbGeometry,
    /// Data TLB.
    pub dtlb: TlbGeometry,
}

impl HierarchyGeometry {
    /// A Cortex-A9-class hierarchy, contemporary with the Gingerbread-era
    /// devices the paper models: 32 KiB 4-way split L1 with 32 B lines,
    /// 512 KiB 8-way unified L2, 32-entry split TLBs over 4 KiB pages.
    pub fn cortex_a9() -> Self {
        HierarchyGeometry {
            name: "cortex-a9",
            l1i: CacheGeometry {
                sets: 256,
                ways: 4,
                line_bytes: 32,
            },
            l1d: CacheGeometry {
                sets: 256,
                ways: 4,
                line_bytes: 32,
            },
            l2: CacheGeometry {
                sets: 2048,
                ways: 8,
                line_bytes: 32,
            },
            itlb: TlbGeometry {
                entries: 32,
                page_bytes: 4096,
            },
            dtlb: TlbGeometry {
                entries: 32,
                page_bytes: 4096,
            },
        }
    }

    /// A deliberately tiny hierarchy for fast, eviction-heavy tests:
    /// 1 KiB 2-way split L1 with 16 B lines, 8 KiB 4-way L2, 4-entry
    /// TLBs.
    pub fn tiny() -> Self {
        HierarchyGeometry {
            name: "tiny",
            l1i: CacheGeometry {
                sets: 32,
                ways: 2,
                line_bytes: 16,
            },
            l1d: CacheGeometry {
                sets: 32,
                ways: 2,
                line_bytes: 16,
            },
            l2: CacheGeometry {
                sets: 128,
                ways: 4,
                line_bytes: 16,
            },
            itlb: TlbGeometry {
                entries: 4,
                page_bytes: 4096,
            },
            dtlb: TlbGeometry {
                entries: 4,
                page_bytes: 4096,
            },
        }
    }

    /// Names of all built-in presets.
    pub const PRESET_NAMES: [&'static str; 2] = ["cortex-a9", "tiny"];

    /// Looks up a preset by name.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "cortex-a9" => Some(Self::cortex_a9()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }

    /// Resolves any geometry name the suite accepts: a built-in preset
    /// (`cortex-a9`, `tiny`) or an L1 cell spec
    /// (`size=<cap>,assoc=<ways>,line=<bytes>`, e.g.
    /// `size=16k,assoc=2,line=32`). This is the single lookup every
    /// CLI flag and wire verb resolves through; the error carries the
    /// full list of valid names and the spec grammar.
    pub fn by_name(name: &str) -> Result<Self, GeometryError> {
        if let Some(preset) = Self::preset(name) {
            return Ok(preset);
        }
        if name.contains('=') {
            return Self::parse_l1_spec(name);
        }
        Err(GeometryError::unknown(name))
    }

    /// A cortex-a9 hierarchy with both L1 sides replaced by an
    /// `l1_bytes`-capacity, `assoc`-way cache with `line_bytes` lines —
    /// one cell of a design-space sweep. The L2 and TLBs stay at the
    /// cortex-a9 base so cells differ only along the swept axes.
    ///
    /// The cell's canonical name (`size=16k,assoc=2,line=32`) round-
    /// trips through [`HierarchyGeometry::by_name`], which is what lets
    /// a sweep cell be re-run standalone with byte-identical reports.
    pub fn with_l1(l1_bytes: u64, assoc: u32, line_bytes: u32) -> Result<Self, GeometryError> {
        let bad = |what: String| Err(GeometryError::BadSpec(what));
        if !(assoc as u64).is_power_of_two() || !(line_bytes as u64).is_power_of_two() {
            return bad(format!(
                "assoc ({assoc}) and line ({line_bytes}) must be powers of two"
            ));
        }
        let way_bytes = u64::from(assoc) * u64::from(line_bytes);
        if l1_bytes == 0 || !l1_bytes.is_multiple_of(way_bytes) {
            return bad(format!(
                "size ({l1_bytes}) must be a multiple of assoc*line ({way_bytes})"
            ));
        }
        let sets = l1_bytes / way_bytes;
        if !sets.is_power_of_two() || sets > u64::from(u32::MAX) {
            return bad(format!(
                "size/(assoc*line) must be a power-of-two set count, got {sets}"
            ));
        }
        let l1 = CacheGeometry {
            sets: sets as u32,
            ways: assoc,
            line_bytes,
        };
        let name = format!(
            "size={},assoc={assoc},line={line_bytes}",
            format_size(l1_bytes)
        );
        let cell = HierarchyGeometry {
            l1i: l1,
            l1d: l1,
            ..Self::cortex_a9()
        };
        let bytes = cell.model_bytes();
        if bytes > MODEL_BUDGET_BYTES {
            return Err(GeometryError::OverBudget { what: name, bytes });
        }
        Ok(HierarchyGeometry {
            name: intern_name(&name),
            ..cell
        })
    }

    /// Parses an L1 cell spec (`size=16k,assoc=2,line=32`; keys in any
    /// order, each exactly once).
    fn parse_l1_spec(spec: &str) -> Result<Self, GeometryError> {
        let mut size = None;
        let mut assoc = None;
        let mut line = None;
        for part in spec.split(',') {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                GeometryError::BadSpec(format!("expected key=value, got {part:?}"))
            })?;
            let slot = match key {
                "size" => &mut size,
                "assoc" => &mut assoc,
                "line" => &mut line,
                other => {
                    return Err(GeometryError::BadSpec(format!(
                        "unknown key {other:?} (want size, assoc, line)"
                    )))
                }
            };
            if slot.is_some() {
                return Err(GeometryError::BadSpec(format!("duplicate key {key:?}")));
            }
            *slot = Some(
                parse_size(value)
                    .ok_or_else(|| GeometryError::BadSpec(format!("bad {key} value {value:?}")))?,
            );
        }
        match (size, assoc, line) {
            (Some(size), Some(assoc), Some(line)) => {
                let narrow = |v: u64, what: &str| {
                    u32::try_from(v)
                        .map_err(|_| GeometryError::BadSpec(format!("{what} too large ({v})")))
                };
                Self::with_l1(size, narrow(assoc, "assoc")?, narrow(line, "line")?)
            }
            _ => Err(GeometryError::BadSpec(
                "spec needs all of size=, assoc=, line=".to_owned(),
            )),
        }
    }

    /// Panics unless every level's geometry is well-formed.
    pub fn validate(&self) {
        self.l1i.validate();
        self.l1d.validate();
        self.l2.validate();
        assert!(self.itlb.page_bytes.is_power_of_two());
        assert!(self.dtlb.page_bytes.is_power_of_two());
    }

    /// Bytes of model state a hierarchy of this geometry allocates: a
    /// line number and a recency stamp per way, and a hint per set.
    pub fn model_bytes(&self) -> u64 {
        let tlbs = [self.itlb, self.dtlb].map(|t| (1, t.entries));
        let caches = [self.l1i, self.l1d, self.l2].map(|c| (c.sets, c.ways));
        caches
            .into_iter()
            .chain(tlbs)
            .map(|(sets, ways)| u64::from(sets).saturating_mul(u64::from(ways) * 16 + 8))
            .fold(0, u64::saturating_add)
    }
}

/// Why a geometry name failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The name is neither a preset nor an L1 cell spec.
    Unknown {
        /// The rejected name.
        name: String,
    },
    /// The name looked like a cell spec but did not parse or validate.
    BadSpec(String),
    /// The geometry (or sweep grid) is valid but would model more state
    /// than [`MODEL_BUDGET_BYTES`] allows.
    OverBudget {
        /// The rejected geometry or grid.
        what: String,
        /// Model state it asked for, in bytes.
        bytes: u64,
    },
}

impl GeometryError {
    fn unknown(name: &str) -> Self {
        GeometryError::Unknown {
            name: name.to_owned(),
        }
    }
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Unknown { name } => write!(
                f,
                "unknown geometry {name:?}; valid: {} or an L1 spec like size=16k,assoc=2,line=32",
                HierarchyGeometry::PRESET_NAMES.join(", ")
            ),
            GeometryError::BadSpec(what) => write!(
                f,
                "bad geometry spec: {what} (format: size=16k,assoc=2,line=32)"
            ),
            GeometryError::OverBudget { what, bytes } => write!(
                f,
                "{what} would model {bytes} bytes of cache state, over the {} \
                 model budget (MODEL_BUDGET_BYTES = {MODEL_BUDGET_BYTES})",
                format_size(MODEL_BUDGET_BYTES)
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Parses `"16k"`, `"1m"`, or a plain byte count.
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// Renders a byte count the way cell names spell it (`16k` when it
/// divides evenly, raw bytes otherwise) — the inverse of [`parse_size`]
/// on canonical names.
pub fn format_size(bytes: u64) -> String {
    if bytes > 0 && bytes.is_multiple_of(1024 * 1024) {
        format!("{}m", bytes / (1024 * 1024))
    } else if bytes > 0 && bytes.is_multiple_of(1024) {
        format!("{}k", bytes / 1024)
    } else {
        bytes.to_string()
    }
}

/// Leak-once interning for dynamic geometry names.
///
/// [`HierarchyGeometry`] is `Copy` with a `&'static str` name — the
/// right shape for the hot path, where geometries are passed by value
/// everywhere. Sweep cells need *computed* names, so each distinct cell
/// name is leaked exactly once and reused forever after; a long-running
/// server resolving the same grids repeatedly does not grow.
fn intern_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut map = NAMES
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("geometry name table poisoned");
    if let Some(&interned) = map.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
    map.insert(name.to_owned(), interned);
    interned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cortex_a9_matches_datasheet_capacities() {
        let g = HierarchyGeometry::cortex_a9();
        g.validate();
        assert_eq!(g.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(g.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(g.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(g.itlb.reach_bytes(), 128 * 1024);
    }

    #[test]
    fn tiny_is_small() {
        let g = HierarchyGeometry::tiny();
        g.validate();
        assert_eq!(g.l1i.capacity_bytes(), 1024);
        assert_eq!(g.l2.capacity_bytes(), 8 * 1024);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in HierarchyGeometry::PRESET_NAMES {
            let g = HierarchyGeometry::preset(name).unwrap();
            assert_eq!(g.name, name);
        }
        assert!(HierarchyGeometry::preset("nope").is_none());
    }

    #[test]
    fn by_name_resolves_presets_and_cell_specs() {
        assert_eq!(
            HierarchyGeometry::by_name("cortex-a9").unwrap(),
            HierarchyGeometry::cortex_a9()
        );
        let cell = HierarchyGeometry::by_name("size=16k,assoc=2,line=32").unwrap();
        cell.validate();
        assert_eq!(cell.name, "size=16k,assoc=2,line=32");
        assert_eq!(cell.l1i.capacity_bytes(), 16 * 1024);
        assert_eq!(cell.l1i.ways, 2);
        assert_eq!(cell.l1i.line_bytes, 32);
        assert_eq!(cell.l1i, cell.l1d);
        // Only the L1s move; the rest stays at the cortex-a9 base.
        let base = HierarchyGeometry::cortex_a9();
        assert_eq!(cell.l2, base.l2);
        assert_eq!(cell.itlb, base.itlb);
        assert_eq!(cell.dtlb, base.dtlb);
    }

    #[test]
    fn cell_names_round_trip_and_intern_once() {
        let a = HierarchyGeometry::with_l1(64 * 1024, 4, 64).unwrap();
        assert_eq!(a.name, "size=64k,assoc=4,line=64");
        let b = HierarchyGeometry::by_name(a.name).unwrap();
        assert_eq!(a, b);
        // Same spec spelled differently canonicalizes to one interned str.
        let c = HierarchyGeometry::by_name("line=64,size=65536,assoc=4").unwrap();
        assert!(std::ptr::eq(a.name, c.name));
    }

    #[test]
    fn by_name_rejects_with_useful_messages() {
        let err = HierarchyGeometry::by_name("nope").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cortex-a9") && msg.contains("tiny"), "{msg}");
        assert!(msg.contains("size=16k,assoc=2,line=32"), "{msg}");
        for bad in [
            "size=16k",                       // missing keys
            "size=16k,assoc=2,line=32,zap=1", // unknown key
            "size=16k,assoc=2,assoc=2",       // duplicate key
            "size=16q,assoc=2,line=32",       // bad number
            "size=16k,assoc=3,line=32",       // non-power-of-two assoc
            "size=17k,assoc=2,line=32",       // size not multiple of way
            "size=24k,assoc=2,line=32",       // non-power-of-two sets
        ] {
            assert!(
                matches!(
                    HierarchyGeometry::by_name(bad),
                    Err(GeometryError::BadSpec(_))
                ),
                "{bad} should be rejected"
            );
        }
        // Valid, but over the model budget; every preset stays inside it.
        let err = HierarchyGeometry::by_name("size=4096m,assoc=1,line=4").unwrap_err();
        assert!(matches!(err, GeometryError::OverBudget { .. }), "{err:?}");
        assert!(err.to_string().contains("MODEL_BUDGET_BYTES"), "{err}");
        for name in HierarchyGeometry::PRESET_NAMES {
            assert!(HierarchyGeometry::by_name(name).unwrap().model_bytes() < MODEL_BUDGET_BYTES);
        }
    }

    #[test]
    fn size_formatting_round_trips() {
        for (text, bytes) in [("16k", 16 * 1024), ("2m", 2 * 1024 * 1024), ("100", 100)] {
            assert_eq!(parse_size(text), Some(bytes));
            assert_eq!(format_size(bytes), text);
        }
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("k"), None);
        assert_eq!(parse_size("-4k"), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_non_power_of_two() {
        CacheGeometry {
            sets: 3,
            ways: 2,
            line_bytes: 32,
        }
        .validate();
    }

    #[test]
    fn display_is_readable() {
        let g = HierarchyGeometry::cortex_a9();
        assert_eq!(g.l1i.to_string(), "32 KiB 4-way, 32 B lines");
        assert_eq!(g.itlb.to_string(), "32 entries, 4 KiB pages");
    }
}
