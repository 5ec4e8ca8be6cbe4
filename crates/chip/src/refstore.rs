//! Reference-store SRAM model.
//!
//! §3.2: "a key element of our design is an SRAM array reference store
//! that holds the motion search window. A reference store of 144K
//! pixels can support each pixel in a tile column to be loaded exactly
//! once during that column's processing … The reference store supports
//! LRU eviction." This module models that cache: motion-search accesses
//! against reference frames either hit the store or cost DRAM reads,
//! and the ablation bench compares DRAM traffic with and without it.

use std::collections::VecDeque;

/// Reference-store geometry (paper footnote 4): 768 × 192 pixels =
/// 144K pixels, covering a 512-pixel tile column plus a ±128 horizontal
/// search margin, and a 64-pixel macroblock plus two 64-pixel vertical
/// windows.
pub(crate) const STORE_WIDTH: usize = 768;
/// Store height in pixels.
pub(crate) const STORE_HEIGHT: usize = 192;
/// Total capacity in pixels.
pub const STORE_PIXELS: usize = STORE_WIDTH * STORE_HEIGHT;

/// Cache line granularity: one 64×64 superblock row strip of 64×16
/// pixels (the H.264 raster-store configuration of footnote 5).
const LINE_W: usize = 64;
const LINE_H: usize = 16;
/// Pixels per cache line.
pub(crate) const LINE_PIXELS: usize = LINE_W * LINE_H;

/// A line address within the reference frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LineAddr {
    lx: usize,
    ly: usize,
}

/// LRU reference store: tracks which reference-frame lines are
/// resident and meters DRAM traffic for misses.
#[derive(Debug, Clone)]
pub struct RefStore {
    /// Capacity in lines.
    capacity_lines: usize,
    /// Resident lines in LRU order (front = least recent).
    resident: VecDeque<LineAddr>,
    /// DRAM bytes read due to misses.
    pub dram_bytes_read: u64,
    /// Access counts.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
}

impl Default for RefStore {
    fn default() -> Self {
        Self::new(STORE_PIXELS)
    }
}

impl RefStore {
    /// Creates a store with a pixel capacity (use [`STORE_PIXELS`] for
    /// the production geometry; 0 disables caching entirely).
    pub fn new(capacity_pixels: usize) -> Self {
        RefStore {
            capacity_lines: capacity_pixels / LINE_PIXELS,
            resident: VecDeque::new(),
            dram_bytes_read: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches the window of reference pixels needed to search a
    /// macroblock at `(x, y)` with a `±range` search window; counts
    /// hits/misses and DRAM traffic per missed line.
    pub(crate) fn access_search_window(&mut self, x: usize, y: usize, mb: usize, range: usize) {
        let x0 = x.saturating_sub(range);
        let y0 = y.saturating_sub(range);
        let x1 = x + mb + range;
        let y1 = y + mb + range;
        let mut ly = y0 / LINE_H;
        while ly * LINE_H < y1 {
            let mut lx = x0 / LINE_W;
            while lx * LINE_W < x1 {
                self.touch(LineAddr { lx, ly });
                lx += 1;
            }
            ly += 1;
        }
    }

    fn touch(&mut self, addr: LineAddr) {
        if self.capacity_lines == 0 {
            self.misses += 1;
            self.dram_bytes_read += LINE_PIXELS as u64;
            return;
        }
        if let Some(pos) = self.resident.iter().position(|&a| a == addr) {
            self.hits += 1;
            // Move to most-recent.
            let a = self.resident.remove(pos).expect("position valid");
            self.resident.push_back(a);
            return;
        }
        self.misses += 1;
        self.dram_bytes_read += LINE_PIXELS as u64;
        if self.resident.len() >= self.capacity_lines {
            self.resident.pop_front();
        }
        self.resident.push_back(addr);
    }

    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Simulates the motion search of one frame of `width x height` luma
/// against one reference, processed in tile columns of `tile_w` pixels
/// (§3.2's processing order), returning the store after the run.
pub fn simulate_frame_search(
    store: &mut RefStore,
    width: usize,
    height: usize,
    tile_w: usize,
    mb: usize,
    range: usize,
) {
    let mut col = 0;
    while col < width {
        let col_end = (col + tile_w).min(width);
        let mut y = 0;
        while y < height {
            let mut x = col;
            while x < col_end {
                store.access_search_window(x, y, mb, range);
                x += mb;
            }
            y += mb;
        }
        col += tile_w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_144k() {
        assert_eq!(STORE_PIXELS, 147_456); // 144K pixels (K = 1024)
    }

    #[test]
    fn store_achieves_high_hit_rate_in_column_order() {
        let mut store = RefStore::default();
        simulate_frame_search(&mut store, 1280, 720, 512, 64, 64);
        // §3.2: each pixel loaded about once per column — overlapping
        // search windows mean most accesses hit.
        assert!(store.hit_rate() > 0.8, "hit rate {}", store.hit_rate());
    }

    #[test]
    fn no_store_means_dram_per_access() {
        let mut none = RefStore::new(0);
        let mut full = RefStore::default();
        simulate_frame_search(&mut none, 640, 360, 512, 64, 64);
        simulate_frame_search(&mut full, 640, 360, 512, 64, 64);
        assert!(
            none.dram_bytes_read > full.dram_bytes_read * 4,
            "store should slash DRAM reads: {} vs {}",
            none.dram_bytes_read,
            full.dram_bytes_read
        );
    }

    #[test]
    fn dram_reads_bounded_by_twice_frame() {
        // §3.2: "a maximum of twice during the frame's processing".
        let (w, h) = (1280usize, 720usize);
        let mut store = RefStore::default();
        simulate_frame_search(&mut store, w, h, 512, 64, 64);
        let frame_pixels = (w * h) as u64;
        // Search margins reach past frame edges, so allow the bound on
        // the padded frame.
        let padded = ((w + 128) * (h + 128)) as u64;
        assert!(
            store.dram_bytes_read <= padded * 2,
            "reads {} exceed 2x padded frame {}",
            store.dram_bytes_read,
            padded * 2
        );
        assert!(
            store.dram_bytes_read >= frame_pixels,
            "must read frame at least once"
        );
    }

    #[test]
    fn smaller_store_lower_hit_rate() {
        let mut small = RefStore::new(STORE_PIXELS / 8);
        let mut full = RefStore::default();
        simulate_frame_search(&mut small, 1280, 720, 512, 64, 64);
        simulate_frame_search(&mut full, 1280, 720, 512, 64, 64);
        assert!(small.hit_rate() < full.hit_rate());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut store = RefStore::new(LINE_PIXELS * 2); // 2 lines
        store.access_search_window(0, 0, 8, 0); // line (0,0)
        store.access_search_window(64, 0, 8, 0); // line (1,0)
        store.access_search_window(0, 0, 8, 0); // hit, refreshes (0,0)
        store.access_search_window(128, 0, 8, 0); // evicts (1,0)
        let misses_before = store.misses;
        store.access_search_window(0, 0, 8, 0); // still resident
        assert_eq!(store.misses, misses_before);
        store.access_search_window(64, 0, 8, 0); // was evicted: miss
        assert_eq!(store.misses, misses_before + 1);
    }
}
