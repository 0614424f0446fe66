//! The seeded input generator. Everything that varies between runs —
//! `grid.nc`, the `cloud` okta array, probe indices, window offsets
//! and template order — derives from `--seed` here; the crates only
//! ever see the generated inputs. `temp.nc` and `wx_june.nc` are the
//! repo's own synthetic datasets, unchanged.

use std::io::{BufWriter, Write};
use std::path::Path;

use aql_netcdf::format::{NcType, VERSION_CLASSIC};
use aql_netcdf::model::{NcFile, NcValues};
use aql_netcdf::{synth, write};

/// SplitMix64: a tiny, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2⁻⁴⁰ for every `n` used here.
        self.next_u64() % n
    }

    /// A uniform permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Extents of `grid.nc`'s variable `G(time, y, x)`: 8760×16×16 doubles
/// ≈ 18 MB, 548 chunks of the driver's default 4096 elements — 4.3×
/// the default 4 MiB cache.
pub const GRID_DIMS: [u64; 3] = [8760, 16, 16];

/// The value of `G[t, i, j]` for a seed: a diurnal cycle plus hashed
/// noise. A closed form, so the oracle needs no copy of the 18 MB.
pub fn grid_value(seed: u64, t: u64, i: u64, j: u64) -> f64 {
    let cell = (t * GRID_DIMS[1] + i) * GRID_DIMS[2] + j;
    let noise = (mix(seed ^ mix(cell)) >> 11) as f64 / (1u64 << 53) as f64;
    let diurnal = ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).cos();
    60.0 + 12.0 * diurnal + 0.25 * i as f64 - 0.125 * j as f64 + noise
}

/// Write a NetCDF classic file holding one double variable `G` of
/// extents `dims` (first dimension the record dimension, as in
/// `temp.nc`), streaming record by record so the generator never holds
/// the array. The header comes from the repo's serializer for the same
/// dataset with zero records; the classic format keeps the record
/// count in bytes 4..8, which is then set to the real count.
pub fn write_grid(path: &Path, seed: u64, dims: [u64; 3]) -> Result<(), String> {
    let mut f = NcFile::new();
    let time = f.add_dim("time", 0);
    let y = f.add_dim("y", dims[1] as u32);
    let x = f.add_dim("x", dims[2] as u32);
    f.add_var(
        "G",
        vec![time, y, x],
        NcType::Double,
        vec![],
        NcValues::Double(vec![]),
    )
    .map_err(|e| e.to_string())?;
    let mut header = write::to_bytes(&f, VERSION_CLASSIC).map_err(|e| e.to_string())?;
    header[4..8].copy_from_slice(&(dims[0] as u32).to_be_bytes());

    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    out.write_all(&header).map_err(io)?;
    for t in 0..dims[0] {
        for i in 0..dims[1] {
            for j in 0..dims[2] {
                out.write_all(&grid_value(seed, t, i, j).to_be_bytes())
                    .map_err(io)?;
            }
        }
    }
    out.flush().map_err(io)
}

/// Extents of one quarter-year slab of `temp` and of `cloud`.
pub const QUARTER_DIMS: [u64; 3] = [2190, 5, 5];

/// Total cloud cover in oktas (0–8) per cell of a quarter-year slab.
pub fn cloud(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xC10D);
    (0..QUARTER_DIMS.iter().product::<u64>())
        .map(|_| rng.below(9))
        .collect()
}

/// The `temp(time, lat, lon)` values of the repo's `temp.nc`
/// (8760×5×5), with the dataset they come from.
pub fn temp_dataset() -> Result<(NcFile, Vec<f64>), String> {
    let f = synth::year_temp_file().map_err(|e| e.to_string())?;
    let (i, _) = f.find_var("temp").map_err(|e| e.to_string())?;
    let NcValues::Double(data) = &f.data[i] else {
        return Err("temp.nc: `temp` is not a double variable".into());
    };
    let data = data.clone();
    Ok((f, data))
}

/// Extents of `temp`.
pub const TEMP_DIMS: [u64; 3] = [8760, 5, 5];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (r.next_u64(), r.below(8760), r.permutation(8))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(cloud(3), cloud(3));
        assert_ne!(cloud(3), cloud(4));
        assert_eq!(grid_value(5, 100, 3, 9), grid_value(5, 100, 3, 9));
        assert_ne!(grid_value(5, 100, 3, 9), grid_value(6, 100, 3, 9));
    }

    #[test]
    fn generated_values_stay_in_range() {
        assert!(cloud(11).iter().all(|&o| o <= 8));
        let mut p = Rng::new(1).permutation(8);
        p.sort_unstable();
        assert_eq!(p, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn streamed_grid_reads_back_through_the_driver() {
        let dir = crate::run::scratch_dir("gen-test");
        let path = dir.path().join("g.nc");
        let dims = [40, 4, 8];
        write_grid(&path, 9, dims).unwrap();
        let mut r = aql_netcdf::read::SlabReader::open(&path).unwrap();
        let (vals, shape) = r.read_all("G").unwrap();
        assert_eq!(shape, dims.to_vec());
        // `grid_value` indexes by GRID_DIMS strides, not by `dims`, so
        // compare through the same function cell by cell.
        let mut k = 0;
        for t in 0..dims[0] {
            for i in 0..dims[1] {
                for j in 0..dims[2] {
                    assert_eq!(vals.get_f64(k), Some(grid_value(9, t, i, j)));
                    k += 1;
                }
            }
        }
    }
}
