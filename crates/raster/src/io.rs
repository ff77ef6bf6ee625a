//! On-disk raster storage.
//!
//! The paper keeps its CONUS rasters on disk (40 GB raw, 7.3 GB BQ-Tree
//! compressed in place of TIFF) and notes that "disk I/O is still
//! significant when compared with computing". This module provides the
//! storage layer of that story: a minimal self-describing binary container
//! for `u16` rasters, written/read with plain `std::fs`.
//!
//! Format (`ZRAS` container, little-endian):
//!
//! ```text
//! magic   [u8; 4] = b"ZRAS"
//! version u32     = 1
//! rows    u64
//! cols    u64
//! x0, y0, sx, sy  f64 (geotransform)
//! nodata  u32     (u16 value in low bits; u32::MAX = none)
//! data    rows*cols u16 values, row-major
//! ```

use crate::geotransform::GeoTransform;
use crate::raster::Raster;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"ZRAS";
const VERSION: u32 = 1;

/// Errors from raster container I/O.
#[derive(Debug)]
pub enum RasterIoError {
    Io(io::Error),
    /// Wrong magic bytes: not a ZRAS file.
    NotARaster,
    /// Unsupported container version.
    BadVersion(u32),
    /// Header fields inconsistent with payload size.
    Corrupt(String),
}

impl From<io::Error> for RasterIoError {
    fn from(e: io::Error) -> Self {
        RasterIoError::Io(e)
    }
}

impl std::fmt::Display for RasterIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RasterIoError::Io(e) => write!(f, "raster io: {e}"),
            RasterIoError::NotARaster => write!(f, "not a ZRAS raster file"),
            RasterIoError::BadVersion(v) => write!(f, "unsupported ZRAS version {v}"),
            RasterIoError::Corrupt(m) => write!(f, "corrupt ZRAS file: {m}"),
        }
    }
}

impl std::error::Error for RasterIoError {}

/// Serialize a raster into a writer.
pub fn write_raster<W: Write>(w: &mut W, raster: &Raster) -> Result<(), RasterIoError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(raster.rows() as u64).to_le_bytes())?;
    w.write_all(&(raster.cols() as u64).to_le_bytes())?;
    let gt = raster.transform();
    for v in [gt.x0, gt.y0, gt.sx, gt.sy] {
        w.write_all(&v.to_le_bytes())?;
    }
    let nodata = raster.nodata().map_or(u32::MAX, |n| n as u32);
    w.write_all(&nodata.to_le_bytes())?;
    // Row-major cell payload.
    let mut buf = Vec::with_capacity(raster.len() * 2);
    for &v in raster.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

fn read_exact<const N: usize>(r: &mut impl Read) -> Result<[u8; N], RasterIoError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Deserialize a raster from a reader.
pub fn read_raster<R: Read>(r: &mut R) -> Result<Raster, RasterIoError> {
    if read_exact::<4>(r)? != MAGIC {
        return Err(RasterIoError::NotARaster);
    }
    let version = u32::from_le_bytes(read_exact::<4>(r)?);
    if version != VERSION {
        return Err(RasterIoError::BadVersion(version));
    }
    let rows = u64::from_le_bytes(read_exact::<8>(r)?);
    let cols = u64::from_le_bytes(read_exact::<8>(r)?);
    let x0 = f64::from_le_bytes(read_exact::<8>(r)?);
    let y0 = f64::from_le_bytes(read_exact::<8>(r)?);
    let sx = f64::from_le_bytes(read_exact::<8>(r)?);
    let sy = f64::from_le_bytes(read_exact::<8>(r)?);
    let finite = [x0, y0, sx, sy].iter().all(|v| v.is_finite());
    if !finite || sx <= 0.0 || sy <= 0.0 {
        return Err(RasterIoError::Corrupt("bad geotransform".into()));
    }
    let nodata_raw = u32::from_le_bytes(read_exact::<4>(r)?);
    let overflow = || RasterIoError::Corrupt("dimension overflow".into());
    let rows = usize::try_from(rows).map_err(|_| overflow())?;
    let cols = usize::try_from(cols).map_err(|_| overflow())?;
    let n_bytes = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(2))
        .ok_or_else(overflow)?;
    // Grow the payload only as bytes arrive: the header alone never
    // decides how much is allocated.
    let mut payload = Vec::new();
    r.take(n_bytes as u64).read_to_end(&mut payload)?;
    if payload.len() != n_bytes {
        return Err(RasterIoError::Corrupt("truncated payload".into()));
    }
    let data: Vec<u16> = payload
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect();
    let mut raster = Raster::new(rows, cols, data, GeoTransform::new(x0, y0, sx, sy), None);
    if nodata_raw != u32::MAX {
        raster = raster.with_nodata(nodata_raw as u16);
    }
    Ok(raster)
}

/// Write a raster to a file path.
pub fn save_raster(path: &Path, raster: &Raster) -> Result<(), RasterIoError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_raster(&mut f, raster)?;
    f.flush()?;
    Ok(())
}

/// Read a raster from a file path.
pub fn load_raster(path: &Path) -> Result<Raster, RasterIoError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_raster(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Raster {
        let gt = GeoTransform::new(-100.0, 35.0, 0.01, 0.02);
        Raster::from_fn(13, 29, gt, |r, c| ((r * 29 + c) % 5000) as u16).with_nodata(u16::MAX)
    }

    #[test]
    fn memory_roundtrip() {
        let raster = sample();
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        let back = read_raster(&mut buf.as_slice()).expect("read");
        assert_eq!(back, raster);
        assert_eq!(back.nodata(), Some(u16::MAX));
    }

    #[test]
    fn file_roundtrip() {
        let raster = sample();
        let path = std::env::temp_dir().join(format!("zras-test-{}.zras", std::process::id()));
        save_raster(&path, &raster).expect("save");
        let back = load_raster(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, raster);
    }

    #[test]
    fn no_nodata_roundtrip() {
        let gt = GeoTransform::new(0.0, 0.0, 1.0, 1.0);
        let raster = Raster::filled(3, 3, 7, gt);
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        let back = read_raster(&mut buf.as_slice()).expect("read");
        assert_eq!(back.nodata(), None);
    }

    #[test]
    fn wrong_magic_rejected() {
        let buf = b"NOPEate least long enough to be a header maybe".to_vec();
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::NotARaster)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let raster = sample();
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        buf[4] = 99; // bump version
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let raster = sample();
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_geotransform_rejected() {
        let raster = sample();
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        // Zero out sx (offset: 4 magic + 4 ver + 8 rows + 8 cols + 16 x0y0 = 40).
        for b in &mut buf[40..48] {
            *b = 0;
        }
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::Corrupt(_))
        ));
    }

    /// `sample()` serialized, with the header's rows and cols replaced.
    fn with_shape(rows: u64, cols: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_raster(&mut buf, &sample()).expect("write");
        buf[8..16].copy_from_slice(&rows.to_le_bytes());
        buf[16..24].copy_from_slice(&cols.to_le_bytes());
        buf
    }

    #[test]
    fn non_finite_geotransform_rejected() {
        // Offsets: x0 at 24, y0 at 32, sx at 40, sy at 48.
        for (at, v) in [(40, f64::NAN), (48, f64::INFINITY), (24, f64::NAN)] {
            let mut buf = Vec::new();
            write_raster(&mut buf, &sample()).expect("write");
            buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
            assert!(
                matches!(
                    read_raster(&mut buf.as_slice()),
                    Err(RasterIoError::Corrupt(_))
                ),
                "{v} at byte {at}"
            );
        }
    }

    #[test]
    fn overflowing_dimensions_rejected() {
        // 2^62 × 2 cells fits in u64, but not its 2-byte payload size.
        let buf = with_shape(1 << 62, 2);
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_header_without_payload_rejected() {
        // 2 TiB stated, a few hundred bytes present: rejected without
        // allocating what the header states.
        let buf = with_shape(1 << 20, 1 << 20);
        assert!(matches!(
            read_raster(&mut buf.as_slice()),
            Err(RasterIoError::Corrupt(_))
        ));
    }

    #[test]
    fn header_size_is_stable() {
        // 4 + 4 + 8 + 8 + 32 + 4 = 60 bytes of header before the payload.
        let gt = GeoTransform::new(0.0, 0.0, 1.0, 1.0);
        let raster = Raster::filled(2, 2, 0, gt);
        let mut buf = Vec::new();
        write_raster(&mut buf, &raster).expect("write");
        assert_eq!(buf.len(), 60 + 4 * 2);
    }
}
