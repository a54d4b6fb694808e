//! Minimal ENVI-style raw + header I/O.
//!
//! ENVI's flat-binary format (a headerless raw file next to a small text
//! `.hdr`) is the lingua franca of hyperspectral tooling and what AVIRIS
//! products ship as. We support `f32` samples (ENVI data type 4) in all
//! three standard interleaves — BIP (band-interleaved-by-pixel, the
//! in-memory layout), BIL (by-line) and BSQ (band-sequential) — in
//! little-endian byte order (ENVI `byte order = 0`).

use crate::HyperCube;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// ENVI interleave orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interleave {
    /// Band-interleaved-by-pixel: `[line][sample][band]` — the cube's
    /// native layout.
    #[default]
    Bip,
    /// Band-interleaved-by-line: `[line][band][sample]`.
    Bil,
    /// Band-sequential: `[band][line][sample]`.
    Bsq,
}

impl Interleave {
    fn tag(self) -> &'static str {
        match self {
            Interleave::Bip => "bip",
            Interleave::Bil => "bil",
            Interleave::Bsq => "bsq",
        }
    }

    fn parse(s: &str) -> Option<Interleave> {
        match s.to_ascii_lowercase().as_str() {
            "bip" => Some(Interleave::Bip),
            "bil" => Some(Interleave::Bil),
            "bsq" => Some(Interleave::Bsq),
            _ => None,
        }
    }

    /// Flat index of `(line, sample, band)` under this interleave.
    #[inline]
    fn index(
        self,
        lines: usize,
        samples: usize,
        bands: usize,
        l: usize,
        s: usize,
        b: usize,
    ) -> usize {
        let _ = lines;
        match self {
            Interleave::Bip => (l * samples + s) * bands + b,
            Interleave::Bil => (l * bands + b) * samples + s,
            Interleave::Bsq => (b * lines + l) * samples + s,
        }
    }
}

/// Errors arising from ENVI I/O.
#[derive(Debug)]
pub enum EnviError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The header is missing a required field or has an unsupported value.
    BadHeader(String),
    /// The raw file's size does not match the header's dimensions.
    SizeMismatch {
        /// Bytes expected from the header dimensions.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
}

impl std::fmt::Display for EnviError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnviError::Io(e) => write!(f, "I/O error: {e}"),
            EnviError::BadHeader(msg) => write!(f, "bad ENVI header: {msg}"),
            EnviError::SizeMismatch { expected, found } => {
                write!(
                    f,
                    "raw size mismatch: expected {expected} bytes, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for EnviError {}

impl From<io::Error> for EnviError {
    fn from(e: io::Error) -> Self {
        EnviError::Io(e)
    }
}

/// Path of the header file companion to a raw path (`<raw>.hdr`).
pub fn header_path(raw: &Path) -> PathBuf {
    let mut p = raw.as_os_str().to_owned();
    p.push(".hdr");
    PathBuf::from(p)
}

/// Writes a cube as `<path>` (raw little-endian `f32`, BIP) plus
/// `<path>.hdr` (ENVI text header).
pub fn write_cube(cube: &HyperCube, path: &Path) -> Result<(), EnviError> {
    write_cube_interleaved(cube, path, Interleave::Bip)
}

/// Writes a cube in the requested interleave order.
pub fn write_cube_interleaved(
    cube: &HyperCube,
    path: &Path,
    interleave: Interleave,
) -> Result<(), EnviError> {
    let (lines, samples, bands) = (cube.lines(), cube.samples(), cube.bands());
    let mut raw = BufWriter::new(File::create(path)?);
    match interleave {
        // Native order: stream straight out.
        Interleave::Bip => {
            for &v in cube.as_slice() {
                raw.write_all(&v.to_le_bytes())?;
            }
        }
        // Permuted orders: walk the output order, indexing the cube.
        Interleave::Bil => {
            for l in 0..lines {
                for b in 0..bands {
                    for s in 0..samples {
                        raw.write_all(&cube.pixel(l, s)[b].to_le_bytes())?;
                    }
                }
            }
        }
        Interleave::Bsq => {
            for b in 0..bands {
                for l in 0..lines {
                    for s in 0..samples {
                        raw.write_all(&cube.pixel(l, s)[b].to_le_bytes())?;
                    }
                }
            }
        }
    }
    raw.flush()?;

    // Wavelength list (µm) on the synthetic AVIRIS grid, as real AVIRIS
    // headers carry.
    let wavelengths = crate::synth::bands::grid(bands)
        .iter()
        .map(|w| format!("{w:.6}"))
        .collect::<Vec<_>>()
        .join(", ");
    let hdr = format!(
        "ENVI\n\
         description = {{heterospec synthetic scene}}\n\
         samples = {}\n\
         lines = {}\n\
         bands = {}\n\
         header offset = 0\n\
         file type = ENVI Standard\n\
         data type = 4\n\
         interleave = {}\n\
         byte order = 0\n\
         wavelength units = Micrometers\n\
         wavelength = {{ {} }}\n",
        samples,
        lines,
        bands,
        interleave.tag(),
        wavelengths
    );
    let mut h = BufWriter::new(File::create(header_path(path))?);
    h.write_all(hdr.as_bytes())?;
    h.flush()?;
    Ok(())
}

/// Reads a cube written by [`write_cube`] (or any conforming ENVI BIP
/// float32 little-endian product).
pub fn read_cube(path: &Path) -> Result<HyperCube, EnviError> {
    let hdr_text = std::fs::read_to_string(header_path(path))?;
    let get = |key: &str| -> Result<String, EnviError> {
        for line in hdr_text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim().eq_ignore_ascii_case(key) {
                    return Ok(v.trim().to_string());
                }
            }
        }
        Err(EnviError::BadHeader(format!("missing field '{key}'")))
    };
    let parse_usize = |key: &str| -> Result<usize, EnviError> {
        get(key)?
            .parse()
            .map_err(|_| EnviError::BadHeader(format!("field '{key}' is not an integer")))
    };
    let samples = parse_usize("samples")?;
    let lines = parse_usize("lines")?;
    let bands = parse_usize("bands")?;
    let data_type = parse_usize("data type")?;
    if data_type != 4 {
        return Err(EnviError::BadHeader(format!(
            "unsupported data type {data_type} (only 4 = float32)"
        )));
    }
    let interleave_text = get("interleave")?;
    let interleave = Interleave::parse(&interleave_text).ok_or_else(|| {
        EnviError::BadHeader(format!(
            "unsupported interleave '{interleave_text}' (bip/bil/bsq)"
        ))
    })?;
    if let Ok(order) = get("byte order") {
        if order != "0" {
            return Err(EnviError::BadHeader(format!(
                "unsupported byte order {order} (only 0 = little-endian)"
            )));
        }
    }

    let expected = (lines * samples * bands * 4) as u64;
    let meta = std::fs::metadata(path)?;
    if meta.len() != expected {
        return Err(EnviError::SizeMismatch {
            expected,
            found: meta.len(),
        });
    }

    let mut reader = BufReader::new(File::open(path)?);
    let mut buf = vec![0u8; expected as usize];
    reader.read_exact(&mut buf)?;
    let flat: Vec<f32> = buf
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let data = match interleave {
        Interleave::Bip => flat,
        other => {
            // Permute into the cube's native BIP layout.
            let mut bip = vec![0.0f32; flat.len()];
            for l in 0..lines {
                for s in 0..samples {
                    for b in 0..bands {
                        bip[(l * samples + s) * bands + b] =
                            flat[other.index(lines, samples, bands, l, s, b)];
                    }
                }
            }
            bip
        }
    };
    Ok(HyperCube::from_vec(lines, samples, bands, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{wtc_scene, WtcConfig};

    #[test]
    fn roundtrip_preserves_cube() {
        let scene = wtc_scene(WtcConfig {
            lines: 12,
            samples: 10,
            bands: 16,
            ..Default::default()
        });
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("scene.raw");
        write_cube(&scene.cube, &path).unwrap();
        let back = read_cube(&path).unwrap();
        assert_eq!(back, scene.cube);
    }

    #[test]
    fn header_fields_written() {
        let cube = HyperCube::zeros(3, 5, 7);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("z.raw");
        write_cube(&cube, &path).unwrap();
        let hdr = std::fs::read_to_string(header_path(&path)).unwrap();
        assert!(hdr.starts_with("ENVI"));
        assert!(hdr.contains("samples = 5"));
        assert!(hdr.contains("lines = 3"));
        assert!(hdr.contains("bands = 7"));
        assert!(hdr.contains("interleave = bip"));
    }

    #[test]
    fn size_mismatch_detected() {
        let cube = HyperCube::zeros(2, 2, 2);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("bad.raw");
        write_cube(&cube, &path).unwrap();
        // Truncate the raw file.
        std::fs::write(&path, [0u8; 8]).unwrap();
        assert!(matches!(
            read_cube(&path),
            Err(EnviError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn missing_header_field_detected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("x.raw");
        std::fs::write(&path, [0u8; 4]).unwrap();
        std::fs::write(header_path(&path), "ENVI\nsamples = 1\n").unwrap();
        match read_cube(&path) {
            Err(EnviError::BadHeader(msg)) => assert!(msg.contains("lines")),
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_interleave_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("y.raw");
        std::fs::write(&path, [0u8; 4]).unwrap();
        std::fs::write(
            header_path(&path),
            "ENVI\nsamples = 1\nlines = 1\nbands = 1\ndata type = 4\ninterleave = tiled\n",
        )
        .unwrap();
        assert!(matches!(read_cube(&path), Err(EnviError::BadHeader(_))));
    }

    #[test]
    fn all_interleaves_roundtrip() {
        let scene = wtc_scene(WtcConfig {
            lines: 7,
            samples: 5,
            bands: 11,
            ..Default::default()
        });
        let dir = tempfile::tempdir().unwrap();
        for (name, il) in [
            ("bip", Interleave::Bip),
            ("bil", Interleave::Bil),
            ("bsq", Interleave::Bsq),
        ] {
            let path = dir.path().join(format!("{name}.raw"));
            write_cube_interleaved(&scene.cube, &path, il).unwrap();
            let back = read_cube(&path).unwrap();
            assert_eq!(back, scene.cube, "{name} roundtrip failed");
            let hdr = std::fs::read_to_string(header_path(&path)).unwrap();
            assert!(hdr.contains(&format!("interleave = {name}")));
        }
    }

    #[test]
    fn header_carries_the_wavelength_grid() {
        let cube = HyperCube::zeros(2, 2, 16);
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("w.raw");
        write_cube(&cube, &path).unwrap();
        let hdr = std::fs::read_to_string(header_path(&path)).unwrap();
        assert!(hdr.contains("wavelength = { 0.400000, "), "{hdr}");
        assert!(hdr.contains(", 2.500000 }"), "{hdr}");
    }

    #[test]
    fn interleaves_produce_different_raw_bytes() {
        // Same content, different file layout (sanity: we actually
        // permute rather than relabel).
        let scene = wtc_scene(WtcConfig {
            lines: 4,
            samples: 3,
            bands: 5,
            ..Default::default()
        });
        let dir = tempfile::tempdir().unwrap();
        let p1 = dir.path().join("a.raw");
        let p2 = dir.path().join("b.raw");
        write_cube_interleaved(&scene.cube, &p1, Interleave::Bip).unwrap();
        write_cube_interleaved(&scene.cube, &p2, Interleave::Bsq).unwrap();
        assert_ne!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
    }
}
