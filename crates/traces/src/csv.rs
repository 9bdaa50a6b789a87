//! CSV import/export for carbon-intensity traces.
//!
//! The paper's artifact stores processed traces as CSV files; this module
//! provides the same interchange format so users can swap in real
//! Electricity Maps exports for the synthetic data. The format is
//! `hour,value` with a one-line header, where `hour` is the absolute hour
//! index since 2020-01-01 00:00 UTC.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::TraceError;
use crate::series::TimeSeries;
use crate::time::Hour;

/// Writes `series` as CSV to `out`.
pub fn write_series<W: Write>(series: &TimeSeries, out: &mut W) -> Result<(), TraceError> {
    writeln!(out, "hour,ci_g_per_kwh")?;
    for (hour, value) in series.iter() {
        writeln!(out, "{},{}", hour.0, value)?;
    }
    Ok(())
}

/// Reads a CSV trace written by [`write_series`].
///
/// Hours must be contiguous and ascending; the first data row defines the
/// series start.
pub fn read_series<R: Read>(input: R) -> Result<TimeSeries, TraceError> {
    let reader = BufReader::new(input);
    let mut start: Option<Hour> = None;
    let mut values = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if i == 0 || line.is_empty() {
            // Header or trailing blank line.
            continue;
        }
        let (hour_str, value_str) = line.split_once(',').ok_or_else(|| TraceError::Parse {
            line: i + 1,
            message: "expected `hour,value`".to_string(),
        })?;
        let hour: u32 = hour_str.trim().parse().map_err(|e| TraceError::Parse {
            line: i + 1,
            message: format!("bad hour: {e}"),
        })?;
        let value: f64 = value_str.trim().parse().map_err(|e| TraceError::Parse {
            line: i + 1,
            message: format!("bad value: {e}"),
        })?;
        match start {
            None => start = Some(Hour(hour)),
            Some(s) => {
                let expected = s.0 + values.len() as u32;
                if hour != expected {
                    return Err(TraceError::Parse {
                        line: i + 1,
                        message: format!("non-contiguous hour {hour}, expected {expected}"),
                    });
                }
            }
        }
        values.push(value);
    }
    Ok(TimeSeries::new(start.unwrap_or(Hour(0)), values))
}

/// Writes a whole dataset as CSV: `zone,hour,ci_g_per_kwh`, rows grouped
/// by zone with ascending hours.
pub fn write_dataset<W: Write>(set: &crate::TraceSet, out: &mut W) -> Result<(), TraceError> {
    writeln!(out, "zone,hour,ci_g_per_kwh")?;
    for (region, series) in set.iter() {
        for (hour, value) in series.iter() {
            writeln!(out, "{},{},{}", region.code, hour.0, value)?;
        }
    }
    Ok(())
}

/// Reads a dataset written by [`write_dataset`] (or exported from a real
/// carbon-information service in the same `zone,hour,value` shape).
///
/// Rows must be grouped by zone with contiguous ascending hours inside
/// each group; a zone reappearing after another zone's group started is
/// a [`TraceError::Parse`] (the second block would silently shadow the
/// first). Zone codes are *not* restricted to the built-in catalog:
/// known codes take their metadata from it, and unknown codes are
/// interned with [`crate::Region::user`] defaults — pass explicit
/// metadata via [`read_dataset_with`] to override.
pub fn read_dataset<R: Read>(input: R) -> Result<crate::TraceSet, TraceError> {
    read_dataset_with(input, &[])
}

/// [`read_dataset`] with sidecar metadata: `extra` regions (e.g. from
/// [`crate::sidecar::parse_region_sidecar`]) take precedence over the
/// built-in catalog, which in turn beats the [`crate::Region::user`]
/// defaults.
///
/// The input is buffered to a string and handed to
/// [`read_dataset_str_with`], which fans per-zone row blocks out over
/// `decarb-par` worker threads.
pub fn read_dataset_with<R: Read>(
    input: R,
    extra: &[crate::Region],
) -> Result<crate::TraceSet, TraceError> {
    let mut text = String::new();
    BufReader::new(input).read_to_string(&mut text)?;
    read_dataset_str_with(&text, extra)
}

/// Parses a `zone,hour,value` dataset held in memory, fanning the
/// per-zone blocks out across `decarb-par` workers.
///
/// A cheap sequential scan splits the text into zone blocks and catches
/// the errors that depend on global row order (short rows, a zone
/// reappearing after its group closed); the expensive work — float
/// parsing, contiguity checks, region resolution — runs one block per
/// worker. When several lines are bad, the smallest line number is
/// reported, so errors match the sequential reader exactly.
pub fn read_dataset_str_with(
    text: &str,
    extra: &[crate::Region],
) -> Result<crate::TraceSet, TraceError> {
    struct Block<'a> {
        zone: &'a str,
        // (1-based line number, hour field, value field)
        rows: Vec<(usize, &'a str, &'a str)>,
    }
    let mut blocks: Vec<Block<'_>> = Vec::new();
    let mut structural: Option<TraceError> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if i == 0 || line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(3, ',');
        let (Some(zone), Some(hour_str), Some(value_str)) =
            (fields.next(), fields.next(), fields.next())
        else {
            structural = Some(TraceError::Parse {
                line: i + 1,
                message: "expected `zone,hour,value`".to_string(),
            });
            break;
        };
        let zone = zone.trim();
        if blocks.last().is_none_or(|b| b.zone != zone) {
            if blocks.iter().any(|b| b.zone == zone) {
                // The sequential reader parses a row's fields before
                // applying the duplicate-group rule; keep that
                // precedence for the error message.
                structural = Some(row_error(i + 1, hour_str, value_str).unwrap_or_else(|| {
                    TraceError::Parse {
                        line: i + 1,
                        message: format!("zone {zone} appears in two separate groups"),
                    }
                }));
                break;
            }
            blocks.push(Block {
                zone,
                rows: Vec::new(),
            });
        }
        if let Some(block) = blocks.last_mut() {
            block.rows.push((i + 1, hour_str, value_str));
        }
    }
    let parsed = decarb_par::par_map(&blocks, |block| {
        let mut start: Option<Hour> = None;
        let mut values = Vec::with_capacity(block.rows.len());
        for &(line, hour_str, value_str) in &block.rows {
            let hour: u32 = hour_str.trim().parse().map_err(|e| TraceError::Parse {
                line,
                message: format!("bad hour: {e}"),
            })?;
            let value: f64 = value_str.trim().parse().map_err(|e| TraceError::Parse {
                line,
                message: format!("bad value: {e}"),
            })?;
            match start {
                None => start = Some(Hour(hour)),
                Some(s) => {
                    let expected = s.0 + values.len() as u32;
                    if hour != expected {
                        return Err(TraceError::Parse {
                            line,
                            message: format!("non-contiguous hour {hour}, expected {expected}"),
                        });
                    }
                }
            }
            values.push(value);
        }
        let region = extra
            .iter()
            .find(|r| r.code == block.zone)
            .cloned()
            .or_else(|| crate::catalog::region(block.zone).cloned())
            .unwrap_or_else(|| crate::Region::user(block.zone));
        Ok((region, TimeSeries::new(start.unwrap_or(Hour(0)), values)))
    });
    // First error by line number wins, as if the rows were read in order.
    let mut first = structural;
    let mut pairs = Vec::with_capacity(parsed.len());
    for result in parsed {
        match result {
            Ok(pair) => pairs.push(pair),
            Err(e) => {
                if first
                    .as_ref()
                    .is_none_or(|f| error_line(&e) < error_line(f))
                {
                    first = Some(e);
                }
            }
        }
    }
    if let Some(err) = first {
        return Err(err);
    }
    crate::TraceSet::try_from_series(pairs)
}

/// Checks a row's hour/value fields, mirroring the per-row parse errors.
fn row_error(line: usize, hour_str: &str, value_str: &str) -> Option<TraceError> {
    if let Err(e) = hour_str.trim().parse::<u32>() {
        return Some(TraceError::Parse {
            line,
            message: format!("bad hour: {e}"),
        });
    }
    if let Err(e) = value_str.trim().parse::<f64>() {
        return Some(TraceError::Parse {
            line,
            message: format!("bad value: {e}"),
        });
    }
    None
}

/// The line number an error anchors to (0 for non-parse errors).
fn error_line(err: &TraceError) -> usize {
    match err {
        TraceError::Parse { line, .. } => *line,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let series = TimeSeries::new(Hour(100), vec![1.5, 2.25, 3.125]);
        let mut buf = Vec::new();
        write_series(&series, &mut buf).unwrap();
        let back = read_series(buf.as_slice()).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn empty_input_gives_empty_series() {
        let back = read_series("hour,ci_g_per_kwh\n".as_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_malformed_rows() {
        let err = read_series("header\nnot-a-row\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
        let err = read_series("header\nx,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
        let err = read_series("header\n1,abc\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_gaps() {
        let err = read_series("header\n1,1.0\n3,2.0\n".as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("non-contiguous"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn roundtrip_synthetic_region() {
        use crate::catalog;
        use crate::synth::Synthesizer;
        let series = Synthesizer::default().generate(catalog::region("SE").unwrap());
        let head = series.slice(Hour(0), 500).unwrap();
        let mut buf = Vec::new();
        write_series(&head, &mut buf).unwrap();
        let back = read_series(buf.as_slice()).unwrap();
        assert_eq!(head.len(), back.len());
        for ((_, a), (_, b)) in head.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    fn tiny_dataset() -> crate::TraceSet {
        use crate::catalog;
        let pairs = vec![
            (
                catalog::region("SE").unwrap().clone(),
                TimeSeries::new(Hour(10), vec![16.0, 17.5, 15.0]),
            ),
            (
                catalog::region("DE").unwrap().clone(),
                TimeSeries::new(Hour(10), vec![380.0, 410.0, 395.0]),
            ),
        ];
        crate::TraceSet::from_series(pairs)
    }

    #[test]
    fn dataset_roundtrip() {
        let set = tiny_dataset();
        let mut buf = Vec::new();
        write_dataset(&set, &mut buf).unwrap();
        let back = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.series("SE").unwrap(), set.series("SE").unwrap());
        assert_eq!(back.series("DE").unwrap(), set.series("DE").unwrap());
    }

    #[test]
    fn dataset_admits_non_finite_samples() {
        // `f64::from_str` reads these spellings, and no check after it
        // rejects them, so window sums and the prefix's floor must cope
        // with NaN and ±∞ (`ChunkedPrefix::window_floor`).
        let input = "zone,hour,ci\nZZ-ODD,0,NaN\nZZ-ODD,1,inf\nZZ-ODD,2,-infinity\n";
        let set = read_dataset(input.as_bytes()).unwrap();
        let values = set.series("ZZ-ODD").unwrap().values();
        assert!(values[0].is_nan());
        assert_eq!(values[1..], [f64::INFINITY, f64::NEG_INFINITY]);
    }

    #[test]
    fn dataset_accepts_unknown_zones_with_default_metadata() {
        let input = "zone,hour,ci\nZZ-NOWHERE,0,100.0\nZZ-NOWHERE,1,120.0\nSE,0,16.0\n";
        let set = read_dataset(input.as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        let unknown = set.region("ZZ-NOWHERE").unwrap();
        assert_eq!(unknown.group, crate::GeoGroup::Other);
        assert_eq!(unknown.name, "ZZ-NOWHERE");
        assert_eq!(set.series("ZZ-NOWHERE").unwrap().len(), 2);
        // Catalog zones still carry catalog metadata.
        assert_eq!(set.region("SE").unwrap().name, "Sweden");
    }

    #[test]
    fn dataset_sidecar_metadata_beats_catalog_and_defaults() {
        let mut custom = crate::Region::user("ZZ-NOWHERE");
        custom.name = "Nowhere Grid".to_string();
        custom.group = crate::GeoGroup::Africa;
        let mut shadow_se = crate::Region::user("SE");
        shadow_se.name = "Sidecar Sweden".to_string();
        let input = "zone,hour,ci\nZZ-NOWHERE,0,100.0\nSE,0,16.0\n";
        let set = read_dataset_with(input.as_bytes(), &[custom, shadow_se]).unwrap();
        assert_eq!(set.region("ZZ-NOWHERE").unwrap().name, "Nowhere Grid");
        assert_eq!(
            set.region("ZZ-NOWHERE").unwrap().group,
            crate::GeoGroup::Africa
        );
        assert_eq!(set.region("SE").unwrap().name, "Sidecar Sweden");
    }

    #[test]
    fn dataset_rejects_split_groups() {
        let input = "zone,hour,ci\nSE,0,16.0\nDE,0,400.0\nSE,1,17.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 4, .. }), "{err:?}");
        match err {
            TraceError::Parse { message, .. } => {
                assert!(message.contains("two separate groups"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown zones get the same duplicate-block protection: the
        // second ZZ block must not silently shadow the first.
        let input = "zone,hour,ci\nZZ,0,10.0\nSE,0,16.0\nZZ,5,12.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn dataset_rejects_gaps_within_a_group() {
        let input = "zone,hour,ci\nSE,0,16.0\nSE,2,17.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("non-contiguous"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dataset_rejects_short_rows() {
        let input = "zone,hour,ci\nSE;0;16.0\n";
        let err = read_dataset(input.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_dataset_parses() {
        let back = read_dataset("zone,hour,ci\n".as_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
