//! The binary trace container: a packed, integrity-checked dataset file.
//!
//! CSV is the interchange format, but parsing `zone,hour,value` rows is
//! the dominant cost of every process start on year-scale multi-grid
//! datasets. This module defines a versioned binary layout that loads
//! in one pass over its bytes, split across the usable cores, with no
//! string work past the metadata block:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────┐
//! │ header (36 bytes)                                              │
//! │   magic   [8]  89 44 43 54 0D 0A 1A 0A  (\x89"DCT"\r\n\x1a\n)  │
//! │   version u16  format revision (currently 1)                   │
//! │   regions u16  region count                                    │
//! │   res     u32  minutes per sample (60 = hourly)                │
//! │   start   u32  absolute start hour (since 2020-01-01 UTC)      │
//! │   hours   u64  total samples per region                        │
//! │   segs    u32  value-segment count                             │
//! │   meta    u32  metadata block length in bytes                  │
//! ├────────────────────────────────────────────────────────────────┤
//! │ region metadata block (everything a sidecar can declare)       │
//! │   per region: code, name, geo group, providers, hyperscale     │
//! │   flag, lat/lon, calibration targets, 9-way source mix         │
//! ├────────────────────────────────────────────────────────────────┤
//! │ value segment × segs                                           │
//! │   seg_hours u64, then per region (in metadata order) one       │
//! │   fixed-width block of seg_hours little-endian f64 samples     │
//! ├────────────────────────────────────────────────────────────────┤
//! │ trailer: chunked FNV-1a 64-bit hash of every preceding byte    │
//! └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The PNG-style magic (a high-bit byte, CRLF, ^Z, LF) can never open a
//! `zone,hour,value` CSV, so `--data` consumers sniff the first eight
//! bytes and route to the right loader ([`is_container`]).
//!
//! Segments exist for [`append`]: extending a dataset with newly
//! observed hours copies the existing byte range verbatim, adds one new
//! segment at the tail, and rewrites only the fixed-size header and the
//! trailer hash — history is never re-encoded. [`decode`] concatenates
//! the segments per region into one contiguous series.
//!
//! Every reader runs one parser. It reads the header, metadata block
//! and segment headers ahead to plan the layout, then splits the body
//! into runs of whole 1 MiB hash chunks, one per usable CPU. Each
//! worker reads its run once, in 64 KiB positional reads, folds each
//! chunk's digest and converts the same bytes straight into each
//! region's final sample buffer, so loading a container never holds
//! the whole file next to the decoded samples. Header counts are
//! checked against the bytes that follow before anything is allocated
//! for them.
//!
//! The trailing hash makes a container self-verifying: [`decode`],
//! [`load_file`], [`probe`], and [`append`] all reject a file whose
//! bytes do not match the recorded hash, and return nothing before the
//! hash has matched. The hash doubles as a cheap dataset identity for
//! comparing inputs across sweep hosts.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;

use decarb_par::thread_count;

use crate::dataset::TraceSet;
use crate::error::TraceError;
use crate::mix::{EnergyMix, Source};
use crate::region::{GeoGroup, Providers, Region};
use crate::series::TimeSeries;
use crate::time::{Hour, Resolution};

/// The 8-byte file magic. Modeled on PNG's: the high-bit first byte
/// breaks text decoders, `\r\n` catches newline translation, and `^Z`
/// stops DOS-style `type`.
pub const MAGIC: [u8; 8] = [0x89, b'D', b'C', b'T', 0x0D, 0x0A, 0x1A, 0x0A];

/// The format revision written by [`encode`].
pub const VERSION: u16 = 1;

/// Fixed header length in bytes (magic through `meta_len`).
const HEADER_LEN: usize = 36;
/// Trailer length in bytes (the FNV-1a hash).
const TRAILER_LEN: usize = 8;

/// Geo groups in wire order; the on-disk group byte is an index here.
const GROUP_WIRE: [GeoGroup; 7] = [
    GeoGroup::Africa,
    GeoGroup::Asia,
    GeoGroup::Europe,
    GeoGroup::NorthAmerica,
    GeoGroup::SouthAmerica,
    GeoGroup::Oceania,
    GeoGroup::Other,
];

/// Provider flags in wire order; bit *i* of the on-disk provider byte.
const PROVIDER_WIRE: [Providers; 5] = [
    Providers::GCP,
    Providers::AZURE,
    Providers::AWS,
    Providers::IBM,
    Providers::ALIBABA,
];

/// FNV-1a 64-bit hash — the primitive under the container's content
/// hash, the sweep pipeline's content-addressed ids and
/// [`crate::rng::Xoshiro256::from_label`] seeds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Bytes per content-hash chunk.
const HASH_CHUNK: usize = 1 << 20;

/// Copies an exact-width chunk into a fixed array. Callers pass slices
/// whose width `chunks_exact`/`take` already checked; short input pads
/// with zeros instead of panicking.
fn array_from<const N: usize>(slice: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    let len = N.min(slice.len());
    out[..len].copy_from_slice(&slice[..len]);
    out
}

/// FNV-1a folded over little-endian 8-byte words, with a trailing
/// length mix — the chunk digest under [`content_hash`].
///
/// Byte-serial FNV-1a advances its multiply dependency chain once per
/// byte, which on a year-scale value section costs more than decoding
/// the values it guards. Folding a word at a time keeps the same
/// xor-and-multiply structure with an eighth of the chain; the length
/// mix keeps a short chunk from colliding with its zero-padded
/// extension.
fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = WordHash::new();
    hash.update(bytes);
    hash.finish()
}

/// [`fnv1a64_words`] folded one piece at a time, so a chunk's digest
/// needs no copy of the chunk. Every piece but a chunk's last must hold
/// whole words.
struct WordHash {
    hash: u64,
    /// The last piece's trailing partial word, zero-padded.
    tail: u64,
    len: usize,
}

impl WordHash {
    const fn new() -> Self {
        Self {
            hash: FNV_OFFSET,
            tail: 0,
            len: 0,
        }
    }

    // decarb-analyze: hot-path
    fn update(&mut self, piece: &[u8]) {
        let mut hash = self.hash;
        let mut words = piece.chunks_exact(8);
        for word in words.by_ref() {
            hash ^= u64::from_le_bytes(array_from(word));
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        for (i, &byte) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(byte) << (8 * i);
        }
        self.hash = hash;
        self.len += piece.len();
    }

    fn finish(self) -> u64 {
        let hash = (self.hash ^ self.tail).wrapping_mul(FNV_PRIME);
        (hash ^ self.len as u64).wrapping_mul(FNV_PRIME)
    }
}

/// The container content hash: FNV-1a over the concatenated
/// little-endian `fnv1a64_words` digests of each 1 MiB chunk of
/// `bytes`.
///
/// The two-level construction lets the chunk digests run in parallel on
/// multi-core hosts; it is a fixed part of the format, so every writer
/// and verifier computes the same value regardless of thread count.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let chunks: Vec<&[u8]> = bytes.chunks(HASH_CHUNK).collect();
    let digests = decarb_par::par_map(&chunks, |chunk| fnv1a64_words(chunk));
    let mut cat = Vec::with_capacity(digests.len() * 8);
    for digest in digests {
        cat.extend_from_slice(&digest.to_le_bytes());
    }
    fnv1a64(&cat)
}

/// Returns `true` if `bytes` start with the container magic — the
/// format auto-detection every `--data` consumer applies.
pub fn is_container(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// A parsed header plus file-level facts: what `probe` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerInfo {
    /// Format revision.
    pub version: u16,
    /// Region count.
    pub regions: usize,
    /// Absolute start hour of every region's series.
    pub start: Hour,
    /// Samples per region.
    pub hours: usize,
    /// Minutes per sample (60 = hourly).
    pub resolution_minutes: u32,
    /// Value segments (1 after `pack`, +1 per `append`).
    pub segments: usize,
    /// The FNV-1a content hash recorded in (and verified against) the
    /// trailer.
    pub content_hash: u64,
    /// Total file length in bytes.
    pub file_bytes: usize,
}

/// Shorthand for the module's error variant.
fn bad(label: &str, reason: impl Into<String>) -> TraceError {
    TraceError::Container {
        path: label.to_string(),
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes `set` as a single-segment container.
///
/// The fixed-width value blocks require uniform coverage: every region
/// must share one start hour and one sample count, otherwise this is a
/// [`TraceError::Container`] naming the two mismatched zones.
pub fn encode(set: &TraceSet) -> Result<Vec<u8>, TraceError> {
    let (start, hours) = uniform_span(set, "<encode>")?;
    let regions = u16::try_from(set.len()).map_err(|_| TraceError::TableFull(set.len()))?;
    let meta = encode_metadata(set.regions());
    let meta_len = u32::try_from(meta.len())
        .map_err(|_| bad("<encode>", "region metadata block exceeds 4 GiB"))?;

    let values_len = 8 + set.len() * hours * 8;
    let mut out = Vec::with_capacity(HEADER_LEN + meta.len() + values_len + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&regions.to_le_bytes());
    out.extend_from_slice(&set.resolution().minutes().to_le_bytes());
    out.extend_from_slice(&start.0.to_le_bytes());
    out.extend_from_slice(&(hours as u64).to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&meta_len.to_le_bytes());
    out.extend_from_slice(&meta);
    out.extend_from_slice(&(hours as u64).to_le_bytes());
    // Per-region value blocks, encoded in parallel (the blocks have a
    // known fixed width, so workers produce independent chunks that
    // concatenate in intern order).
    let blocks = decarb_par::par_map(set.regions(), |region| {
        let series = set
            // decarb-analyze: allow(no-panic) -- iterating set.regions(): every one is interned in the same table
            .series_by_id(set.table().id(&region.code).expect("region is interned"))
            .values();
        let mut block = Vec::with_capacity(series.len() * 8);
        for value in series {
            block.extend_from_slice(&value.to_le_bytes());
        }
        block
    });
    for block in blocks {
        out.extend_from_slice(&block);
    }
    let hash = content_hash(&out);
    out.extend_from_slice(&hash.to_le_bytes());
    Ok(out)
}

/// Checks that every region spans the same `[start, start+len)` window.
fn uniform_span(set: &TraceSet, label: &str) -> Result<(Hour, usize), TraceError> {
    let mut span: Option<(&str, Hour, usize)> = None;
    for (region, series) in set.iter() {
        match span {
            None => span = Some((&region.code, series.start(), series.len())),
            Some((first, start, len)) => {
                if series.start() != start || series.len() != len {
                    return Err(bad(
                        label,
                        format!(
                            "ragged coverage: zone {first} spans hours {}..{} but zone {} \
                             spans {}..{}; fixed-width value blocks need uniform coverage",
                            start.0,
                            start.0 as usize + len,
                            region.code,
                            series.start().0,
                            series.start().index() + series.len(),
                        ),
                    ));
                }
            }
        }
    }
    Ok(span.map_or((Hour(0), 0), |(_, start, len)| (start, len)))
}

/// Serializes the region metadata block.
fn encode_metadata(regions: &[Region]) -> Vec<u8> {
    let mut out = Vec::new();
    for region in regions {
        put_str(&mut out, &region.code);
        put_str(&mut out, &region.name);
        let group = GROUP_WIRE
            .iter()
            .position(|&g| g == region.group)
            // decarb-analyze: allow(no-panic) -- GROUP_WIRE lists every GeoGroup variant; pinned by the wire-format tests
            .expect("GROUP_WIRE covers every GeoGroup variant") as u8;
        out.push(group);
        let mut providers = 0u8;
        for (bit, &flag) in PROVIDER_WIRE.iter().enumerate() {
            if region.providers.contains(flag) {
                providers |= 1 << bit;
            }
        }
        out.push(providers);
        out.push(u8::from(region.hyperscale_set));
        for value in [
            region.lat,
            region.lon,
            region.mean_ci_2022,
            region.ci_delta_2020_2022,
            region.daily_cv,
            region.periodicity,
        ] {
            out.extend_from_slice(&value.to_le_bytes());
        }
        for source in Source::ALL {
            out.extend_from_slice(&region.mix.share(source).to_le_bytes());
        }
    }
    out
}

/// Writes a length-prefixed UTF-8 string (u16 length).
fn put_str(out: &mut Vec<u8>, text: &str) {
    let len = u16::try_from(text.len()).unwrap_or(u16::MAX);
    let text = &text.as_bytes()[..len as usize];
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(text);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// The fewest bytes one region's metadata record can take: two empty
/// strings' length prefixes, three flag bytes and fifteen `f64`s.
const MIN_REGION_META: usize = 2 + 2 + 3 + 15 * 8;

/// Bytes per positional read. Each decode worker holds one piece at a
/// time; a piece divides [`HASH_CHUNK`], so it never spans two chunk
/// digests.
const PIECE: usize = 64 << 10;

/// Where a container's bytes come from. Reads are positional, so each
/// decode worker reads its own run of the body: a `File` for
/// [`load_file`] and [`probe_file`], a byte slice for [`decode`],
/// [`probe`] and [`append`].
trait Bytes: Sync {
    /// The `len` bytes at offset `at`: a slice of the source when it is
    /// held in memory, otherwise read into `buf`.
    fn read_at<'s>(&'s self, at: usize, len: usize, buf: &'s mut Vec<u8>) -> io::Result<&'s [u8]>;
}

impl Bytes for [u8] {
    fn read_at<'s>(&'s self, at: usize, len: usize, _: &'s mut Vec<u8>) -> io::Result<&'s [u8]> {
        at.checked_add(len)
            .and_then(|end| self.get(at..end))
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }
}

impl Bytes for File {
    fn read_at<'s>(&'s self, at: usize, len: usize, buf: &'s mut Vec<u8>) -> io::Result<&'s [u8]> {
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let out = &mut buf[..len];
        self.read_exact_at(out, at as u64)?;
        Ok(out)
    }
}

/// What the calling thread reads ahead of the pass to plan it: the
/// header, the metadata block and each segment header.
struct Plan<'h> {
    /// The bytes read ahead from offset 0: the header, plus the
    /// metadata block once the header checks out.
    head: &'h [u8],
    /// The layout, or the first structural error, held until the hash
    /// has matched.
    layout: Result<Layout, TraceError>,
}

/// Where everything sits in a container's body.
struct Layout {
    /// The header facts; `content_hash` is set once the trailer has
    /// matched.
    info: ContainerInfo,
    regions: Vec<Region>,
    /// One entry per value segment, in file order.
    segments: Vec<Segment>,
}

/// One value segment: `hours` samples per region, its region blocks
/// back to back from body offset `at`.
struct Segment {
    /// Body offset of the first value byte, just past the segment's
    /// 8-byte header.
    at: usize,
    hours: usize,
    /// Samples per region in the segments before this one.
    covered: usize,
}

/// Reads the header, metadata block and segment headers of a
/// `len`-byte container from `src` and plans the pass over its body.
/// Bad magic and a truncated header fail here; a structural error is
/// held in the plan, so that the hash is checked first.
fn plan<'h, S: Bytes + ?Sized>(
    src: &'h S,
    len: usize,
    label: &str,
    buf: &'h mut Vec<u8>,
) -> Result<Plan<'h>, TraceError> {
    if len < HEADER_LEN + TRAILER_LEN {
        let head = src
            .read_at(0, MAGIC.len().min(len), buf)
            .map_err(|e| io(label, e))?;
        if !is_container(head) {
            return Err(bad_magic(label));
        }
        return Err(bad(
            label,
            format!(
                "truncated header: the file holds {len} bytes but the fixed header and \
                 hash trailer need {}",
                HEADER_LEN + TRAILER_LEN
            ),
        ));
    }
    let header: [u8; HEADER_LEN] =
        array_from(src.read_at(0, HEADER_LEN, buf).map_err(|e| io(label, e))?);
    if !is_container(&header) {
        return Err(bad_magic(label));
    }
    let body_len = len - TRAILER_LEN;
    let fields = parse_header(&header, len, label);
    let meta_len = fields.as_ref().map_or(0, |(_, meta_len)| *meta_len);
    let head = src
        .read_at(0, HEADER_LEN + meta_len, buf)
        .map_err(|e| io(label, e))?;
    let layout = fields.and_then(|(info, meta_len)| {
        let regions = decode_metadata(&head[HEADER_LEN..], info.regions, label)?;
        let segments = plan_segments(src, &info, HEADER_LEN + meta_len, body_len, label)?;
        Ok(Layout {
            info,
            regions,
            segments,
        })
    });
    Ok(Plan { head, layout })
}

/// Parses the fixed header of a `len`-byte container into its facts and
/// the metadata block length. The counts are checked against the bytes
/// that follow, so a header claiming more than the file carries is an
/// error, never an allocation.
fn parse_header(
    header: &[u8; HEADER_LEN],
    len: usize,
    label: &str,
) -> Result<(ContainerInfo, usize), TraceError> {
    let u16_at = |at: usize| u16::from_le_bytes(array_from(&header[at..]));
    let u32_at = |at: usize| u32::from_le_bytes(array_from(&header[at..]));
    let version = u16_at(8);
    if version != VERSION {
        return Err(bad(
            label,
            format!(
                "unsupported container version {version} (this build reads version \
                 {VERSION}); re-pack the dataset with this binary"
            ),
        ));
    }
    let regions = u16_at(10) as usize;
    let resolution_minutes = u32_at(12);
    let start = Hour(u32_at(16));
    let hours = u64::from_le_bytes(array_from(&header[20..]));
    let segments = u32_at(28) as usize;
    let meta_len = u32_at(32) as usize;
    let after = len - TRAILER_LEN - HEADER_LEN;
    let promised = (regions as u64)
        .checked_mul(hours)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(meta_len as u64));
    if promised.is_none_or(|n| n > after as u64) {
        return Err(bad(
            label,
            format!(
                "header promises {regions} regions of {hours} samples and a {meta_len}-byte \
                 metadata block, more than the {after} bytes after the header"
            ),
        ));
    }
    let hours = usize::try_from(hours)
        .map_err(|_| bad(label, "header hour count exceeds the address space"))?;
    if regions > meta_len / MIN_REGION_META {
        return Err(bad(
            label,
            format!(
                "header promises {regions} regions but the {meta_len}-byte metadata block \
                 holds at most {}",
                meta_len / MIN_REGION_META
            ),
        ));
    }
    let info = ContainerInfo {
        version,
        regions,
        start,
        hours,
        resolution_minutes,
        segments,
        content_hash: 0,
        file_bytes: len,
    };
    Ok((info, meta_len))
}

/// Reads the segment headers from body offset `at` on and checks that
/// the segments tile the rest of the `body_len`-byte body.
fn plan_segments<S: Bytes + ?Sized>(
    src: &S,
    info: &ContainerInfo,
    mut at: usize,
    body_len: usize,
    label: &str,
) -> Result<Vec<Segment>, TraceError> {
    let need = |at: usize, n: usize, what: &str| {
        if n <= body_len - at {
            return Ok(());
        }
        Err(bad(
            label,
            format!(
                "truncated {what}: needed {n} bytes at offset {at} but the file holds \
                 {body_len}; the file was cut short — re-pack it from the source CSV"
            ),
        ))
    };
    let hours = info.hours;
    let mut segments = Vec::new();
    let mut word = Vec::new();
    let mut covered = 0usize;
    for _ in 0..info.segments {
        need(at, 8, "segment header")?;
        let raw = src.read_at(at, 8, &mut word).map_err(|e| io(label, e))?;
        let seg_hours = usize::try_from(u64::from_le_bytes(array_from(raw)))
            .ok()
            .filter(|&n| n <= hours - covered)
            .ok_or_else(|| {
                bad(
                    label,
                    format!("segment hours run past the {hours} the header promises"),
                )
            })?;
        at += 8;
        // No overflow: the header's regions × hours × 8 fit the body.
        let values = info.regions * seg_hours * 8;
        need(at, values, "value block")?;
        segments.push(Segment {
            at,
            hours: seg_hours,
            covered,
        });
        at += values;
        covered += seg_hours;
    }
    if covered != hours {
        return Err(bad(
            label,
            format!("segment hours sum to {covered} but the header promises {hours}"),
        ));
    }
    if at != body_len {
        return Err(bad(
            label,
            format!(
                "{} trailing bytes after the last value block",
                body_len - at
            ),
        ));
    }
    Ok(segments)
}

/// A cursor over the metadata block.
struct Meta<'a> {
    bytes: &'a [u8],
    pos: usize,
    label: &'a str,
}

impl<'a> Meta<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        let bytes = self.bytes;
        let out = self
            .pos
            .checked_add(n)
            .and_then(|end| bytes.get(self.pos..end))
            .ok_or_else(|| {
                bad(
                    self.label,
                    format!(
                        "region metadata block length mismatch: header says {} bytes, but \
                         the {what} at offset {} needs {n} more",
                        bytes.len(),
                        HEADER_LEN + self.pos
                    ),
                )
            })?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceError> {
        Ok(array_from(self.take(N, what)?))
    }

    fn byte(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn f64(&mut self, what: &str) -> Result<f64, TraceError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// Reads a u16-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<String, TraceError> {
        let len = u16::from_le_bytes(self.array(what)?) as usize;
        let raw = self.take(len, what)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| bad(self.label, format!("{what} is not UTF-8")))
    }
}

/// Parses the region metadata block into owned [`Region`]s.
fn decode_metadata(block: &[u8], count: usize, label: &str) -> Result<Vec<Region>, TraceError> {
    let mut r = Meta {
        bytes: block,
        pos: 0,
        label,
    };
    let mut regions = Vec::with_capacity(count);
    for _ in 0..count {
        let code = r.str("region code")?;
        let name = r.str("region name")?;
        let group_byte = r.byte("region group")? as usize;
        let group = *GROUP_WIRE.get(group_byte).ok_or_else(|| {
            bad(
                label,
                format!("region {code}: unknown geo-group byte {group_byte}"),
            )
        })?;
        let provider_bits = r.byte("region providers")?;
        let mut providers = Providers::NONE;
        for (bit, &flag) in PROVIDER_WIRE.iter().enumerate() {
            if provider_bits & (1 << bit) != 0 {
                providers = providers | flag;
            }
        }
        let hyperscale_set = r.byte("region flags")? != 0;
        let lat = r.f64("region latitude")?;
        let lon = r.f64("region longitude")?;
        let mean_ci_2022 = r.f64("region mean CI")?;
        let ci_delta_2020_2022 = r.f64("region CI delta")?;
        let daily_cv = r.f64("region daily CV")?;
        let periodicity = r.f64("region periodicity")?;
        let mut shares = [0.0f64; 9];
        for share in &mut shares {
            *share = r.f64("region mix")?;
        }
        if shares.iter().any(|&s| s.is_nan() || s < 0.0) || shares.iter().sum::<f64>() <= 0.0 {
            return Err(bad(
                label,
                format!("region {code}: invalid generation-mix shares"),
            ));
        }
        regions.push(Region {
            code,
            name,
            group,
            lat,
            lon,
            providers,
            mix: EnergyMix::from_normalized(shares),
            mean_ci_2022,
            ci_delta_2020_2022,
            daily_cv,
            periodicity,
            hyperscale_set,
        });
    }
    if r.pos != block.len() {
        return Err(bad(
            label,
            format!(
                "region metadata block length mismatch: header says {} bytes, parsed {}",
                block.len(),
                r.pos
            ),
        ));
    }
    Ok(regions)
}

impl Plan<'_> {
    /// Whether the read-ahead bytes that overlap the piece at body
    /// offset `at` equal the piece's copy of them.
    fn matches(&self, at: usize, piece: &[u8]) -> bool {
        let end = at + piece.len();
        let head = self.head.get(at..end.min(self.head.len())).unwrap_or(&[]);
        if !piece.starts_with(head) {
            return false;
        }
        let Ok(layout) = &self.layout else {
            return true;
        };
        let first = layout.segments.partition_point(|seg| seg.at <= at);
        layout.segments[first..]
            .iter()
            .take_while(|seg| seg.at - 8 < end)
            .all(|seg| {
                let header = (seg.hours as u64).to_le_bytes();
                let (from, to) = (at.max(seg.at - 8), end.min(seg.at));
                piece[from - at..to - at] == header[from + 8 - seg.at..to + 8 - seg.at]
            })
    }
}

impl Layout {
    /// Body offset just past the segment's last value byte.
    fn end(&self, seg: &Segment) -> usize {
        seg.at + self.info.regions * seg.hours * 8
    }

    /// The value word that straddles body offset `x`, if one does: its
    /// first byte's offset, its region and its sample index.
    fn word_across(&self, x: usize) -> Option<(usize, usize, usize)> {
        let seg = self
            .segments
            .get(self.segments.partition_point(|seg| self.end(seg) <= x))?;
        let into = x.checked_sub(seg.at).filter(|&n| n % 8 != 0)?;
        let k = into / 8;
        Some((x - into % 8, k / seg.hours, seg.covered + k % seg.hours))
    }

    /// The samples of `region` whose words lie wholly in body offsets
    /// `lo..hi`: `first..last` (samples ascend with their offsets).
    fn samples_in(&self, region: usize, lo: usize, hi: usize) -> (usize, usize) {
        let (mut first, mut last) = (0, 0);
        for seg in &self.segments {
            let block = seg.at + region * seg.hours * 8;
            first += lo.saturating_sub(block).div_ceil(8).min(seg.hours);
            last += (hi.saturating_sub(block) / 8).min(seg.hours);
        }
        (first, last)
    }

    /// Hands each run of `spans` its regions. A region whose samples
    /// all lie in one run is built by that run. Every other region gets
    /// one zeroed buffer in `shared`, and each run writes its samples
    /// through a disjoint slice of it; that is at most `runs − 1`
    /// regions of a single-segment body.
    fn assign<'a>(&self, spans: &[(usize, usize)], shared: &'a mut Vec<Vec<f64>>) -> Vec<Run<'a>> {
        let hours = self.info.hours;
        let mut runs: Vec<Run<'a>> = spans
            .iter()
            .map(|&(lo, hi)| Run {
                lo,
                hi,
                outs: Vec::with_capacity(self.info.regions),
            })
            .collect();
        let bounds: Vec<Vec<(usize, usize)>> = (0..self.info.regions)
            .map(|r| {
                let samples = |&(lo, hi): &(usize, usize)| self.samples_in(r, lo, hi);
                spans.iter().map(samples).collect()
            })
            .collect();
        let owner = |b: &[(usize, usize)]| b.iter().position(|&span| span == (0, hours));
        shared.clear();
        shared.extend(bounds.iter().map(|b| match owner(b) {
            Some(_) => Vec::new(),
            None => vec![0.0; hours],
        }));
        for (buffer, b) in shared.iter_mut().zip(&bounds) {
            let owned = owner(b);
            let mut rest: &'a mut [f64] = buffer;
            let mut cursor = 0;
            for (w, (run, &(first, last))) in runs.iter_mut().zip(b).enumerate() {
                run.outs.push(match owned {
                    Some(owner) if owner == w => Out::Own(Vec::new()),
                    Some(_) => Out::Part {
                        first,
                        slice: &mut [],
                    },
                    None => {
                        // The word between two runs' slices straddles
                        // their boundary; the calling thread fills it.
                        let (_, tail) = std::mem::take(&mut rest).split_at_mut(first - cursor);
                        let (part, tail) = tail.split_at_mut(last - first);
                        rest = tail;
                        cursor = last;
                        Out::Part { first, slice: part }
                    }
                });
            }
        }
        runs
    }

    /// Converts the value words that lie wholly inside the piece at
    /// body offset `at` into `outs`.
    fn convert(&self, at: usize, piece: &[u8], outs: &mut [Out<'_>]) {
        let end = at + piece.len();
        let first = self.segments.partition_point(|seg| self.end(seg) <= at);
        for seg in self.segments[first..].iter().take_while(|seg| seg.at < end) {
            let (from, to) = (at.max(seg.at), end.min(self.end(seg)));
            let k0 = (from - seg.at).div_ceil(8);
            let k1 = to.saturating_sub(seg.at) / 8;
            if k0 < k1 {
                let bytes = &piece[seg.at + 8 * k0 - at..seg.at + 8 * k1 - at];
                Self::emit(seg, k0, bytes, outs);
            }
        }
    }

    /// Stores the words `bytes`, word `k` of `seg` onwards, as samples
    /// of their regions.
    fn emit(seg: &Segment, mut k: usize, mut bytes: &[u8], outs: &mut [Out<'_>]) {
        while !bytes.is_empty() {
            let (region, j) = (k / seg.hours, k % seg.hours);
            let n = (bytes.len() / 8).min(seg.hours - j);
            let (now, rest) = bytes.split_at(8 * n);
            if let Some(out) = outs.get_mut(region) {
                out.put(seg.covered + j, now);
            }
            k += n;
            bytes = rest;
        }
    }
}

/// One worker's share of the pass: a run of whole hash chunks.
struct Run<'a> {
    /// Body offsets `lo..hi`; `lo` opens a chunk.
    lo: usize,
    hi: usize,
    /// Where each region's samples go; empty when the walk keeps none.
    outs: Vec<Out<'a>>,
}

/// Where one region's samples from one run go.
enum Out<'a> {
    /// Every sample of the region lies in this run: the run builds the
    /// region's buffer.
    Own(Vec<f64>),
    /// Samples `first..first + slice.len()` of a buffer shared with
    /// other runs.
    Part { first: usize, slice: &'a mut [f64] },
}

impl Out<'_> {
    /// Stores the words `bytes` as samples `sample..`.
    // decarb-analyze: hot-path
    fn put(&mut self, sample: usize, bytes: &[u8]) {
        let values = bytes
            .chunks_exact(8)
            .map(|word| f64::from_le_bytes(array_from(word)));
        match self {
            Out::Own(samples) => samples.extend(values),
            Out::Part { first, slice } => {
                let dst = sample.checked_sub(*first).and_then(|i| slice.get_mut(i..));
                for (dst, value) in dst.into_iter().flatten().zip(values) {
                    *dst = value;
                }
            }
        }
    }
}

/// What one run hands back.
struct Done {
    /// The digest of each chunk in the run, in order.
    digests: Vec<u64>,
    /// The samples of the regions the run built, by region index.
    owned: Vec<(usize, Vec<f64>)>,
    /// The run's first eight bytes and its last piece's last eight, for
    /// the words that straddle a run boundary.
    first8: [u8; 8],
    last8: [u8; 8],
    /// Whether a read-ahead byte differed from the copy hashed here.
    changed: bool,
}

impl Run<'_> {
    /// Reads the run one piece at a time, folding each chunk's digest,
    /// checking the read-ahead bytes and converting the values in the
    /// same piece.
    fn pass<S: Bytes + ?Sized>(mut self, src: &S, plan: &Plan<'_>) -> io::Result<Done> {
        let layout = plan.layout.as_ref().ok().filter(|_| !self.outs.is_empty());
        if let Some(layout) = layout {
            for out in &mut self.outs {
                if let Out::Own(samples) = out {
                    samples.reserve_exact(layout.info.hours);
                }
            }
        }
        let mut done = Done {
            digests: Vec::with_capacity((self.hi - self.lo).div_ceil(HASH_CHUNK)),
            owned: Vec::new(),
            first8: [0; 8],
            last8: [0; 8],
            changed: false,
        };
        let mut buf = Vec::new();
        let mut chunk = WordHash::new();
        let mut at = self.lo;
        while at < self.hi {
            let piece = src.read_at(at, PIECE.min(self.hi - at), &mut buf)?;
            chunk.update(piece);
            done.changed |= !plan.matches(at, piece);
            if at == self.lo {
                done.first8 = array_from(piece);
            } else if let Some((start, region, sample)) = layout.and_then(|l| l.word_across(at)) {
                let word = straddled(at - start, &done.last8, piece);
                if let Some(out) = self.outs.get_mut(region) {
                    out.put(sample, &word);
                }
            }
            if let Some(layout) = layout {
                layout.convert(at, piece, &mut self.outs);
            }
            done.last8 = array_from(&piece[piece.len().saturating_sub(8)..]);
            at += piece.len();
            if at.is_multiple_of(HASH_CHUNK) || at == self.hi {
                done.digests.push(chunk.finish());
                chunk = WordHash::new();
            }
        }
        for (region, out) in self.outs.into_iter().enumerate() {
            if let Out::Own(samples) = out {
                done.owned.push((region, samples));
            }
        }
        Ok(done)
    }
}

/// The word whose first `split` bytes end `before` and whose rest opens
/// `after`.
fn straddled(split: usize, before: &[u8; 8], after: &[u8]) -> [u8; 8] {
    let mut word = [0u8; 8];
    word[..split].copy_from_slice(&before[8 - split..]);
    word[split..].copy_from_slice(&after[..8 - split]);
    word
}

/// Splits a `body_len`-byte body into at most `workers` runs of whole
/// hash chunks. Each run holds a full chunk, so no word spans more than
/// two runs.
fn runs(body_len: usize, workers: usize) -> Vec<(usize, usize)> {
    let chunks = body_len.div_ceil(HASH_CHUNK);
    let count = workers.min(body_len / HASH_CHUNK).max(1);
    let edge = |w: usize| (w * chunks / count * HASH_CHUNK).min(body_len);
    (0..count).map(|w| (edge(w), edge(w + 1))).collect()
}

fn bad_magic(label: &str) -> TraceError {
    bad(
        label,
        "bad magic: not a decarb trace container (pack one with `data pack`)",
    )
}

fn io(label: &str, err: io::Error) -> TraceError {
    TraceError::Io(format!("{label}: {err}"))
}

/// What one walk over a container yields.
struct Walk {
    /// The header facts, with the content hash the trailer recorded.
    info: ContainerInfo,
    regions: Vec<Region>,
    /// Each region's samples, in metadata order; empty unless the walk
    /// was asked to keep them.
    values: Vec<Vec<f64>>,
}

/// The one parser under every reader. It reads the header, metadata
/// block and segment headers ahead to plan the layout, then splits the
/// body into runs of whole hash chunks, one per worker (at most
/// `workers`). Each worker reads its run once with positional reads,
/// folds each chunk's digest and, when `keep_values` is set, converts
/// the same bytes into the sample buffers. The calling thread then
/// joins the digests in chunk order, checks the trailer and fills in
/// the words that straddle two runs.
///
/// A structural error is held until the whole body has been hashed, so
/// the error order is fixed: bad magic, truncated header, hash
/// mismatch, then whatever the structure broke. Nothing is returned
/// before the trailer matches, and the read-ahead bytes must equal
/// their hashed copy.
fn walk<S: Bytes + ?Sized>(
    src: &S,
    file_len: u64,
    label: &str,
    keep_values: bool,
    workers: usize,
) -> Result<Walk, TraceError> {
    let len = usize::try_from(file_len)
        .map_err(|_| bad(label, "file length exceeds the address space"))?;
    let mut head = Vec::new();
    let plan = plan(src, len, label, &mut head)?;
    let body_len = len - TRAILER_LEN;
    let spans = runs(body_len, workers);
    let mut shared = Vec::new();
    let runs = match &plan.layout {
        Ok(layout) if keep_values => layout.assign(&spans, &mut shared),
        _ => spans
            .iter()
            .map(|&(lo, hi)| Run {
                lo,
                hi,
                outs: Vec::new(),
            })
            .collect(),
    };
    let done = decarb_par::par_map_owned(runs, |run| run.pass(src, &plan));
    let done = done
        .into_iter()
        .collect::<io::Result<Vec<Done>>>()
        .map_err(|e| io(label, e))?;
    let mut digests = Vec::with_capacity(body_len.div_ceil(HASH_CHUNK) * 8);
    for digest in done.iter().flat_map(|run| &run.digests) {
        digests.extend_from_slice(&digest.to_le_bytes());
    }
    let mut trailer = Vec::new();
    let recorded = u64::from_le_bytes(array_from(
        src.read_at(body_len, TRAILER_LEN, &mut trailer)
            .map_err(|e| io(label, e))?,
    ));
    let actual = fnv1a64(&digests);
    if recorded != actual {
        return Err(bad(
            label,
            format!(
                "content hash mismatch: trailer records fnv1a64:{recorded:016x} but the \
                 bytes hash to fnv1a64:{actual:016x}; the file is corrupt or was \
                 modified in place — re-pack it from the source CSV"
            ),
        ));
    }
    let mut layout = plan.layout?;
    if done.iter().any(|run| run.changed) {
        return Err(bad(
            label,
            "the file changed while it was read: its header, metadata or segment headers \
             differ from the bytes that were hashed",
        ));
    }
    layout.info.content_hash = recorded;
    if keep_values {
        for (pair, &(_, edge)) in done.windows(2).zip(&spans) {
            if let Some((start, region, sample)) = layout.word_across(edge) {
                let word = straddled(edge - start, &pair[0].last8, &pair[1].first8);
                if let Some(value) = shared.get_mut(region).and_then(|v| v.get_mut(sample)) {
                    *value = f64::from_le_bytes(word);
                }
            }
        }
        for (region, samples) in done.into_iter().flat_map(|run| run.owned) {
            if let Some(slot) = shared.get_mut(region) {
                *slot = samples;
            }
        }
    }
    Ok(Walk {
        info: layout.info,
        regions: layout.regions,
        values: shared,
    })
}

/// Decodes a container held in memory into a [`TraceSet`].
///
/// `label` names the source in errors (the file path at the CLI edge).
/// This is the same pass as [`load_file`], reading by slicing instead
/// of by positional reads: strings exist only in the metadata block,
/// and each region's samples are converted from the fixed-width
/// segments straight into one `Vec<f64>`.
pub fn decode(bytes: &[u8], label: &str) -> Result<TraceSet, TraceError> {
    into_trace_set(
        walk(bytes, bytes.len() as u64, label, true, thread_count())?,
        label,
    )
}

/// Builds the dataset from a walk that kept its values.
fn into_trace_set(walk: Walk, label: &str) -> Result<TraceSet, TraceError> {
    let resolution = Resolution::from_minutes(walk.info.resolution_minutes)
        .map_err(|reason| bad(label, format!("header {reason}")))?;
    let start = walk.info.start;
    let pairs = walk
        .regions
        .into_iter()
        .zip(walk.values)
        .map(|(region, values)| (region, TimeSeries::new(start, values)))
        .collect();
    Ok(TraceSet::try_from_series(pairs)?.with_resolution(resolution))
}

/// Verifies a container and reports its header facts without building
/// the dataset: the same walk as [`decode`], with the values hashed and
/// skipped rather than kept.
pub fn probe(bytes: &[u8], label: &str) -> Result<ContainerInfo, TraceError> {
    Ok(walk(bytes, bytes.len() as u64, label, false, thread_count())?.info)
}

// ---------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------

/// Appends newly observed hours to an existing container, returning the
/// new file bytes and the number of hours added.
///
/// `update` must cover exactly the container's zones, and each zone's
/// series must reach the container's end hour; values at or past the
/// end are taken, anything overlapping stored history is ignored. The
/// appended segment spans the *longest* new coverage: zones that fall
/// short are an error, unless `pad` is set, in which case they repeat
/// their last supplied value (flagged in the error message otherwise).
///
/// The existing header-to-last-segment byte range is copied verbatim —
/// history is never re-encoded — and only the fixed-size header fields
/// and the trailer hash are rewritten.
pub fn append(
    bytes: &[u8],
    label: &str,
    update: &TraceSet,
    pad: bool,
) -> Result<(Vec<u8>, usize), TraceError> {
    let Walk {
        info: header,
        regions: stored,
        ..
    } = walk(bytes, bytes.len() as u64, label, false, thread_count())?;
    if update.resolution().minutes() != header.resolution_minutes {
        return Err(bad(
            label,
            format!(
                "update is {} data but the container is {} min/sample; resample or \
                 re-pack instead of appending across resolutions",
                update.resolution(),
                header.resolution_minutes
            ),
        ));
    }
    let end = header.start.0 as u64 + header.hours as u64;
    let end = u32::try_from(end).map_err(|_| bad(label, "container horizon overflows u32"))?;

    // The update must cover the container's zones exactly: appending
    // cannot add or drop regions without restructuring the blocks.
    for region in update.regions() {
        if !stored.iter().any(|s| s.code == region.code) {
            return Err(bad(
                label,
                format!(
                    "zone {} in the update is not in the container; `append` cannot add \
                     regions — re-pack instead",
                    region.code
                ),
            ));
        }
    }
    // Slice each zone's new coverage `[end, ...)` out of the update.
    let mut fresh: Vec<(&str, &[f64], f64)> = Vec::with_capacity(stored.len());
    for region in &stored {
        let series = update.series(&region.code).map_err(|_| {
            bad(
                label,
                format!(
                    "zone {} is missing from the update; every stored zone needs rows",
                    region.code
                ),
            )
        })?;
        let s0 = series.start().0;
        if s0 > end {
            return Err(bad(
                label,
                format!(
                    "zone {}: update starts at hour {s0} but the container ends at hour \
                     {end}; hours {end}..{s0} would be a gap",
                    region.code
                ),
            ));
        }
        let skip = (end - s0) as usize;
        let values = series.values();
        let new = values.get(skip..).unwrap_or(&[]);
        let last = *values.last().ok_or_else(|| {
            bad(
                label,
                format!("zone {} in the update holds no rows", region.code),
            )
        })?;
        fresh.push((&region.code, new, last));
    }
    let added = fresh.iter().map(|(_, new, _)| new.len()).max().unwrap_or(0);
    if added == 0 {
        return Err(bad(
            label,
            format!("the update holds no hours past the container's end hour {end}"),
        ));
    }
    if !pad {
        let short: Vec<String> = fresh
            .iter()
            .filter(|(_, new, _)| new.len() < added)
            .map(|(code, new, _)| format!("{code} ({} of {added} hours)", new.len()))
            .collect();
        if !short.is_empty() {
            return Err(bad(
                label,
                format!(
                    "ragged coverage: {} fall short of the longest zone; pass --pad to \
                     repeat each zone's last value, or supply the missing rows",
                    short.join(", ")
                ),
            ));
        }
    }

    // Copy header..last-segment verbatim, extend with one new segment.
    let mut out = Vec::with_capacity(bytes.len() + 8 + stored.len() * added * 8);
    out.extend_from_slice(&bytes[..bytes.len() - TRAILER_LEN]);
    out.extend_from_slice(&(added as u64).to_le_bytes());
    for (_, new, last) in &fresh {
        for value in *new {
            out.extend_from_slice(&value.to_le_bytes());
        }
        for _ in new.len()..added {
            out.extend_from_slice(&last.to_le_bytes());
        }
    }
    // Rewrite the header fields that changed: total hours and segments.
    let hours = (header.hours + added) as u64;
    out[20..28].copy_from_slice(&hours.to_le_bytes());
    out[28..32].copy_from_slice(&((header.segments + 1) as u32).to_le_bytes());
    let hash = content_hash(&out);
    out.extend_from_slice(&hash.to_le_bytes());
    Ok((out, added))
}

// ---------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: a sibling temp file is written
/// and renamed over the target, so readers (and crashed writers) never
/// observe a half-written container.
pub fn write_bytes_atomic(path: &str, bytes: &[u8]) -> Result<(), TraceError> {
    let tmp = format!("{path}.tmp~");
    std::fs::write(&tmp, bytes).map_err(|e| TraceError::Io(format!("{tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| TraceError::Io(format!("{path}: {e}")))
}

/// [`encode`] + [`write_bytes_atomic`].
pub fn write_file(set: &TraceSet, path: &str) -> Result<(), TraceError> {
    let bytes = encode(set).map_err(|e| relabel(e, path))?;
    write_bytes_atomic(path, &bytes)
}

/// Loads a container file through [`decode`]'s pass, on up to
/// [`thread_count`] workers. Each worker reads its run of the file
/// 64 KiB at a time, so a load holds about one copy of the samples,
/// not the file and the samples side by side.
pub fn load_file(path: &str) -> Result<TraceSet, TraceError> {
    let (file, len) = open(path)?;
    into_trace_set(walk(&file, len, path, true, thread_count())?, path)
}

/// Verifies a container file through [`probe`]'s pass.
pub fn probe_file(path: &str) -> Result<ContainerInfo, TraceError> {
    let (file, len) = open(path)?;
    Ok(walk(&file, len, path, false, thread_count())?.info)
}

fn open(path: &str) -> Result<(File, u64), TraceError> {
    let file = File::open(path).map_err(|e| io(path, e))?;
    let len = file.metadata().map_err(|e| io(path, e))?.len();
    Ok((file, len))
}

/// Swaps the `<encode>` placeholder label for a real path.
fn relabel(err: TraceError, path: &str) -> TraceError {
    match err {
        TraceError::Container { reason, .. } => TraceError::Container {
            path: path.to_string(),
            reason,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn tiny_set(hours: usize) -> TraceSet {
        let se = catalog::region("SE").unwrap().clone();
        let de = catalog::region("DE").unwrap().clone();
        let mut user = Region::user("XX-NEW");
        user.name = "Userland".into();
        user.group = GeoGroup::Other;
        let series = |base: f64| {
            TimeSeries::new(
                Hour(10),
                (0..hours).map(|i| base + i as f64 * 0.25).collect(),
            )
        };
        TraceSet::from_series(vec![
            (se, series(16.0)),
            (de, series(380.0)),
            (user, series(120.5)),
        ])
    }

    fn assert_region_eq(a: &Region, b: &Region) {
        assert_eq!(a.code, b.code);
        assert_eq!(a.name, b.name);
        assert_eq!(a.group, b.group);
        assert_eq!(a.lat.to_bits(), b.lat.to_bits());
        assert_eq!(a.lon.to_bits(), b.lon.to_bits());
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.mean_ci_2022.to_bits(), b.mean_ci_2022.to_bits());
        assert_eq!(
            a.ci_delta_2020_2022.to_bits(),
            b.ci_delta_2020_2022.to_bits()
        );
        assert_eq!(a.daily_cv.to_bits(), b.daily_cv.to_bits());
        assert_eq!(a.periodicity.to_bits(), b.periodicity.to_bits());
        assert_eq!(a.hyperscale_set, b.hyperscale_set);
        for source in Source::ALL {
            assert_eq!(
                a.mix.share(source).to_bits(),
                b.mix.share(source).to_bits(),
                "{} share of {}",
                source.label(),
                a.code
            );
        }
    }

    fn assert_set_eq(a: &TraceSet, b: &TraceSet) {
        assert_eq!(a.len(), b.len());
        for ((ra, sa), (rb, sb)) in a.iter().zip(b.iter()) {
            assert_region_eq(ra, rb);
            assert_eq!(sa.start(), sb.start());
            assert_eq!(sa.len(), sb.len());
            for (va, vb) in sa.values().iter().zip(sb.values()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "zone {}", ra.code);
            }
        }
    }

    #[test]
    fn roundtrip_preserves_ids_metadata_and_values() {
        let set = tiny_set(48);
        let bytes = encode(&set).unwrap();
        let back = decode(&bytes, "test").unwrap();
        assert_set_eq(&set, &back);
        // Intern order (and therefore every RegionId) survives.
        for (id, region, _) in set.iter_ids() {
            assert_eq!(back.id_of(&region.code).unwrap(), id);
        }
    }

    #[test]
    fn probe_reports_header_facts() {
        let set = tiny_set(48);
        let bytes = encode(&set).unwrap();
        let info = probe(&bytes, "test").unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.regions, 3);
        assert_eq!(info.start, Hour(10));
        assert_eq!(info.hours, 48);
        assert_eq!(info.resolution_minutes, 60);
        assert_eq!(info.segments, 1);
        assert_eq!(info.file_bytes, bytes.len());
        let recorded = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(info.content_hash, recorded);
    }

    #[test]
    fn five_minute_pack_probe_append_roundtrip() {
        // A 5-minute set: tiny_set's axis reinterpreted as 5-min slots.
        let five = Resolution::from_minutes(5).unwrap();
        let full = tiny_set(48).with_resolution(five);
        let first = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(10), 36).unwrap()))
                .collect(),
        )
        .with_resolution(five);
        let bytes = encode(&first).unwrap();
        // Probe surfaces the sub-hourly resolution from the header.
        let info = probe(&bytes, "test").unwrap();
        assert_eq!(info.resolution_minutes, 5);
        assert_eq!(info.hours, 36);
        // Decode round-trips it onto a live axis.
        let back = decode(&bytes, "test").unwrap();
        assert_eq!(back.resolution(), five);
        assert_set_eq(&first, &back);
        // Append keeps the resolution (bytes [12..16] untouched).
        let update = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(46), 2).unwrap()))
                .collect(),
        )
        .with_resolution(five);
        let (appended, added) = append(&bytes, "test", &update, false).unwrap();
        assert_eq!(added, 2);
        let info = probe(&appended, "test").unwrap();
        assert_eq!(info.resolution_minutes, 5);
        assert_eq!(info.segments, 2);
        assert_eq!(decode(&appended, "test").unwrap().resolution(), five);
        // An hourly update cannot extend a 5-minute container.
        let hourly_update = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(46), 2).unwrap()))
                .collect(),
        );
        let err = append(&bytes, "test", &hourly_update, false).unwrap_err();
        assert!(format!("{err}").contains("resolution"), "{err}");
    }

    #[test]
    fn invalid_header_resolution_is_rejected_at_decode() {
        let mut bytes = encode(&tiny_set(4)).unwrap();
        // Patch resolution to 7 minutes (not a divisor of 60) and fix
        // the trailer so only the resolution is wrong.
        bytes[12..16].copy_from_slice(&7u32.to_le_bytes());
        let body = bytes.len() - TRAILER_LEN;
        let hash = content_hash(&bytes[..body]);
        bytes[body..].copy_from_slice(&hash.to_le_bytes());
        let err = decode(&bytes, "test").unwrap_err();
        assert!(format!("{err}").contains("invalid resolution 7"), "{err}");
        // Probe still reports the raw header fact for diagnosis.
        assert_eq!(probe(&bytes, "test").unwrap().resolution_minutes, 7);
    }

    #[test]
    fn empty_set_roundtrips() {
        let set = TraceSet::from_series(vec![]);
        let bytes = encode(&set).unwrap();
        let back = decode(&bytes, "test").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn encode_rejects_ragged_coverage() {
        let set = TraceSet::from_series(vec![
            (
                catalog::region("SE").unwrap().clone(),
                TimeSeries::new(Hour(0), vec![1.0, 2.0]),
            ),
            (
                catalog::region("DE").unwrap().clone(),
                TimeSeries::new(Hour(0), vec![1.0, 2.0, 3.0]),
            ),
        ]);
        let err = encode(&set).unwrap_err();
        assert!(matches!(err, TraceError::Container { .. }));
        assert!(format!("{err}").contains("ragged"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = decode(b"zone,hour,value\nSE,0,16.0\n", "test").unwrap_err();
        assert!(format!("{err}").contains("bad magic"), "{err}");
        assert!(!is_container(b"zone,hour"));
        assert!(is_container(&encode(&tiny_set(4)).unwrap()));
    }

    #[test]
    fn corruption_is_rejected_by_the_hash() {
        let mut bytes = encode(&tiny_set(48)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode(&bytes, "test").unwrap_err();
        assert!(format!("{err}").contains("hash mismatch"), "{err}");
        assert!(probe(&bytes, "test").is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&tiny_set(48)).unwrap();
        // Mid-header truncation.
        let err = decode(&bytes[..20], "test").unwrap_err();
        assert!(format!("{err}").contains("truncated"), "{err}");
        // A clean cut further in still fails the hash check (the
        // trailer bytes are now value bytes).
        let err = decode(&bytes[..bytes.len() - 64], "test").unwrap_err();
        assert!(matches!(err, TraceError::Container { .. }), "{err:?}");
    }

    #[test]
    fn version_gate() {
        let mut bytes = encode(&tiny_set(4)).unwrap();
        bytes[8] = 99;
        // Recompute the trailer so only the version differs.
        let body = bytes.len() - TRAILER_LEN;
        let hash = content_hash(&bytes[..body]);
        bytes[body..].copy_from_slice(&hash.to_le_bytes());
        let err = decode(&bytes, "test").unwrap_err();
        assert!(format!("{err}").contains("version 99"), "{err}");
    }

    #[test]
    fn append_extends_without_reencoding_history() {
        let full = tiny_set(48);
        let first: TraceSet = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(10), 30).unwrap()))
                .collect(),
        );
        let second: TraceSet = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(40), 18).unwrap()))
                .collect(),
        );
        let packed_first = encode(&first).unwrap();
        let (appended, added) = append(&packed_first, "test", &second, false).unwrap();
        assert_eq!(added, 18);
        // History bytes (header excluded) are byte-identical in place.
        assert_eq!(
            &appended[HEADER_LEN..packed_first.len() - TRAILER_LEN],
            &packed_first[HEADER_LEN..packed_first.len() - TRAILER_LEN]
        );
        let back = decode(&appended, "test").unwrap();
        assert_set_eq(&full, &back);
        assert_eq!(probe(&appended, "test").unwrap().segments, 2);
    }

    #[test]
    fn append_accepts_overlapping_history() {
        let full = tiny_set(48);
        let first = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(10), 30).unwrap()))
                .collect(),
        );
        // The update re-sends the last 5 stored hours plus 18 new ones.
        let update = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(35), 23).unwrap()))
                .collect(),
        );
        let packed = encode(&first).unwrap();
        let (appended, added) = append(&packed, "test", &update, false).unwrap();
        assert_eq!(added, 18);
        assert_set_eq(&full, &decode(&appended, "test").unwrap());
    }

    #[test]
    fn append_pads_or_errors_on_ragged_coverage() {
        let full = tiny_set(48);
        let first = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(10), 40).unwrap()))
                .collect(),
        );
        // SE supplies only 3 of the 8 new hours.
        let update = TraceSet::from_series(
            full.iter()
                .map(|(r, s)| {
                    let len = if r.code == "SE" { 3 } else { 8 };
                    (r.clone(), s.slice(Hour(50), len).unwrap())
                })
                .collect(),
        );
        let packed = encode(&first).unwrap();
        let err = append(&packed, "test", &update, false).unwrap_err();
        assert!(format!("{err}").contains("--pad"), "{err}");
        let (appended, added) = append(&packed, "test", &update, true).unwrap();
        assert_eq!(added, 8);
        let back = decode(&appended, "test").unwrap();
        let se = back.series("SE").unwrap().values();
        assert_eq!(se.len(), 48);
        // The padded tail repeats SE's last supplied value.
        let last_supplied = se[42];
        for &padded in &se[43..] {
            assert_eq!(padded.to_bits(), last_supplied.to_bits());
        }
    }

    #[test]
    fn append_rejects_gaps_missing_and_foreign_zones() {
        let first = tiny_set(30);
        let packed = encode(&first).unwrap();
        // Gap: update starts past the container end (end = hour 40).
        let gap = TraceSet::from_series(
            first
                .iter()
                .map(|(r, _)| (r.clone(), TimeSeries::new(Hour(45), vec![1.0, 2.0])))
                .collect(),
        );
        let err = append(&packed, "test", &gap, false).unwrap_err();
        assert!(format!("{err}").contains("gap"), "{err}");
        // Missing zone.
        let missing = TraceSet::from_series(vec![(
            catalog::region("SE").unwrap().clone(),
            TimeSeries::new(Hour(40), vec![1.0]),
        )]);
        let err = append(&packed, "test", &missing, false).unwrap_err();
        assert!(format!("{err}").contains("missing"), "{err}");
        // Foreign zone.
        let mut pairs: Vec<(Region, TimeSeries)> = first
            .iter()
            .map(|(r, _)| (r.clone(), TimeSeries::new(Hour(40), vec![1.0])))
            .collect();
        pairs.push((
            Region::user("ZZ-ELSE"),
            TimeSeries::new(Hour(40), vec![1.0]),
        ));
        let foreign = TraceSet::from_series(pairs);
        let err = append(&packed, "test", &foreign, false).unwrap_err();
        assert!(format!("{err}").contains("cannot add"), "{err}");
        // No new hours at all.
        let stale = TraceSet::from_series(
            first
                .iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(10), 30).unwrap()))
                .collect(),
        );
        let err = append(&packed, "test", &stale, false).unwrap_err();
        assert!(format!("{err}").contains("no hours"), "{err}");
    }

    #[test]
    fn file_helpers_roundtrip_atomically() {
        let dir = std::env::temp_dir().join(format!("decarb-container-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dct");
        let path = path.to_str().unwrap();
        let set = tiny_set(12);
        write_file(&set, path).unwrap();
        assert_set_eq(&set, &load_file(path).unwrap());
        assert_eq!(probe_file(path).unwrap().hours, 12);
        assert!(!std::path::Path::new(&format!("{path}.tmp~")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A two-segment container whose body spans three hash pieces, with
    /// an odd-length metadata block so that sample words straddle the
    /// piece edges.
    fn straddling_container() -> Vec<u8> {
        let mut odd = Region::user("XX-ODD");
        odd.name = "Odd".into();
        let regions = [
            catalog::region("SE").unwrap().clone(),
            catalog::region("DE").unwrap().clone(),
            odd,
        ];
        let series = |k: usize, from: usize, len: usize| {
            let values = (from..from + len)
                .map(|i| 100.0 + 50.0 * ((i * (k + 3)) as f64 * 0.37).sin())
                .collect();
            TimeSeries::new(Hour(from as u32), values)
        };
        let part = |from: usize, len: usize| {
            TraceSet::from_series(
                regions
                    .iter()
                    .enumerate()
                    .map(|(k, region)| (region.clone(), series(k, from, len)))
                    .collect(),
            )
        };
        let first = encode(&part(0, 60_000)).unwrap();
        let (bytes, added) = append(&first, "test", &part(60_000, 40_000), false).unwrap();
        assert_eq!(added, 40_000);
        assert!(bytes.len() > 2 * HASH_CHUNK);
        let meta_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
        assert_eq!(meta_len % 2, 1, "metadata block length {meta_len}");
        bytes
    }

    #[test]
    fn values_straddling_piece_edges_load_identically_from_file_and_bytes() {
        let bytes = straddling_container();
        let from_bytes = decode(&bytes, "test").unwrap();
        let dir = std::env::temp_dir().join(format!("decarb-straddle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("straddle.dctr");
        let path = path.to_str().unwrap();
        write_bytes_atomic(path, &bytes).unwrap();
        let from_file = load_file(path).unwrap();
        assert_set_eq(&from_bytes, &from_file);
        assert_eq!(from_file.series("DE").unwrap().len(), 100_000);
        assert_eq!(probe_file(path).unwrap(), probe(&bytes, "test").unwrap());
        assert_eq!(probe(&bytes, "test").unwrap().segments, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cuts_at_any_offset_keep_their_messages() {
        let bytes = straddling_container();
        let mut cuts = vec![0, 1, 7, 8, 9, 20, 35, 36, 43, 44, 45, 400, 1000];
        for edge in [HASH_CHUNK, 2 * HASH_CHUNK, bytes.len()] {
            cuts.extend((edge - 9..=edge + 9).filter(|&cut| cut < bytes.len()));
        }
        for cut in cuts {
            let err = decode(&bytes[..cut], "test").unwrap_err();
            assert!(
                matches!(err, TraceError::Container { .. }),
                "{cut}: {err:?}"
            );
            let expected = match cut {
                0..=7 => "bad magic",
                8..=43 => "truncated",
                _ => "hash mismatch",
            };
            assert!(format!("{err}").contains(expected), "{cut}: {err}");
        }
    }

    /// A seeded container of `regions` zones with raw random sample bits,
    /// one segment per entry of `parts` (each that many samples).
    /// Region 0's name is `pad` bytes long, so the metadata length — and
    /// with it where value words fall against pieces, chunks and runs —
    /// moves with it.
    fn seeded(seed: u64, regions: usize, pad: usize, parts: &[usize]) -> (TraceSet, Vec<u8>) {
        let mut rng = crate::rng::Xoshiro256::seeded(seed);
        let hours: usize = parts.iter().sum();
        let full: Vec<(Region, TimeSeries)> = (0..regions)
            .map(|k| {
                let mut region = Region::user(&format!("XX-S{k}"));
                region.name = if k == 0 {
                    "n".repeat(pad)
                } else {
                    format!("Seeded {k}")
                };
                let values = (0..hours).map(|_| f64::from_bits(rng.next_u64())).collect();
                (region, TimeSeries::new(Hour(7), values))
            })
            .collect();
        let part = |from: usize, len: usize| {
            let pairs = full
                .iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(7 + from as u32), len).unwrap()));
            TraceSet::from_series(pairs.collect())
        };
        let mut bytes = encode(&part(0, parts[0])).unwrap();
        let mut from = parts[0];
        for &len in &parts[1..] {
            bytes = append(&bytes, "test", &part(from, len), false).unwrap().0;
            from += len;
        }
        (TraceSet::from_series(full), bytes)
    }

    /// The name pad that puts the first value word of a [`seeded`]
    /// container with `regions` zones at `residue` modulo 8, and that
    /// word's offset.
    fn padded(regions: usize, residue: usize) -> (usize, usize) {
        // Each record is 127 fixed bytes plus its 5-byte code and its
        // name: 8 bytes for the zones after the first.
        let unpadded = HEADER_LEN + 132 + (regions - 1) * 140 + 8;
        let pad = 8 + (residue + 8 - unpadded % 8) % 8;
        (pad, unpadded + pad)
    }

    /// Body offset of the first value word.
    fn value_start(bytes: &[u8]) -> usize {
        HEADER_LEN + u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize + 8
    }

    #[test]
    fn runs_tile_the_body_in_whole_chunks() {
        for body_len in [
            44,
            HASH_CHUNK - 1,
            HASH_CHUNK,
            HASH_CHUNK + 3,
            5 * HASH_CHUNK + 7,
            9 * HASH_CHUNK,
        ] {
            for workers in 1..=6 {
                let spans = runs(body_len, workers);
                assert_eq!(spans.len(), workers.min(body_len / HASH_CHUNK).max(1));
                assert_eq!(spans[0].0, 0);
                assert_eq!(spans.last().unwrap().1, body_len);
                for pair in spans.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0);
                }
                for &(lo, hi) in &spans {
                    assert_eq!(lo % HASH_CHUNK, 0);
                    assert!(
                        hi - lo >= HASH_CHUNK.min(body_len),
                        "{body_len}/{workers}: {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_parallel_pass_decodes_bit_for_bit_at_every_worker_count() {
        let dir = std::env::temp_dir().join(format!("decarb-runs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // (seed, regions, first value word's offset modulo 8, segments):
        // across the cases value words straddle piece, chunk and run
        // edges at every offset, and case 4 ends region 0's first block
        // exactly on the first chunk edge.
        let aligned = (HASH_CHUNK - padded(3, 0).1) / 8;
        let cases: [(u64, usize, usize, Vec<usize>); 8] = [
            (1, 3, 3, vec![40]),
            (2, 2, 5, vec![30, 9, 1]),
            (3, 3, 1, vec![230_000]),
            (4, 3, 0, vec![aligned, 100_000]),
            (5, 2, 6, vec![170_000, 1, 2]),
            (6, 5, 2, vec![60_000, 40_000, 37_000]),
            (7, 1, 7, vec![400_000]),
            (8, 4, 4, vec![20_000, 90_001]),
        ];
        let mut starts = Vec::new();
        for (seed, regions, residue, parts) in cases {
            let (pad, start) = padded(regions, residue);
            let (set, bytes) = seeded(seed, regions, pad, &parts);
            assert_eq!(value_start(&bytes), start);
            starts.push(start % 8);
            let path = dir.join(format!("seeded-{seed}.dctr"));
            let path = path.to_str().unwrap();
            write_bytes_atomic(path, &bytes).unwrap();
            let (file, len) = open(path).unwrap();
            let reference = walk(&bytes[..], len, "test", false, 1).unwrap().info;
            assert_eq!(reference.segments, parts.len());
            assert_eq!(reference.file_bytes, bytes.len());
            let trailer = &bytes[bytes.len() - TRAILER_LEN..];
            assert_eq!(
                reference.content_hash,
                u64::from_le_bytes(trailer.try_into().unwrap())
            );
            for workers in 1..=5 {
                let from_bytes = walk(&bytes[..], len, "test", true, workers).unwrap();
                assert_eq!(from_bytes.info, reference, "seed {seed}, {workers} workers");
                assert_set_eq(&set, &into_trace_set(from_bytes, "test").unwrap());
                let from_file = walk(&file, len, path, true, workers).unwrap();
                assert_set_eq(&set, &into_trace_set(from_file, path).unwrap());
                assert_eq!(
                    walk(&file, len, path, false, workers).unwrap().info,
                    reference
                );
            }
            assert_eq!(probe(&bytes, "test").unwrap(), reference);
            assert_eq!(probe_file(path).unwrap(), reference);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts, (0..8).collect::<Vec<_>>(), "value-start residues");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_flipped_byte_in_any_run_fails_the_hash() {
        let (_, bytes) = seeded(11, 3, padded(3, 1).0, &[150_000, 80_000]);
        let body_len = bytes.len() - TRAILER_LEN;
        for workers in 2..=5 {
            for (k, (lo, hi)) in runs(body_len, workers).into_iter().enumerate() {
                let mut flipped = bytes.clone();
                flipped[lo + (k * 7919 + workers * 104_729) % (hi - lo)] ^= 0x08;
                let len = flipped.len() as u64;
                for keep in [true, false] {
                    let err = walk(&flipped[..], len, "test", keep, workers)
                        .err()
                        .unwrap();
                    assert!(
                        format!("{err}").contains("content hash mismatch"),
                        "{workers}/{k}: {err}"
                    );
                }
            }
        }
    }

    /// The multi-run pass on in-memory bytes, small enough for Miri,
    /// which skips the seeded tests above.
    #[test]
    fn two_runs_split_a_multi_chunk_body_held_in_memory() {
        let bytes = straddling_container();
        let one = into_trace_set(
            walk(&bytes[..], bytes.len() as u64, "test", true, 1).unwrap(),
            "test",
        );
        for workers in [2, 3] {
            let many = walk(&bytes[..], bytes.len() as u64, "test", true, workers).unwrap();
            assert_set_eq(
                one.as_ref().unwrap(),
                &into_trace_set(many, "test").unwrap(),
            );
        }
    }

    /// Serves every read shorter than the whole body from `stale`, the
    /// rest from `fresh`: on a file smaller than one piece, the
    /// read-ahead sees `stale` and the pass sees `fresh`, as if the file
    /// changed in between.
    struct ChangedUnderfoot {
        fresh: Vec<u8>,
        stale: Vec<u8>,
    }

    impl Bytes for ChangedUnderfoot {
        fn read_at<'s>(
            &'s self,
            at: usize,
            len: usize,
            buf: &'s mut Vec<u8>,
        ) -> io::Result<&'s [u8]> {
            let whole = len >= self.fresh.len() - TRAILER_LEN;
            let image = if whole { &self.fresh } else { &self.stale };
            image.read_at(at, len, buf)
        }
    }

    /// Walks `fresh` with the read-ahead seeing `stale`.
    fn walk_changed(fresh: &[u8], stale: Vec<u8>) -> Result<Walk, TraceError> {
        let len = fresh.len() as u64;
        let source = ChangedUnderfoot {
            fresh: fresh.to_vec(),
            stale,
        };
        walk(&source, len, "test", true, 1)
    }

    #[test]
    fn read_ahead_bytes_must_equal_their_hashed_copy() {
        let full = tiny_set(48);
        let part = |from: u32, len: usize| {
            let pairs = full
                .iter()
                .map(|(r, s)| (r.clone(), s.slice(Hour(from), len).unwrap()));
            TraceSet::from_series(pairs.collect())
        };
        let first = encode(&part(10, 30)).unwrap();
        let (bytes, _) = append(&first, "test", &part(40, 18), false).unwrap();
        assert!(walk_changed(&bytes, bytes.clone()).is_ok());
        // A metadata byte: the first zone's name starts after its code.
        let name_at = HEADER_LEN + 2 + 2 + 2;
        assert_eq!(bytes[name_at], b'S');
        let mut stale = bytes.clone();
        stale[name_at] = b'T';
        let err = walk_changed(&bytes, stale).err().unwrap();
        assert!(
            format!("{err}").contains("changed while it was read"),
            "{err}"
        );
        // Segment headers that still tile the body: 20 + 28 hours where
        // the hashed bytes hold 30 + 18.
        let first_header = value_start(&bytes) - 8;
        let mut stale = bytes.clone();
        stale[first_header..first_header + 8].copy_from_slice(&20u64.to_le_bytes());
        let second_header = first_header + 8 + 3 * 20 * 8;
        stale[second_header..second_header + 8].copy_from_slice(&28u64.to_le_bytes());
        let err = walk_changed(&bytes, stale).err().unwrap();
        assert!(
            format!("{err}").contains("changed while it was read"),
            "{err}"
        );
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
