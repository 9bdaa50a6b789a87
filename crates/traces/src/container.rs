//! The binary trace container: a packed, integrity-checked dataset file.
//!
//! CSV is the interchange format, but parsing `zone,hour,value` rows is
//! the dominant cost of every process start on year-scale multi-grid
//! datasets. This module defines a versioned binary layout that loads
//! in one streaming pass with no string work past the metadata block:
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
//! Every reader runs one parser. It pulls the file in 1 MiB pieces,
//! hashes each piece as it arrives and converts value blocks straight
//! into each region's final, pre-sized sample buffer, so loading a
//! container never holds the whole file next to the decoded samples.
//! Header counts are checked against the bytes that follow before
//! anything is allocated for them.
//!
//! The trailing hash makes a container self-verifying: [`decode`],
//! [`load_file`], [`probe`], and [`append`] all reject a file whose
//! bytes do not match the recorded hash, and return nothing before the
//! hash has matched. The hash doubles as a cheap dataset identity for
//! comparing inputs across sweep hosts.

use std::fs::File;
use std::io::Read;

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
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

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
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in words.by_ref() {
        hash ^= u64::from_le_bytes(array_from(word));
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    let mut tail = 0u64;
    for (i, &byte) in words.remainder().iter().enumerate() {
        tail |= u64::from(byte) << (8 * i);
    }
    hash ^= tail;
    hash = hash.wrapping_mul(0x100_0000_01b3);
    hash ^= bytes.len() as u64;
    hash.wrapping_mul(0x100_0000_01b3)
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

/// The container body (every byte before the trailer), pulled from its
/// source in [`HASH_CHUNK`] pieces. Each piece is folded into the
/// content hash as it arrives, so the whole file is never held: values
/// go straight from a piece into their final buffers. The source is a
/// `File` for [`load_file`] and [`probe_file`], and a byte slice for
/// [`decode`], [`probe`] and [`append`].
struct Body<'a, R> {
    src: R,
    label: &'a str,
    /// Body length in bytes: the file length minus the trailer.
    len: usize,
    /// The current piece and the read position inside it.
    chunk: Vec<u8>,
    pos: usize,
    /// Body bytes pulled from the source so far.
    pulled: usize,
    /// The little-endian [`fnv1a64_words`] digest of every piece pulled.
    digests: Vec<u8>,
}

impl<'a, R: Read> Body<'a, R> {
    /// Opens the body of a `file_len`-byte container and checks its
    /// magic. Files too short for the fixed header and trailer are
    /// rejected here, before anything is hashed.
    fn open(mut src: R, file_len: u64, label: &'a str) -> Result<Self, TraceError> {
        let len = usize::try_from(file_len)
            .map_err(|_| bad(label, "file length exceeds the address space"))?;
        if len < HEADER_LEN + TRAILER_LEN {
            let mut head = Vec::with_capacity(MAGIC.len());
            (&mut src)
                .take(MAGIC.len() as u64)
                .read_to_end(&mut head)
                .map_err(|e| io(label, e))?;
            if !is_container(&head) {
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
        let mut body = Self {
            src,
            label,
            len: len - TRAILER_LEN,
            chunk: Vec::new(),
            pos: 0,
            pulled: 0,
            digests: Vec::new(),
        };
        body.next_chunk()?;
        if !is_container(&body.chunk) {
            return Err(bad_magic(label));
        }
        body.pos = MAGIC.len();
        Ok(body)
    }

    /// Body bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.len - self.pulled + (self.chunk.len() - self.pos)
    }

    /// Replaces the consumed piece with the next one and folds it into
    /// the hash. Callers check [`Body::remaining`] first.
    fn next_chunk(&mut self) -> Result<(), TraceError> {
        let n = HASH_CHUNK.min(self.len - self.pulled);
        self.chunk.resize(n, 0);
        self.src
            .read_exact(&mut self.chunk)
            .map_err(|e| io(self.label, e))?;
        self.digests
            .extend_from_slice(&fnv1a64_words(&self.chunk).to_le_bytes());
        self.pulled += n;
        self.pos = 0;
        Ok(())
    }

    /// Fails unless `n` more body bytes exist.
    fn need(&self, n: usize, what: &str) -> Result<(), TraceError> {
        if n <= self.remaining() {
            return Ok(());
        }
        Err(bad(
            self.label,
            format!(
                "truncated {what}: needed {n} bytes at offset {} but the file holds {}; \
                 the file was cut short — re-pack it from the source CSV",
                self.len - self.remaining(),
                self.len
            ),
        ))
    }

    /// Feeds the next `n` body bytes to `take`, one piece-bounded
    /// slice at a time.
    fn consume(
        &mut self,
        n: usize,
        what: &str,
        mut take: impl FnMut(&[u8]),
    ) -> Result<(), TraceError> {
        self.need(n, what)?;
        let mut left = n;
        while left > 0 {
            if self.pos == self.chunk.len() {
                self.next_chunk()?;
            }
            let step = left.min(self.chunk.len() - self.pos);
            take(&self.chunk[self.pos..self.pos + step]);
            self.pos += step;
            left -= step;
        }
        Ok(())
    }

    /// Fills `out` from the body, across piece edges.
    fn read(&mut self, out: &mut [u8], what: &str) -> Result<(), TraceError> {
        let mut filled = 0;
        self.consume(out.len(), what, |piece| {
            out[filled..filled + piece.len()].copy_from_slice(piece);
            filled += piece.len();
        })
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceError> {
        let mut out = [0u8; N];
        self.read(&mut out, what)?;
        Ok(out)
    }

    fn byte(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64, TraceError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// Reads a u16-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<String, TraceError> {
        let len = self.u16(what)? as usize;
        self.need(len, what)?;
        let mut raw = vec![0u8; len];
        self.read(&mut raw, what)?;
        String::from_utf8(raw).map_err(|_| bad(self.label, format!("{what} is not UTF-8")))
    }

    /// Appends `n` little-endian `f64`s to `out`, converting each piece
    /// in place; only a word that straddles two pieces is copied first.
    // decarb-analyze: hot-path
    fn f64s(&mut self, n: usize, out: &mut Vec<f64>, what: &str) -> Result<(), TraceError> {
        self.need(n.saturating_mul(8), what)?;
        let mut left = n;
        while left > 0 {
            if self.pos == self.chunk.len() {
                self.next_chunk()?;
            }
            let words = left.min((self.chunk.len() - self.pos) / 8);
            if words == 0 {
                out.push(f64::from_le_bytes(self.array(what)?));
                left -= 1;
                continue;
            }
            let end = self.pos + words * 8;
            out.extend(
                self.chunk[self.pos..end]
                    .chunks_exact(8)
                    .map(|word| f64::from_le_bytes(array_from(word))),
            );
            self.pos = end;
            left -= words;
        }
        Ok(())
    }

    /// Hashes whatever body is left unread, then checks the total
    /// against the trailer and returns it.
    fn finish(mut self) -> Result<u64, TraceError> {
        let rest = self.remaining();
        self.consume(rest, "body", |_| ())?;
        let mut trailer = [0u8; TRAILER_LEN];
        self.src
            .read_exact(&mut trailer)
            .map_err(|e| io(self.label, e))?;
        let recorded = u64::from_le_bytes(trailer);
        let actual = fnv1a64(&self.digests);
        if recorded != actual {
            return Err(bad(
                self.label,
                format!(
                    "content hash mismatch: trailer records fnv1a64:{recorded:016x} but the \
                     bytes hash to fnv1a64:{actual:016x}; the file is corrupt or was \
                     modified in place — re-pack it from the source CSV"
                ),
            ));
        }
        Ok(recorded)
    }
}

fn bad_magic(label: &str) -> TraceError {
    bad(
        label,
        "bad magic: not a decarb trace container (pack one with `data pack`)",
    )
}

fn io(label: &str, err: std::io::Error) -> TraceError {
    TraceError::Io(format!("{label}: {err}"))
}

/// What one walk over a container yields.
struct Walk {
    /// The header facts; `content_hash` is set by [`walk`] once the
    /// trailer has matched.
    info: ContainerInfo,
    regions: Vec<Region>,
    /// Each region's samples, in metadata order; empty unless the walk
    /// was asked to keep them.
    values: Vec<Vec<f64>>,
}

/// The one parser under every reader: walks a `file_len`-byte container
/// from `src` in a single pass, hashing as it goes, and decodes each
/// region's samples into a pre-sized buffer when `keep_values` is set.
///
/// A structural error is held until the rest of the body has been
/// hashed, so the error order is fixed: bad magic, truncated header,
/// hash mismatch, then whatever the structure broke. Nothing is
/// returned before the trailer matches.
fn walk<R: Read>(
    src: R,
    file_len: u64,
    label: &str,
    keep_values: bool,
) -> Result<Walk, TraceError> {
    let mut body = Body::open(src, file_len, label)?;
    let parsed = parse(&mut body, keep_values);
    let content_hash = body.finish()?;
    let mut walk = parsed?;
    walk.info.content_hash = content_hash;
    Ok(walk)
}

/// Parses the header, metadata block and value segments from `body`.
/// Every allocation is checked against the bytes the body still holds
/// before it is made, so a header claiming more than the file carries
/// is an error, never an allocation.
fn parse<R: Read>(body: &mut Body<'_, R>, keep_values: bool) -> Result<Walk, TraceError> {
    let label = body.label;
    let version = body.u16("header")?;
    if version != VERSION {
        return Err(bad(
            label,
            format!(
                "unsupported container version {version} (this build reads version \
                 {VERSION}); re-pack the dataset with this binary"
            ),
        ));
    }
    let regions = body.u16("header")? as usize;
    let resolution_minutes = body.u32("header")?;
    let start = Hour(body.u32("header")?);
    let hours = body.u64("header")?;
    let segments = body.u32("header")? as usize;
    let meta_len = body.u32("header")? as usize;
    let promised = (regions as u64)
        .checked_mul(hours)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(meta_len as u64));
    if promised.is_none_or(|n| n > body.remaining() as u64) {
        return Err(bad(
            label,
            format!(
                "header promises {regions} regions of {hours} samples and a {meta_len}-byte \
                 metadata block, more than the {} bytes after the header",
                body.remaining()
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
    let meta_start = body.remaining();
    let stored = decode_metadata(body, regions)?;
    let parsed = meta_start - body.remaining();
    if parsed != meta_len {
        return Err(bad(
            label,
            format!(
                "region metadata block length mismatch: header says {meta_len} bytes, \
                 parsed {parsed}"
            ),
        ));
    }
    let mut values: Vec<Vec<f64>> = if keep_values {
        (0..regions).map(|_| Vec::with_capacity(hours)).collect()
    } else {
        Vec::new()
    };
    let mut covered = 0usize;
    for _ in 0..segments {
        let seg_hours = usize::try_from(body.u64("segment header")?)
            .ok()
            .filter(|&n| n <= hours - covered)
            .ok_or_else(|| {
                bad(
                    label,
                    format!("segment hours run past the {hours} the header promises"),
                )
            })?;
        if keep_values {
            for out in &mut values {
                body.f64s(seg_hours, out, "value block")?;
            }
        } else {
            body.consume(regions * seg_hours * 8, "value block", |_| ())?;
        }
        covered += seg_hours;
    }
    if covered != hours {
        return Err(bad(
            label,
            format!("segment hours sum to {covered} but the header promises {hours}"),
        ));
    }
    if body.remaining() != 0 {
        return Err(bad(
            label,
            format!(
                "{} trailing bytes after the last value block",
                body.remaining()
            ),
        ));
    }
    Ok(Walk {
        info: ContainerInfo {
            version,
            regions,
            start,
            hours,
            resolution_minutes,
            segments,
            content_hash: 0,
            file_bytes: body.len + TRAILER_LEN,
        },
        regions: stored,
        values,
    })
}

/// Parses the region metadata block into owned [`Region`]s.
fn decode_metadata<R: Read>(r: &mut Body<'_, R>, count: usize) -> Result<Vec<Region>, TraceError> {
    let mut regions = Vec::with_capacity(count);
    for _ in 0..count {
        let code = r.str("region code")?;
        let name = r.str("region name")?;
        let group_byte = r.byte("region group")? as usize;
        let group = *GROUP_WIRE.get(group_byte).ok_or_else(|| {
            bad(
                r.label,
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
                r.label,
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
    Ok(regions)
}

/// Decodes a container held in memory into a [`TraceSet`].
///
/// `label` names the source in errors (the file path at the CLI edge).
/// This is the same single pass as [`load_file`]: strings exist only in
/// the metadata block, and each region's samples are converted from the
/// fixed-width segments straight into one pre-sized `Vec<f64>`.
pub fn decode(bytes: &[u8], label: &str) -> Result<TraceSet, TraceError> {
    into_trace_set(walk(bytes, bytes.len() as u64, label, true)?, label)
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
    Ok(walk(bytes, bytes.len() as u64, label, false)?.info)
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
    } = walk(bytes, bytes.len() as u64, label, false)?;
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

/// Streams a container file through [`decode`]'s single pass. The file
/// is read one 1 MiB piece at a time, so a load holds about one
/// copy of the samples, not the file and the samples side by side.
pub fn load_file(path: &str) -> Result<TraceSet, TraceError> {
    let (file, len) = open(path)?;
    into_trace_set(walk(file, len, path, true)?, path)
}

/// Streams a container file through [`probe`]'s walk.
pub fn probe_file(path: &str) -> Result<ContainerInfo, TraceError> {
    let (file, len) = open(path)?;
    Ok(walk(file, len, path, false)?.info)
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

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
