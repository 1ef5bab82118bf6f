//! Chunked columnar dataset containers (`SPDC`) for out-of-core work.
//!
//! The flat `SPDS` image ([`crate::codec`]) materializes a whole
//! dataset in one buffer — fine for cache artifacts, unusable for
//! fleet-scale streams that exceed RAM. The `SPDC` container splits
//! the same columnar layout into independently decodable, individually
//! hashed chunks behind a directory, so readers can address any row
//! range through `Read`/`Seek` without touching the rest of the file:
//!
//! ```text
//! header     "SPDC" | schema version | n_events | benchmark names | hash
//! bodies     chunk 0 | chunk 1 | ...          (each ends in its own hash)
//! directory  n_chunks | (offset, len, rows, hash)* | hash
//! footer     dir_offset | total_rows | "CDPS" | schema version
//! ```
//!
//! A chunk body is a row count plus one [`crate::codec`] column block
//! (labels, CPI bits, event columns). The directory duplicates each
//! body's hash so a reader can verify a chunk without trusting the body
//! bytes; the fixed-size footer lets `open` find the directory with two
//! seeks, and the header ends where the first body (or the directory)
//! begins. Header, bodies and directory are each sealed by the codec,
//! so a bit flip or truncation anywhere is a typed [`CodecError`].
//!
//! Writers append chunks as they are sealed (constant memory), then
//! write the directory last. [`ChunkedWriter::append_chunk`] verifies
//! every body by reading it back, so a short write (injected by the
//! fault harness, or a real torn write) is detected and rewritten in
//! place before the directory ever references it.

pub use crate::codec::DecodedChunk;

use crate::codec::{preamble, put_columns, put_names, seal, unseal, CodecError, Reader, ROW_BYTES};
use crate::fingerprint::{Fingerprint, FingerprintHasher, SCHEMA_VERSION};
use modeltree::CompiledTree;
use perfcounters::events::N_EVENTS;
use perfcounters::Dataset;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

const CHUNKED_MAGIC: &[u8; 4] = b"SPDC";
const FOOTER_MAGIC: &[u8; 4] = b"CDPS";
/// `dir_offset u64 | total_rows u64 | magic | version u32`.
const FOOTER_LEN: u64 = 8 + 8 + 4 + 4;
/// Bytes one directory entry occupies.
const ENTRY_BYTES: usize = 4 * 8;

fn io_err(e: std::io::Error) -> CodecError {
    CodecError::Malformed(format!("container io: {e}"))
}

/// Directory entry for one sealed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the chunk body in the container.
    pub offset: u64,
    /// Body length in bytes (including the trailing hash).
    pub len: u64,
    /// Rows in the chunk.
    pub rows: u64,
    /// The body's trailing FNV-1a hash, duplicated for verification.
    pub hash: u64,
}

/// Encodes one columnar chunk body (labels, CPI, event columns) with a
/// trailing integrity hash.
///
/// # Panics
///
/// Panics if the column lengths disagree (`events` must hold
/// `N_EVENTS * labels.len()` values, event-major).
pub fn encode_chunk(labels: &[u32], cpi: &[f64], events: &[f64]) -> Vec<u8> {
    let rows = labels.len();
    assert_eq!(cpi.len(), rows, "cpi column length");
    assert_eq!(events.len(), N_EVENTS * rows, "event column length");
    let mut out = (rows as u32).to_le_bytes().to_vec();
    put_columns(&mut out, labels, cpi, events);
    seal(out)
}

/// Decodes and verifies one chunk body.
///
/// # Errors
///
/// Returns a typed [`CodecError`] on truncation, length mismatch, or
/// integrity-hash mismatch.
pub fn decode_chunk(bytes: &[u8]) -> Result<DecodedChunk, CodecError> {
    chunk_columns(unseal(bytes)?.0)
}

/// Parses an unsealed chunk body: the row count, then exactly one
/// column block of that many rows.
fn chunk_columns(body: &[u8]) -> Result<DecodedChunk, CodecError> {
    let mut r = Reader::new(body);
    let rows = r.u32()?;
    let chunk = r.columns(rows.into())?;
    r.finish()?;
    Ok(chunk)
}

/// Incremental `SPDC` writer: header up front, chunk bodies as they
/// seal, directory and footer on [`ChunkedWriter::finish`].
///
/// The underlying stream must support reads and seeks because every
/// appended body is read back and verified before the directory is
/// allowed to reference it (see [`ChunkedWriter::append_chunk`]).
#[derive(Debug)]
pub struct ChunkedWriter<W: Read + Write + Seek> {
    dst: W,
    chunks: Vec<ChunkMeta>,
    cursor: u64,
    total_rows: u64,
    recoveries: u64,
}

impl<W: Read + Write + Seek> ChunkedWriter<W> {
    /// Starts a container: writes the header for the given benchmark
    /// name table.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn new(mut dst: W, benchmarks: &[String]) -> std::io::Result<Self> {
        let mut header = preamble(CHUNKED_MAGIC);
        header.extend_from_slice(&(N_EVENTS as u32).to_le_bytes());
        put_names(&mut header, benchmarks);
        let header = seal(header);
        dst.seek(SeekFrom::Start(0))?;
        dst.write_all(&header)?;
        Ok(ChunkedWriter {
            dst,
            chunks: Vec::new(),
            cursor: header.len() as u64,
            total_rows: 0,
            recoveries: 0,
        })
    }

    /// Appends one encoded chunk body (from [`encode_chunk`]), then
    /// reads it back and verifies the trailing hash. A torn or
    /// truncated write — real, or injected by the fault harness via
    /// `truncate_to` — is detected here and the body is rewritten in
    /// place, so the directory never references corrupt bytes.
    ///
    /// `truncate_to` caps the first write attempt at that many bytes
    /// (fault injection); `None` writes normally.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; fails if the body still verifies wrong
    /// after one rewrite (a genuinely broken device).
    pub fn append_chunk(
        &mut self,
        body: &[u8],
        truncate_to: Option<usize>,
    ) -> std::io::Result<ChunkMeta> {
        let invalid =
            |e: CodecError| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string());
        let (content, hash) = unseal(body).map_err(invalid)?;
        let rows = chunk_columns(content).map_err(invalid)?.rows() as u64;
        let offset = self.cursor;
        let first = truncate_to.map_or(body, |n| &body[..n.min(body.len())]);
        self.dst.seek(SeekFrom::Start(offset))?;
        self.dst.write_all(first)?;
        self.dst.flush()?;
        if !self.verify_region(offset, body)? {
            obskit::metrics::incr(obskit::metrics::Metric::StreamChunkRecoveries);
            self.recoveries += 1;
            self.dst.seek(SeekFrom::Start(offset))?;
            self.dst.write_all(body)?;
            self.dst.flush()?;
            if !self.verify_region(offset, body)? {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "chunk body failed read-back verification after rewrite",
                ));
            }
        }
        let meta = ChunkMeta {
            offset,
            len: body.len() as u64,
            rows,
            hash,
        };
        self.cursor = offset + body.len() as u64;
        self.total_rows += rows;
        self.chunks.push(meta);
        Ok(meta)
    }

    /// Reads `expected.len()` bytes at `offset` and compares them to
    /// `expected`. Short reads count as mismatch, not error.
    fn verify_region(&mut self, offset: u64, expected: &[u8]) -> std::io::Result<bool> {
        self.dst.seek(SeekFrom::Start(offset))?;
        let mut got = vec![0u8; expected.len()];
        let mut filled = 0;
        while filled < got.len() {
            match self.dst.read(&mut got[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled == expected.len() && got == expected)
    }

    /// Number of torn writes detected and repaired so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Writes the directory and footer, consuming the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> std::io::Result<(u64, Vec<ChunkMeta>)> {
        let dir_offset = self.cursor;
        let mut dir = Vec::with_capacity(8 + self.chunks.len() * ENTRY_BYTES + 8);
        dir.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for c in &self.chunks {
            for field in [c.offset, c.len, c.rows, c.hash] {
                dir.extend_from_slice(&field.to_le_bytes());
            }
        }
        let mut tail = seal(dir);
        tail.extend_from_slice(&dir_offset.to_le_bytes());
        tail.extend_from_slice(&self.total_rows.to_le_bytes());
        tail.extend_from_slice(FOOTER_MAGIC);
        tail.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        self.dst.seek(SeekFrom::Start(dir_offset))?;
        self.dst.write_all(&tail)?;
        self.dst.flush()?;
        Ok((self.total_rows, self.chunks))
    }
}

/// Reads `len` bytes at `offset`. Callers bound `len` by the file
/// length, so the buffer never exceeds the bytes present.
fn read_region<R: Read + Seek>(src: &mut R, offset: u64, len: u64) -> Result<Vec<u8>, CodecError> {
    src.seek(SeekFrom::Start(offset)).map_err(io_err)?;
    let mut bytes = vec![0u8; usize::try_from(len).map_err(|_| CodecError::Truncated)?];
    src.read_exact(&mut bytes).map_err(io_err)?;
    Ok(bytes)
}

/// An open `SPDC` container: the parsed directory plus a seekable
/// source, addressing any chunk or row range without materializing the
/// rest — the [`Dataset`] out-of-core view.
#[derive(Debug)]
pub struct ChunkedReader<R: Read + Seek> {
    src: R,
    benchmarks: Vec<String>,
    chunks: Vec<ChunkMeta>,
    /// Global row index at which each chunk starts (prefix sums), plus
    /// one trailing entry equal to the total row count.
    row_starts: Vec<u64>,
}

impl<R: Read + Seek> ChunkedReader<R> {
    /// Opens a container: validates footer, directory, and header
    /// framing (schema version, integrity hashes, offset sanity).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CodecError`] for any framing defect — stale
    /// schema version, truncated directory, hash mismatch, a directory
    /// entry whose length disagrees with its row count.
    pub fn open(mut src: R) -> Result<Self, CodecError> {
        let file_len = src.seek(SeekFrom::End(0)).map_err(io_err)?;
        let dir_end = file_len
            .checked_sub(FOOTER_LEN)
            .ok_or(CodecError::Truncated)?;
        let footer = read_region(&mut src, dir_end, FOOTER_LEN)?;
        let mut f = Reader::new(&footer);
        let dir_offset = f.u64()?;
        let total_rows = f.u64()?;
        f.magic(FOOTER_MAGIC)?;
        f.version()?;
        if dir_offset > dir_end {
            return Err(CodecError::Truncated);
        }
        // Directory: everything between dir_offset and the footer.
        let dir = read_region(&mut src, dir_offset, dir_end - dir_offset)?;
        let mut r = Reader::new(unseal(&dir)?.0);
        let n_chunks = r.u64()?;
        let n_chunks = r.count(n_chunks, ENTRY_BYTES)?;
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut row_starts = Vec::with_capacity(n_chunks + 1);
        let mut rows_so_far = 0u64;
        // Bodies must tile the bytes between the header and the
        // directory, each as long as its row count says. That bounds the
        // total row count, and so every window allocation, by the file.
        let mut next_offset = None;
        for i in 0..n_chunks {
            let meta = ChunkMeta {
                offset: r.u64()?,
                len: r.u64()?,
                rows: r.u64()?,
                hash: r.u64()?,
            };
            let body_len = meta.rows.checked_mul(ROW_BYTES as u64);
            let sized = body_len.and_then(|b| b.checked_add(4 + 8)) == Some(meta.len);
            let end = meta.offset.checked_add(meta.len);
            if !sized || end.is_none() || next_offset.is_some_and(|o| o != meta.offset) {
                return Err(CodecError::Malformed(format!(
                    "directory entry {i} is inconsistent: {meta:?}"
                )));
            }
            next_offset = end;
            row_starts.push(rows_so_far);
            rows_so_far += meta.rows;
            chunks.push(meta);
        }
        if next_offset.is_some_and(|end| end != dir_offset) {
            return Err(CodecError::Malformed(
                "chunk bodies do not end at the directory".into(),
            ));
        }
        r.finish()?;
        row_starts.push(rows_so_far);
        if rows_so_far != total_rows {
            return Err(CodecError::Malformed(format!(
                "directory rows {rows_so_far} != footer rows {total_rows}"
            )));
        }
        // Header: everything before the first body (or the directory).
        let header_len = chunks.first().map_or(dir_offset, |c| c.offset);
        let header = read_region(&mut src, 0, header_len)?;
        let mut h = Reader::open(&header, CHUNKED_MAGIC)?;
        h.event_count()?;
        let benchmarks = h.names()?;
        h.finish()?;
        Ok(ChunkedReader {
            src,
            benchmarks,
            chunks,
            row_starts,
        })
    }

    /// Total rows across all chunks.
    pub fn n_rows(&self) -> u64 {
        *self.row_starts.last().unwrap_or(&0)
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Directory entry of one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn meta(&self, i: usize) -> ChunkMeta {
        self.chunks[i]
    }

    /// Global row index at which chunk `i` starts.
    ///
    /// # Panics
    ///
    /// Panics if `i > n_chunks()`.
    pub fn row_start(&self, i: usize) -> u64 {
        self.row_starts[i]
    }

    /// The container's benchmark name table.
    pub fn benchmarks(&self) -> &[String] {
        &self.benchmarks
    }

    /// Reads and verifies one chunk.
    ///
    /// # Errors
    ///
    /// [`CodecError::IntegrityMismatch`] when the body hash disagrees
    /// with the body or the directory; other variants for framing
    /// defects.
    pub fn read_chunk(&mut self, i: usize) -> Result<DecodedChunk, CodecError> {
        let meta = *self
            .chunks
            .get(i)
            .ok_or_else(|| CodecError::Malformed(format!("chunk {i} out of range")))?;
        let bytes = read_region(&mut self.src, meta.offset, meta.len)?;
        obskit::metrics::add(obskit::metrics::Metric::PipelineBytesRead, meta.len);
        let (body, hash) = unseal(&bytes)?;
        if hash != meta.hash {
            return Err(CodecError::IntegrityMismatch);
        }
        // `open` matched `meta.len` to `meta.rows`, and `chunk_columns`
        // matches the body's length to its own row count, so the two
        // row counts agree.
        chunk_columns(body)
    }

    /// Materializes one chunk as a [`Dataset`] carrying the container's
    /// name table.
    ///
    /// # Errors
    ///
    /// Propagates [`ChunkedReader::read_chunk`] errors plus label
    /// range defects.
    pub fn chunk_dataset(&mut self, i: usize) -> Result<Dataset, CodecError> {
        self.read_chunk(i)?.into_dataset(self.benchmarks.clone())
    }

    /// The chunk indices whose rows intersect the global row range.
    pub fn chunks_covering(&self, rows: &Range<u64>) -> Range<usize> {
        if rows.start >= rows.end {
            return 0..0;
        }
        let first = self.row_starts.partition_point(|&s| s <= rows.start) - 1;
        let last = self.row_starts.partition_point(|&s| s < rows.end) - 1;
        first..(last + 1).min(self.chunks.len())
    }

    /// Materializes global rows `[rows.start, rows.end)` as a
    /// [`Dataset`], decoding only the chunks that intersect the range —
    /// the out-of-core window view: peak memory is the window plus one
    /// chunk, independent of container size.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range windows and on any chunk defect.
    pub fn window_dataset(&mut self, rows: Range<u64>) -> Result<Dataset, CodecError> {
        if rows.end > self.n_rows() || rows.start > rows.end {
            return Err(CodecError::Malformed(format!(
                "window {rows:?} outside container of {} rows",
                self.n_rows()
            )));
        }
        // Rows are bounded by the container's bytes (see `open`).
        let n = (rows.end - rows.start) as usize;
        let mut window = DecodedChunk {
            labels: Vec::with_capacity(n),
            cpi: Vec::with_capacity(n),
            events: vec![0.0; N_EVENTS * n],
        };
        for i in self.chunks_covering(&rows) {
            let start = self.row_starts[i];
            let chunk = self.read_chunk(i)?;
            let m = chunk.rows();
            let lo = rows.start.saturating_sub(start) as usize;
            let hi = ((rows.end - start) as usize).min(m);
            let at = window.labels.len();
            window.labels.extend_from_slice(&chunk.labels[lo..hi]);
            window.cpi.extend_from_slice(&chunk.cpi[lo..hi]);
            for e in 0..N_EVENTS {
                window.events[e * n + at..e * n + at + (hi - lo)]
                    .copy_from_slice(&chunk.events[e * m + lo..e * m + hi]);
            }
        }
        window.into_dataset(self.benchmarks.clone())
    }

    /// Streams every chunk through the compiled engine's block kernels,
    /// returning predictions in container row order. Peak memory is one
    /// chunk, never the whole table.
    ///
    /// # Errors
    ///
    /// Propagates chunk read errors.
    pub fn predict_all(&mut self, tree: &CompiledTree) -> Result<Vec<f64>, CodecError> {
        let mut out = Vec::with_capacity(self.n_rows() as usize);
        for i in 0..self.n_chunks() {
            let ds = self.chunk_dataset(i)?;
            out.extend(tree.predict_batch(&ds));
        }
        Ok(out)
    }

    /// Content fingerprint of a row window: the chunk hashes covering
    /// it plus the in-chunk offsets. Two windows share a fingerprint
    /// exactly when they cover identical bytes of identical chunks —
    /// the key the windowed-refit cache uses.
    pub fn window_fingerprint(&self, rows: &Range<u64>, domain: &str) -> Fingerprint {
        let mut h = FingerprintHasher::new(domain);
        h.write_usize(self.benchmarks.len());
        for name in &self.benchmarks {
            h.write_str(name);
        }
        h.write_u64(rows.start);
        h.write_u64(rows.end);
        let covering = self.chunks_covering(rows);
        h.write_usize(covering.len());
        for i in covering {
            h.write_u64(self.chunks[i].hash);
            h.write_u64(self.chunks[i].rows);
        }
        h.finish()
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.src
    }
}

impl<R: Read + Write + Seek> ChunkedReader<R> {
    /// Rewrites chunk `i`'s body in place — the recovery path after a
    /// corrupt chunk is detected and its content recomputed. The new
    /// body must match the directory entry exactly (same length, same
    /// hash): recomputation is deterministic, so a mismatch means the
    /// caller recomputed the wrong chunk.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] when the body disagrees with the
    /// directory entry; I/O failures as [`CodecError::Malformed`].
    pub fn rewrite_chunk(&mut self, i: usize, body: &[u8]) -> Result<(), CodecError> {
        let meta = *self
            .chunks
            .get(i)
            .ok_or_else(|| CodecError::Malformed(format!("chunk {i} out of range")))?;
        if body.len() as u64 != meta.len || unseal(body).map(|(_, h)| h) != Ok(meta.hash) {
            return Err(CodecError::Malformed(format!(
                "recomputed chunk {i} does not match its directory entry"
            )));
        }
        self.src
            .seek(SeekFrom::Start(meta.offset))
            .map_err(io_err)?;
        self.src.write_all(body).map_err(io_err)?;
        self.src.flush().map_err(io_err)?;
        obskit::metrics::incr(obskit::metrics::Metric::StreamChunkRecoveries);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcounters::EventId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Cursor;
    use workloads::generator::{GeneratorConfig, Suite};

    fn sample_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(7);
        Suite::cpu2006().generate(&mut rng, n, &GeneratorConfig::default())
    }

    fn chunk_of(ds: &Dataset, rows: Range<usize>) -> Vec<u8> {
        let labels: Vec<u32> = rows.clone().map(|i| ds.label(i)).collect();
        let cpi: Vec<f64> = rows.clone().map(|i| ds.sample(i).cpi()).collect();
        let n = rows.len();
        let mut events = vec![0.0; N_EVENTS * n];
        for (k, i) in rows.enumerate() {
            for e in EventId::ALL {
                events[e.index() * n + k] = ds.sample(i).get(e);
            }
        }
        encode_chunk(&labels, &cpi, &events)
    }

    fn container_bytes(ds: &Dataset, chunk_rows: usize) -> Vec<u8> {
        let mut cursor = Cursor::new(Vec::new());
        {
            let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
            let mut at = 0;
            while at < ds.len() {
                let end = (at + chunk_rows).min(ds.len());
                w.append_chunk(&chunk_of(ds, at..end), None).unwrap();
                at = end;
            }
            w.finish().unwrap();
        }
        cursor.into_inner()
    }

    #[test]
    fn roundtrip_windows_bit_exact() {
        let ds = sample_dataset(257);
        for chunk_rows in [1usize, 7, 64, 300] {
            let bytes = container_bytes(&ds, chunk_rows);
            let mut r = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
            assert_eq!(r.n_rows(), 257);
            let back = r.window_dataset(0..257).unwrap();
            assert_eq!(back.len(), ds.len());
            for i in 0..ds.len() {
                assert_eq!(back.label(i), ds.label(i));
                assert_eq!(back.sample(i).cpi().to_bits(), ds.sample(i).cpi().to_bits());
                for e in EventId::ALL {
                    assert_eq!(
                        back.sample(i).get(e).to_bits(),
                        ds.sample(i).get(e).to_bits()
                    );
                }
            }
            // A strict interior window decodes only covering chunks.
            let win = r.window_dataset(40..100).unwrap();
            assert_eq!(win.len(), 60);
            assert_eq!(win.sample(0).cpi().to_bits(), ds.sample(40).cpi().to_bits());
        }
    }

    #[test]
    fn empty_container_roundtrip() {
        let ds = Dataset::new();
        let bytes = container_bytes(&ds, 16);
        let mut r = ChunkedReader::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.n_chunks(), 0);
        assert!(r.window_dataset(0..0).unwrap().is_empty());
    }

    #[test]
    fn chunk_corruption_detected() {
        let ds = sample_dataset(64);
        let bytes = container_bytes(&ds, 16);
        let r = ChunkedReader::open(Cursor::new(bytes.clone())).unwrap();
        let meta = r.meta(2);
        let mut bad = bytes.clone();
        bad[(meta.offset + meta.len / 2) as usize] ^= 0x01;
        let mut r = ChunkedReader::open(Cursor::new(bad)).unwrap();
        // Other chunks still read fine; the poisoned one reports.
        assert!(r.read_chunk(0).is_ok());
        assert_eq!(r.read_chunk(2).unwrap_err(), CodecError::IntegrityMismatch);
    }

    #[test]
    fn directory_truncation_detected() {
        let ds = sample_dataset(32);
        let bytes = container_bytes(&ds, 8);
        for cut in [1usize, 10, 24, 40] {
            let trimmed = &bytes[..bytes.len() - cut];
            assert!(
                ChunkedReader::open(Cursor::new(trimmed.to_vec())).is_err(),
                "cut {cut} undetected"
            );
        }
    }

    #[test]
    fn huge_directory_count_is_a_typed_error() {
        // A correctly sealed container whose directory claims 2^59
        // entries: the entry bytes overflow a u64, and there are none.
        let mut cursor = Cursor::new(Vec::new());
        ChunkedWriter::new(&mut cursor, &[]).unwrap();
        let mut file = cursor.into_inner();
        let dir_offset = file.len() as u64;
        file.extend_from_slice(&seal((1u64 << 59).to_le_bytes().to_vec()));
        file.extend_from_slice(&dir_offset.to_le_bytes());
        file.extend_from_slice(&0u64.to_le_bytes());
        file.extend_from_slice(FOOTER_MAGIC);
        file.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        assert_eq!(
            ChunkedReader::open(Cursor::new(file)).unwrap_err(),
            CodecError::Malformed(format!("count {} overflows", 1u64 << 59))
        );
    }

    #[test]
    fn overlapping_directory_entries_are_refused() {
        // A sealed directory that lists the same chunk 1000 times would
        // claim 1000x the rows the file holds.
        let ds = sample_dataset(40);
        let bytes = container_bytes(&ds, 40);
        let meta = ChunkedReader::open(Cursor::new(&bytes)).unwrap().meta(0);
        let dir_offset = meta.offset + meta.len;
        let mut file = bytes[..dir_offset as usize].to_vec();
        let mut dir = 1000u64.to_le_bytes().to_vec();
        for _ in 0..1000 {
            for field in [meta.offset, meta.len, meta.rows, meta.hash] {
                dir.extend_from_slice(&field.to_le_bytes());
            }
        }
        file.extend_from_slice(&seal(dir));
        file.extend_from_slice(&dir_offset.to_le_bytes());
        file.extend_from_slice(&(1000 * meta.rows).to_le_bytes());
        file.extend_from_slice(FOOTER_MAGIC);
        file.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        assert!(matches!(
            ChunkedReader::open(Cursor::new(file)),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn stale_schema_version_detected() {
        let ds = sample_dataset(8);
        let mut bytes = container_bytes(&ds, 4);
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&(SCHEMA_VERSION + 3).to_le_bytes());
        assert_eq!(
            ChunkedReader::open(Cursor::new(bytes)).unwrap_err(),
            CodecError::WrongVersion(SCHEMA_VERSION + 3)
        );
    }

    #[test]
    fn torn_write_detected_and_rewritten() {
        let ds = sample_dataset(40);
        let mut cursor = Cursor::new(Vec::new());
        {
            let mut w = ChunkedWriter::new(&mut cursor, ds.benchmark_names()).unwrap();
            let body = chunk_of(&ds, 0..20);
            w.append_chunk(&body, Some(body.len() / 3)).unwrap();
            assert_eq!(w.recoveries(), 1);
            let body = chunk_of(&ds, 20..40);
            w.append_chunk(&body, None).unwrap();
            assert_eq!(w.recoveries(), 1);
            w.finish().unwrap();
        }
        let clean = container_bytes(&ds, 20);
        assert_eq!(
            cursor.into_inner(),
            clean,
            "torn write left different bytes"
        );
    }

    #[test]
    fn rewrite_chunk_recovers_corruption() {
        let ds = sample_dataset(48);
        let bytes = container_bytes(&ds, 12);
        let good_body = chunk_of(&ds, 12..24);
        let mut bad = bytes.clone();
        let meta = ChunkedReader::open(Cursor::new(bytes.clone()))
            .unwrap()
            .meta(1);
        bad[(meta.offset + 5) as usize] ^= 0xff;
        let mut r = ChunkedReader::open(Cursor::new(bad)).unwrap();
        assert!(r.read_chunk(1).is_err());
        r.rewrite_chunk(1, &good_body).unwrap();
        assert!(r.read_chunk(1).is_ok());
        assert_eq!(r.into_inner().into_inner(), bytes);
        // A wrong recompute is rejected.
        let mut r = ChunkedReader::open(Cursor::new(container_bytes(&ds, 12))).unwrap();
        let wrong = chunk_of(&ds, 0..12);
        assert!(r.rewrite_chunk(1, &wrong).is_err());
    }

    #[test]
    fn window_fingerprint_tracks_content_and_range() {
        let ds = sample_dataset(60);
        let bytes = container_bytes(&ds, 10);
        let r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        let a = r.window_fingerprint(&(0..30), "w");
        assert_eq!(a, r.window_fingerprint(&(0..30), "w"));
        assert_ne!(a, r.window_fingerprint(&(0..40), "w"));
        assert_ne!(a, r.window_fingerprint(&(10..40), "w"));
        assert_ne!(a, r.window_fingerprint(&(0..30), "other-domain"));
    }

    #[test]
    fn predict_all_streams_chunks() {
        let ds = sample_dataset(200);
        let tree =
            modeltree::ModelTree::fit(&ds, &modeltree::M5Config::default().with_min_leaf(20))
                .unwrap()
                .compile();
        let bytes = container_bytes(&ds, 33);
        let mut r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        let streamed = r.predict_all(&tree).unwrap();
        let direct = tree.predict_batch(&ds);
        assert_eq!(streamed.len(), direct.len());
        for (a, b) in streamed.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn chunks_covering_boundaries() {
        let ds = sample_dataset(40);
        let bytes = container_bytes(&ds, 10);
        let r = ChunkedReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(r.chunks_covering(&(0..10)), 0..1);
        assert_eq!(r.chunks_covering(&(9..11)), 0..2);
        assert_eq!(r.chunks_covering(&(10..20)), 1..2);
        assert_eq!(r.chunks_covering(&(0..40)), 0..4);
        assert_eq!(r.chunks_covering(&(5..5)), 0..0);
        assert_eq!(r.chunks_covering(&(39..40)), 3..4);
    }
}
