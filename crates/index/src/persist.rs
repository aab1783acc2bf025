//! Binary persistence of the index ("stored on disk" — paper §2.1).
//!
//! An index directory holds exactly one layout: a `manifest.json`
//! (version [`MANIFEST_VERSION`]) naming the shard count and carrying the
//! **global term dictionary's count and FNV-1a checksum**, plus one
//! `shard-NNNN.idx` file per shard. The dictionary — the id space every
//! shard's postings are keyed by — is rebuilt on load as the sorted union
//! of the shard vocabularies (exactly what the freeze would have
//! produced) and verified against the digest; a directory whose manifest
//! has any other version is rejected as corrupt.
//!
//! Shard-file format (little-endian):
//!
//! ```text
//! magic  u64  = 0x5757_5449_4458_0001            ("WWTIDX" v1)
//! n_docs u32
//! per doc: table_id u32, field_lens 3×u32
//! n_terms u32
//! per term: len u16, utf-8 bytes,
//!           per field: n_postings u32, then (doc u32, tf u32)*
//! ```
//!
//! Terms are written in sorted order (the dictionary's id order). Corpus
//! statistics are rebuilt from the postings at load time (df of a term =
//! number of distinct docs across fields), so they are not stored.

use crate::builder::FrozenShard;
use crate::field::Field;
use crate::search::{Posting, Postings, TableIndex};
use std::io::{Read, Write};
use std::path::Path;
use wwt_model::{TableId, WwtError};

const MAGIC: u64 = 0x5757_5449_4458_0001;

/// Serializes the index into a byte buffer. Fails loudly on a term
/// whose UTF-8 form exceeds the format's `u16` length field — silently
/// truncating one would desynchronize the reader mid-stream and corrupt
/// the whole file.
pub fn to_bytes(index: &TableIndex) -> Result<Vec<u8>, WwtError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(index.doc_tables.len() as u32).to_le_bytes());
    for (i, t) in index.doc_tables.iter().enumerate() {
        buf.extend_from_slice(&t.0.to_le_bytes());
        for f in Field::ALL {
            buf.extend_from_slice(&index.field_lens[i][f.dense()].to_le_bytes());
        }
    }
    // Ascending id = sorted term order (the dictionary is frozen sorted),
    // reproducing the deterministic layout of the pre-interning format.
    buf.extend_from_slice(&(index.vocab_size() as u32).to_le_bytes());
    for (id, post) in index.postings.iter().enumerate() {
        let Some(post) = post else { continue };
        let bytes = index.dict.term(wwt_text::TermId(id as u32)).as_bytes();
        let len = u16::try_from(bytes.len()).map_err(|_| {
            WwtError::Invalid(format!(
                "term of {} bytes exceeds the index format's 64 KiB term limit",
                bytes.len()
            ))
        })?;
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(bytes);
        for f in Field::ALL {
            let list = &post.per_field[f.dense()];
            buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for p in list {
                buf.extend_from_slice(&p.doc.to_le_bytes());
                buf.extend_from_slice(&p.tf.to_le_bytes());
            }
        }
    }
    Ok(buf)
}

/// Little-endian reader over an index file's bytes. Every read is
/// bounds-checked into a typed [`WwtError::Corrupt`], and every
/// count-driven allocation is capped by the bytes that remain, so a
/// corrupt length prefix can neither panic the reader nor make it
/// allocate more than the file could ever fill.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes; `what` names the field in the truncation error.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WwtError> {
        if self.rest.len() < n {
            return Err(WwtError::Corrupt(format!("index file truncated at {what}")));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WwtError> {
        let bytes = self.take(N, what)?;
        Ok(bytes.try_into().expect("take returns exactly N bytes"))
    }

    fn u16(&mut self, what: &str) -> Result<u16, WwtError> {
        self.array(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &str) -> Result<u32, WwtError> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, WwtError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A capacity for `n` records of at least `record_bytes` bytes each:
    /// never more records than the remaining bytes could hold.
    fn capacity(&self, n: usize, record_bytes: usize) -> usize {
        n.min(self.rest.len() / record_bytes)
    }
}

fn parse_bytes(data: &[u8]) -> Result<FrozenShard, WwtError> {
    let mut buf = Cursor { rest: data };
    if buf.u64("magic")? != MAGIC {
        return Err(WwtError::Corrupt("bad index magic".into()));
    }
    let n_docs = buf.u32("doc count")? as usize;
    // A doc row is a table id plus three field lengths.
    let mut doc_tables = Vec::with_capacity(buf.capacity(n_docs, 16));
    let mut field_lens = Vec::with_capacity(buf.capacity(n_docs, 16));
    for _ in 0..n_docs {
        doc_tables.push(TableId(buf.u32("doc row")?));
        let mut lens = [0u32; 3];
        for l in &mut lens {
            *l = buf.u32("doc row")?;
        }
        field_lens.push(lens);
    }
    let n_terms = buf.u32("term count")? as usize;
    // A term is at least its length word plus one count word per field.
    let mut entries: Vec<(String, Postings)> =
        Vec::with_capacity(buf.capacity(n_terms, 2 + 4 * Field::ALL.len()));
    for _ in 0..n_terms {
        let len = buf.u16("term len")? as usize;
        let term = String::from_utf8(buf.take(len, "term bytes")?.to_vec())
            .map_err(|_| WwtError::Corrupt("non-utf8 term".into()))?;
        let mut post = Postings::default();
        for f in Field::ALL {
            let n = buf.u32("posting len")? as usize;
            let list = &mut post.per_field[f.dense()];
            list.reserve(buf.capacity(n, 8));
            for _ in 0..n {
                let d = buf.u32("posting list")?;
                let tf = buf.u32("posting list")?;
                if d as usize >= n_docs {
                    return Err(WwtError::Corrupt("doc id out of range".into()));
                }
                list.push(Posting {
                    doc: d,
                    tf,
                    sqrt_tf: (tf as f64).sqrt(),
                });
            }
        }
        entries.push((term, post));
    }
    // Files are written in sorted term order; tolerate (and canonicalize)
    // anything else rather than corrupting the positional dictionary.
    if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
    }
    let mut terms = Vec::with_capacity(entries.len());
    let mut dfs = Vec::with_capacity(entries.len());
    let mut postings = Vec::with_capacity(entries.len());
    for (term, mut post) in entries {
        for list in &mut post.per_field {
            list.sort_unstable_by_key(|p| p.doc);
        }
        terms.push(term);
        dfs.push(crate::builder::distinct_docs(&post));
        postings.push(post);
    }
    Ok(FrozenShard {
        terms,
        dfs,
        postings,
        doc_tables,
        field_lens,
    })
}

/// Deserializes an index produced by [`to_bytes`], rebuilding its
/// vocabulary (sorted term order) and statistics from the postings.
pub fn from_bytes(data: &[u8]) -> Result<TableIndex, WwtError> {
    Ok(parse_bytes(data)?.into_index())
}

/// File name of the sharded-layout manifest inside an index directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Version tag written into the manifest, and the only one
/// [`load_sharded`] reads; bumped on incompatible layout changes so a
/// binary fails loudly instead of misreading. The version-3 manifest
/// carries the term dictionary's **count + checksum**, never the
/// vocabulary itself, so its size does not grow with the corpus.
pub const MANIFEST_VERSION: u64 = 3;

/// Order-sensitive FNV-1a digest of a term dictionary: each term is fed
/// length-prefixed so `["ab","c"]` and `["a","bc"]` cannot collide. The
/// v3 manifest stores this (hex) instead of the terms themselves.
pub fn term_dictionary_checksum<S: AsRef<str>>(terms: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in terms {
        let bytes = t.as_ref().as_bytes();
        feed(&(bytes.len() as u32).to_le_bytes());
        feed(bytes);
    }
    h
}

/// File name of shard `s`'s index inside an index directory.
pub fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.idx")
}

/// Attaches the offending file's path to a load error, preserving the
/// error's type (corrupt stays corrupt, io stays io with its kind).
fn in_file(e: WwtError, path: &Path) -> WwtError {
    match e {
        WwtError::Corrupt(m) => WwtError::Corrupt(format!("{m} in {}", path.display())),
        WwtError::Io(io) => {
            let kind = io.kind();
            WwtError::Io(std::io::Error::new(
                kind,
                format!("{io} ({})", path.display()),
            ))
        }
        other => other,
    }
}

/// Persists a sharded index into `dir` (created if needed): a versioned
/// `manifest.json` naming the layout and carrying the term dictionary's
/// count + checksum, plus one [`to_bytes`]-format `.idx` file per shard.
/// [`load_sharded`] reads it back.
pub fn save_sharded(index: &crate::ShardedIndex, dir: &Path) -> Result<(), WwtError> {
    wwt_chaos::io_failpoint(wwt_chaos::PERSIST_SAVE)?;
    std::fs::create_dir_all(dir)?;
    for s in 0..index.n_shards() {
        save(index.shard(s), &dir.join(shard_file(s)))?;
    }
    let terms = index.dict().terms();
    let manifest = wwt_json::Json::obj([
        ("version", wwt_json::Json::from(MANIFEST_VERSION)),
        ("shards", wwt_json::Json::from(index.n_shards())),
        ("term_count", wwt_json::Json::from(terms.len())),
        (
            "term_checksum",
            wwt_json::Json::from(format!("{:016x}", term_dictionary_checksum(terms)).as_str()),
        ),
    ]);
    std::fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;
    Ok(())
}

/// Loads a sharded index persisted by [`save_sharded`]. Per-shard
/// statistics (rebuilt from the postings) are merged into one global
/// table shared by every shard, so the reloaded index scores
/// bit-identically to the one that was saved. The term dictionary is
/// rebuilt as the sorted union of shard vocabularies and verified
/// against the manifest's count + checksum on every load. A manifest
/// of any version but [`MANIFEST_VERSION`] is [`WwtError::Corrupt`].
pub fn load_sharded(dir: &Path) -> Result<crate::ShardedIndex, WwtError> {
    wwt_chaos::io_failpoint(wwt_chaos::PERSIST_LOAD)?;
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest_raw =
        std::fs::read_to_string(&manifest_path).map_err(|e| in_file(e.into(), &manifest_path))?;
    let manifest = wwt_json::Json::parse(&manifest_raw).map_err(|e| {
        WwtError::Corrupt(format!(
            "bad index manifest: {e} in {}",
            manifest_path.display()
        ))
    })?;
    let version = manifest
        .get("version")
        .and_then(wwt_json::Json::as_u64)
        .ok_or_else(|| WwtError::Corrupt("index manifest missing \"version\"".into()))?;
    if version != MANIFEST_VERSION {
        return Err(WwtError::Corrupt(format!(
            "index manifest version {version} unsupported (expected {MANIFEST_VERSION})"
        )));
    }
    let n_shards = manifest
        .get("shards")
        .and_then(wwt_json::Json::as_u64)
        .filter(|&n| n >= 1)
        .ok_or_else(|| WwtError::Corrupt("index manifest missing \"shards\" >= 1".into()))?
        as usize;
    let count = manifest
        .get("term_count")
        .and_then(wwt_json::Json::as_u64)
        .ok_or_else(|| WwtError::Corrupt("index manifest missing \"term_count\"".into()))?;
    let checksum = manifest
        .get("term_checksum")
        .and_then(wwt_json::Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| WwtError::Corrupt("index manifest missing hex \"term_checksum\"".into()))?;
    let frozen: Vec<FrozenShard> = (0..n_shards)
        .map(|s| {
            let path = dir.join(shard_file(s));
            let mut data = Vec::new();
            // Name the offending shard file in every failure — an
            // operator staring at a corrupt multi-shard directory needs
            // to know *which* artifact to restore.
            (|| -> Result<FrozenShard, WwtError> {
                std::fs::File::open(&path)?.read_to_end(&mut data)?;
                parse_bytes(&data)
            })()
            .map_err(|e| in_file(e, &path))
        })
        .collect::<Result<_, _>>()?;
    let index = crate::builder::assemble_sharded(frozen);
    let rebuilt = index.dict().terms();
    if count != rebuilt.len() as u64 || checksum != term_dictionary_checksum(rebuilt) {
        return Err(WwtError::Corrupt(format!(
            "manifest term dictionary disagrees with the shard vocabularies in {}",
            dir.display()
        )));
    }
    Ok(index)
}

/// Writes one shard's index file.
fn save(index: &TableIndex, path: &Path) -> Result<(), WwtError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&to_bytes(index)?)?;
    f.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use wwt_model::{ContextSnippet, WebTable};

    fn sample_index() -> TableIndex {
        let mut b = IndexBuilder::new();
        for i in 0..5u32 {
            let t = WebTable::new(
                TableId(i * 2), // non-dense ids on purpose
                "u",
                None,
                vec![vec![format!("header{i}"), "common".into()]],
                vec![vec![format!("val{i}"), "shared".into()]],
                vec![ContextSnippet::new(format!("context {i} words"), 0.5)],
            )
            .unwrap();
            b.add_table(&t);
        }
        b.build()
    }

    #[test]
    fn roundtrip_preserves_search() {
        let idx = sample_index();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        assert_eq!(restored.n_docs(), idx.n_docs());
        assert_eq!(restored.vocab_size(), idx.vocab_size());
        for probe in ["common", "header3", "val1 shared", "context"] {
            let q = wwt_text::tokenize(probe);
            let a = idx.search(&q, 10);
            let b = restored.search(&q, 10);
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score drift, probe {probe}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_bytes_are_stable() {
        // Freezing, serializing and re-serializing must be a fixpoint —
        // the guarantee that re-saving a loaded index never rewrites
        // files.
        let idx = sample_index();
        let bytes = to_bytes(&idx).unwrap();
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(bytes, to_bytes(&restored).unwrap());
    }

    #[test]
    fn roundtrip_preserves_docsets() {
        let idx = sample_index();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        let toks = vec!["shared".to_string()];
        assert_eq!(
            *idx.docs_with_all(&toks, &[Field::Content]),
            *restored.docs_with_all(&toks, &[Field::Content])
        );
    }

    #[test]
    fn giant_token_no_longer_blocks_save() {
        // A 100 KiB "word" used to reach the dictionary intact and trip
        // to_bytes' u16 term-length guard; the tokenizer now caps tokens,
        // so indexing and serializing such a table must succeed.
        let giant = "x".repeat(100 * 1024);
        let t = WebTable::new(
            TableId(1),
            "u",
            None,
            vec![vec![giant.clone(), "header".into()]],
            vec![vec!["val".into(), giant]],
            vec![],
        )
        .unwrap();
        let mut b = IndexBuilder::new();
        b.add_table(&t);
        let idx = b.build();
        let bytes = to_bytes(&idx).expect("capped tokens fit the u16 term-length field");
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.n_docs(), idx.n_docs());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = to_bytes(&sample_index()).unwrap();
        data[0] ^= 0xff;
        assert!(matches!(from_bytes(&data), Err(WwtError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected_not_panic() {
        let data = to_bytes(&sample_index()).unwrap();
        for cut in [0, 4, 11, data.len() / 2, data.len() - 1] {
            let r = from_bytes(&data[..cut]);
            assert!(r.is_err(), "cut at {cut} must error");
        }
    }

    fn sample_sharded() -> crate::ShardedIndex {
        let mut b = crate::ShardedIndexBuilder::new(3);
        for i in 0..12u32 {
            let t = WebTable::new(
                TableId(i * 3 + 1),
                "u",
                None,
                vec![vec![format!("header{}", i % 4), "common".into()]],
                vec![vec![format!("val{i}"), "shared".into()]],
                vec![ContextSnippet::new(format!("context {} words", i % 3), 0.5)],
            )
            .unwrap();
            b.add_table(&t);
        }
        b.build()
    }

    #[test]
    fn sharded_roundtrip_preserves_search_and_stats() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_idx_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        let restored = load_sharded(&dir).unwrap();
        assert_eq!(restored.n_shards(), idx.n_shards());
        assert_eq!(restored.n_docs(), idx.n_docs());
        assert_eq!(restored.stats().n_docs(), idx.stats().n_docs());
        assert_eq!(restored.dict().terms(), idx.dict().terms());
        for probe in ["common", "header3", "val1 shared", "context"] {
            let toks = wwt_text::tokenize(probe);
            let a = idx.search(&toks, 10);
            let b = restored.search(&toks, 10);
            assert_eq!(a.len(), b.len(), "probe {probe}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table);
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "score drift after reload, probe {probe}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_manifest_is_count_and_checksum_not_vocabulary() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_v3_{}", std::process::id()));
        save_sharded(&idx, &dir).unwrap();
        let raw = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let manifest = wwt_json::Json::parse(&raw).unwrap();
        assert_eq!(
            manifest.get("version").and_then(wwt_json::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            manifest.get("term_count").and_then(wwt_json::Json::as_u64),
            Some(idx.dict().terms().len() as u64)
        );
        assert!(manifest.get("terms").is_none(), "vocabulary not persisted");
        // The manifest no longer grows with the vocabulary.
        assert!(
            raw.len() < 200,
            "v3 manifest should be O(1) bytes, got {}",
            raw.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn term_checksum_is_boundary_sensitive() {
        assert_ne!(
            term_dictionary_checksum(&["ab", "c"]),
            term_dictionary_checksum(&["a", "bc"])
        );
        assert_ne!(
            term_dictionary_checksum(&["a"]),
            term_dictionary_checksum(&["a", "a"])
        );
        assert_eq!(
            term_dictionary_checksum(&["a", "b"]),
            term_dictionary_checksum(&["a", "b"])
        );
    }

    #[test]
    fn sharded_load_rejects_bad_manifests() {
        let dir = std::env::temp_dir().join(format!("wwt_sharded_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corrupt = |expect: &str| match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => assert!(m.contains(expect), "message: {m}"),
            other => panic!("expected Corrupt mentioning {expect:?}, got {other:?}"),
        };
        // Missing manifest: an io error, not a panic.
        assert!(load_sharded(&dir).is_err());
        // Unsupported version.
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":999,"shards":1}"#).unwrap();
        corrupt("version 999 unsupported");
        // Zero shards.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":3,"shards":0,"term_count":0,"term_checksum":"0"}"#,
        )
        .unwrap();
        corrupt("\"shards\" >= 1");
        // The manifest must carry count + checksum.
        save(&sample_index(), &dir.join(shard_file(0))).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), r#"{"version":3,"shards":1}"#).unwrap();
        corrupt("term_count");
        // A count that disagrees with the shard vocabularies is corrupt.
        std::fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"version":3,"shards":1,"term_count":1,"term_checksum":"00000000deadbeef"}"#,
        )
        .unwrap();
        corrupt("disagrees");
        // A checksum that disagrees (right count, wrong digest).
        let idx = sample_index();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                r#"{{"version":3,"shards":1,"term_count":{},"term_checksum":"00000000deadbeef"}}"#,
                idx.vocab_size()
            ),
        )
        .unwrap();
        corrupt("disagrees");
        // Manifest promising more shards than exist on disk (its
        // dictionary digest is the one shard's, so only the count lies).
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                r#"{{"version":3,"shards":2,"term_count":{},"term_checksum":"{:016x}"}}"#,
                idx.vocab_size(),
                term_dictionary_checksum(idx.dict.terms())
            ),
        )
        .unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                assert!(e.to_string().contains(&shard_file(1)), "message: {e}");
            }
            other => panic!("expected Io for the missing shard, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();

        // Older manifest versions over valid shard files are refused,
        // even when their contents would have matched the shards: a v1
        // manifest (no dictionary at all) and a v2 manifest carrying the
        // correct full vocabulary.
        let idx = sample_sharded();
        save_sharded(&idx, &dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(r#"{{"version":1,"shards":{}}}"#, idx.n_shards()),
        )
        .unwrap();
        corrupt("version 1 unsupported (expected 3)");
        let v2 = wwt_json::Json::obj([
            ("version", wwt_json::Json::from(2u64)),
            ("shards", wwt_json::Json::from(idx.n_shards())),
            (
                "terms",
                wwt_json::Json::arr(idx.dict().terms().iter().map(String::as_str)),
            ),
        ]);
        std::fs::write(dir.join(MANIFEST_FILE), v2.encode()).unwrap();
        corrupt("version 2 unsupported (expected 3)");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_artifacts_name_the_offending_file() {
        let idx = sample_sharded();
        let dir = std::env::temp_dir().join(format!("wwt_sharded_corrupt_{}", std::process::id()));
        let shard1 = dir.join(shard_file(1));
        let shard1_name = shard1.display().to_string();

        // Truncated shard file on disk: typed Corrupt naming the path.
        save_sharded(&idx, &dir).unwrap();
        let bytes = std::fs::read(&shard1).unwrap();
        std::fs::write(&shard1, &bytes[..bytes.len() / 2]).unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => {
                assert!(m.contains("truncated"), "message: {m}");
                assert!(m.contains(&shard1_name), "message: {m}");
            }
            other => panic!("expected Corrupt for truncation, got {other:?}"),
        }

        // Bit-flipped length words — the doc count, the term count and
        // the first posting-list length: the reader desynchronizes (and
        // must not allocate for the bogus counts) → typed Corrupt, same
        // path context.
        save_sharded(&idx, &dir).unwrap();
        let pristine = std::fs::read(&shard1).unwrap();
        let word = |at: usize| u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap());
        let n_docs_at = 8; // past the magic
        let n_terms_at = n_docs_at + 4 + 16 * word(n_docs_at) as usize;
        let first_term_len =
            u16::from_le_bytes([pristine[n_terms_at + 4], pristine[n_terms_at + 5]]) as usize;
        let posting_len_at = n_terms_at + 4 + 2 + first_term_len;
        for at in [n_docs_at, n_terms_at, posting_len_at] {
            let mut bytes = pristine.clone();
            bytes[at + 3] ^= 0xFF; // the word's high byte
            std::fs::write(&shard1, &bytes).unwrap();
            match load_sharded(&dir) {
                Err(WwtError::Corrupt(m)) => {
                    assert!(m.contains(&shard1_name), "message: {m}");
                }
                other => panic!("expected Corrupt for bit flip at {at}, got {other:?}"),
            }
        }

        // Missing shard file: typed Io error still naming the path.
        save_sharded(&idx, &dir).unwrap();
        std::fs::remove_file(&shard1).unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                assert!(e.to_string().contains(&shard1_name), "message: {e}");
            }
            other => panic!("expected Io for missing shard, got {other:?}"),
        }

        // A v3 term_checksum mismatch names the index directory.
        save_sharded(&idx, &dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!(
                r#"{{"version":3,"shards":{},"term_count":{},"term_checksum":"00000000deadbeef"}}"#,
                idx.n_shards(),
                idx.dict().terms().len()
            ),
        )
        .unwrap();
        match load_sharded(&dir) {
            Err(WwtError::Corrupt(m)) => {
                assert!(m.contains("disagrees"), "message: {m}");
                assert!(m.contains(&dir.display().to_string()), "message: {m}");
            }
            other => panic!("expected Corrupt for checksum mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_index_roundtrip() {
        let idx = IndexBuilder::new().build();
        let restored = from_bytes(&to_bytes(&idx).unwrap()).unwrap();
        assert_eq!(restored.n_docs(), 0);
    }
}
