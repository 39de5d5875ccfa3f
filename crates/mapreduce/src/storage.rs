//! The trusted storage layer (HDFS stand-in).
//!
//! §2.3 of the paper: *"we focus on computation and assume a trusted
//! storage layer"* (citing DepSky for feasibility). Files are write-once
//! (append-only semantics at file granularity, as in HDFS/Hadoop job
//! outputs); reads and writes are byte-accounted so the harness can report
//! the paper's HDFS multipliers.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use cbft_dataflow::{Batch, Record};

use crate::data_plane::{self, Counter};

/// Error from the storage layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A read referenced a file that does not exist.
    NotFound(String),
    /// A write targeted an existing file (files are write-once).
    AlreadyExists(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(n) => write!(f, "storage file '{n}' not found"),
            StorageError::AlreadyExists(n) => {
                write!(
                    f,
                    "storage file '{n}' already exists (files are write-once)"
                )
            }
        }
    }
}

impl Error for StorageError {}

/// The write-once payload of one stored file, behind shared handles:
/// readers and replicated clusters seeded from the same handle share one
/// allocation. A file is held in the form it was written in — records,
/// or one columnar [`Batch`] that map tasks window straight into their
/// kernels — and carries its byte size (Σ [`Record::byte_size`], which
/// for a batch is [`Batch::canonical_bytes`]), summed once, when the
/// handle is made.
#[derive(Clone, Debug)]
pub struct FileData {
    form: Form,
    bytes: u64,
}

#[derive(Clone, Debug)]
enum Form {
    Rows(Arc<[Record]>),
    Cols(Arc<ColumnarFile>),
}

#[derive(Debug)]
struct ColumnarFile {
    batch: Arc<Batch>,
    /// The row image, for the record-typed view ([`Storage::peek`]) the
    /// harness inspects files through. Built on first request, once for
    /// every handle to the file; no task, no publication and no report
    /// asks.
    rows: OnceLock<Arc<[Record]>>,
}

impl FileData {
    /// Records in the file.
    pub fn len(&self) -> usize {
        match &self.form {
            Form::Rows(rows) => rows.len(),
            Form::Cols(file) => file.batch.len(),
        }
    }

    /// True when the file holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the file in bytes.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// The file as one batch, if it is stored columnar.
    pub fn batch(&self) -> Option<&Batch> {
        self.shared_batch().map(|batch| &**batch)
    }

    /// The handle to the file's batch, if it is stored columnar.
    pub(crate) fn shared_batch(&self) -> Option<&Arc<Batch>> {
        match &self.form {
            Form::Rows(_) => None,
            Form::Cols(file) => Some(&file.batch),
        }
    }

    /// The file as records. A columnar file materializes its row image
    /// on the first call.
    pub fn rows(&self) -> &Arc<[Record]> {
        match &self.form {
            Form::Rows(rows) => rows,
            Form::Cols(file) => file.rows.get_or_init(|| file.batch.to_records().into()),
        }
    }

    /// An owned copy of the file's records: built out of a columnar file
    /// (counted as materialized rows), or deep-copied from a record file
    /// (counted as cloned records). What a record-typed view of a
    /// published file costs, charged when someone asks for one.
    pub fn to_records(&self) -> Vec<Record> {
        match &self.form {
            Form::Rows(rows) => {
                data_plane::count(Counter::RecordsCloned, rows.len() as u64);
                rows.to_vec()
            }
            Form::Cols(file) => file.batch.to_records(),
        }
    }
}

impl From<Arc<[Record]>> for FileData {
    fn from(rows: Arc<[Record]>) -> FileData {
        FileData {
            bytes: rows.iter().map(Record::byte_size).sum(),
            form: Form::Rows(rows),
        }
    }
}

impl From<Vec<Record>> for FileData {
    fn from(rows: Vec<Record>) -> FileData {
        FileData::from(Arc::<[Record]>::from(rows))
    }
}

impl From<Batch> for FileData {
    fn from(batch: Batch) -> FileData {
        FileData::from(Arc::new(batch))
    }
}

impl From<Arc<Batch>> for FileData {
    fn from(batch: Arc<Batch>) -> FileData {
        FileData {
            bytes: batch.canonical_bytes(),
            form: Form::Cols(Arc::new(ColumnarFile {
                batch,
                rows: OnceLock::new(),
            })),
        }
    }
}

/// The trusted storage layer: named, write-once files of records.
///
/// # Examples
///
/// ```
/// use cbft_dataflow::{Record, Value};
/// use cbft_mapreduce::Storage;
///
/// let mut storage = Storage::new();
/// storage.write("in", vec![Record::new(vec![Value::Int(1)])])?;
/// assert_eq!(storage.read("in")?.len(), 1);
/// assert!(storage.write("in", vec![]).is_err(), "write-once");
/// # Ok::<(), cbft_mapreduce::StorageError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Storage {
    files: HashMap<String, FileData>,
    read_bytes: u64,
    written_bytes: u64,
}

impl Storage {
    /// Creates an empty storage layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a new file.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::AlreadyExists`] when `name` is taken: files
    /// are write-once, mirroring the append-only semantics the paper calls
    /// out ("in many cloud storage systems data modification is replaced
    /// with data creation").
    pub fn write(&mut self, name: &str, records: Vec<Record>) -> Result<u64, StorageError> {
        self.write_shared(name, records)
    }

    /// Writes a new file from an already-shared payload without copying
    /// (or, given a [`FileData`], re-sizing) it. All storages seeded with
    /// clones of the same handle share one allocation — how the executor
    /// gives every replica cluster the same write-once inputs for free.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::AlreadyExists`] when `name` is taken.
    pub fn write_shared(
        &mut self,
        name: &str,
        data: impl Into<FileData>,
    ) -> Result<u64, StorageError> {
        if self.files.contains_key(name) {
            return Err(StorageError::AlreadyExists(name.to_owned()));
        }
        let data = data.into();
        let bytes = data.bytes;
        self.written_bytes += bytes;
        self.files.insert(name.to_owned(), data);
        Ok(bytes)
    }

    /// Reads a file, returning a shared handle to the write-once payload
    /// (no records are copied).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::NotFound`] for missing files.
    pub fn read(&mut self, name: &str) -> Result<FileData, StorageError> {
        match self.files.get(name) {
            Some(f) => {
                self.read_bytes += f.bytes;
                data_plane::count(Counter::ArcsShared, 1);
                Ok(f.clone())
            }
            None => Err(StorageError::NotFound(name.to_owned())),
        }
    }

    /// Like [`Storage::read`] but without charging read bytes, as records —
    /// for harness/verifier inspection that would not exist on a real
    /// cluster. A columnar file's row image is built on the first peek and
    /// cached; [`Storage::handle`] reads the file as it is stored.
    pub fn peek(&self, name: &str) -> Option<&[Record]> {
        self.files.get(name).map(|f| &**f.rows())
    }

    /// A free (uncharged) shared handle to a file in the form it is
    /// stored in, for harness plumbing that republishes data rather than
    /// reading it.
    pub fn handle(&self, name: &str) -> Option<FileData> {
        self.files.get(name).map(|f| {
            data_plane::count(Counter::ArcsShared, 1);
            f.clone()
        })
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Size of `name` in bytes, if it exists.
    pub fn size_bytes(&self, name: &str) -> Option<u64> {
        self.files.get(name).map(|f| f.bytes)
    }

    /// Records in `name`, if it exists (uncharged, like the size).
    pub fn len_of(&self, name: &str) -> Option<usize> {
        self.files.get(name).map(FileData::len)
    }

    /// Map of every file name to its size, e.g. for
    /// [`cbft_dataflow::analyze::analyze_plan`]'s input-size table.
    pub fn sizes(&self) -> HashMap<String, u64> {
        self.files
            .iter()
            .map(|(k, v)| (k.clone(), v.bytes))
            .collect()
    }

    /// Total bytes read so far (accounted reads only).
    pub fn total_read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written so far.
    pub fn total_written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Removes intermediate files matching a namespace prefix — modelling
    /// garbage collection of a replica's scratch space after verification.
    /// Returns the number of files removed.
    pub fn remove_prefix(&mut self, prefix: &str) -> usize {
        let keys: Vec<String> = self
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in &keys {
            self.files.remove(k);
        }
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbft_dataflow::Value;

    fn recs(n: i64) -> Vec<Record> {
        (0..n).map(|i| Record::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn write_once_read_many() {
        let mut s = Storage::new();
        s.write("a", recs(3)).unwrap();
        assert_eq!(s.read("a").unwrap().len(), 3);
        assert_eq!(s.read("a").unwrap().len(), 3);
        assert_eq!(
            s.write("a", recs(1)).unwrap_err(),
            StorageError::AlreadyExists("a".to_owned())
        );
    }

    #[test]
    fn byte_accounting() {
        let mut s = Storage::new();
        let written = s.write("a", recs(10)).unwrap();
        assert!(written > 0);
        assert_eq!(s.total_written_bytes(), written);
        assert_eq!(s.total_read_bytes(), 0);
        s.read("a").unwrap();
        s.read("a").unwrap();
        assert_eq!(s.total_read_bytes(), 2 * written);
        // peek is free.
        s.peek("a").unwrap();
        assert_eq!(s.total_read_bytes(), 2 * written);
    }

    #[test]
    fn missing_file_errors() {
        let mut s = Storage::new();
        assert_eq!(
            s.read("x").unwrap_err(),
            StorageError::NotFound("x".to_owned())
        );
        assert!(!s.exists("x"));
        assert_eq!(s.size_bytes("x"), None);
    }

    #[test]
    fn remove_prefix_cleans_namespace() {
        let mut s = Storage::new();
        s.write("run1/tmp-0", recs(1)).unwrap();
        s.write("run1/tmp-1", recs(1)).unwrap();
        s.write("run2/tmp-0", recs(1)).unwrap();
        assert_eq!(s.remove_prefix("run1/"), 2);
        assert!(!s.exists("run1/tmp-0"));
        assert!(s.exists("run2/tmp-0"));
    }

    #[test]
    fn sizes_reports_all_files() {
        let mut s = Storage::new();
        s.write("a", recs(2)).unwrap();
        s.write("b", recs(4)).unwrap();
        let sizes = s.sizes();
        assert_eq!(sizes.len(), 2);
        assert!(sizes["b"] > sizes["a"]);
    }
}
