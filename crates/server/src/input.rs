//! Job inputs: data already in memory, or a CSV file read when a slot
//! starts the job, through the one CSV file loader that one-shot `cbft`
//! calls too.

use std::time::{Duration, Instant};

use cbft_dataflow::csv;
use cbft_mapreduce::FileData;

/// One input of a [`crate::JobSpec`].
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Data the submitter already holds.
    Data(FileData),
    /// A CSV file: the slot worker that runs the job reads and parses it
    /// ([`load_input`]) on the plane the job's executor runs, so a queued
    /// job holds a path, not parsed columns.
    File(String),
}

/// What the loader read: one line of `--trace-summary`'s `inputs:`
/// section, for one input (`cbft`) or summed over a run's (`cbftd` loads
/// a file per job, and a line each would drown the summary).
#[derive(Clone, Debug, Default)]
pub struct InputLoad {
    files: usize,
    rows: usize,
    bytes: usize,
    columnar: usize,
    /// Why the first ragged file was loaded as records.
    ragged: Option<String>,
    wall: Duration,
}

impl InputLoad {
    /// Files loaded.
    pub fn files(&self) -> usize {
        self.files
    }

    /// Adds the load of input `name` to this total.
    pub fn add(&mut self, name: &str, load: &InputLoad) {
        self.files += load.files;
        self.rows += load.rows;
        self.bytes += load.bytes;
        self.columnar += load.columnar;
        if self.ragged.is_none() {
            self.ragged = load.ragged.as_ref().map(|why| format!("{name} {why}"));
        }
        self.wall += load.wall;
    }

    /// The line, under `label`: an input's name, or a file count.
    pub fn line(&self, label: &str) -> String {
        let plane = plane(self.columnar, self.files);
        let why: String = self.ragged.iter().map(|why| format!(" ({why})")).collect();
        let (rows, bytes, ms) = (self.rows, self.bytes, self.wall.as_secs_f64() * 1e3);
        format!("{label}: {rows} rows, {bytes} bytes, {plane}{why}, load {ms:.1} ms")
    }
}

/// The plane `files` files were held on, `columnar` of them as batches,
/// as the `--trace-summary` lines name it.
pub fn plane(columnar: usize, files: usize) -> String {
    match (columnar, files - columnar) {
        (_, 0) => "columnar".to_owned(),
        (0, _) => "rows".to_owned(),
        (columnar, rows) => format!("{columnar} columnar, {rows} rows"),
    }
}

/// Reads one input file (one record per non-blank line), returning the
/// raw text (forensic bundles ship exact copies of what was read) and
/// what the load took alongside. The error names the input and the path.
///
/// With `columnar` set — the job runs the columnar data plane — a file
/// whose lines all have one field count is parsed straight into one
/// `Batch`, which map tasks window without building a record; a ragged
/// file, which no batch can hold, is loaded as records, like every file
/// when `columnar` is off, and the load says why.
///
/// # Errors
///
/// `cannot read input 'NAME' from 'PATH': …` when the file cannot be
/// read as text.
pub fn load_input(
    name: &str,
    path: &str,
    columnar: bool,
) -> Result<(FileData, String, InputLoad), String> {
    let started = Instant::now();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read input '{name}' from '{path}': {e}"))?;
    let (data, ragged): (FileData, _) = match columnar.then(|| csv::scan_columns(&text)) {
        Some(Ok(batch)) => (batch.into(), None),
        Some(Err(ragged)) => (csv::parse_records(&text).into(), Some(ragged.to_string())),
        None => (csv::parse_records(&text).into(), None),
    };
    let load = InputLoad {
        files: 1,
        rows: data.len(),
        bytes: text.len(),
        columnar: usize::from(data.batch().is_some()),
        ragged,
        wall: started.elapsed(),
    };
    Ok((data, text, load))
}
