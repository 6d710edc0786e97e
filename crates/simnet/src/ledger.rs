//! The run ledger: persistent storage for one run's byte-stable exports.
//!
//! Every observability layer in this workspace renders to byte-stable
//! JSON — metrics, critical-path analysis, comm matrices, epoch history,
//! decision audits, diagnosis — but until now each artifact died with its
//! run. The ledger keeps them: a run is identified by a **deterministic
//! content-hash run id** (FNV-1a over the manifest fields and every
//! artifact's bytes — no wall-clock, no hostname, nothing
//! machine-specific), and persisted as one directory of artifacts under
//! `<root>/<bench>/<run-id>/`:
//!
//! ```text
//! target/observatory/
//!   fig14a_allgatherv_size/
//!     a1b2c3d4e5f60718/
//!       manifest.json      # bench, mode, knobs, schema, run id
//!       series.json        # the bench's latency series
//!       metrics.json       # cluster-merged registry snapshot
//!       comm.json          # merged src×dst traffic matrix
//!       ...
//!     latest               # run id of the most recent write
//! ```
//!
//! Because the simulation is deterministic, the same code at the same
//! configuration produces the same bytes and therefore the *same run id*:
//! re-ledgering an unchanged run is idempotent, and a changed run id is
//! itself a signal that behaviour moved. The differential engine
//! (`ncd_core::compare`) reads two ledger entries back and explains what
//! changed and why.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{parse_json, parse_schema_led, Json, JsonValue, JsonWriter, SCHEMA_VERSION};
use crate::volume::{fnv_bytes, FNV_OFFSET};

/// Identity of one persisted run: everything that names *what* ran, and
/// the content hash of what it produced. Deliberately contains no
/// wall-clock timestamp — two runs of the same code at the same knobs
/// must collide, that is the point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Report name the run belongs to (e.g. `fig14a_allgatherv_size`).
    pub bench: String,
    /// Problem-size mode, `smoke` or `full`; the reference gate
    /// (`--compare`) never passes a run across the two.
    pub mode: String,
    /// Export schema version the artifacts were written with.
    pub schema: u32,
    /// Bench-specific configuration knobs, as stable `(key, value)`
    /// string pairs in the order the bench declared them.
    pub knobs: Vec<(String, String)>,
    /// 16-hex-digit content hash over the fields above plus every
    /// artifact's name and bytes.
    pub run_id: String,
}

/// The deterministic run id: FNV-1a over bench, mode, schema, knobs, and
/// each artifact `(name, contents)` in the given order, rendered as 16
/// hex digits. A separator byte between fields keeps concatenation
/// ambiguities out of the hash.
pub fn run_id(
    bench: &str,
    mode: &str,
    knobs: &[(String, String)],
    artifacts: &[(String, String)],
) -> String {
    let mut h = FNV_OFFSET;
    for part in [bench, mode] {
        h = fnv_bytes(h, part.as_bytes());
        h = fnv_bytes(h, &[0]);
    }
    h = fnv_bytes(h, &SCHEMA_VERSION.to_le_bytes());
    for (k, v) in knobs {
        h = fnv_bytes(h, k.as_bytes());
        h = fnv_bytes(h, &[0]);
        h = fnv_bytes(h, v.as_bytes());
        h = fnv_bytes(h, &[0]);
    }
    for (name, contents) in artifacts {
        h = fnv_bytes(h, name.as_bytes());
        h = fnv_bytes(h, &[0]);
        h = fnv_bytes(h, contents.as_bytes());
        h = fnv_bytes(h, &[0]);
    }
    format!("{h:016x}")
}

/// Serialize a manifest (schema-led like every export).
pub fn manifest_json(m: &RunManifest) -> String {
    JsonWriter::versioned(m.schema, |w| {
        w.field("bench", &m.bench)
            .field("mode", &m.mode)
            .field("run_id", &m.run_id);
        w.field("knobs", &m.knobs);
    })
}

/// Parse a manifest written by [`manifest_json`].
pub fn parse_manifest(text: &str) -> Result<RunManifest, String> {
    let v = parse_json(text)?;
    let knobs = v.list("knobs", |pair| match pair.as_array() {
        Some([k, v]) => Ok((
            k.as_str().ok_or("knob key not a string")?.to_string(),
            v.as_str().ok_or("knob value not a string")?.to_string(),
        )),
        _ => Err("knob is not a pair".to_string()),
    })?;
    Ok(RunManifest {
        bench: v.str("bench")?.to_string(),
        mode: v.str("mode")?.to_string(),
        schema: v.u32("schema")?,
        knobs,
        run_id: v.str("run_id")?.to_string(),
    })
}

/// A labelled series of `(x, y)` points: what a bench tabulates, ledgers
/// as `series.json` and gates against its committed reference run
/// (`--compare`). A point the
/// run did not measure is NaN here and `null` in JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub label: String,
    pub points: Vec<(String, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }
}

/// `{"label":…,"points":[["x",y],…]}`.
impl JsonValue for Series {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("label", &self.label).field("points", &self.points);
        });
    }
}

/// JSON of a bench's series — the `series.json` ledger artifact the
/// reference gate (`--compare`) reads back.
pub fn series_json(name: &str, smoke: bool, series: &[Series]) -> String {
    JsonWriter::schema_led(|w| {
        w.field("name", name);
        w.field("mode", if smoke { "smoke" } else { "full" });
        w.field("series", series);
    })
}

/// Read the series of a [`series_json`] document back.
pub fn parse_series(text: &str) -> Result<Vec<Series>, String> {
    parse_schema_led(text)?.list("series", |s| {
        let label = s.str("label")?.to_string();
        let points = s.list("points", |p| match p.as_array().unwrap_or_default() {
            [Json::Str(x), Json::Num(y)] => Ok((x.clone(), *y)),
            [Json::Str(x), Json::Null] => Ok((x.clone(), f64::NAN)),
            _ => Err("a point is not [\"x\", y]".to_string()),
        });
        let points = points.map_err(|e| format!("series {label:?}: {e}"))?;
        Ok(Series { label, points })
    })
}

/// One run read back from disk: its manifest plus every artifact file's
/// contents keyed by file name (`manifest.json` excluded).
#[derive(Clone, Debug)]
pub struct LedgerRun {
    pub manifest: RunManifest,
    pub artifacts: Vec<(String, String)>,
}

impl LedgerRun {
    /// The contents of one artifact file, if the run recorded it.
    pub fn artifact(&self, name: &str) -> Option<&str> {
        self.artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_str())
    }
}

/// The ledger root: `NCD_OBSERVATORY` when set, else `target/observatory`
/// relative to the working directory.
pub fn ledger_root() -> PathBuf {
    match std::env::var("NCD_OBSERVATORY") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new("target").join("observatory"),
    }
}

/// Persist one run: computes the content-hash run id, writes
/// `<root>/<bench>/<run-id>/` containing `manifest.json` plus every
/// artifact, and points `<root>/<bench>/latest` at the new id. Writing
/// the same content twice is idempotent (same id, same bytes). Returns
/// the manifest with the computed id.
pub fn write_run(
    root: &Path,
    bench: &str,
    mode: &str,
    knobs: &[(String, String)],
    artifacts: &[(String, String)],
) -> io::Result<RunManifest> {
    let manifest = RunManifest {
        bench: bench.to_string(),
        mode: mode.to_string(),
        schema: SCHEMA_VERSION,
        knobs: knobs.to_vec(),
        run_id: run_id(bench, mode, knobs, artifacts),
    };
    let dir = root.join(bench).join(&manifest.run_id);
    write_artifact(dir.join("manifest.json"), &manifest_json(&manifest))?;
    for (name, contents) in artifacts {
        write_artifact(dir.join(name), contents)?;
    }
    write_artifact(root.join(bench).join("latest"), &manifest.run_id)?;
    Ok(manifest)
}

/// Write `contents` to `path`, creating the parent directories first —
/// how every artifact, report and snapshot in the workspace reaches disk.
pub fn write_artifact(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)
}

/// The run id `<root>/<bench>/latest` points at, if any run was ledgered.
pub fn latest_run_id(root: &Path, bench: &str) -> Option<String> {
    let id = fs::read_to_string(root.join(bench).join("latest")).ok()?;
    let id = id.trim().to_string();
    (!id.is_empty()).then_some(id)
}

/// Resolve a `--compare` spec to a run directory: `latest` follows the
/// latest pointer under `<root>/<bench>/`, a 16-hex-digit id is looked up
/// under `<root>/<bench>/<id>`, and anything else is taken as a
/// filesystem path to a run directory (possibly a committed reference
/// outside the ledger root).
pub fn resolve_run_dir(root: &Path, bench: &str, spec: &str) -> Result<PathBuf, String> {
    if spec == "latest" {
        let id = latest_run_id(root, bench)
            .ok_or_else(|| format!("no runs ledgered yet under {}/{bench}", root.display()))?;
        return Ok(root.join(bench).join(id));
    }
    if spec.len() == 16 && spec.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Ok(root.join(bench).join(spec));
    }
    Ok(PathBuf::from(spec))
}

/// Read one run directory back: the manifest plus every sibling artifact
/// file.
pub fn read_run(dir: &Path) -> Result<LedgerRun, String> {
    let manifest_text = fs::read_to_string(dir.join("manifest.json"))
        .map_err(|e| format!("cannot read {}/manifest.json: {e}", dir.display()))?;
    let manifest = parse_manifest(&manifest_text)?;
    let mut artifacts = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().to_string();
        if name == "manifest.json" || !entry.path().is_file() {
            continue;
        }
        let contents = fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        artifacts.push((name, contents));
    }
    // Directory iteration order is platform-dependent; sort for
    // determinism.
    artifacts.sort();
    Ok(LedgerRun {
        manifest,
        artifacts,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{
        Cluster, ClusterCommMap, ClusterConfig, EventKind, MetricsRegistry, Observers, Tag,
        TraceEvent,
    };

    /// What one observed run left behind, for the artifact round-trip
    /// tests beside each writer.
    pub(crate) struct Observed {
        pub traces: Vec<Vec<TraceEvent>>,
        pub comm: ClusterCommMap,
        pub metrics: MetricsRegistry,
    }

    /// An 8-rank ring with every observer on: two labelled rounds of
    /// growing blocks, rank 0 late into each.
    pub(crate) fn observed_ring() -> Observed {
        let n = 8;
        let observers = Observers {
            trace: true,
            metrics: true,
            comm_map: true,
            ..Observers::NONE
        };
        let cluster = ClusterConfig::paper_testbed(n).observe(observers);
        let (_, capture) = Cluster::new(cluster)
            .try_run(move |rank| {
                let me = rank.rank();
                for round in 0..2 {
                    let op = "allgatherv/ring".into();
                    rank.record(rank.now(), EventKind::Round { op, round });
                    if me == 0 {
                        rank.compute_flops(5_000_000);
                    }
                    rank.send_bytes((me + 1) % n, Tag(round), vec![0u8; 2048 << round]);
                    let (block, _) = rank.recv_bytes(Some((me + n - 1) % n), Tag(round));
                    let metrics = rank.metrics_mut().expect("enabled above");
                    metrics.observe("ring", "block_bytes", "", block.len() as u64);
                    metrics.gauge_set("ring", "round", "", f64::from(round) + 0.5);
                    rank.comm_epoch("allgatherv/ring");
                }
            })
            .unwrap();
        Observed {
            traces: capture.traces.expect("traced"),
            comm: capture.comm_map.expect("mapped"),
            metrics: capture.metrics.expect("metered"),
        }
    }

    /// The reader rule: `write(read(json)) == json`, a truncated `json` is
    /// an error, and so is `json` with its first `from` replaced by `to`
    /// — one that names `key`.
    pub(crate) fn assert_round_trip<T>(
        json: &str,
        read: impl Fn(&str) -> Result<T, String>,
        write: impl Fn(&T) -> String,
        (from, to, key): (&str, &str, &str),
    ) {
        let back = read(json).expect("own output parses");
        assert_eq!(write(&back), json);
        for prefix in (1..json.len())
            .step_by(13)
            .filter_map(|cut| json.get(..cut))
        {
            assert!(read(prefix).is_err(), "truncated: {prefix}");
        }
        assert!(json.contains(from), "{from} not in {json}");
        let err = read(&json.replacen(from, to, 1)).err().expect(from);
        assert!(err.contains(key), "{err} does not name {key}");
    }

    #[test]
    fn series_round_trip() {
        let mut lat = Series::new("latency-µs \"ring\"");
        lat.push("64 KiB", 10.5);
        lat.push("1 MiB", f64::NAN);
        let json = series_json("fig14", true, &[lat, Series::new("empty")]);
        assert!(json.starts_with("{\"schema\":1,\"name\":\"fig14\",\"mode\":\"smoke\","));
        assert!(json.contains("[\"1 MiB\",null]"), "{json}");
        assert_round_trip(
            &json,
            parse_series,
            |s| series_json("fig14", true, s),
            (
                "[\"64 KiB\",10.5]",
                "[\"64 KiB\"]",
                "series \"latency-µs \\\"ring\\\"\"",
            ),
        );
        let back = parse_series(&json).unwrap();
        assert!(
            back[0].points[1].1.is_nan(),
            "null reads back as unmeasured"
        );
    }

    fn knobs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn artifacts(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        knobs(pairs)
    }

    #[test]
    fn run_id_is_deterministic_and_content_sensitive() {
        let k = knobs(&[("procs", "16")]);
        let a = artifacts(&[("series.json", "{\"x\":1}")]);
        let id = run_id("fig14", "smoke", &k, &a);
        assert_eq!(id.len(), 16);
        assert_eq!(
            id,
            run_id("fig14", "smoke", &k, &a),
            "same content, same id"
        );
        let b = artifacts(&[("series.json", "{\"x\":2}")]);
        assert_ne!(
            id,
            run_id("fig14", "smoke", &k, &b),
            "content changes the id"
        );
        assert_ne!(id, run_id("fig14", "full", &k, &a), "mode changes the id");
        let k2 = knobs(&[("procs", "64")]);
        assert_ne!(id, run_id("fig14", "smoke", &k2, &a), "knobs change the id");
    }

    #[test]
    fn manifest_round_trips() {
        let m = RunManifest {
            bench: "fig14a".to_string(),
            mode: "smoke".to_string(),
            schema: SCHEMA_VERSION,
            knobs: knobs(&[("flavor", "optimized"), ("n", "16")]),
            run_id: "00112233445566aa".to_string(),
        };
        let json = manifest_json(&m);
        assert!(json.starts_with(&format!(
            "{{\"schema\":{SCHEMA_VERSION},\"bench\":\"fig14a\""
        )));
        assert_eq!(parse_manifest(&json).unwrap(), m);
    }

    #[test]
    fn a_manifest_schema_past_u32_is_refused_not_wrapped() {
        let m = RunManifest {
            bench: "fig14a".to_string(),
            mode: "smoke".to_string(),
            schema: SCHEMA_VERSION,
            knobs: Vec::new(),
            run_id: "00112233445566aa".to_string(),
        };
        let wrapped = manifest_json(&m).replacen(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", (1u64 << 32) + u64::from(SCHEMA_VERSION)),
            1,
        );
        let err = parse_manifest(&wrapped).unwrap_err();
        assert!(err.contains("\"schema\""), "{err}");
    }

    #[test]
    fn write_then_read_round_trips_and_updates_latest() {
        let root = std::env::temp_dir().join(format!("ncd_ledger_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let arts = artifacts(&[
            ("series.json", "{\"schema\":1,\"s\":[1,2]}"),
            ("comm.json", "{\"schema\":1,\"ranks\":2}"),
        ]);
        let m = write_run(&root, "figx", "smoke", &knobs(&[("n", "4")]), &arts).unwrap();
        assert_eq!(
            latest_run_id(&root, "figx").as_deref(),
            Some(m.run_id.as_str())
        );
        let dir = resolve_run_dir(&root, "figx", "latest").unwrap();
        let run = read_run(&dir).unwrap();
        assert_eq!(run.manifest, m);
        assert_eq!(
            run.artifact("comm.json"),
            Some("{\"schema\":1,\"ranks\":2}")
        );
        assert_eq!(
            run.artifact("series.json"),
            Some("{\"schema\":1,\"s\":[1,2]}")
        );
        assert_eq!(run.artifact("absent.json"), None);
        // Idempotent: same content writes the same id.
        let again = write_run(&root, "figx", "smoke", &knobs(&[("n", "4")]), &arts).unwrap();
        assert_eq!(again.run_id, m.run_id);
        // Resolving by explicit id and by path agree.
        assert_eq!(resolve_run_dir(&root, "figx", &m.run_id).unwrap(), dir);
        assert_eq!(
            resolve_run_dir(&root, "figx", dir.to_str().unwrap()).unwrap(),
            dir
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resolve_latest_without_runs_is_an_error() {
        let root = std::env::temp_dir().join("ncd_ledger_test_never_written");
        let err = resolve_run_dir(&root, "nope", "latest").unwrap_err();
        assert!(err.contains("no runs ledgered"), "{err}");
    }
}
