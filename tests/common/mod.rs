//! Shared fixtures for the steering-loop integration tests: a scratch
//! directory removed on drop, the hint files a SIS directory holds, and the
//! small seed-99 workload those tests simulate.

#![allow(
    dead_code,
    reason = "each test binary compiles this module and uses only part of it"
)]

use scope_workload::{LiteralPolicy, WorkloadConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A private scratch directory, `qo-<name>-<pid>` under the system temp
/// dir: emptied on creation and removed on drop, so hint-file directories
/// and snapshot files do not accumulate even when an assertion fails.
pub struct TempTree(pub PathBuf);

impl TempTree {
    pub fn new(name: &str) -> Self {
        let root = std::env::temp_dir().join(format!("qo-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp tree");
        Self(root)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// All published hint files in a SIS directory, name → raw bytes.
pub fn hint_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("sis dir exists")
        .map(|entry| {
            let entry = entry.expect("readable dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("readable hint file");
            (name, bytes)
        })
        .collect()
}

/// The test workload. Its parameters are chosen so a 3-day run publishes
/// several hint files — otherwise the hint-file comparisons would be
/// vacuous.
pub fn workload() -> WorkloadConfig {
    WorkloadConfig {
        seed: 99,
        num_templates: 24,
        adhoc_per_day: 3,
        max_instances_per_day: 1,
        ..WorkloadConfig::default()
    }
}

/// [`workload`] with sticky literals: recurring scripts rebind identical
/// plans on every day.
pub fn sticky_workload() -> WorkloadConfig {
    WorkloadConfig {
        literals: LiteralPolicy::Sticky {
            redraw_every_days: 0,
        },
        ..workload()
    }
}
