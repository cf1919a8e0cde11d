//! What a result ran on: cores allowed by the affinity mask, whether
//! threads were pinned, the CPU model, the seed, and a digest of the
//! sources built (the checkout the benchmark runs in need not be a git
//! repository, so the digest stands in for the commit).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

pub struct Topology {
    pub cores: usize,
    pub pinned: bool,
    pub cpu: String,
    pub seed: u64,
    pub source_digest: String,
}

impl Topology {
    pub fn probe(seed: u64) -> Topology {
        Topology {
            // On Linux this is the size of the affinity mask (capped by a
            // cgroup CPU quota, when there is one).
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Workers are left to the scheduler within the mask.
            pinned: false,
            cpu: cpu_model(),
            seed,
            source_digest: source_digest(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"pinned\": {}, \"cpu\": \"{}\", \"seed\": {}, \"source_digest\": \"{}\"}}",
            self.cores,
            self.pinned,
            self.cpu.replace(['"', '\\'], ""),
            self.seed,
            self.source_digest
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86_64 processor; leaves
    // 0x80000002..=0x80000004 are read only when leaf 0x80000000 reports
    // them.
    #[allow(unused_unsafe)]
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".to_string();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        bytes
    };
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// A hash of the library sources and manifests this binary was built
/// from, read from the checkout it was built in.
fn source_digest() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for top in ["crates", "shims", "perfbench/src"] {
        collect(&root.join(top), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = DefaultHasher::new();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        h.write(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&bytes);
    }
    format!("{:016x}", h.finish())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() && e.file_name() != "target" => collect(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
