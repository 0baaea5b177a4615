//! Producer dictionary persistence.
//!
//! The store's producer ids are indices into a name list saved as
//! `dictionary.json`. Writes are atomic (temp + rename inside the
//! backend) and verified by a CRC stored alongside the names, so a torn
//! write is detected rather than silently mis-attributing every block.

use crate::backend::{get_retry, ObjectStore};
use crate::checksum::crc32;
use crate::error::{Result, StoreError};
use blockdec_chain::ProducerRegistry;
use serde::{Deserialize, Serialize};

/// Object name of the producer dictionary under the store root.
pub const DICTIONARY_NAME: &str = "dictionary.json";

#[derive(Serialize, Deserialize)]
struct DictFile {
    version: u16,
    crc32: u32,
    names: Vec<String>,
}

fn names_crc(names: &[String]) -> u32 {
    let mut joined = Vec::new();
    for n in names {
        joined.extend_from_slice(n.as_bytes());
        joined.push(0);
    }
    crc32(&joined)
}

/// Save a registry as `dictionary.json` crash-safely (see
/// [`crate::backend::ObjectStore::put_atomic`]).
pub fn save_dictionary(store: &dyn ObjectStore, registry: &ProducerRegistry) -> Result<()> {
    let names = registry.to_name_list();
    let file = DictFile {
        version: 1,
        crc32: names_crc(&names),
        names,
    };
    let json = serde_json::to_vec_pretty(&file).expect("dictionary serializes"); // blockdec-lint: allow(panic) — serializing a plain data struct cannot fail
    store.put_atomic(DICTIONARY_NAME, &json)
}

/// Load the registry from `dictionary.json`, verifying integrity.
pub fn load_dictionary(store: &dyn ObjectStore) -> Result<ProducerRegistry> {
    let bytes = get_retry(store, DICTIONARY_NAME)?;
    let what = || store.describe(DICTIONARY_NAME);
    let file: DictFile = serde_json::from_slice(&bytes).map_err(|e| StoreError::BadFormat {
        what: what(),
        detail: e.to_string(),
    })?;
    if file.version != 1 {
        return Err(StoreError::BadFormat {
            what: what(),
            detail: format!("unsupported dictionary version {}", file.version),
        });
    }
    let actual = names_crc(&file.names);
    if actual != file.crc32 {
        return Err(StoreError::Corrupt {
            what: what(),
            detail: format!(
                "dictionary crc mismatch: {actual:#010x} vs {:#010x}",
                file.crc32
            ),
        });
    }
    Ok(ProducerRegistry::from_name_list(&file.names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalFs;
    use std::fs;

    fn tmp_store(tag: &str) -> (std::path::PathBuf, LocalFs) {
        let d = std::env::temp_dir().join(format!("blockdec-dict-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        let store = LocalFs::new(&d);
        (d, store)
    }

    #[test]
    fn roundtrip() {
        let (dir, store) = tmp_store("rt");
        let mut reg = ProducerRegistry::new();
        for n in ["F2Pool", "AntPool", "1A2b3C"] {
            reg.intern(n);
        }
        save_dictionary(&store, &reg).unwrap();
        let back = load_dictionary(&store).unwrap();
        assert_eq!(back.len(), 3);
        for (id, name) in reg.iter() {
            assert_eq!(back.get(name), Some(id));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_registry_roundtrip() {
        let (dir, store) = tmp_store("empty");
        save_dictionary(&store, &ProducerRegistry::new()).unwrap();
        assert!(load_dictionary(&store).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_tampering() {
        let (dir, store) = tmp_store("tamper");
        let mut reg = ProducerRegistry::new();
        reg.intern("F2Pool");
        save_dictionary(&store, &reg).unwrap();
        let path = dir.join("dictionary.json");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("F2Pool", "FakePool")).unwrap();
        let err = load_dictionary(&store).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_crash_between_write_and_rename_is_recoverable() {
        let (dir, store) = tmp_store("crash");
        let mut reg = ProducerRegistry::new();
        reg.intern("F2Pool");
        save_dictionary(&store, &reg).unwrap();
        reg.intern("AntPool");
        crate::backend::local::arm_crash_before_rename(1);
        assert!(save_dictionary(&store, &reg).is_err());
        // Previous dictionary still loads; torn temp left behind.
        assert_eq!(load_dictionary(&store).unwrap().len(), 1);
        assert!(dir.join("dictionary.json.tmp").exists());
        assert_eq!(store.sweep_temps().unwrap(), 1);
        save_dictionary(&store, &reg).unwrap();
        assert_eq!(load_dictionary(&store).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_non_json() {
        let (dir, store) = tmp_store("garbage");
        fs::write(dir.join("dictionary.json"), b"not json at all").unwrap();
        assert!(matches!(
            load_dictionary(&store).unwrap_err(),
            StoreError::BadFormat { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
