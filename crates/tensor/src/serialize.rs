//! Checkpoint serialization: a named map of parameter arrays, stored as JSON.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use slime_json::{obj, FromJson, JsonError, ToJson, Value};

use crate::ndarray::NdArray;
use crate::tensor::Tensor;

/// One serialized array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayRecord {
    /// Shape of the array.
    pub shape: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl ToJson for ArrayRecord {
    fn to_json(&self) -> Value {
        obj([
            ("shape", self.shape.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl FromJson for ArrayRecord {
    /// Rejects a record whose data length is not the product of its shape.
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let shape: Vec<usize> = Vec::from_json(v.field("shape")?)?;
        let data: Vec<f32> = Vec::from_json(v.field("data")?)?;
        let expected = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if expected != Some(data.len()) {
            return Err(JsonError(format!(
                "array shape {shape:?} does not match data length {}",
                data.len()
            )));
        }
        Ok(ArrayRecord { shape, data })
    }
}

/// A named collection of parameter values (like a PyTorch `state_dict`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, ArrayRecord>,
}

impl ToJson for StateDict {
    fn to_json(&self) -> Value {
        obj([("entries", self.entries.to_json())])
    }
}

impl FromJson for StateDict {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(StateDict {
            entries: BTreeMap::from_json(v.field("entries")?)?,
        })
    }
}

impl StateDict {
    /// Empty state dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored arrays.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a tensor's current value under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already present (duplicate parameter names are
    /// always a wiring bug).
    pub fn insert(&mut self, name: &str, t: &Tensor) {
        let v = t.value();
        let prev = self.entries.insert(
            name.to_string(),
            ArrayRecord {
                shape: v.shape().to_vec(),
                data: v.data().to_vec(),
            },
        );
        assert!(prev.is_none(), "duplicate parameter name {name:?}");
    }

    /// Check that `name` is stored with `t`'s shape, so that
    /// [`StateDict::load_into`] will succeed.
    pub fn check(&self, name: &str, t: &Tensor) -> Result<(), String> {
        let rec = self
            .entries
            .get(name)
            .ok_or_else(|| format!("missing parameter {name:?} in checkpoint"))?;
        let shape = t.shape();
        if rec.shape != shape {
            return Err(format!(
                "parameter {name:?} has shape {:?} in the checkpoint, \
                 but the model expects {shape:?}",
                rec.shape
            ));
        }
        Ok(())
    }

    /// Copy the stored value for `name` into tensor `t`.
    ///
    /// # Panics
    /// Panics if [`StateDict::check`] fails.
    pub fn load_into(&self, name: &str, t: &Tensor) {
        if let Err(e) = self.check(name, t) {
            panic!("{e}");
        }
        let rec = &self.entries[name];
        t.set_data(NdArray::from_vec(rec.shape.clone(), rec.data.clone()));
    }

    /// Names stored in the dict, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|s| s.as_str())
    }

    /// Retrieve a raw record.
    pub fn get(&self, name: &str) -> Option<&ArrayRecord> {
        self.entries.get(name)
    }

    /// Serialize to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, slime_json::to_string(self))
    }

    /// Deserialize from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        slime_json::from_str(&json).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_load_roundtrip() {
        let t = Tensor::param(NdArray::from_vec(vec![2, 2], vec![1., 2., 3., 4.]));
        let mut sd = StateDict::new();
        sd.insert("w", &t);
        let t2 = Tensor::param(NdArray::zeros(vec![2, 2]));
        sd.load_into("w", &t2);
        assert_eq!(t2.value().data(), &[1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let t = Tensor::param(NdArray::scalar(1.0));
        let mut sd = StateDict::new();
        sd.insert("w", &t);
        sd.insert("w", &t);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_name_rejected() {
        let sd = StateDict::new();
        sd.load_into("nope", &Tensor::param(NdArray::scalar(0.0)));
    }

    #[test]
    fn check_reports_missing_and_misshaped_parameters() {
        let mut sd = StateDict::new();
        sd.insert("w", &Tensor::param(NdArray::zeros(vec![3])));
        assert!(sd
            .check("w", &Tensor::param(NdArray::zeros(vec![3])))
            .is_ok());
        let err = sd.check("v", &Tensor::param(NdArray::zeros(vec![3])));
        assert!(err.unwrap_err().contains("missing"));
        let err = sd.check("w", &Tensor::param(NdArray::zeros(vec![2, 2])));
        assert!(err.unwrap_err().contains("[2, 2]"));
    }

    #[test]
    fn record_with_wrong_data_length_is_rejected() {
        let ok: ArrayRecord = slime_json::from_str(r#"{"shape":[2,2],"data":[1,2,3,4]}"#).unwrap();
        assert_eq!(ok.data.len(), 4);
        for bad in [
            r#"{"shape":[17],"data":[1,2,3]}"#,
            r#"{"shape":[2,2],"data":[1,2,3,4,5]}"#,
            r#"{"shape":[4294967296,4294967296,2],"data":[1]}"#,
        ] {
            let err = slime_json::from_str::<ArrayRecord>(bad).unwrap_err();
            assert!(err.to_string().contains("does not match"), "{bad}: {err}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("slime_sd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let t = Tensor::param(NdArray::from_vec(vec![3], vec![0.5, -1.5, 2.5]));
        let mut sd = StateDict::new();
        sd.insert("layer.weight", &t);
        sd.save(&path).unwrap();
        let loaded = StateDict::load(&path).unwrap();
        assert_eq!(loaded, sd);
        std::fs::remove_file(path).ok();
    }
}
