//! Data readers and writers — the I/O module of Fig. 3.
//!
//! "Any driver which produces a stream of bytes in this format can
//! quickly be plugged into our system by registering it as a new
//! reader" (§4.1). A [`Reader`] takes the evaluated `at` argument of a
//! `readval` command and produces a complex object (optionally with
//! its declared type); a [`Writer`] consumes a value.
//!
//! The built-in [`CoFileReader`] / [`CoFileWriter`] pair implement the
//! paper's own exchange format over local files, registered as
//! `COFILE`. The NetCDF drivers live in the `aql-netcdf` crate and
//! register themselves through the same interface.

use std::path::Path;

use aql_core::types::Type;
use aql_core::value::parse::parse_value;
use aql_core::value::Value;

use crate::errors::LangError;

/// A registered data reader.
pub trait Reader {
    /// Read a complex object. `arg` is the evaluated `at` expression
    /// of the `readval` command. The second component, when present,
    /// is the declared type of the result (used when the value alone
    /// is ambiguous, e.g. empty collections).
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError>;
}

/// A registered data writer.
pub trait Writer {
    /// Write a complex object. `arg` is the evaluated `at` expression
    /// of the `writeval` command.
    fn write(&self, arg: &Value, data: &Value) -> Result<(), LangError>;
}

/// Reads a complex object from a local file in the §3 exchange format.
/// `at` argument: the file name as a string.
pub struct CoFileReader;

impl Reader for CoFileReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let path = match arg {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(LangError::session(format!(
                    "COFILE expects a file name string, got {other}"
                )))
            }
        };
        let text = std::fs::read_to_string(Path::new(&path))
            .map_err(|e| LangError::session(format!("COFILE: cannot read `{path}`: {e}")))?;
        let v = parse_value(&text).map_err(|e| match e.too_deep {
            true => LangError::TooDeep,
            false => LangError::session(format!("COFILE: `{path}`: {e}")),
        })?;
        Ok((v, None))
    }
}

/// Writes a complex object to a local file in the exchange format.
pub struct CoFileWriter;

impl Writer for CoFileWriter {
    fn write(&self, arg: &Value, data: &Value) -> Result<(), LangError> {
        let path = match arg {
            Value::Str(s) => s.to_string(),
            other => {
                return Err(LangError::session(format!(
                    "COFILE expects a file name string, got {other}"
                )))
            }
        };
        std::fs::write(Path::new(&path), format!("{data}\n"))
            .map_err(|e| LangError::session(format!("COFILE: cannot write `{path}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cofile_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aql-cofile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.co");
        let path_str = path.to_str().unwrap().to_string();

        let v = Value::set(vec![
            Value::tuple(vec![Value::Nat(1), Value::Real(2.5)]),
            Value::tuple(vec![Value::Nat(2), Value::Real(3.5)]),
        ]);
        CoFileWriter
            .write(&Value::str(&path_str), &v)
            .expect("write");
        let (back, ty) = CoFileReader.read(&Value::str(&path_str)).expect("read");
        assert_eq!(back, v);
        assert!(ty.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_arguments_reported() {
        assert!(CoFileReader.read(&Value::Nat(1)).is_err());
        assert!(CoFileWriter.write(&Value::Nat(1), &Value::Nat(2)).is_err());
        assert!(CoFileReader
            .read(&Value::str("/nonexistent/definitely/missing.co"))
            .is_err());
    }
}
