//! Constants and primitive encodings of the NetCDF *classic* file
//! format (CDF-1, and CDF-2 with 64-bit offsets), implemented from the
//! published format specification. All multi-byte quantities are
//! big-endian; names and value blocks are padded to 4-byte boundaries.

/// Magic bytes `CDF` followed by the version byte.
pub const MAGIC: &[u8; 3] = b"CDF";
/// Version byte for the classic format (32-bit offsets).
pub const VERSION_CLASSIC: u8 = 1;
/// Version byte for the 64-bit-offset variant.
pub const VERSION_64BIT: u8 = 2;

/// Tag introducing the dimension list.
pub const NC_DIMENSION: u32 = 0x0A;
/// Tag introducing a variable list.
pub const NC_VARIABLE: u32 = 0x0B;
/// Tag introducing an attribute list.
pub const NC_ATTRIBUTE: u32 = 0x0C;

/// The external data types of the classic format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NcType {
    /// 8-bit signed integer (`NC_BYTE` = 1).
    Byte,
    /// 8-bit character (`NC_CHAR` = 2).
    Char,
    /// 16-bit signed integer (`NC_SHORT` = 3).
    Short,
    /// 32-bit signed integer (`NC_INT` = 4).
    Int,
    /// 32-bit IEEE float (`NC_FLOAT` = 5).
    Float,
    /// 64-bit IEEE float (`NC_DOUBLE` = 6).
    Double,
}

impl NcType {
    /// The on-disk type code.
    pub fn code(self) -> u32 {
        match self {
            NcType::Byte => 1,
            NcType::Char => 2,
            NcType::Short => 3,
            NcType::Int => 4,
            NcType::Float => 5,
            NcType::Double => 6,
        }
    }

    /// Decode a type code.
    pub fn from_code(c: u32) -> Option<NcType> {
        Some(match c {
            1 => NcType::Byte,
            2 => NcType::Char,
            3 => NcType::Short,
            4 => NcType::Int,
            5 => NcType::Float,
            6 => NcType::Double,
            _ => return None,
        })
    }

    /// Size in bytes of one external value.
    pub fn size(self) -> u64 {
        match self {
            NcType::Byte | NcType::Char => 1,
            NcType::Short => 2,
            NcType::Int | NcType::Float => 4,
            NcType::Double => 8,
        }
    }
}

/// Round a byte count up to a 4-byte boundary.
pub fn pad4(n: u64) -> u64 {
    n.div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_roundtrip() {
        for t in [
            NcType::Byte,
            NcType::Char,
            NcType::Short,
            NcType::Int,
            NcType::Float,
            NcType::Double,
        ] {
            assert_eq!(NcType::from_code(t.code()), Some(t));
        }
        assert_eq!(NcType::from_code(0), None);
        assert_eq!(NcType::from_code(7), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(NcType::Byte.size(), 1);
        assert_eq!(NcType::Short.size(), 2);
        assert_eq!(NcType::Float.size(), 4);
        assert_eq!(NcType::Double.size(), 8);
    }

    #[test]
    fn padding() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
        assert_eq!(pad4(13), 16);
    }
}
