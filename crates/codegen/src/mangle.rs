//! Deterministic identifier mangling from [`exo_ir::Sym`]s to C.
//!
//! Two classes of names flow into emitted C:
//!
//! * **User-visible names** — the procedure name (the exported function)
//!   and its argument names (the ABI). These cannot be silently renamed,
//!   so a C-reserved word here is a hard [`crate::CodegenError::ReservedName`].
//! * **Internal names** — allocations, loop iterators and window aliases.
//!   These are mangled deterministically: the sanitized source name if it
//!   is free, otherwise the source name suffixed with the binding site's
//!   frame slot (`i` → `i_s5`), which is unique by construction. The slot
//!   index comes from `exo_interp::lower`, so the same procedure always
//!   mangles to the same identifiers.

use std::borrow::Cow;

/// C99 keywords plus identifiers the emitted prelude itself uses. A user
/// procedure or argument carrying one of these cannot be emitted.
const C_RESERVED: &[&str] = &[
    // C99 keywords.
    "auto",
    "break",
    "case",
    "char",
    "const",
    "continue",
    "default",
    "do",
    "double",
    "else",
    "enum",
    "extern",
    "float",
    "for",
    "goto",
    "if",
    "inline",
    "int",
    "long",
    "register",
    "restrict",
    "return",
    "short",
    "signed",
    "sizeof",
    "static",
    "struct",
    "switch",
    "typedef",
    "union",
    "unsigned",
    "void",
    "volatile",
    "while",
    "_Bool",
    "_Complex",
    "_Imaginary",
    // Names with fixed meanings in a hosted translation unit.
    "main",
    "bool",
    "true",
    "false",
    "NULL",
    "INFINITY",
    "NAN",
    // Library functions / types the emitted prelude and driver use.
    "memset",
    "printf",
    "fmod",
    "fabs",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "size_t",
    "uintptr_t",
];

/// Returns `true` if `name` may not be used as a C function or parameter
/// name in emitted code.
pub fn is_c_reserved(name: &str) -> bool {
    C_RESERVED.contains(&name) || name.starts_with("exo_")
}

/// Returns `true` if `name` is already a legal C identifier.
pub fn is_c_identifier(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// [`sanitize`], borrowing `name` when it is already a legal unreserved
/// identifier (the common case).
pub(crate) fn sanitized(name: &str) -> Cow<'_, str> {
    if is_c_identifier(name) && !is_c_reserved(name) {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(sanitize(name))
    }
}

/// Rewrites a name into a legal (not necessarily unused) C identifier:
/// illegal characters become `_`, a leading digit gets a `v` prefix, and
/// reserved words get an `x_` prefix. Empty names become `v`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    for b in name.bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' {
            out.push(b as char);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('v');
    }
    if out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, 'v');
    }
    if is_c_reserved(&out) {
        out.insert_str(0, "x_");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_prelude_names_are_reserved() {
        for name in ["for", "double", "restrict", "main", "memset", "int64_t"] {
            assert!(is_c_reserved(name), "{name} must be reserved");
        }
        assert!(is_c_reserved("exo_floor_div"), "exo_ prefix is ours");
        for name in ["i", "vtmp_0", "A", "gemm_cfg", "out"] {
            assert!(!is_c_reserved(name), "{name} must be allowed");
        }
    }

    #[test]
    fn sanitize_produces_legal_identifiers() {
        assert_eq!(sanitize("i"), "i");
        assert_eq!(sanitize("blur-x"), "blur_x");
        assert_eq!(sanitize("3x"), "v3x");
        assert_eq!(sanitize("for"), "x_for");
        assert_eq!(sanitize(""), "v");
        assert_eq!(sanitize("exo_tmp"), "x_exo_tmp");
        for weird in ["a b", "α", "x.y", "9", "while"] {
            assert!(is_c_identifier(&sanitize(weird)), "{weird}");
        }
        for name in ["i", "blur-x", "3x", "for", "", "exo_tmp", "A_s0"] {
            assert_eq!(sanitized(name), sanitize(name), "{name}");
        }
    }
}
