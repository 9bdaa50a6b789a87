//! A module of the test module: test code too.

pub fn value() -> u8 {
    "1".parse().unwrap()
}
