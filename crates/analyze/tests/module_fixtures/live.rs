//! Library code beside the test module: still linted as such.

pub fn second(x: Option<u8>) -> u8 {
    x.unwrap()
}
