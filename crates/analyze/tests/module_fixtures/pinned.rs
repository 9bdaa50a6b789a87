//! The body of `#[cfg(test)] mod pinned;`: no item here carries a test
//! attribute of its own, yet all of it is test code.

mod deeper;

fn fixture() -> u8 {
    "1".parse().expect("fixture parses")
}

#[test]
fn pins() {
    assert_eq!(fixture(), deeper::value());
}
