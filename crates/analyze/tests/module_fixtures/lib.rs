//! A library whose test module lives in a file of its own: `pinned.rs`
//! holds test code only, `live.rs` is library code.

mod live;

pub fn first(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod pinned;
