#[inline]
#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]
pub fn m3s(mem: &mut Vec<u8>, mut k: u64) -> u64 {
    let mut out: u64 = 0;
    k = (((k).wrapping_mul(3432918353u64)) & (4294967295u64));
    k = ((((((k) << ((15u64) & 63))) | (((k) >> ((17u64) & 63))))) & (4294967295u64));
    k = (((k).wrapping_mul(461845907u64)) & (4294967295u64));
    out = k;
    out
}
