#[inline]
#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]
pub fn upstr(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> () {
    let mut _i0: u64 = 0;
    let mut b: u64 = 0;
    let r_s = &mut mem[s as usize..][..len as usize];
    _i0 = 0u64;
    while (u64::from((_i0) < (len))) != 0 {
        b = u64::from(r_s[(_i0) as usize]);
        r_s[(_i0) as usize] = (((b) ^ (((((u64::from(((((b).wrapping_sub(97u64)) & (255u64))) < (26u64))) << ((5u64) & 63))) & (255u64))))) as u8;
        _i0 = (_i0).wrapping_add(1u64);
    }
}
