#[inline]
#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]
pub fn fnv1a(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> u64 {
    let mut acc: u64 = 0;
    let mut _i0: u64 = 0;
    let mut b: u64 = 0;
    let mut out: u64 = 0;
    let r_s = &mut mem[s as usize..][..len as usize];
    acc = 14695981039346656037u64;
    _i0 = 0u64;
    while (u64::from((_i0) < (len))) != 0 {
        b = u64::from(r_s[(_i0) as usize]);
        acc = (((acc) ^ (b))).wrapping_mul(1099511628211u64);
        _i0 = (_i0).wrapping_add(1u64);
    }
    out = acc;
    out
}
